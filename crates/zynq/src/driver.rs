//! The kernel-level Linux driver model (paper §V, Fig. 5).
//!
//! The real system allocates DMA-able memory with `kmalloc`, exposes it to
//! user space through `mmap`, and controls read/write offsets through
//! `ioctl` so the application and the accelerator can ping-pong between two
//! halves of each buffer — overlapping the user-space `memcpy` of one row
//! with the hardware processing of the previous. This module models that
//! interface faithfully enough to preserve its two performance-relevant
//! behaviors: the per-request driver overhead and the double-buffer overlap.

use std::sync::Arc;

use wavefuse_trace::MetricsRegistry;

use crate::config::ZynqConfig;
use crate::ZynqError;

/// `ioctl` requests understood by the driver, mirroring the offset controls
/// described in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoctlRequest {
    /// Set the byte offset (in words here) at which the accelerator reads
    /// from the input area.
    SetReadOffset(usize),
    /// Set the word offset at which the accelerator writes the output area.
    /// Range-checked and counted; the model keeps no output area, since
    /// the engine writes results straight into the caller's buffers.
    SetWriteOffset(usize),
    /// Flip both ping-pong buffers.
    SwapBuffers,
}

/// Usage counters kept by the driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// `ioctl` requests served.
    pub ioctls: u64,
    /// Words copied from user space into the DMA area.
    pub words_from_user: u64,
    /// Words copied from the DMA area back to user space.
    pub words_to_user: u64,
    /// Ping-pong swaps performed.
    pub buffer_swaps: u64,
}

/// The wavelet-engine character-device driver model.
///
/// # Examples
///
/// ```
/// use wavefuse_zynq::driver::{IoctlRequest, WaveletDriver};
/// use wavefuse_zynq::ZynqConfig;
///
/// let mut drv = WaveletDriver::open(ZynqConfig::default());
/// drv.ioctl(IoctlRequest::SetReadOffset(0))?;
/// let cycles = drv.copy_from_user(&[1.0, 2.0, 3.0])?;
/// assert!(cycles > 0);
/// assert_eq!(drv.accelerator_input(3)?, &[1.0, 2.0, 3.0]);
/// # Ok::<(), wavefuse_zynq::ZynqError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WaveletDriver {
    cfg: ZynqConfig,
    /// Two ping-pong input areas (the paper: 4096 words split in two).
    in_areas: [Vec<f32>; 2],
    active: usize,
    read_offset: usize,
    stats: DriverStats,
    telemetry: Option<Arc<MetricsRegistry>>,
}

impl WaveletDriver {
    /// Opens the device, `kmalloc`-ing both input DMA areas. The engine
    /// writes its results straight into the caller's buffers, so the
    /// output side is accounted ([`Self::charge_copy_to_user`]) but holds
    /// no data.
    pub fn open(cfg: ZynqConfig) -> Self {
        let words = cfg.bram_words_per_buffer;
        WaveletDriver {
            cfg,
            in_areas: [vec![0.0; words], vec![0.0; words]],
            active: 0,
            read_offset: 0,
            stats: DriverStats::default(),
            telemetry: None,
        }
    }

    /// Attaches a metrics registry: `ioctl` round trips, user-copy word
    /// volumes and ping-pong swaps feed counters from here on.
    pub fn set_telemetry(&mut self, telemetry: Arc<MetricsRegistry>) {
        telemetry.describe(
            "wavefuse_driver_ioctls_total",
            "ioctl requests served by the wavelet driver model",
        );
        telemetry.describe(
            "wavefuse_driver_copy_words_total",
            "Words memcpy'd between user space and the DMA areas",
        );
        self.telemetry = Some(telemetry);
    }

    /// Serves an `ioctl` request.
    ///
    /// # Errors
    ///
    /// Returns [`ZynqError::InvalidIoctl`] for offsets beyond the DMA area.
    pub fn ioctl(&mut self, req: IoctlRequest) -> Result<(), ZynqError> {
        self.stats.ioctls += 1;
        if let Some(m) = &self.telemetry {
            let request = match req {
                IoctlRequest::SetReadOffset(_) => "set_read_offset",
                IoctlRequest::SetWriteOffset(_) => "set_write_offset",
                IoctlRequest::SwapBuffers => "swap_buffers",
            };
            m.counter_add("wavefuse_driver_ioctls_total", &[("request", request)], 1.0);
        }
        let words = self.cfg.bram_words_per_buffer;
        match req {
            IoctlRequest::SetReadOffset(o) => {
                if o >= words {
                    return Err(ZynqError::InvalidIoctl(format!(
                        "read offset {o} beyond {words}-word area"
                    )));
                }
                self.read_offset = o;
            }
            IoctlRequest::SetWriteOffset(o) => {
                if o >= words {
                    return Err(ZynqError::InvalidIoctl(format!(
                        "write offset {o} beyond {words}-word area"
                    )));
                }
            }
            IoctlRequest::SwapBuffers => {
                self.active ^= 1;
                self.stats.buffer_swaps += 1;
            }
        }
        Ok(())
    }

    /// User-space `memcpy` into the active input area at the current read
    /// offset, returning the PS cycles the copy cost.
    ///
    /// # Errors
    ///
    /// Returns [`ZynqError::MappingOutOfRange`] if the data exceeds the
    /// mapped window.
    pub fn copy_from_user(&mut self, data: &[f32]) -> Result<u64, ZynqError> {
        self.copy_pair_from_user(data, &[])
    }

    /// One user-space `memcpy` request carrying two channels back to back
    /// (`a`, then `b`) into the active input area at the current read
    /// offset, returning the PS cycles of the whole request.
    ///
    /// # Errors
    ///
    /// Returns [`ZynqError::MappingOutOfRange`] if the channels exceed the
    /// mapped window.
    pub fn copy_pair_from_user(&mut self, a: &[f32], b: &[f32]) -> Result<u64, ZynqError> {
        let area = &mut self.in_areas[self.active];
        let len = a.len() + b.len();
        let end = self.read_offset + len;
        if end > area.len() {
            return Err(ZynqError::MappingOutOfRange {
                offset: self.read_offset,
                len,
                mapped: area.len(),
            });
        }
        let (dst_a, dst_b) = area[self.read_offset..end].split_at_mut(a.len());
        dst_a.copy_from_slice(a);
        dst_b.copy_from_slice(b);
        Ok(self.charge_copy_from_user(len))
    }

    /// Accounts a user-space `memcpy` of `words` words into the DMA area —
    /// the counters and PS cycles [`Self::copy_from_user`] charges — for
    /// callers that hand the engine its data directly, as the column passes
    /// do.
    pub fn charge_copy_from_user(&mut self, words: usize) -> u64 {
        self.stats.words_from_user += words as u64;
        if let Some(m) = &self.telemetry {
            m.counter_add(
                "wavefuse_driver_copy_words_total",
                &[("direction", "from_user")],
                words as f64,
            );
        }
        user_copy_ps_cycles(words, &self.cfg)
    }

    /// The accelerator-visible view of the active input area (`len` words at
    /// the read offset) — what the engine's hardware `memcpy` fetches.
    ///
    /// # Errors
    ///
    /// Returns [`ZynqError::MappingOutOfRange`] if the window exceeds the
    /// area.
    pub fn accelerator_input(&self, len: usize) -> Result<&[f32], ZynqError> {
        let area = &self.in_areas[self.active];
        let end = self.read_offset + len;
        if end > area.len() {
            return Err(ZynqError::MappingOutOfRange {
                offset: self.read_offset,
                len,
                mapped: area.len(),
            });
        }
        Ok(&area[self.read_offset..end])
    }

    /// Accounts a user-space `memcpy` of `words` result words out of the DMA
    /// area, returning its PS cycles: the kernel's one copy-out per row,
    /// whose results the engine wrote straight into user memory.
    pub fn charge_copy_to_user(&mut self, words: usize) -> u64 {
        self.stats.words_to_user += words as u64;
        if let Some(m) = &self.telemetry {
            m.counter_add(
                "wavefuse_driver_copy_words_total",
                &[("direction", "to_user")],
                words as f64,
            );
        }
        user_copy_ps_cycles(words, &self.cfg)
    }

    /// Usage counters.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Index of the active ping-pong half (0 or 1).
    pub fn active_buffer(&self) -> usize {
        self.active
    }
}

/// PS cycles of one user-space `memcpy` of `words` words to or from the
/// kernel DMA area.
pub(crate) fn user_copy_ps_cycles(words: usize, cfg: &ZynqConfig) -> u64 {
    (words as f64 * cfg.user_memcpy_ps_cycles_per_word).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_driver() {
        let mut drv = WaveletDriver::open(ZynqConfig::default());
        drv.copy_from_user(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(drv.accelerator_input(4).unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        drv.charge_copy_to_user(2);
        let s = drv.stats();
        assert_eq!(s.words_from_user, 4);
        assert_eq!(s.words_to_user, 2);
    }

    #[test]
    fn channel_pair_is_one_request_and_charges_match_the_copies() {
        let cfg = ZynqConfig::default();
        let mut drv = WaveletDriver::open(cfg.clone());
        // 3 + 5 words in one request: one rounded charge for 8 words (12
        // cycles at 1.5 per word), not one per channel (5 + 8).
        let c = drv
            .copy_pair_from_user(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0, 7.0, 8.0])
            .unwrap();
        assert_eq!(c, user_copy_ps_cycles(8, &cfg));
        assert!(c < user_copy_ps_cycles(3, &cfg) + user_copy_ps_cycles(5, &cfg));
        assert_eq!(
            drv.accelerator_input(8).unwrap(),
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        );
        let mut charged = WaveletDriver::open(cfg);
        assert_eq!(charged.charge_copy_from_user(8), c);
        assert_eq!(charged.stats(), drv.stats());
    }

    #[test]
    fn offsets_are_respected() {
        let mut drv = WaveletDriver::open(ZynqConfig::default());
        drv.ioctl(IoctlRequest::SetReadOffset(100)).unwrap();
        drv.copy_from_user(&[7.0]).unwrap();
        assert_eq!(drv.accelerator_input(1).unwrap(), &[7.0]);
        drv.ioctl(IoctlRequest::SetReadOffset(0)).unwrap();
        assert_eq!(drv.accelerator_input(1).unwrap(), &[0.0]);
    }

    #[test]
    fn ping_pong_isolates_buffers() {
        let mut drv = WaveletDriver::open(ZynqConfig::default());
        drv.copy_from_user(&[5.0]).unwrap();
        drv.ioctl(IoctlRequest::SwapBuffers).unwrap();
        assert_eq!(drv.active_buffer(), 1);
        assert_eq!(drv.accelerator_input(1).unwrap(), &[0.0]);
        drv.ioctl(IoctlRequest::SwapBuffers).unwrap();
        assert_eq!(drv.accelerator_input(1).unwrap(), &[5.0]);
        assert_eq!(drv.stats().buffer_swaps, 2);
    }

    #[test]
    fn out_of_range_rejected() {
        let cfg = ZynqConfig::default();
        let words = cfg.bram_words_per_buffer;
        let mut drv = WaveletDriver::open(cfg);
        assert!(drv.ioctl(IoctlRequest::SetReadOffset(words)).is_err());
        drv.ioctl(IoctlRequest::SetReadOffset(words - 1)).unwrap();
        assert!(drv.copy_from_user(&[1.0, 2.0]).is_err());
        assert!(drv.accelerator_input(2).is_err());
        assert!(drv.ioctl(IoctlRequest::SetWriteOffset(words)).is_err());
        drv.ioctl(IoctlRequest::SetWriteOffset(words - 1)).unwrap();
    }

    #[test]
    fn copy_cycles_scale_with_words() {
        let cfg = ZynqConfig::default();
        let mut drv = WaveletDriver::open(cfg.clone());
        let c1 = drv.copy_from_user(&[0.0; 100]).unwrap();
        let c2 = drv.copy_from_user(&[0.0; 200]).unwrap();
        assert_eq!(c2, 2 * c1);
        assert_eq!(
            c1,
            (100.0 * cfg.user_memcpy_ps_cycles_per_word).ceil() as u64
        );
    }
}
