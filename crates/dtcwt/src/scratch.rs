//! Reusable scratch arenas and buffer pools for allocation-free transforms.
//!
//! The paper's PL engine streams rows through ping-pong BRAM line buffers and
//! never allocates per frame; the software path mirrors that discipline here.
//! A [`Scratch`] owns every intermediate a multi-level DT-CWT needs — row
//! extension buffers, per-level staging images, transpose staging — so the
//! `*_into` transform entry points perform **zero heap allocation after
//! warm-up**: every buffer is grown on first use and reused thereafter.
//!
//! [`PoolHandle`] is the frame-path analogue: a shared free list of pixel
//! buffers the pipeline ping-pongs capture/output images through, with
//! hit/miss and bytes-allocated accounting for the telemetry layer.

use std::sync::{Arc, Mutex};

use crate::dwt2d::Subbands;
use crate::image::Image;

/// Cumulative counters of a [`PoolHandle`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from the free list.
    pub hits: u64,
    /// Acquisitions that had to allocate a fresh buffer.
    pub misses: u64,
    /// Total bytes allocated by misses.
    pub bytes_allocated: u64,
}

#[derive(Debug, Default)]
struct BufferPool {
    free: Vec<Vec<f32>>,
    stats: PoolStats,
}

/// Shared pool of `f32` pixel buffers with drop-free recycling.
///
/// Cloning the handle shares the same pool. Buffers released back to a full
/// free list are dropped rather than grown, bounding retained memory.
///
/// # Examples
///
/// ```
/// use wavefuse_dtcwt::scratch::PoolHandle;
///
/// let pool = PoolHandle::new();
/// let img = pool.acquire(88, 72);
/// pool.release(img);
/// let again = pool.acquire(88, 72); // served from the free list
/// assert_eq!(pool.stats().hits, 1);
/// assert_eq!(pool.stats().misses, 1);
/// # drop(again);
/// ```
#[derive(Debug, Clone)]
pub struct PoolHandle {
    inner: Arc<Mutex<BufferPool>>,
}

/// Free-list capacity: enough for the pipeline's frames in flight (two
/// capture images, one output, plus slack for bursts) without unbounded
/// growth. Fixed so `release` never reallocates the list itself.
const POOL_FREE_SLOTS: usize = 32;

impl PoolHandle {
    /// Creates an empty pool.
    pub fn new() -> Self {
        PoolHandle {
            inner: Arc::new(Mutex::new(BufferPool {
                free: Vec::with_capacity(POOL_FREE_SLOTS),
                stats: PoolStats::default(),
            })),
        }
    }

    /// Acquires a zeroed `width` x `height` image, reusing a pooled buffer
    /// whose capacity suffices if one exists.
    pub fn acquire(&self, width: usize, height: usize) -> Image {
        let len = width * height;
        let mut v = {
            let mut pool = self.inner.lock().expect("buffer pool poisoned");
            match pool.free.iter().position(|b| b.capacity() >= len) {
                Some(i) => {
                    pool.stats.hits += 1;
                    pool.free.swap_remove(i)
                }
                None => {
                    pool.stats.misses += 1;
                    pool.stats.bytes_allocated += (len * std::mem::size_of::<f32>()) as u64;
                    Vec::with_capacity(len)
                }
            }
        };
        v.clear();
        v.resize(len, 0.0);
        Image::from_vec(width, height, v).expect("pooled buffer length matches")
    }

    /// Returns an image's buffer to the free list (dropped if the list is
    /// full).
    pub fn release(&self, img: Image) {
        let v = img.into_vec();
        let mut pool = self.inner.lock().expect("buffer pool poisoned");
        if pool.free.len() < POOL_FREE_SLOTS {
            pool.free.push(v);
        }
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().expect("buffer pool poisoned").stats
    }

    /// Pre-fills the free list so the next `count` acquisitions of
    /// `width` x `height` images are hits. Only as many buffers as are
    /// missing get allocated (free buffers with sufficient capacity count
    /// toward `count`), bounded by the free-list capacity. Reservation is a
    /// reconfigure-time action, so it charges neither the hit nor the miss
    /// counters — those track steady-state behavior.
    pub fn preallocate(&self, width: usize, height: usize, count: usize) {
        let len = width * height;
        let mut pool = self.inner.lock().expect("buffer pool poisoned");
        let have = pool.free.iter().filter(|b| b.capacity() >= len).count();
        let room = POOL_FREE_SLOTS.saturating_sub(pool.free.len());
        for _ in 0..count.saturating_sub(have).min(room) {
            pool.free.push(Vec::with_capacity(len));
        }
    }

    /// Number of buffers currently on the free list (pre-allocated plus
    /// released).
    pub fn free_buffers(&self) -> usize {
        self.inner.lock().expect("buffer pool poisoned").free.len()
    }
}

impl Default for PoolHandle {
    fn default() -> Self {
        PoolHandle::new()
    }
}

/// Row-transform scratch: extension buffers and the raw synthesis row.
///
/// Used by [`crate::dwt1d::analyze_into`] / [`crate::dwt1d::synthesize_into`].
#[derive(Debug, Default)]
pub struct Scratch1d {
    pub(crate) ext: Vec<f32>,
    pub(crate) lo_ext: Vec<f32>,
    pub(crate) hi_ext: Vec<f32>,
    pub(crate) raw: Vec<f32>,
}

impl Scratch1d {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Scratch1d::default()
    }
}

/// Column-pass scratch shared by every [`crate::kernel::FilterKernel`]
/// implementation of the vertical pass.
///
/// The NEON kernels use only the wrapped row-index windows (`idx0`/`idx1`),
/// leaving the staging images empty; the FPGA kernel keeps its column
/// scratch in its engine and uses neither; the transpose-based fallback
/// uses the staging images and never touches the index windows. Both sets
/// live here so one warmed scratch serves either path without
/// reallocation.
#[derive(Debug)]
pub struct ColScratch {
    /// Fallback transposed staging A (input of the column pass).
    pub ta: Image,
    /// Fallback transposed staging B (second input / low output).
    pub tb: Image,
    /// Fallback transposed staging C (high output / raw column synthesis).
    pub tc: Image,
    /// Columnar path: wrapped source-row indices of the lowpass tap window.
    pub idx0: Vec<usize>,
    /// Columnar path: wrapped source-row indices of the highpass tap window.
    pub idx1: Vec<usize>,
}

impl ColScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        ColScratch {
            ta: Image::zeros(0, 0),
            tb: Image::zeros(0, 0),
            tc: Image::zeros(0, 0),
            idx0: Vec::new(),
            idx1: Vec::new(),
        }
    }
}

impl Default for ColScratch {
    fn default() -> Self {
        ColScratch::new()
    }
}

/// Level-transform scratch: the row-pass halves and the column-pass scratch
/// of one separable 2-D step.
#[derive(Debug)]
pub struct Scratch2d {
    /// Row-pass lowpass half (analysis) / column-synthesized low half.
    pub(crate) low: Image,
    /// Row-pass highpass half / column-synthesized high half.
    pub(crate) high: Image,
    /// Column-pass scratch (index windows; transpose staging for fallbacks).
    pub(crate) col: ColScratch,
}

impl Scratch2d {
    /// Creates an empty scratch; images grow on first use.
    pub fn new() -> Self {
        Scratch2d {
            low: Image::zeros(0, 0),
            high: Image::zeros(0, 0),
            col: ColScratch::new(),
        }
    }
}

impl Default for Scratch2d {
    fn default() -> Self {
        Scratch2d::new()
    }
}

/// Everything one multi-level DT-CWT worker needs to run without allocating:
/// the 1-D and 2-D scratch, the level-1 row halves a row tree's two combos
/// share, the per-combo level ping-pong images and the quad-extraction
/// staging of the inverse.
#[derive(Debug)]
pub struct Scratch {
    pub(crate) s1: Scratch1d,
    pub(crate) s2: Scratch2d,
    /// Current level input (ping).
    pub(crate) cur: Image,
    /// Next level input / level output (pong).
    pub(crate) next: Image,
    /// Even-padded copy of `cur` for odd-sized levels (of the input, at
    /// level 1).
    pub(crate) padded: Image,
    /// Level-1 row-pass halves of one row tree, shared by its two combos.
    pub(crate) rows_low: Image,
    pub(crate) rows_high: Image,
    /// Per-level real detail extracted from the complex subbands (inverse).
    pub(crate) qlh: Image,
    pub(crate) qhl: Image,
    pub(crate) qhh: Image,
}

impl Scratch {
    /// Creates an empty scratch; every buffer grows on first use and is
    /// reused on subsequent frames of the same geometry.
    pub fn new() -> Self {
        Scratch {
            s1: Scratch1d::new(),
            s2: Scratch2d::new(),
            cur: Image::zeros(0, 0),
            next: Image::zeros(0, 0),
            padded: Image::zeros(0, 0),
            rows_low: Image::zeros(0, 0),
            rows_high: Image::zeros(0, 0),
            qlh: Image::zeros(0, 0),
            qhl: Image::zeros(0, 0),
            qhh: Image::zeros(0, 0),
        }
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch::new()
    }
}

/// Caller-owned per-combo output storage of a pooled DT-CWT forward pass.
///
/// The transform writes each tree combination's real detail pyramid and
/// lowpass residual here; [`crate::Dtcwt::forward_into`] then assembles the
/// complex pyramid from them. Keeping this outside [`Scratch`] lets worker
/// threads own a `Scratch` each while the per-combo results live with the
/// dispatcher.
#[derive(Debug, Default)]
pub struct ComboStore {
    /// One slot per tree combination, in `(row_tree, col_tree)` order
    /// AA, AB, BA, BB.
    pub slots: [ComboSlot; 4],
}

/// One tree combination's output buffers.
#[derive(Debug, Default)]
pub struct ComboSlot {
    /// Real detail subbands per level (0 = finest).
    pub detail: Vec<Subbands>,
    /// Lowpass residual.
    pub ll: Image,
}

impl ComboStore {
    /// Creates an empty store; buffers grow on first use.
    pub fn new() -> Self {
        ComboStore::default()
    }

    /// Pre-sizes every combo slot for a `levels`-deep analysis of
    /// `width` x `height` frames, so a reconfigure pays the buffer growth
    /// once instead of spreading it over the first frame: each level's
    /// detail subbands and the lowpass residual get their final dimensions
    /// (each level pads to even, then halves — the same recurrence the
    /// transform uses). Already-large-enough buffers are kept.
    pub fn reserve(&mut self, width: usize, height: usize, levels: usize) {
        let ensure = |img: &mut Image, w: usize, h: usize| {
            if img.width() * img.height() < w * h {
                *img = Image::zeros(w, h);
            }
        };
        for slot in &mut self.slots {
            while slot.detail.len() < levels {
                slot.detail.push(Subbands::empty());
            }
            let (mut w, mut h) = (width, height);
            for det in slot.detail.iter_mut().take(levels) {
                let (sw, sh) = ((w + w % 2) / 2, (h + h % 2) / 2);
                ensure(&mut det.lh, sw, sh);
                ensure(&mut det.hl, sw, sh);
                ensure(&mut det.hh, sw, sh);
                (w, h) = (sw, sh);
            }
            ensure(&mut slot.ll, w, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_buffers() {
        let pool = PoolHandle::new();
        let a = pool.acquire(8, 4);
        assert_eq!(a.dims(), (8, 4));
        pool.release(a);
        let b = pool.acquire(4, 4); // smaller: the 32-slot buffer is reused
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.bytes_allocated, 8 * 4 * 4);
        pool.release(b);
    }

    #[test]
    fn pool_allocates_when_too_small() {
        let pool = PoolHandle::new();
        pool.release(pool.acquire(2, 2));
        let big = pool.acquire(16, 16);
        assert_eq!(pool.stats().misses, 2);
        assert_eq!(big.dims(), (16, 16));
    }

    #[test]
    fn acquired_images_are_zeroed() {
        let pool = PoolHandle::new();
        let mut a = pool.acquire(4, 4);
        a.set(1, 1, 7.0);
        pool.release(a);
        let b = pool.acquire(4, 4);
        assert_eq!(b.get(1, 1), 0.0);
    }

    #[test]
    fn clones_share_the_pool() {
        let pool = PoolHandle::new();
        let other = pool.clone();
        other.release(other.acquire(4, 4));
        assert_eq!(pool.stats().hits, other.stats().hits);
        let _ = pool.acquire(4, 4);
        assert_eq!(pool.stats().hits, 1);
    }
}
