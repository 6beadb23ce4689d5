use std::error::Error;
use std::fmt;

/// Error type for the simulated ZYNQ platform.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ZynqError {
    /// A transfer would overrun a BRAM or kernel DMA buffer.
    BufferOverrun {
        /// What was being written (e.g. `"input bram"`).
        what: &'static str,
        /// Words requested.
        requested: usize,
        /// Words available.
        capacity: usize,
    },
    /// The engine was commanded before filter coefficients were loaded.
    CoefficientsNotLoaded,
    /// A filter exceeds the engine's fixed coefficient-register depth.
    FilterTooLong {
        /// Taps requested.
        taps: usize,
        /// Hardware register depth.
        max_taps: usize,
    },
    /// A forward row's lowpass and highpass outputs differ in length, or
    /// are empty.
    RowShape {
        /// Lowpass output words.
        lo: usize,
        /// Highpass output words.
        hi: usize,
    },
    /// An `ioctl`-style driver request was malformed.
    InvalidIoctl(String),
    /// An access through a user mapping fell outside the mapped window.
    MappingOutOfRange {
        /// Offset accessed (words).
        offset: usize,
        /// Words accessed.
        len: usize,
        /// Mapped window size (words).
        mapped: usize,
    },
}

impl fmt::Display for ZynqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZynqError::BufferOverrun {
                what,
                requested,
                capacity,
            } => write!(
                f,
                "{what} overrun: {requested} words requested, capacity {capacity}"
            ),
            ZynqError::CoefficientsNotLoaded => {
                write!(f, "wavelet engine commanded before coefficient load")
            }
            ZynqError::FilterTooLong { taps, max_taps } => write!(
                f,
                "filter of {taps} taps exceeds engine register depth {max_taps}"
            ),
            ZynqError::RowShape { lo, hi } => write!(
                f,
                "forward row needs equal, non-empty outputs: lo {lo} words, hi {hi} words"
            ),
            ZynqError::InvalidIoctl(why) => write!(f, "invalid ioctl request: {why}"),
            ZynqError::MappingOutOfRange {
                offset,
                len,
                mapped,
            } => write!(
                f,
                "mapped access of {len} words at offset {offset} exceeds window of {mapped} words"
            ),
        }
    }
}

impl Error for ZynqError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_displays() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ZynqError>();
        assert!(ZynqError::CoefficientsNotLoaded
            .to_string()
            .contains("engine"));
    }
}
