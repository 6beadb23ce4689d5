use std::error::Error;
use std::fmt;

/// Error type for video capture and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VideoError {
    /// A raw frame's byte length does not match its format and dimensions.
    BadFrameLength {
        /// Bytes expected.
        expected: usize,
        /// Bytes provided.
        actual: usize,
    },
    /// The BT.656 stream is malformed (bad sync word, failed protection
    /// bits, truncated line).
    Bt656Sync {
        /// Byte offset at which decoding failed.
        offset: usize,
        /// What went wrong.
        reason: &'static str,
    },
    /// The decoded stream did not contain the expected number of active
    /// lines.
    Bt656LineCount {
        /// Active lines expected.
        expected: usize,
        /// Active lines found.
        actual: usize,
    },
    /// A scaler was asked to produce or consume an empty image.
    EmptyImage,
    /// A prepared resample was handed a source of another geometry.
    GeometryMismatch {
        /// `(width, height)` the plan was prepared for.
        expected: (usize, usize),
        /// `(width, height)` of the source provided.
        actual: (usize, usize),
    },
    /// A frame FIFO refused a frame (back-pressure); the frame was dropped.
    FifoFull,
}

impl fmt::Display for VideoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VideoError::BadFrameLength { expected, actual } => {
                write!(f, "frame buffer of {actual} bytes, format needs {expected}")
            }
            VideoError::Bt656Sync { offset, reason } => {
                write!(f, "bt656 stream error at byte {offset}: {reason}")
            }
            VideoError::Bt656LineCount { expected, actual } => {
                write!(
                    f,
                    "bt656 stream held {actual} active lines, expected {expected}"
                )
            }
            VideoError::EmptyImage => write!(f, "empty image in video path"),
            VideoError::GeometryMismatch { expected, actual } => write!(
                f,
                "source of {}x{} pixels, plan expects {}x{}",
                actual.0, actual.1, expected.0, expected.1
            ),
            VideoError::FifoFull => write!(f, "frame fifo full, frame dropped"),
        }
    }
}

impl Error for VideoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VideoError>();
        assert!(VideoError::FifoFull.to_string().contains("fifo"));
    }
}
