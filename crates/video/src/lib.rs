//! Video capture substrate: frames, the BT.656 decoder path, scaling,
//! FIFOs, and synthetic dual-sensor sources.
//!
//! The paper's system (Fig. 7) captures a visible stream from a USB webcam
//! (decoded on the PS) and a thermal stream from a Thermoteknix MicroCAM
//! over an FMC connector, decoded by a custom ITU-R BT.656 decoder on the
//! PL, scaled from its 720x243 field format to 640x480, and gated through
//! an output FIFO so a new frame is only accepted once the wavelet engine
//! has taken the previous one. Physical cameras are not available to this
//! reproduction, so [`scene::ScenePair`] renders a parametric scene to both
//! modalities (visible texture vs. thermal emission) and the camera models
//! in [`camera`] stream it through the *same* decode → scale → FIFO path.
//!
//! # Examples
//!
//! ```
//! use wavefuse_video::camera::{ThermalCamera, WebCamera};
//! use wavefuse_video::scene::ScenePair;
//!
//! let scene = ScenePair::new(7);
//! let mut web = WebCamera::new(scene.clone(), 160, 120);
//! let mut thermal = ThermalCamera::new(scene, 80, 60);
//! let visible = web.capture();          // PS-side USB decode
//! let ir = thermal.capture()?;          // PL-side BT.656 decode + scale
//! assert_eq!(visible.image().dims(), (160, 120));
//! assert_eq!(ir.image().dims(), (80, 60));
//! # Ok::<(), wavefuse_video::VideoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bt656;
pub mod camera;
pub mod fifo;
pub mod frame;
pub mod pgm;
pub mod scaler;
pub mod scene;

mod error;

pub use error::VideoError;
pub use frame::{Frame, PixelFormat, RawFrame};
