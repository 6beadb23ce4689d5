//! Minimal PGM (portable graymap) reader/writer.
//!
//! The paper demonstrates its system by displaying captured and fused
//! frames (Fig. 8); this reproduction writes them as binary PGM (`P5`)
//! files, which every image viewer opens and which keep the examples free
//! of image-codec dependencies.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use wavefuse_dtcwt::Image;

/// Writes an image as an 8-bit binary PGM file, clamping pixel values to
/// `[0, 1]`.
///
/// # Errors
///
/// Propagates I/O errors from file creation and writing.
///
/// # Examples
///
/// ```no_run
/// use wavefuse_dtcwt::Image;
/// use wavefuse_video::pgm;
///
/// let img = Image::filled(8, 8, 0.5);
/// pgm::write_pgm(&img, "out/frame.pgm")?;
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn write_pgm(img: &Image, path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let (w, h) = img.dims();
    let mut out = Vec::with_capacity(32 + w * h);
    write!(&mut out, "P5\n{w} {h}\n255\n")?;
    out.extend(
        img.as_slice()
            .iter()
            .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8),
    );
    fs::write(path, out)
}

/// Reads an 8-bit binary PGM file back into an image with values in
/// `[0, 1]`.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] for malformed headers or
/// truncated payloads, and propagates file-read errors.
pub fn read_pgm(path: impl AsRef<Path>) -> io::Result<Image> {
    let bytes = fs::read(path)?;
    parse_pgm(&bytes)
}

fn parse_pgm(bytes: &[u8]) -> io::Result<Image> {
    let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, format!("pgm: {why}"));
    // Header: "P5" then three whitespace-separated integers (w, h, maxval),
    // with '#' comments allowed, then a single whitespace before the raster.
    if bytes.len() < 2 || &bytes[0..2] != b"P5" {
        return Err(bad("missing P5 magic"));
    }
    let mut pos = 2;
    let mut fields = [0usize; 3];
    for field in &mut fields {
        // Skip whitespace and comments.
        loop {
            while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if pos < bytes.len() && bytes[pos] == b'#' {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            } else {
                break;
            }
        }
        let start = pos;
        while pos < bytes.len() && bytes[pos].is_ascii_digit() {
            pos += 1;
        }
        if start == pos {
            return Err(bad("truncated header"));
        }
        *field = std::str::from_utf8(&bytes[start..pos])
            .map_err(|_| bad("non-utf8 header"))?
            .parse()
            .map_err(|_| bad("unparseable header field"))?;
    }
    let [w, h, maxval] = fields;
    if maxval == 0 || maxval > 255 {
        return Err(bad("unsupported maxval"));
    }
    // Single whitespace separator before the raster.
    if pos >= bytes.len() || !bytes[pos].is_ascii_whitespace() {
        return Err(bad("missing raster separator"));
    }
    pos += 1;
    let raster = &bytes[pos..];
    let pixels = w.checked_mul(h).ok_or_else(|| bad("dimensions overflow"))?;
    if raster.len() != pixels {
        return Err(bad("raster length mismatch"));
    }
    let data: Vec<f32> = raster.iter().map(|&b| b as f32 / maxval as f32).collect();
    Image::from_vec(w, h, data).map_err(|_| bad("inconsistent dimensions"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wavefuse-pgm-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip() {
        let img = Image::from_fn(7, 5, |x, y| ((x + y * 7) as f32 / 34.0).clamp(0.0, 1.0));
        let path = tmp("roundtrip.pgm");
        write_pgm(&img, &path).unwrap();
        let back = read_pgm(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.dims(), (7, 5));
        // 8-bit quantization error bound.
        assert!(back.max_abs_diff(&img) <= 0.5 / 255.0 + 1e-6);
    }

    #[test]
    fn clamps_out_of_range() {
        let mut img = Image::filled(2, 1, 2.0);
        img.set(1, 0, -3.0);
        let path = tmp("clamp.pgm");
        write_pgm(&img, &path).unwrap();
        let back = read_pgm(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.get(0, 0), 1.0);
        assert_eq!(back.get(1, 0), 0.0);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_pgm(b"P6\n1 1\n255\n\0").is_err());
        assert!(parse_pgm(b"P5\n2 2\n255\n\0\0\0").is_err()); // short raster
        assert!(parse_pgm(b"P5\n2").is_err());
        assert!(parse_pgm(b"P5\n1 1\n0\n\0").is_err());
    }

    #[test]
    fn rejects_dimensions_whose_product_overflows() {
        // 2^32 x 2^32 wraps to 0 on 64-bit hosts, matching the empty raster.
        let err = parse_pgm(b"P5\n4294967296 4294967296\n255\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn parses_comments() {
        let img = parse_pgm(b"P5\n# a comment\n2 1\n255\n\x00\xff").unwrap();
        assert_eq!(img.dims(), (2, 1));
        assert_eq!(img.get(1, 0), 1.0);
    }

    #[test]
    fn creates_parent_directories() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("wavefuse-pgm-dir-{}", std::process::id()));
        let path = dir.join("nested/frame.pgm");
        write_pgm(&Image::filled(2, 2, 0.5), &path).unwrap();
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
