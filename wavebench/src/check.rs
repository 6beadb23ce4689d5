//! Output checks and process measurements kept out of every timed interval.

use wavefuse_dtcwt::Image;

/// FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds an image's pixel bits into an FNV-1a 64 digest (little-endian
/// bytes of each `f32`), the same fold `wavefuse_core::serve` digests with.
pub fn fnv1a_image(mut hash: u64, img: &Image) -> u64 {
    for &px in img.as_slice() {
        for byte in px.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Whether two images have the same geometry and the same pixel bits.
pub fn bit_equal(a: &Image, b: &Image) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether every pixel is finite.
pub fn all_finite(img: &Image) -> bool {
    img.as_slice().iter().all(|v| v.is_finite())
}

/// Peak resident set size of this process so far, MiB (the kernel's
/// `VmHWM`, read through `getrusage`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mib() -> f64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval` (4 x i64), then
    // 14 `long` fields, the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage([0; 18]);
    // SAFETY: `usage` is a writable buffer of exactly the size and alignment
    // of the C `struct rusage` on this target, and `getrusage` writes only
    // within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.0[4] as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_and_equality_see_every_bit() {
        let a = Image::zeros(4, 3);
        let mut b = a.clone();
        assert!(bit_equal(&a, &b));
        assert_eq!(fnv1a_image(FNV_OFFSET, &a), fnv1a_image(FNV_OFFSET, &b));
        b.set(1, 1, -0.0);
        assert!(!bit_equal(&a, &b), "negative zero differs in its bits");
        assert_ne!(fnv1a_image(FNV_OFFSET, &a), fnv1a_image(FNV_OFFSET, &b));
        b.set(2, 2, f32::NAN);
        assert!(!all_finite(&b));
        assert!(all_finite(&a));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 1.0);
    }
}
