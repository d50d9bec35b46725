//! Reduced-precision `f32` kernels. Callers opt in at runtime by
//! materializing `f32` data (e.g. `hlm-core`'s `RepStore` f32 scoring path);
//! every other numeric path in the workspace stays exact `f64`.

/// Dot product over native `f32` slices with the same 4-lane unroll as the
/// exact `f64` kernel. The lane structure is fixed by the input length
/// alone, so results are deterministic run-to-run and
/// thread-count-independent.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot_f32 length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        s0 += xa[0] * xb[0];
        s1 += xa[1] * xb[1];
        s2 += xa[2] * xb[2];
        s3 += xa[3] * xb[3];
    }
    let mut tail = 0.0f32;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Squared L2 norm of an `f32` slice (`dot_f32(a, a)`).
#[inline]
pub fn sq_norm_f32(a: &[f32]) -> f32 {
    dot_f32(a, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_f32_matches_f64_within_rounding() {
        let a: Vec<f64> = (0..53).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..53).map(|i| (i as f64 * 0.21).cos()).collect();
        let a32: Vec<f32> = a.iter().map(|&x| x as f32).collect();
        let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
        let exact = crate::vector::dot(&a, &b);
        let fast = dot_f32(&a32, &b32) as f64;
        assert!((fast - exact).abs() < 1e-4 * exact.abs().max(1.0));
        assert!((sq_norm_f32(&a32) as f64 - crate::vector::dot(&a, &a)).abs() < 1e-3);
    }

    #[test]
    fn dot_f32_is_deterministic_and_length_checked() {
        let a = vec![1.0f32; 9];
        let b = vec![2.0f32; 9];
        assert_eq!(dot_f32(&a, &b).to_bits(), dot_f32(&a, &b).to_bits());
        assert_eq!(dot_f32(&a, &b), 18.0);
    }
}
