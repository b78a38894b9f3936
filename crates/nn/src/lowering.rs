//! im2col/col2im lowering used by the convolution layers.
//!
//! A stride-1, symmetrically zero-padded convolution over one sample is
//! lowered to a single GEMM: the input patches are unrolled into a
//! `[cin * kh * kw, out_positions]` column matrix (`im2col`), the kernel
//! tensor is viewed as a `[cout, cin * kh * kw]` matrix, and the product
//! is the `[cout, out_positions]` output map. The transposed lowering
//! (`col2im`) scatters column-space gradients back onto the input grid.
//!
//! Row order within the column matrix is `(ci, ky, kx)` — identical to
//! the kernel tensor's memory layout — so the GEMM accumulates partial
//! products in exactly the order the former nested-loop kernels did,
//! keeping forward outputs bit-identical to the pre-lowering
//! implementation.
//!
//! These functions are `pub` so the benchmark harness can measure the
//! lowering in isolation; they are not part of the supported model API.

use noodle_trace::{EventKind, KernelTimer};

/// Unrolls one `[cin, h, w]` sample into `cols = [cin * k * k, oh * ow]`
/// for a stride-1 convolution with square kernel `k` and symmetric zero
/// padding `pad`, where `oh = h + 2*pad - k + 1` (and likewise `ow`).
///
/// `cols` is a caller-owned scratch buffer; every element is written
/// (padding positions are zero-filled), so it can be reused across
/// samples without clearing.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn im2col_2d(
    x: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    k: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    assert_eq!(x.len(), cin * h * w, "im2col_2d: input length mismatch");
    assert_eq!(cols.len(), cin * k * k * oh * ow, "im2col_2d: cols length mismatch");
    let _prof = KernelTimer::start(EventKind::Im2col, 0, (4 * (x.len() + cols.len())) as u64);
    for ci in 0..cin {
        for ky in 0..k {
            for kx in 0..k {
                let row = &mut cols[((ci * k + ky) * k + kx) * (oh * ow)..][..oh * ow];
                // Valid output columns: pad <= ox + kx < pad + w.
                let lo = pad.saturating_sub(kx);
                let hi = (pad + w).saturating_sub(kx).min(ow);
                for oy in 0..oh {
                    let dst = &mut row[oy * ow..][..ow];
                    let sy = oy + ky;
                    if sy < pad || sy >= pad + h || lo >= hi {
                        dst.fill(0.0);
                        continue;
                    }
                    dst[..lo].fill(0.0);
                    dst[hi..].fill(0.0);
                    let src = &x[(ci * h + (sy - pad)) * w..][..w];
                    dst[lo..hi].copy_from_slice(&src[lo + kx - pad..hi + kx - pad]);
                }
            }
        }
    }
}

/// Accumulates column-space gradients `cols = [cin * k * k, oh * ow]`
/// back onto the `[cin, h, w]` input-gradient grid (`gx += scatter(cols)`),
/// the adjoint of [`im2col_2d`].
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn col2im_2d(
    cols: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    k: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    gx: &mut [f32],
) {
    assert_eq!(gx.len(), cin * h * w, "col2im_2d: grad length mismatch");
    assert_eq!(cols.len(), cin * k * k * oh * ow, "col2im_2d: cols length mismatch");
    let _prof = KernelTimer::start(
        EventKind::Col2im,
        cols.len() as u64,
        (4 * (gx.len() + cols.len())) as u64,
    );
    for ci in 0..cin {
        for ky in 0..k {
            for kx in 0..k {
                let row = &cols[((ci * k + ky) * k + kx) * (oh * ow)..][..oh * ow];
                let lo = pad.saturating_sub(kx);
                let hi = (pad + w).saturating_sub(kx).min(ow);
                if lo >= hi {
                    continue;
                }
                for oy in 0..oh {
                    let sy = oy + ky;
                    if sy < pad || sy >= pad + h {
                        continue;
                    }
                    let src = &row[oy * ow..][..ow];
                    let dst = &mut gx[(ci * h + (sy - pad)) * w..][..w];
                    for (d, s) in dst[lo + kx - pad..hi + kx - pad].iter_mut().zip(&src[lo..hi]) {
                        *d += *s;
                    }
                }
            }
        }
    }
}

/// Unrolls one `[cin, len]` sample into `cols = [cin * k, out_len]` for a
/// stride-1 convolution with kernel width `k` and symmetric zero padding
/// `pad`, where `out_len = len + 2*pad - k + 1`. The 1-D analogue of
/// [`im2col_2d`]; every element of `cols` is written.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn im2col_1d(
    x: &[f32],
    cin: usize,
    len: usize,
    k: usize,
    pad: usize,
    out_len: usize,
    cols: &mut [f32],
) {
    assert_eq!(x.len(), cin * len, "im2col_1d: input length mismatch");
    assert_eq!(cols.len(), cin * k * out_len, "im2col_1d: cols length mismatch");
    let _prof = KernelTimer::start(EventKind::Im2col, 0, (4 * (x.len() + cols.len())) as u64);
    for ci in 0..cin {
        for kk in 0..k {
            let row = &mut cols[(ci * k + kk) * out_len..][..out_len];
            // Valid output positions: pad <= t + kk < pad + len.
            let lo = pad.saturating_sub(kk);
            let hi = (pad + len).saturating_sub(kk).min(out_len);
            if lo >= hi {
                row.fill(0.0);
                continue;
            }
            row[..lo].fill(0.0);
            row[hi..].fill(0.0);
            let src = &x[ci * len..][..len];
            row[lo..hi].copy_from_slice(&src[lo + kk - pad..hi + kk - pad]);
        }
    }
}

/// Accumulates column-space gradients `cols = [cin * k, out_len]` back
/// onto the `[cin, len]` input-gradient grid, the adjoint of
/// [`im2col_1d`].
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn col2im_1d(
    cols: &[f32],
    cin: usize,
    len: usize,
    k: usize,
    pad: usize,
    out_len: usize,
    gx: &mut [f32],
) {
    assert_eq!(gx.len(), cin * len, "col2im_1d: grad length mismatch");
    assert_eq!(cols.len(), cin * k * out_len, "col2im_1d: cols length mismatch");
    let _prof = KernelTimer::start(
        EventKind::Col2im,
        cols.len() as u64,
        (4 * (gx.len() + cols.len())) as u64,
    );
    for ci in 0..cin {
        for kk in 0..k {
            let row = &cols[(ci * k + kk) * out_len..][..out_len];
            let lo = pad.saturating_sub(kk);
            let hi = (pad + len).saturating_sub(kk).min(out_len);
            if lo >= hi {
                continue;
            }
            let dst = &mut gx[ci * len..][..len];
            for (d, s) in dst[lo + kk - pad..hi + kk - pad].iter_mut().zip(&row[lo..hi]) {
                *d += *s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference im2col written as the direct index formula.
    #[allow(clippy::too_many_arguments)]
    fn im2col_2d_naive(
        x: &[f32],
        cin: usize,
        h: usize,
        w: usize,
        k: usize,
        pad: usize,
        oh: usize,
        ow: usize,
    ) -> Vec<f32> {
        let mut cols = vec![0.0; cin * k * k * oh * ow];
        for ci in 0..cin {
            for ky in 0..k {
                for kx in 0..k {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let (sy, sx) = (oy + ky, ox + kx);
                            let v = if sy >= pad && sy < pad + h && sx >= pad && sx < pad + w {
                                x[(ci * h + (sy - pad)) * w + (sx - pad)]
                            } else {
                                0.0
                            };
                            cols[(((ci * k + ky) * k + kx) * oh + oy) * ow + ox] = v;
                        }
                    }
                }
            }
        }
        cols
    }

    #[test]
    fn im2col_2d_matches_naive_indexing() {
        for (cin, h, w, k, pad) in [(1, 3, 3, 2, 0), (2, 4, 5, 3, 1), (3, 2, 2, 3, 2)] {
            let (oh, ow) = (h + 2 * pad - k + 1, w + 2 * pad - k + 1);
            let x: Vec<f32> = (0..cin * h * w).map(|i| i as f32 + 1.0).collect();
            // Poison the scratch to prove every element is rewritten.
            let mut cols = vec![f32::NAN; cin * k * k * oh * ow];
            im2col_2d(&x, cin, h, w, k, pad, oh, ow, &mut cols);
            assert_eq!(cols, im2col_2d_naive(&x, cin, h, w, k, pad, oh, ow));
        }
    }

    #[test]
    fn col2im_2d_is_adjoint_of_im2col_2d() {
        // <im2col(x), c> == <x, col2im(c)> for the scatter/gather pair.
        let (cin, h, w, k, pad) = (2, 3, 4, 3, 1);
        let (oh, ow) = (h + 2 * pad - k + 1, w + 2 * pad - k + 1);
        let x: Vec<f32> = (0..cin * h * w).map(|i| (i as f32).sin()).collect();
        let c: Vec<f32> = (0..cin * k * k * oh * ow).map(|i| (i as f32).cos()).collect();
        let mut cols = vec![0.0; c.len()];
        im2col_2d(&x, cin, h, w, k, pad, oh, ow, &mut cols);
        let lhs: f64 = cols.iter().zip(&c).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let mut gx = vec![0.0; x.len()];
        col2im_2d(&c, cin, h, w, k, pad, oh, ow, &mut gx);
        let rhs: f64 = x.iter().zip(&gx).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        assert!((lhs - rhs).abs() < 1e-4, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn im2col_1d_matches_direct_indexing() {
        for (cin, len, k, pad) in [(1, 4, 2, 0), (2, 5, 3, 1), (1, 2, 3, 2)] {
            let out_len = len + 2 * pad - k + 1;
            let x: Vec<f32> = (0..cin * len).map(|i| i as f32 + 1.0).collect();
            let mut cols = vec![f32::NAN; cin * k * out_len];
            im2col_1d(&x, cin, len, k, pad, out_len, &mut cols);
            for ci in 0..cin {
                for kk in 0..k {
                    for t in 0..out_len {
                        let src = t + kk;
                        let expect = if src >= pad && src < pad + len {
                            x[ci * len + (src - pad)]
                        } else {
                            0.0
                        };
                        assert_eq!(cols[(ci * k + kk) * out_len + t], expect);
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_1d_is_adjoint_of_im2col_1d() {
        let (cin, len, k, pad) = (2, 5, 3, 1);
        let out_len = len + 2 * pad - k + 1;
        let x: Vec<f32> = (0..cin * len).map(|i| (i as f32).sin()).collect();
        let c: Vec<f32> = (0..cin * k * out_len).map(|i| (i as f32).cos()).collect();
        let mut cols = vec![0.0; c.len()];
        im2col_1d(&x, cin, len, k, pad, out_len, &mut cols);
        let lhs: f64 = cols.iter().zip(&c).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let mut gx = vec![0.0; x.len()];
        col2im_1d(&c, cin, len, k, pad, out_len, &mut gx);
        let rhs: f64 = x.iter().zip(&gx).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        assert!((lhs - rhs).abs() < 1e-4, "adjoint mismatch: {lhs} vs {rhs}");
    }
}
