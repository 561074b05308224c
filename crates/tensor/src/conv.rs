//! im2col / col2im lowering for convolution.
//!
//! A convolution over an `(N, C, H, W)` feature map with `(Cout, Cin, K, K)`
//! filters is computed as a GEMM between the filter matrix
//! `(Cout, Cin·K·K)` and the *column matrix* `(Cin·K·K, Hout·Wout)` built
//! per batch item by [`im2col`]. The reverse scatter [`col2im`] implements
//! the input-gradient path of the backward pass.
//!
//! [`im2col`] is backend-dispatched ([`im2col_on`]): the scalar backend
//! keeps the obviously-correct per-element gather below, while the SIMD
//! backends replace it with zero-fill plus contiguous/strided span
//! copies of the valid output range — pure data movement, so every
//! backend produces identical bytes.

use crate::backend::{self, Backend};
use crate::Tensor;

/// Geometry of a 2-D convolution (square kernels, symmetric padding).
///
/// # Examples
///
/// ```
/// use antidote_tensor::conv::ConvGeometry;
///
/// // A 3x3, stride-1, pad-1 conv preserves spatial size.
/// let g = ConvGeometry::new(3, 1, 1);
/// assert_eq!(g.output_size(32, 32), (32, 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on each spatial border.
    pub padding: usize,
}

impl ConvGeometry {
    /// Creates a geometry descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Self {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of `(h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        let hp = h + 2 * self.padding;
        let wp = w + 2 * self.padding;
        assert!(
            hp >= self.kernel && wp >= self.kernel,
            "kernel {} does not fit input {}x{} with padding {}",
            self.kernel,
            h,
            w,
            self.padding
        );
        (
            (hp - self.kernel) / self.stride + 1,
            (wp - self.kernel) / self.stride + 1,
        )
    }
}

/// Unfolds one `(C, H, W)` image into the column matrix
/// `(C·K·K, Hout·Wout)` for GEMM-based convolution.
///
/// `input` is the raw row-major `(C, H, W)` data; `out` must have exactly
/// `c * k * k * hout * wout` elements and is fully overwritten. Generic
/// over the element so the fp32 layers and the int8 executor in
/// `antidote-nn` share one unfold; padding is `T::default()` (0 / 0.0).
///
/// # Panics
///
/// Panics (debug) if slice lengths disagree with the geometry.
pub fn im2col<T: Copy + Default>(
    input: &[T],
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    out: &mut [T],
) {
    im2col_on(backend::active(), input, c, h, w, geom, out);
}

/// [`im2col`] on an explicit kernel [`Backend`]. Packing is pure data
/// movement, so every backend writes identical bytes; the non-scalar
/// backends just do it with span copies instead of a per-element gather.
///
/// # Panics
///
/// Panics if `be` is not supported on this host.
pub fn im2col_on<T: Copy + Default>(
    be: Backend,
    input: &[T],
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    out: &mut [T],
) {
    be.assert_supported();
    let k = geom.kernel;
    let (hout, wout) = geom.output_size(h, w);
    debug_assert_eq!(input.len(), c * h * w);
    debug_assert_eq!(out.len(), c * k * k * hout * wout);
    let cols = hout * wout;
    let pad = geom.padding as isize;
    let stride = geom.stride;
    let fast = be != Backend::Scalar;
    for ci in 0..c {
        let plane = &input[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = ((ci * k + ky) * k + kx) * cols;
                // ix = ox·stride + shift for every output column ox.
                let shift = kx as isize - pad;
                for oy in 0..hout {
                    let iy = (oy * stride) as isize + ky as isize - pad;
                    let out_row = &mut out[row + oy * wout..row + (oy + 1) * wout];
                    if iy < 0 || iy >= h as isize {
                        out_row.fill(T::default());
                        continue;
                    }
                    let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                    if !fast {
                        // Scalar backend: reference per-element gather.
                        for (ox, slot) in out_row.iter_mut().enumerate() {
                            let ix = (ox * stride) as isize + shift;
                            *slot = if ix < 0 || ix >= w as isize {
                                T::default()
                            } else {
                                src_row[ix as usize]
                            };
                        }
                        continue;
                    }
                    // Fast path: the in-bounds columns `0 <= ix < w`
                    // form one contiguous ox span [lo, hi); zero-fill
                    // outside it, copy inside it.
                    let lo = if shift >= 0 {
                        0
                    } else {
                        ((-shift) as usize).div_ceil(stride)
                    }
                    .min(wout);
                    let hi = if (w as isize) <= shift {
                        lo
                    } else {
                        ((w as isize - shift) as usize)
                            .div_ceil(stride)
                            .clamp(lo, wout)
                    };
                    out_row[..lo].fill(T::default());
                    out_row[hi..].fill(T::default());
                    if stride == 1 {
                        let start = (lo as isize + shift) as usize;
                        out_row[lo..hi].copy_from_slice(&src_row[start..start + (hi - lo)]);
                    } else {
                        for (ox, slot) in out_row[lo..hi].iter_mut().enumerate() {
                            *slot = src_row[(((lo + ox) * stride) as isize + shift) as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Scatters a column matrix back onto a `(C, H, W)` image, accumulating
/// overlapping contributions — the adjoint of [`im2col`].
///
/// `grad_out` must be zero-initialized (or hold a partial accumulation).
pub fn col2im(
    cols_mat: &[f32],
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    grad_out: &mut [f32],
) {
    let k = geom.kernel;
    let (hout, wout) = geom.output_size(h, w);
    debug_assert_eq!(grad_out.len(), c * h * w);
    debug_assert_eq!(cols_mat.len(), c * k * k * hout * wout);
    let cols = hout * wout;
    let pad = geom.padding as isize;
    let stride = geom.stride;
    for ci in 0..c {
        let plane = &mut grad_out[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = ((ci * k + ky) * k + kx) * cols;
                for oy in 0..hout {
                    let iy = (oy * stride) as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src_row = &cols_mat[row + oy * wout..row + (oy + 1) * wout];
                    for (ox, &v) in src_row.iter().enumerate() {
                        let ix = (ox * stride) as isize + kx as isize - pad;
                        if ix >= 0 && ix < w as isize {
                            plane[iy as usize * w + ix as usize] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Reference (direct, quadruple-loop) convolution of a single image —
/// deliberately slow and obviously correct; used by tests to validate the
/// GEMM path and by no production code.
///
/// `input` is `(Cin, H, W)`, `weight` is `(Cout, Cin, K, K)`, returns
/// `(Cout, Hout, Wout)`.
pub fn conv2d_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Tensor {
    let dims = input.dims();
    assert_eq!(dims.len(), 3, "reference conv input must be (C,H,W)");
    let (cin, h, w) = (dims[0], dims[1], dims[2]);
    let wd = weight.dims();
    assert_eq!(wd.len(), 4, "weight must be (Cout,Cin,K,K)");
    assert_eq!(wd[1], cin, "weight Cin mismatch");
    assert_eq!(wd[2], geom.kernel);
    let cout = wd[0];
    let k = geom.kernel;
    let (hout, wout) = geom.output_size(h, w);
    let mut out = Tensor::zeros([cout, hout, wout]);
    for co in 0..cout {
        for oy in 0..hout {
            for ox in 0..wout {
                let mut acc = bias.map_or(0.0, |b| b.data()[co]);
                for ci in 0..cin {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                            let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                            if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let iv = input.data()[(ci * h + iy as usize) * w + ix as usize];
                            let wv = weight.data()[((co * cin + ci) * k + ky) * k + kx];
                            acc += iv * wv;
                        }
                    }
                }
                out.data_mut()[(co * hout + oy) * wout + ox] = acc;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::matmul_into;

    #[test]
    fn output_size_classic_cases() {
        assert_eq!(ConvGeometry::new(3, 1, 1).output_size(32, 32), (32, 32));
        assert_eq!(ConvGeometry::new(3, 2, 1).output_size(32, 32), (16, 16));
        assert_eq!(ConvGeometry::new(1, 1, 0).output_size(8, 8), (8, 8));
        assert_eq!(ConvGeometry::new(5, 1, 0).output_size(8, 8), (4, 4));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn kernel_too_large_panics() {
        ConvGeometry::new(5, 1, 0).output_size(3, 3);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: columns are the image itself.
        let geom = ConvGeometry::new(1, 1, 0);
        let img: Vec<f32> = (0..2 * 3 * 3).map(|i| i as f32).collect();
        let mut cols = vec![0.0; 2 * 9];
        im2col(&img, 2, 3, 3, geom, &mut cols);
        assert_eq!(cols, img);
    }

    #[test]
    fn gemm_conv_matches_reference() {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = Tensor::from_fn([3, 6, 5], |i| ((i * 37 % 11) as f32 - 5.0) * 0.17);
        let weight = Tensor::from_fn([4, 3, 3, 3], |i| ((i * 53 % 13) as f32 - 6.0) * 0.09);
        let bias = Tensor::from_fn([4], |i| i as f32 * 0.1);
        let reference = conv2d_reference(&input, &weight, Some(&bias), geom);

        let (hout, wout) = geom.output_size(6, 5);
        let cols_len = 3 * 9 * hout * wout;
        let mut cols = vec![0.0; cols_len];
        im2col(input.data(), 3, 6, 5, geom, &mut cols);
        let mut out = vec![0.0; 4 * hout * wout];
        matmul_into(weight.data(), &cols, &mut out, 4, 27, hout * wout);
        for co in 0..4 {
            for p in 0..hout * wout {
                out[co * hout * wout + p] += bias.data()[co];
            }
        }
        let gemm = Tensor::from_vec(out, &[4, hout, wout]).unwrap();
        assert!(gemm.allclose(&reference, 1e-4));
    }

    #[test]
    fn gemm_conv_matches_reference_strided() {
        let geom = ConvGeometry::new(3, 2, 1);
        let input = Tensor::from_fn([2, 8, 8], |i| ((i * 29 % 17) as f32 - 8.0) * 0.11);
        let weight = Tensor::from_fn([3, 2, 3, 3], |i| ((i * 41 % 19) as f32 - 9.0) * 0.05);
        let reference = conv2d_reference(&input, &weight, None, geom);

        let (hout, wout) = geom.output_size(8, 8);
        let mut cols = vec![0.0; 2 * 9 * hout * wout];
        im2col(input.data(), 2, 8, 8, geom, &mut cols);
        let mut out = vec![0.0; 3 * hout * wout];
        matmul_into(weight.data(), &cols, &mut out, 3, 18, hout * wout);
        let gemm = Tensor::from_vec(out, &[3, hout, wout]).unwrap();
        assert!(gemm.allclose(&reference, 1e-4));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of an adjoint pair, which is exactly what backprop needs.
        let geom = ConvGeometry::new(3, 1, 1);
        let (c, h, w) = (2, 5, 4);
        let (hout, wout) = geom.output_size(h, w);
        let cols_len = c * 9 * hout * wout;
        let x: Vec<f32> = (0..c * h * w).map(|i| ((i * 31 % 23) as f32) * 0.1).collect();
        let y: Vec<f32> = (0..cols_len).map(|i| ((i * 17 % 29) as f32) * 0.05).collect();
        let mut ix = vec![0.0; cols_len];
        im2col(&x, c, h, w, geom, &mut ix);
        let lhs: f32 = ix.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut cy = vec![0.0; c * h * w];
        col2im(&y, c, h, w, geom, &mut cy);
        let rhs: f32 = x.iter().zip(&cy).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }
}
