//! Dense linear algebra: one f32 matrix multiply and the transpose.
//!
//! Convolution in [`crate::conv`] is lowered to this GEMM via im2col,
//! so this module is the single hot spot of the whole workspace.
//! [`matmul_into`] is the only f32 GEMM: conv and linear forward, their
//! input gradients and their weight gradients all run on it. A product
//! with a transposed operand forms that operand with [`transpose_into`]
//! first.
//!
//! # Microkernel and parallelism
//!
//! The output matrix is cut into **row blocks**, each block is computed
//! by a register-blocked microkernel that processes `MR` output rows at
//! a time (reusing every loaded element of `B` `MR`-fold), and large
//! problems fan the blocks out over the [`antidote_par`] worker pool.
//!
//! **Determinism / bit-exactness.** Every output row is owned by exactly
//! one task, and the arithmetic performed for a row depends only on the
//! row's *absolute* index: row blocks are aligned to multiples of `MR`,
//! so the `MR`-row groups (and the group-level zero-skip tests inside
//! them) land identically whether the matrix is computed by one thread
//! or many. `ANTIDOTE_THREADS=1` therefore produces bit-identical output
//! to any other thread budget — the property tests in
//! `tests/par_parity_props.rs` pin this with `==`, not `allclose`.
//!
//! **Accumulation order.** Each output element `c[i][j]` is updated as
//! `c += a[i][p] · b[p][j]` (one rounded multiply, one rounded add, no
//! FMA) in ascending `p`. A caller that wants `target += Σ_p …` with the
//! sum formed first passes a zeroed `c` and adds it into the target
//! afterwards. The zero-skip drops only products whose `A` entry is
//! `±0`; those are `±0` for finite `B`, and a sum that starts at `+0.0`
//! never becomes `-0.0`, so skipping them does not change a bit.
//!
//! **Kernel backends.** The inner per-row-block arithmetic is supplied
//! by a [`crate::backend::Backend`] (scalar / SSE2 / AVX2): the loop
//! nests, blocking, and zero-skip decisions above stay shared and
//! backend-independent, while the innermost broadcast-axpy dispatches
//! to the active backend's SIMD implementation. [`matmul_into_on`]
//! takes an explicit backend (used by the property tests); the plain
//! entry points run on [`crate::backend::active`].

use crate::backend::{self, Backend};
use crate::Tensor;

/// Microkernel register-block height: output rows computed together.
pub(crate) const MR: usize = 4;

/// Output columns per cache block — bounds the working set of the
/// microkernel's `MR` output-row slices to `MR × NC × 4` bytes (16 KiB),
/// comfortably inside L1 alongside the streamed operand row.
pub(crate) const NC: usize = 1024;

/// Row blocks are only fanned out when a kernel has at least this many
/// scalar multiply–accumulates; below it the pool hand-off costs more
/// than it buys and the kernel runs inline (which is bit-identical).
pub(crate) const MIN_PAR_MACS: usize = 1 << 18;

/// Cuts `c` (a `rows × row_width` row-major output) into row blocks
/// aligned to `MR` and runs `kernel(first_row, block)` over them on
/// the worker pool; runs inline when the problem is small, the thread
/// budget is 1, or this is already inside a pool task.
///
/// Generic over the output element so the `f32` GEMM here and the
/// `i32`-accumulating int8 kernel in [`crate::quant`] share one
/// parallelization (and therefore one determinism argument).
pub(crate) fn par_row_blocks<T: Send>(
    c: &mut [T],
    rows: usize,
    row_width: usize,
    macs_per_row: usize,
    kernel: &(dyn Fn(usize, &mut [T]) + Sync),
) {
    if c.is_empty() {
        return; // degenerate shapes (zero rows or zero-width rows)
    }
    let threads = if rows.saturating_mul(macs_per_row) < MIN_PAR_MACS {
        1
    } else {
        antidote_par::current_threads()
    };
    let block_rows = rows.div_ceil(threads).next_multiple_of(MR);
    if threads <= 1 || block_rows >= rows {
        kernel(0, c);
        return;
    }
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = c
        .chunks_mut(block_rows * row_width)
        .enumerate()
        .map(|(idx, block)| {
            let f: Box<dyn FnOnce() + Send + '_> =
                Box::new(move || kernel(idx * block_rows, block));
            f
        })
        .collect();
    antidote_par::run_scoped(tasks);
}

/// Splits the first `MR` rows (width `n`) off `block` as distinct
/// mutable row slices.
pub(crate) fn four_rows_mut<T>(block: &mut [T], n: usize) -> [&mut [T]; MR] {
    let (r01, rest) = block.split_at_mut(2 * n);
    let (c0, c1) = r01.split_at_mut(n);
    let (c2, c3) = rest[..2 * n].split_at_mut(n);
    [c0, c1, c2, c3]
}

/// Blocked matrix multiply `C = A (m×k) · B (k×n)`.
///
/// The kernel iterates in `i, p, j` order so the innermost loop streams
/// both `B` and `C` rows contiguously — this is the standard cache-friendly
/// ordering for row-major GEMM and is 5–10× faster than the naive `i, j, p`
/// loop at the sizes used by our conv layers.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the inner dimensions differ.
///
/// # Examples
///
/// ```
/// use antidote_tensor::{Tensor, linalg::matmul};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let id = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert_eq!(matmul(&a, &id).data(), a.data());
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().as_matrix().expect("matmul lhs must be rank 2");
    let (k2, n) = b.shape().as_matrix().expect("matmul rhs must be rank 2");
    assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
    let mut out = Tensor::zeros([m, n]);
    matmul_into(a.data(), b.data(), out.data_mut(), m, k, n);
    out
}

/// Raw-slice GEMM used by [`matmul`] and the conv and linear layers
/// (avoids shape re-validation in inner loops). `c` is accumulated into
/// (`c += a·b`).
///
/// Cache-blocked and register-blocked (`MR` output rows per pass, so
/// each streamed `B` row is reused `MR` times from registers), and
/// parallelized over output-row blocks — see the module docs for the
/// bit-exactness argument.
///
/// # Panics
///
/// Panics (debug assertions) if slice lengths do not match `m*k`, `k*n`,
/// `m*n`.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_into_on(backend::active(), a, b, c, m, k, n);
}

/// [`matmul_into`] on an explicit kernel [`Backend`] — every backend
/// produces bit-identical output (see [`crate::backend`]), so this
/// exists for the per-backend property tests and bench rows rather
/// than for behavioral choice.
///
/// # Panics
///
/// Panics if `be` is not supported on this host.
pub fn matmul_into_on(
    be: Backend,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    be.assert_supported();
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    par_row_blocks(c, m, n, k * n, &|first_row, block| {
        matmul_rows(be, a, b, block, first_row, k, n);
    });
}

/// [`matmul_into`] microkernel for output rows
/// `first_row .. first_row + block.len() / n`.
///
/// Rows are processed in groups of `MR`; a group is skipped for a `p`
/// only when *all* its `A` entries are zero (masked rows produce exact
/// zeros), so the skip decision — like everything else — depends only on
/// absolute row indices.
fn matmul_rows(
    be: Backend,
    a: &[f32],
    b: &[f32],
    block: &mut [f32],
    first_row: usize,
    k: usize,
    n: usize,
) {
    let rows = block.len() / n;
    let mut r = 0;
    while r + MR <= rows {
        let i = first_row + r;
        let a_rows: [&[f32]; MR] = std::array::from_fn(|q| &a[(i + q) * k..(i + q + 1) * k]);
        let [c0, c1, c2, c3] = four_rows_mut(&mut block[r * n..(r + MR) * n], n);
        let mut j0 = 0;
        while j0 < n {
            let je = (j0 + NC).min(n);
            for p in 0..k {
                let (x0, x1, x2, x3) = (a_rows[0][p], a_rows[1][p], a_rows[2][p], a_rows[3][p]);
                if x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0 {
                    continue;
                }
                let b_row = &b[p * n + j0..p * n + je];
                be.axpy4_f32(
                    [x0, x1, x2, x3],
                    b_row,
                    &mut c0[j0..je],
                    &mut c1[j0..je],
                    &mut c2[j0..je],
                    &mut c3[j0..je],
                );
            }
            j0 = je;
        }
        r += MR;
    }
    while r < rows {
        let a_row = &a[(first_row + r) * k..(first_row + r + 1) * k];
        let c_row = &mut block[r * n..(r + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue; // masked rows/cols produce exact zeros; skip them
            }
            be.axpy_f32(a_ip, &b[p * n..(p + 1) * n], c_row);
        }
        r += 1;
    }
}

/// Writes the transpose of the row-major `m×n` matrix `a` into `out`
/// (`n×m`): `out[j·m + i] = a[i·n + j]`.
///
/// This is how a product with a transposed operand runs: form the
/// operand once, then call [`matmul_into`]. Each output element of that
/// GEMM is the same ascending sum a dedicated transposed kernel would
/// take, so there is no second GEMM.
///
/// # Panics
///
/// Panics (debug assertions) if either slice length is not `m*n`.
pub fn transpose_into(a: &[f32], m: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = a[i * n + j];
        }
    }
}

/// Transposes a rank-2 tensor.
///
/// # Panics
///
/// Panics if the tensor is not rank 2.
pub fn transpose(t: &Tensor) -> Tensor {
    let (m, n) = t.shape().as_matrix().expect("transpose requires rank 2");
    let mut out = Tensor::zeros([n, m]);
    transpose_into(t.data(), m, n, out.data_mut());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_matrix().unwrap();
        let (_, n) = b.shape().as_matrix().unwrap();
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.data()[i * k + p] * b.data()[p * n + j];
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Tensor::from_fn([3, 4], |i| (i as f32 * 0.7).sin());
        let b = Tensor::from_fn([4, 5], |i| (i as f32 * 0.3).cos());
        assert!(matmul(&a, &b).allclose(&naive_matmul(&a, &b), 1e-5));
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_fn([2, 2], |i| i as f32 + 1.0);
        let id = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        assert!(matmul(&a, &id).allclose(&a, 1e-6));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn microkernel_group_and_tail_rows_match_naive() {
        // Sizes straddling the MR=4 group boundary (pure tail, exact
        // groups, groups + tail) and exercising zero entries in A so the
        // group-level skip path runs.
        for (m, k, n) in [(1, 3, 2), (4, 8, 5), (7, 5, 9), (13, 17, 11), (8, 4, 4)] {
            let a = Tensor::from_fn([m, k], |i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    (i as f32 * 0.7).sin()
                }
            });
            let b = Tensor::from_fn([k, n], |i| (i as f32 * 0.3).cos());
            assert!(
                matmul(&a, &b).allclose(&naive_matmul(&a, &b), 1e-4),
                "matmul mismatch at ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn gemm_accumulates_into_existing_output() {
        // The GEMM is documented as `c +=`; seed c with ones.
        let a = Tensor::from_fn([5, 6], |i| (i as f32 * 0.4).sin());
        let b = Tensor::from_fn([6, 7], |i| (i as f32 * 0.2).cos());
        let mut c = Tensor::ones([5, 7]);
        matmul_into(a.data(), b.data(), c.data_mut(), 5, 6, 7);
        let mut expect = naive_matmul(&a, &b);
        for v in expect.data_mut() {
            *v += 1.0;
        }
        assert!(c.allclose(&expect, 1e-4));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_fn([3, 5], |i| i as f32);
        assert!(transpose(&transpose(&a)).allclose(&a, 0.0));
    }
}
