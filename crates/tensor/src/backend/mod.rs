//! Pluggable CPU kernel backends with runtime dispatch (DESIGN.md §15).
//!
//! A [`Backend`] is the set of *inner* microkernels the hot paths of this
//! crate run on: the f32 GEMM broadcast-axpy, the `i8×i8→i32` GEMM row
//! kernel, `im2col` packing, and the attention mean-reductions behind the
//! paper's Eq. (1)/(2). It is selected **once per process** —
//! [`active`] detects the best ISA the host supports with
//! [`std::arch::is_x86_feature_detected!`], lets `ANTIDOTE_KERNEL_BACKEND`
//! override the choice, and emits exactly one `kernel.backend` obs event
//! naming the winner.
//!
//! # Why backends sit *below* `par_row_blocks`
//!
//! The row-block parallelism in [`crate::linalg`] owns the determinism
//! argument of the whole workspace: every output row is computed by
//! arithmetic that depends only on its absolute index. Backends plug in
//! underneath that layer — they replace the per-row-block inner kernels
//! and nothing else — so SIMD composes with `antidote-par` for free and
//! the thread-parity property tests keep holding unchanged.
//!
//! # Determinism argument, per kernel family
//!
//! - **f32 GEMM** (`axpy4_f32`/`axpy_f32`): the scalar inner loop updates
//!   each output element independently — `c[j] += x · b[j]`, one rounded
//!   multiply then one rounded add, in ascending `p` order. The SIMD
//!   versions perform the *same two IEEE-754 operations per lane* (an
//!   explicit `mul` then `add`; never FMA, which would contract the
//!   rounding), so every non-scalar backend is **bit-exact** against the
//!   scalar one by construction.
//! - **i8 GEMM** (`gemm_i8_rows`): `i32` accumulation never overflows
//!   (see [`crate::quant::gemm_i8`]), and exact integer addition is
//!   associative and commutative — backends are free to restructure the
//!   loop (the SIMD kernels pair adjacent `p` values to use the ISA's
//!   multiply-add) and still produce identical bits.
//! - **im2col**: pure data movement; non-scalar backends replace the
//!   per-element bounds-checked gather with zero-fill + span copies,
//!   which move the same values.
//! - **mean-reductions**: the spatial-mean sum is *specified* as an
//!   8-lane striped reduction with a fixed combine tree
//!   (`Backend::sum_f32`); the scalar backend implements that exact
//!   specification in scalar code and the SIMD backends implement it
//!   with vector registers, so all backends agree bitwise. The
//!   channel-mean accumulation is element-independent and trivially
//!   exact.
//!
//! Every f32 GEMM in the workspace — forward, input gradients and weight
//! gradients — runs on [`crate::linalg::matmul_into`], so every one of
//! them is backend-dispatched.

use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod x86;

/// A CPU kernel backend: which ISA the inner microkernels are written
/// for. See the module docs for the dispatch and determinism story.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable scalar reference kernels — always supported, and the
    /// bit-exactness baseline every other backend is property-tested
    /// against.
    Scalar,
    /// 128-bit `std::arch` kernels using only the x86-64 baseline
    /// feature set (SSE2), so they are supported on every x86-64 host.
    Sse2,
    /// 256-bit AVX2 kernels, used only when
    /// `is_x86_feature_detected!("avx2")` confirms the host supports
    /// them.
    Avx2,
}

impl Backend {
    /// The backend's canonical lowercase name (the value accepted by
    /// `ANTIDOTE_KERNEL_BACKEND` and reported in the `kernel.backend`
    /// obs event).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }

    /// Whether this backend can run on the current host (compile-time
    /// architecture plus runtime feature detection).
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every backend the current host supports, scalar first — the
    /// iteration set of the per-backend property tests and bench rows.
    pub fn supported() -> Vec<Backend> {
        [Backend::Scalar, Backend::Sse2, Backend::Avx2]
            .into_iter()
            .filter(|b| b.is_supported())
            .collect()
    }

    /// Panics unless the backend is supported on this host. Called once
    /// per public kernel entry point (`*_on` functions), so the unsafe
    /// ISA-gated dispatch below never sees an unsupported backend.
    pub(crate) fn assert_supported(self) {
        assert!(
            self.is_supported(),
            "kernel backend `{self}` is not supported on this host (supported: {:?})",
            Backend::supported()
                .iter()
                .map(|b| b.name())
                .collect::<Vec<_>>()
        );
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(Backend::Scalar),
            "sse2" => Ok(Backend::Sse2),
            "avx2" => Ok(Backend::Avx2),
            _ => Err(()),
        }
    }
}

/// The best backend the host supports: AVX2 when detected, else the
/// SSE2 baseline on x86-64, else scalar.
pub fn best() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if Backend::Avx2.is_supported() {
            Backend::Avx2
        } else {
            Backend::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Backend::Scalar
    }
}

/// How the active backend was chosen (reported in the `kernel.backend`
/// obs event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Runtime ISA detection picked [`best`].
    Auto,
    /// A valid, supported `ANTIDOTE_KERNEL_BACKEND` override.
    Env,
}

impl Source {
    fn as_str(self) -> &'static str {
        match self {
            Source::Auto => "auto",
            Source::Env => "env",
        }
    }
}

/// Resolves the backend from an optional raw `ANTIDOTE_KERNEL_BACKEND`
/// value, following the workspace env contract: unset or `auto` means
/// runtime detection, a valid supported name wins, and anything else
/// (unknown name, or a backend this host cannot run) warns through
/// `env.ignored` and falls back to detection.
fn select_from(raw: Option<&str>) -> (Backend, Source) {
    let Some(raw) = raw else {
        return (best(), Source::Auto);
    };
    if raw.trim().eq_ignore_ascii_case("auto") {
        return (best(), Source::Auto);
    }
    match raw.parse::<Backend>() {
        Ok(be) if be.is_supported() => (be, Source::Env),
        Ok(be) => {
            antidote_obs::env::warn_ignored(
                "ANTIDOTE_KERNEL_BACKEND",
                raw,
                &format!("backend `{be}` is not supported on this host"),
            );
            (best(), Source::Auto)
        }
        Err(()) => {
            antidote_obs::env::warn_ignored(
                "ANTIDOTE_KERNEL_BACKEND",
                raw,
                "must be one of auto|scalar|sse2|avx2",
            );
            (best(), Source::Auto)
        }
    }
}

/// The process-wide active backend, selected exactly once.
///
/// The first call performs runtime feature detection, applies the
/// `ANTIDOTE_KERNEL_BACKEND` override if set, and emits a single
/// `kernel.backend` obs event naming the chosen backend and how it was
/// picked; every later call returns the cached choice.
pub fn active() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let raw = std::env::var("ANTIDOTE_KERNEL_BACKEND").ok();
        let (be, source) = select_from(raw.as_deref());
        antidote_obs::info(
            "kernel.backend",
            &[
                ("backend", antidote_obs::Value::Str(be.name())),
                ("source", antidote_obs::Value::Str(source.as_str())),
                ("best", antidote_obs::Value::Str(best().name())),
            ],
        );
        be
    })
}

// ---------------------------------------------------------------------
// Dispatch. These methods are the entire seam between the shared kernel
// structure (loop nests, blocking, zero-skips — all backend-independent)
// and the ISA-specific inner loops. They are `pub(crate)`: external
// callers go through the validated `*_on` entry points in
// `linalg`/`quant`/`conv`/`reduce`, which `assert_supported` first.
// ---------------------------------------------------------------------

impl Backend {
    /// Four-row f32 broadcast-axpy: `c_q[j] += x[q] · b[j]` for
    /// `q ∈ 0..4` over equal-length slices — the inner op of
    /// [`crate::linalg::matmul_into`] row groups.
    #[inline]
    pub(crate) fn axpy4_f32(
        self,
        x: [f32; 4],
        b: &[f32],
        c0: &mut [f32],
        c1: &mut [f32],
        c2: &mut [f32],
        c3: &mut [f32],
    ) {
        match self {
            Backend::Scalar => scalar::axpy4_f32(x, b, c0, c1, c2, c3),
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => x86::sse2_axpy4_f32(x, b, c0, c1, c2, c3),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => x86::avx2_axpy4_f32(x, b, c0, c1, c2, c3),
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::axpy4_f32(x, b, c0, c1, c2, c3),
        }
    }

    /// Single-row f32 broadcast-axpy: `c[j] += x · b[j]` — the tail-row
    /// inner op of the f32 GEMM kernels.
    #[inline]
    pub(crate) fn axpy_f32(self, x: f32, b: &[f32], c: &mut [f32]) {
        match self {
            Backend::Scalar => scalar::axpy_f32(x, b, c),
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => x86::sse2_axpy_f32(x, b, c),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => x86::avx2_axpy_f32(x, b, c),
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::axpy_f32(x, b, c),
        }
    }

    /// The `i8×i8→i32` GEMM row-block kernel for output rows
    /// `first_row .. first_row + block.len() / n` (the unit of work
    /// `par_row_blocks` hands to one task). Integer accumulation is
    /// exact, so each backend owns the whole row-block loop and may
    /// restructure it (the SIMD kernels pair `p` values for the ISA's
    /// `madd` multiply-accumulate).
    #[inline]
    pub(crate) fn gemm_i8_rows(
        self,
        a: &[i8],
        b: &[i8],
        block: &mut [i32],
        first_row: usize,
        k: usize,
        n: usize,
    ) {
        match self {
            Backend::Scalar => crate::quant::gemm_i8_rows_scalar(a, b, block, first_row, k, n),
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => x86::sse2_gemm_i8_rows(a, b, block, first_row, k, n),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => x86::avx2_gemm_i8_rows(a, b, block, first_row, k, n),
            #[cfg(not(target_arch = "x86_64"))]
            _ => crate::quant::gemm_i8_rows_scalar(a, b, block, first_row, k, n),
        }
    }

    /// Striped sum of an f32 slice — the spatial-mean reduction of the
    /// paper's Eq. (1).
    ///
    /// The reduction order is part of the *specification*, not the
    /// backend: 8 lane accumulators where lane `l` sums `xs[l]`,
    /// `xs[l+8]`, … in ascending order, combined as
    /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, with the `len % 8` tail
    /// added sequentially at the end. Every backend implements exactly
    /// this tree, so the results are bit-identical across backends.
    #[inline]
    pub(crate) fn sum_f32(self, xs: &[f32]) -> f32 {
        match self {
            Backend::Scalar => scalar::sum_f32(xs),
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => x86::sse2_sum_f32(xs),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => x86::avx2_sum_f32(xs),
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::sum_f32(xs),
        }
    }

    /// Elementwise `dst[j] += src[j]` — the channel-mean accumulation of
    /// Eq. (2). Element-independent, hence bit-exact on every backend.
    #[inline]
    pub(crate) fn add_assign_f32(self, dst: &mut [f32], src: &[f32]) {
        match self {
            Backend::Scalar => scalar::add_assign_f32(dst, src),
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => x86::sse2_add_assign_f32(dst, src),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => x86::avx2_add_assign_f32(dst, src),
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::add_assign_f32(dst, src),
        }
    }

    /// Elementwise `dst[j] *= s` — the `1/C` normalization of Eq. (2).
    #[inline]
    pub(crate) fn scale_f32(self, dst: &mut [f32], s: f32) {
        match self {
            Backend::Scalar => scalar::scale_f32(dst, s),
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => x86::sse2_scale_f32(dst, s),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => x86::avx2_scale_f32(dst, s),
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::scale_f32(dst, s),
        }
    }
}

/// Portable scalar reference kernels: the semantics every other backend
/// is property-tested against, bit for bit.
mod scalar {
    /// `c_q[j] += x[q] · b[j]` — kept structurally identical to the
    /// pre-backend inner loop of `linalg::matmul_rows` (zipped
    /// iteration, multiply then add per element) so the refactor cannot
    /// change a single result bit.
    #[inline]
    pub(super) fn axpy4_f32(
        x: [f32; 4],
        b: &[f32],
        c0: &mut [f32],
        c1: &mut [f32],
        c2: &mut [f32],
        c3: &mut [f32],
    ) {
        let iter = c0
            .iter_mut()
            .zip(c1.iter_mut())
            .zip(c2.iter_mut())
            .zip(c3.iter_mut())
            .zip(b);
        for ((((v0, v1), v2), v3), &bv) in iter {
            *v0 += x[0] * bv;
            *v1 += x[1] * bv;
            *v2 += x[2] * bv;
            *v3 += x[3] * bv;
        }
    }

    /// `c[j] += x · b[j]`.
    #[inline]
    pub(super) fn axpy_f32(x: f32, b: &[f32], c: &mut [f32]) {
        for (cv, &bv) in c.iter_mut().zip(b) {
            *cv += x * bv;
        }
    }

    /// The 8-lane striped sum specification (see
    /// [`super::Backend::sum_f32`]) written in scalar code.
    #[inline]
    pub(super) fn sum_f32(xs: &[f32]) -> f32 {
        let mut acc = [0.0f32; 8];
        let n8 = xs.len() & !7;
        for chunk in xs[..n8].chunks_exact(8) {
            for (a, &v) in acc.iter_mut().zip(chunk) {
                *a += v;
            }
        }
        let s4 = [
            acc[0] + acc[4],
            acc[1] + acc[5],
            acc[2] + acc[6],
            acc[3] + acc[7],
        ];
        let mut total = (s4[0] + s4[2]) + (s4[1] + s4[3]);
        for &v in &xs[n8..] {
            total += v;
        }
        total
    }

    /// `dst[j] += src[j]`.
    #[inline]
    pub(super) fn add_assign_f32(dst: &mut [f32], src: &[f32]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }

    /// `dst[j] *= s`.
    #[inline]
    pub(super) fn scale_f32(dst: &mut [f32], s: f32) {
        for d in dst.iter_mut() {
            *d *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_supported_and_first() {
        let all = Backend::supported();
        assert_eq!(all[0], Backend::Scalar);
        assert!(Backend::Scalar.is_supported());
        assert!(all.contains(&best()));
    }

    #[test]
    fn names_round_trip() {
        for be in [Backend::Scalar, Backend::Sse2, Backend::Avx2] {
            assert_eq!(be.name().parse::<Backend>(), Ok(be));
            assert_eq!(format!("{be}"), be.name());
        }
        assert_eq!("SCALAR".parse::<Backend>(), Ok(Backend::Scalar));
        assert!(" avx2 ".parse::<Backend>() == Ok(Backend::Avx2));
        assert!("avx512".parse::<Backend>().is_err());
    }

    #[test]
    fn selection_rules() {
        assert_eq!(select_from(None), (best(), Source::Auto));
        assert_eq!(select_from(Some("auto")), (best(), Source::Auto));
        assert_eq!(select_from(Some("AUTO")), (best(), Source::Auto));
        assert_eq!(
            select_from(Some("scalar")),
            (Backend::Scalar, Source::Env)
        );
        // Unknown names warn and fall back to detection.
        assert_eq!(select_from(Some("neon")), (best(), Source::Auto));
        assert_eq!(select_from(Some("")), (best(), Source::Auto));
    }

    #[test]
    fn unsupported_override_falls_back() {
        // On hosts lacking a backend, an explicit request for it must
        // warn and fall back rather than crash or pick it anyway.
        for be in [Backend::Sse2, Backend::Avx2] {
            let (chosen, source) = select_from(Some(be.name()));
            if be.is_supported() {
                assert_eq!((chosen, source), (be, Source::Env));
            } else {
                assert_eq!((chosen, source), (best(), Source::Auto));
            }
        }
    }

    #[test]
    fn striped_sum_matches_spec_on_small_inputs() {
        // Exact-in-f32 integer values: any summation order agrees, so
        // this pins the plain value; order sensitivity is pinned by the
        // per-backend bit-exactness property tests.
        assert_eq!(scalar::sum_f32(&[]), 0.0);
        assert_eq!(scalar::sum_f32(&[3.5]), 3.5);
        let xs: Vec<f32> = (1..=19).map(|v| v as f32).collect();
        assert_eq!(scalar::sum_f32(&xs), 190.0);
    }

    #[test]
    fn active_is_supported() {
        let be = active();
        assert!(be.is_supported());
        // Second call returns the cached choice.
        assert_eq!(active(), be);
    }
}
