//! Random tensor initialization (Kaiming / uniform / normal).
//!
//! All initializers take an explicit RNG so experiments are reproducible
//! from a single seed.

use crate::Tensor;
use rand::distributions::Distribution;
use rand::Rng;

/// Samples every element i.i.d. uniform on `[lo, hi)`.
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, shape: &[usize], lo: f32, hi: f32) -> Tensor {
    Tensor::from_fn(shape.to_vec(), |_| rng.gen_range(lo..hi))
}

/// Samples every element i.i.d. from `N(mean, std²)` (Box–Muller via
/// `rand_distr`-free implementation to keep the dependency set minimal).
pub fn normal<R: Rng + ?Sized>(rng: &mut R, shape: &[usize], mean: f32, std: f32) -> Tensor {
    let gauss = StandardGaussian;
    Tensor::from_fn(shape.to_vec(), |_| mean + std * gauss.sample(rng))
}

/// Kaiming-He normal initialization for a conv weight `(Cout, Cin, K, K)`
/// or a linear weight `(Out, In)`: `std = sqrt(2 / fan_in)` — the standard
/// choice for ReLU networks like VGG/ResNet.
///
/// # Panics
///
/// Panics if `shape` has rank < 2.
pub fn kaiming_normal<R: Rng + ?Sized>(rng: &mut R, shape: &[usize]) -> Tensor {
    let fan_in = fan_in_of(shape);
    normal(rng, shape, 0.0, (2.0 / fan_in as f32).sqrt())
}

fn fan_in_of(shape: &[usize]) -> usize {
    assert!(shape.len() >= 2, "fan-in undefined for rank < 2");
    shape[1..].iter().product()
}

/// A unit-variance Gaussian sampled by the polar Box–Muller method.
///
/// `rand`'s core crate only ships uniform distributions; this tiny adapter
/// avoids pulling in `rand_distr`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardGaussian;

impl Distribution<f32> for StandardGaussian {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        loop {
            let u: f32 = rng.gen_range(-1.0f32..1.0);
            let v: f32 = rng.gen_range(-1.0f32..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let t = uniform(&mut rng, &[1000], -0.5, 0.5);
        assert!(t.data().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn normal_moments() {
        let mut rng = SmallRng::seed_from_u64(2);
        let t = normal(&mut rng, &[20000], 1.0, 2.0);
        let mean = t.mean();
        let var = t.data().iter().map(|&x| (x - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.3, "var={var}");
    }

    #[test]
    fn kaiming_variance_scales_with_fan_in() {
        let mut rng = SmallRng::seed_from_u64(3);
        let t = kaiming_normal(&mut rng, &[64, 32, 3, 3]);
        let fan_in = 32 * 9;
        let var = t.norm_sq() / t.len() as f32;
        let expected = 2.0 / fan_in as f32;
        assert!(
            (var / expected - 1.0).abs() < 0.2,
            "var={var} expected={expected}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let ta = kaiming_normal(&mut a, &[4, 4]);
        let tb = kaiming_normal(&mut b, &[4, 4]);
        assert_eq!(ta.data(), tb.data());
    }
}
