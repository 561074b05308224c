//! Training-time data augmentation.
//!
//! The paper uses "random horizontal flip, random crop and 4-pixel
//! padding" on CIFAR; [`Augmentation`] implements exactly that pipeline
//! (with the pad size scaled to the image).

use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random horizontal flip + pad-and-random-crop augmentation.
///
/// # Examples
///
/// ```
/// use antidote_data::Augmentation;
/// use antidote_tensor::Tensor;
///
/// let mut aug = Augmentation::paper_default(32, 0);
/// let batch = Tensor::zeros([4, 3, 32, 32]);
/// let out = aug.apply(&batch);
/// assert_eq!(out.dims(), batch.dims());
/// ```
#[derive(Debug)]
pub struct Augmentation {
    pad: usize,
    flip_probability: f32,
    rng: SmallRng,
}

impl Augmentation {
    /// The paper's CIFAR pipeline: 4-pixel padding (scaled as
    /// `image_size / 8`), random crop, 50 % horizontal flip.
    pub fn paper_default(image_size: usize, seed: u64) -> Self {
        Self {
            pad: (image_size / 8).max(1),
            flip_probability: 0.5,
            rng: SmallRng::seed_from_u64(seed ^ 0xA06),
        }
    }

    /// Custom pipeline.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= flip_probability <= 1.0`.
    pub fn new(pad: usize, flip_probability: f32, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&flip_probability),
            "flip probability must be in [0, 1]"
        );
        Self {
            pad,
            flip_probability,
            rng: SmallRng::seed_from_u64(seed ^ 0xA06),
        }
    }

    /// Applies an independent random flip + shifted crop to every item of
    /// an `(N, C, H, W)` batch, returning a same-shape batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is not rank 4.
    pub fn apply(&mut self, batch: &Tensor) -> Tensor {
        let (n, c, h, w) = batch.shape().as_nchw().expect("augment expects NCHW");
        let mut out = Tensor::zeros([n, c, h, w]);
        let dst = out.data_mut();
        let pad = self.pad as isize;
        for ni in 0..n {
            let flip = self.rng.gen::<f32>() < self.flip_probability;
            // Shift in [-pad, +pad]: equivalent to pad-then-random-crop.
            let dy = self.rng.gen_range(-pad..=pad);
            let dx = self.rng.gen_range(-pad..=pad);
            for ci in 0..c {
                let src_base = (ni * c + ci) * h * w;
                let dst_base = src_base;
                for y in 0..h as isize {
                    let sy = y + dy;
                    for x in 0..w as isize {
                        let sx_raw = x + dx;
                        let sx = if flip { w as isize - 1 - sx_raw } else { sx_raw };
                        let v = if sy < 0 || sy >= h as isize || sx < 0 || sx >= w as isize {
                            0.0
                        } else {
                            batch.data()[src_base + (sy * w as isize + sx) as usize]
                        };
                        dst[dst_base + (y * w as isize + x) as usize] = v;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_shape() {
        let mut aug = Augmentation::paper_default(16, 1);
        let b = Tensor::from_fn([2, 3, 16, 16], |i| i as f32);
        assert_eq!(aug.apply(&b).dims(), b.dims());
    }

    #[test]
    fn no_pad_no_flip_is_identity() {
        let mut aug = Augmentation::new(0, 0.0, 1);
        let b = Tensor::from_fn([1, 1, 4, 4], |i| i as f32);
        assert_eq!(aug.apply(&b).data(), b.data());
    }

    #[test]
    fn always_flip_mirrors_columns() {
        let mut aug = Augmentation::new(0, 1.0, 1);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 1, 4]).unwrap();
        assert_eq!(aug.apply(&b).data(), &[4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn shifts_stay_within_pad_budget() {
        // With pad=1, total pixel mass can change only via border loss.
        let mut aug = Augmentation::new(1, 0.0, 3);
        let b = Tensor::ones([1, 1, 8, 8]);
        for _ in 0..20 {
            let out = aug.apply(&b);
            let lost = 64.0 - out.sum();
            assert!((0.0..=15.0).contains(&lost), "lost={lost}");
        }
    }

    #[test]
    fn per_item_randomness_differs() {
        let mut aug = Augmentation::paper_default(8, 5);
        let b = Tensor::from_fn([8, 1, 8, 8], |i| (i % 64) as f32);
        let out = aug.apply(&b);
        // At least two items must have been transformed differently.
        let mut distinct = false;
        for i in 1..8 {
            if out.batch_item(i).data() != out.batch_item(0).data() {
                distinct = true;
            }
        }
        assert!(distinct);
    }
}
