//! Procedural MNIST stand-in: stroke-rendered digit glyphs.
//!
//! Each class is a hand-designed glyph (segments and elliptical arcs)
//! rendered at 28x28 with per-sample affine jitter (rotation, scale,
//! translation), stroke-thickness variation and additive pixel noise.
//!
//! Why this preserves the paper's MNIST behaviour:
//!
//! * glyphs occupy the canvas centre, so border pixels carry no class
//!   signal — exactly like MNIST, the trained weight columns (and hence
//!   the power-leaked 1-norms) are near zero at the border;
//! * the jitter blurs class evidence over neighbouring pixels, producing
//!   the *smooth, slowly varying* spatial 1-norm landscape the paper
//!   remarks on (Sec. III's search-feasibility discussion);
//! * classes are linearly separable to roughly single-layer-MNIST levels
//!   (~90% test accuracy), so attack-strength sweeps land in the same
//!   regime as the paper's Fig. 4.

use super::strokes::{render_strokes, GlyphTransform, Stroke};
use crate::{Dataset, Image, ImageShape};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar_linalg::standard_normal;

/// Canvas side length (matches MNIST).
pub const SIDE: usize = 28;

/// Number of digit classes.
pub const NUM_CLASSES: usize = 10;

/// The stroke program for one digit glyph, in unit coordinates
/// (x right, y down).
pub fn glyph(digit: usize) -> Vec<Stroke> {
    use Stroke::{Arc, Line};
    match digit {
        0 => vec![Arc {
            center: (0.5, 0.5),
            rx: 0.18,
            ry: 0.28,
            start_deg: 0.0,
            end_deg: 360.0,
        }],
        1 => vec![
            Line {
                a: (0.5, 0.22),
                b: (0.5, 0.78),
            },
            Line {
                a: (0.42, 0.32),
                b: (0.5, 0.22),
            },
        ],
        2 => vec![
            Arc {
                center: (0.5, 0.38),
                rx: 0.17,
                ry: 0.16,
                start_deg: 180.0,
                end_deg: 390.0,
            },
            Line {
                a: (0.647, 0.46),
                b: (0.33, 0.78),
            },
            Line {
                a: (0.33, 0.78),
                b: (0.7, 0.78),
            },
        ],
        3 => vec![
            Arc {
                center: (0.48, 0.36),
                rx: 0.16,
                ry: 0.145,
                start_deg: 210.0,
                end_deg: 450.0,
            },
            Arc {
                center: (0.48, 0.645),
                rx: 0.17,
                ry: 0.15,
                start_deg: 270.0,
                end_deg: 510.0,
            },
        ],
        4 => vec![
            Line {
                a: (0.62, 0.22),
                b: (0.3, 0.58),
            },
            Line {
                a: (0.3, 0.58),
                b: (0.72, 0.58),
            },
            Line {
                a: (0.62, 0.22),
                b: (0.62, 0.78),
            },
        ],
        5 => vec![
            Line {
                a: (0.66, 0.22),
                b: (0.36, 0.22),
            },
            Line {
                a: (0.36, 0.22),
                b: (0.34, 0.48),
            },
            Arc {
                center: (0.48, 0.6),
                rx: 0.18,
                ry: 0.17,
                start_deg: 250.0,
                end_deg: 510.0,
            },
        ],
        6 => vec![
            Arc {
                center: (0.52, 0.42),
                rx: 0.2,
                ry: 0.24,
                start_deg: 300.0,
                end_deg: 180.0,
            },
            Line {
                a: (0.32, 0.42),
                b: (0.32, 0.62),
            },
            Arc {
                center: (0.48, 0.62),
                rx: 0.16,
                ry: 0.15,
                start_deg: 0.0,
                end_deg: 360.0,
            },
        ],
        7 => vec![
            Line {
                a: (0.32, 0.24),
                b: (0.68, 0.24),
            },
            Line {
                a: (0.68, 0.24),
                b: (0.44, 0.78),
            },
        ],
        8 => vec![
            Arc {
                center: (0.5, 0.36),
                rx: 0.15,
                ry: 0.14,
                start_deg: 0.0,
                end_deg: 360.0,
            },
            Arc {
                center: (0.5, 0.64),
                rx: 0.17,
                ry: 0.15,
                start_deg: 0.0,
                end_deg: 360.0,
            },
        ],
        9 => vec![
            Arc {
                center: (0.52, 0.38),
                rx: 0.16,
                ry: 0.15,
                start_deg: 0.0,
                end_deg: 360.0,
            },
            Line {
                a: (0.68, 0.38),
                b: (0.6, 0.78),
            },
        ],
        _ => panic!("digit {digit} out of range 0..{NUM_CLASSES}"),
    }
}

/// Builder for the procedural digits dataset.
///
/// # Example
///
/// ```
/// use xbar_data::synth::digits::DigitsConfig;
///
/// let ds = DigitsConfig::default().num_samples(50).seed(7).generate();
/// assert_eq!(ds.len(), 50);
/// assert!(ds.inputs().as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigitsConfig {
    num_samples: usize,
    seed: u64,
    /// Standard deviation of additive Gaussian pixel noise.
    noise_std: f64,
    /// Maximum absolute rotation jitter in radians.
    max_rotation: f64,
    /// Scale jitter range around 1.0.
    scale_jitter: f64,
    /// Maximum absolute translation jitter in pixels.
    max_shift_px: f64,
    /// Stroke thickness range (Gaussian sigma, pixels).
    sigma_range: (f64, f64),
}

impl Default for DigitsConfig {
    fn default() -> Self {
        DigitsConfig {
            num_samples: 1000,
            seed: 0,
            noise_std: 0.10,
            max_rotation: 0.20,
            scale_jitter: 0.14,
            max_shift_px: 2.0,
            sigma_range: (0.8, 1.35),
        }
    }
}

impl DigitsConfig {
    /// Sets the number of samples to generate.
    pub fn num_samples(mut self, n: usize) -> Self {
        self.num_samples = n;
        self
    }

    /// Sets the RNG seed (the dataset is fully determined by the config).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the additive pixel-noise standard deviation.
    pub fn noise_std(mut self, std: f64) -> Self {
        self.noise_std = std;
        self
    }

    /// Sets the maximum rotation jitter in radians.
    pub fn max_rotation(mut self, r: f64) -> Self {
        self.max_rotation = r;
        self
    }

    /// Renders a single sample of the given class with the given RNG.
    fn render_sample<R: Rng + ?Sized>(&self, digit: usize, rng: &mut R) -> Image {
        let shape = ImageShape::new(SIDE, SIDE, 1);
        let mut img = Image::zeros(shape);
        let transform = GlyphTransform {
            rotation: rng.gen_range(-self.max_rotation..=self.max_rotation),
            scale: rng.gen_range(1.0 - self.scale_jitter..=1.0 + self.scale_jitter),
            translate: (
                rng.gen_range(-self.max_shift_px..=self.max_shift_px) / SIDE as f64,
                rng.gen_range(-self.max_shift_px..=self.max_shift_px) / SIDE as f64,
            ),
        };
        let sigma = rng.gen_range(self.sigma_range.0..=self.sigma_range.1);
        render_strokes(&mut img, &glyph(digit), &transform, sigma);
        if self.noise_std > 0.0 {
            for v in img.as_mut_slice() {
                *v += self.noise_std * standard_normal(rng);
            }
        }
        img.clamp(0.0, 1.0);
        img
    }

    /// Generates the dataset: labels cycle through the classes so counts
    /// are balanced, and sample order is shuffled.
    pub fn generate(&self) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let shape = ImageShape::new(SIDE, SIDE, 1);
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(self.num_samples);
        let mut labels = Vec::with_capacity(self.num_samples);
        for i in 0..self.num_samples {
            let digit = i % NUM_CLASSES;
            rows.push(self.render_sample(digit, &mut rng).into_vec());
            labels.push(digit);
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let inputs = if row_refs.is_empty() {
            xbar_linalg::Matrix::zeros(0, shape.len())
        } else {
            xbar_linalg::Matrix::from_rows(&row_refs)
        };
        let mut ds = Dataset::new(inputs, labels, NUM_CLASSES)
            .expect("generator produces consistent samples")
            .with_image_shape(shape)
            .expect("generator uses a fixed shape");
        ds.shuffle(&mut rng);
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_glyphs_defined_and_nonempty() {
        for d in 0..NUM_CLASSES {
            assert!(!glyph(d).is_empty(), "digit {d} has no strokes");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn glyph_rejects_out_of_range() {
        let _ = glyph(10);
    }

    #[test]
    fn generate_is_deterministic() {
        let a = DigitsConfig::default().num_samples(20).seed(5).generate();
        let b = DigitsConfig::default().num_samples(20).seed(5).generate();
        assert_eq!(a.inputs(), b.inputs());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn different_seeds_differ() {
        let a = DigitsConfig::default().num_samples(20).seed(5).generate();
        let b = DigitsConfig::default().num_samples(20).seed(6).generate();
        assert_ne!(a.inputs(), b.inputs());
    }

    #[test]
    fn labels_balanced() {
        let ds = DigitsConfig::default().num_samples(100).seed(1).generate();
        assert_eq!(ds.class_counts(), vec![10; 10]);
    }

    #[test]
    fn pixels_in_unit_interval() {
        let ds = DigitsConfig::default().num_samples(30).seed(2).generate();
        assert!(ds
            .inputs()
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn border_is_mostly_dark_center_is_bright() {
        // The MNIST-like property the paper's 1-norm maps rely on.
        let ds = DigitsConfig::default().num_samples(100).seed(3).generate();
        let shape = ds.image_shape().unwrap();
        let means = ds.inputs().col_means();
        let mut border = 0.0;
        let mut border_n = 0;
        let mut center = 0.0;
        let mut center_n = 0;
        for r in 0..SIDE {
            for c in 0..SIDE {
                let v = means[shape.index(r, c, 0)];
                if !(2..SIDE - 2).contains(&r) || !(2..SIDE - 2).contains(&c) {
                    border += v;
                    border_n += 1;
                } else if (10..18).contains(&r) && (10..18).contains(&c) {
                    center += v;
                    center_n += 1;
                }
            }
        }
        let border_mean = border / border_n as f64;
        let center_mean = center / center_n as f64;
        assert!(
            center_mean > 4.0 * border_mean,
            "center {center_mean} should dominate border {border_mean}"
        );
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Noise-free renders of different digits must differ substantially.
        let cfg = DigitsConfig::default().noise_std(0.0).max_rotation(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let imgs: Vec<Image> = (0..NUM_CLASSES)
            .map(|d| {
                let mut c = cfg;
                c.scale_jitter = 0.0;
                c.max_shift_px = 0.0;
                c.sigma_range = (1.0, 1.0);
                c.render_sample(d, &mut rng)
            })
            .collect();
        for a in 0..NUM_CLASSES {
            for b in (a + 1)..NUM_CLASSES {
                let diff: f64 = imgs[a]
                    .as_slice()
                    .iter()
                    .zip(imgs[b].as_slice())
                    .map(|(&x, &y)| (x - y).abs())
                    .sum();
                assert!(diff > 5.0, "digits {a} and {b} look identical ({diff})");
            }
        }
    }

    #[test]
    fn empty_config_generates_empty_dataset() {
        let ds = DigitsConfig::default().num_samples(0).generate();
        assert!(ds.is_empty());
        assert_eq!(ds.num_features(), SIDE * SIDE);
    }
}
