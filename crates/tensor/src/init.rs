//! Weight initialization schemes.

use rand::Rng;

use crate::tensor::Tensor;

/// Uniform initialization in `[-limit, limit]`.
///
/// # Panics
///
/// Panics if `limit` is not positive and finite.
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, shape: &[usize], limit: f32) -> Tensor {
    assert!(limit > 0.0 && limit.is_finite(), "limit must be positive");
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.gen_range(-limit..=limit)).collect();
    Tensor::from_vec(data, shape)
}

/// Xavier/Glorot uniform initialization for a dense layer with the given fan-in
/// and fan-out.
///
/// # Panics
///
/// Panics if `fan_in + fan_out` is zero.
pub fn xavier_uniform<R: Rng + ?Sized>(
    rng: &mut R,
    shape: &[usize],
    fan_in: usize,
    fan_out: usize,
) -> Tensor {
    assert!(fan_in + fan_out > 0, "fan_in + fan_out must be positive");
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(rng, shape, limit)
}

/// A standard-normal sample via Box–Muller.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = uniform(&mut rng, &[100], 0.5);
        assert!(t.as_slice().iter().all(|&v| (-0.5..=0.5).contains(&v)));
        assert!(t.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn xavier_limit_shrinks_with_fan() {
        let mut rng = StdRng::seed_from_u64(2);
        let wide = xavier_uniform(&mut rng, &[1000], 10_000, 10_000);
        let narrow = xavier_uniform(&mut rng, &[1000], 4, 4);
        let max_wide = wide.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let max_narrow = narrow
            .as_slice()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(max_wide < max_narrow);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = uniform(&mut StdRng::seed_from_u64(9), &[8], 1.0);
        let b = uniform(&mut StdRng::seed_from_u64(9), &[8], 1.0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "limit must be positive")]
    fn uniform_rejects_bad_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = uniform(&mut rng, &[1], 0.0);
    }
}
