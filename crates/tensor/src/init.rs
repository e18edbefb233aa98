//! Parameter initialisation schemes.
//!
//! The controller and proxy networks are small, so the exact scheme matters
//! less than reproducibility: every initialiser takes an explicit RNG so
//! seeded runs are deterministic.

use crate::Matrix;
use rand::Rng;

/// Uniform initialisation in `[-limit, limit]`.
///
/// # Panics
///
/// Panics if `limit` is negative.
pub fn uniform<R: Rng>(rng: &mut R, rows: usize, cols: usize, limit: f64) -> Matrix {
    assert!(limit >= 0.0, "uniform init limit must be non-negative");
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-limit..=limit))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Xavier/Glorot uniform initialisation: limit `sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform<R: Rng>(rng: &mut R, rows: usize, cols: usize) -> Matrix {
    let fan_in = cols.max(1) as f64;
    let fan_out = rows.max(1) as f64;
    let limit = (6.0 / (fan_in + fan_out)).sqrt();
    uniform(rng, rows, cols, limit)
}

/// He/Kaiming-style uniform initialisation (used before ReLU layers):
/// limit `sqrt(6 / fan_in)`.
pub fn he_uniform<R: Rng>(rng: &mut R, rows: usize, cols: usize) -> Matrix {
    let fan_in = cols.max(1) as f64;
    let limit = (6.0 / fan_in).sqrt();
    uniform(rng, rows, cols, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_limit() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = uniform(&mut rng, 20, 20, 0.3);
        assert!(m.max_abs() <= 0.3);
        assert!(m.max_abs() > 0.0);
    }

    #[test]
    fn xavier_limit_shrinks_with_size() {
        let mut rng = StdRng::seed_from_u64(7);
        let small = xavier_uniform(&mut rng, 4, 4);
        let big = xavier_uniform(&mut rng, 400, 400);
        assert!(big.max_abs() < small.max_abs());
    }

    #[test]
    fn he_uniform_has_expected_bound() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = he_uniform(&mut rng, 8, 24);
        assert!(m.max_abs() <= (6.0 / 24.0_f64).sqrt() + 1e-12);
    }

    #[test]
    fn seeded_initialisation_is_deterministic() {
        let a = xavier_uniform(&mut StdRng::seed_from_u64(42), 5, 5);
        let b = xavier_uniform(&mut StdRng::seed_from_u64(42), 5, 5);
        assert_eq!(a, b);
    }
}
