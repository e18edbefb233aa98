//! Property tests pinning the blocked/unrolled kernels to the retained
//! naive reference, bit for bit.
//!
//! The identity bound is exact (`f64::to_bits` equality, not an ULP
//! tolerance): every optimized kernel accumulates each output element's
//! products in the same ascending-`k` order as
//! [`Matrix::matmul_reference`], so IEEE-754 rounding is applied in the
//! same sequence and the results cannot differ.  Shapes are drawn to
//! cover the edges the blocking logic has to get right: `0xN`, `Nx0`,
//! `1xN`, inner dimensions around and beyond the kernel block size, and
//! output widths on both sides of the column kernels' 16-element register
//! block, so their remainder path runs too.

use nasaic_tensor::{kernel, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random matrix whose entries include exact `0.0` and `-0.0` with
/// non-trivial probability, so the suite also witnesses that dropping the
/// old data-dependent zero-skip changed no bit.
fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen_bool(0.15) {
                0.0
            } else if rng.gen_bool(0.05) {
                -0.0
            } else {
                rng.gen_range(-2.0..2.0)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Random matrix whose entries are `+0.0` or `-0.0` with probability
/// `zeros`: at `1.0` every product is a signed zero.
fn signed_zero_matrix(rng: &mut StdRng, rows: usize, cols: usize, zeros: f64) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen_bool(zeros) {
                if rng.gen_bool(0.5) {
                    0.0
                } else {
                    -0.0
                }
            } else {
                rng.gen_range(-2.0..2.0)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn assert_bits_equal(actual: &Matrix, expected: &Matrix) {
    assert_eq!(actual.shape(), expected.shape());
    for (a, e) in actual.as_slice().iter().zip(expected.as_slice()) {
        assert_eq!(
            a.to_bits(),
            e.to_bits(),
            "bit mismatch: {a} vs {e} (shape {:?})",
            actual.shape()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Blocked dense matmul is bit-identical to the naive triple loop,
    /// including inner dimensions that are not multiples of the block
    /// size and degenerate 0/1-sized shapes.
    #[test]
    fn blocked_matmul_matches_reference(
        seed in any::<u64>(),
        m in 0usize..6,
        p in 0usize..70,
        n in 0usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, p);
        let b = random_matrix(&mut rng, p, n);
        assert_bits_equal(&a.matmul(&b), &a.matmul_reference(&b));
    }

    /// Matrix-vector products match the column-vector matmul composition
    /// bit for bit: the plain product, and both ways the controller uses
    /// the register-blocked column kernel — `mᵀ x` on the row-major matrix
    /// (the backward's `U_tᵀ dlogits` and `W_hᵀ dz`), and `m x` read from
    /// the transpose `mᵀ` (the forward's `W_h h`).  Widths straddle the
    /// register block, and the operands may be dense in signed zeros.
    #[test]
    fn matvec_kernels_match_reference(
        seed in any::<u64>(),
        rows in 0usize..48,
        cols in 0usize..53,
        zeros in prop_oneof![Just(0.2), Just(0.5), Just(1.0)],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = signed_zero_matrix(&mut rng, rows, cols, zeros);
        let x = signed_zero_matrix(&mut rng, cols, 1, zeros);
        let mut y = vec![7.0; 3]; // stale scratch
        m.matvec_into(x.as_slice(), &mut y);
        let product = m.matmul_reference(&x);
        assert_bits_equal(&Matrix::col_vector(&y), &product);
        let mut from_transpose = Vec::new();
        m.transpose().matvec_tn_into(x.as_slice(), &mut from_transpose);
        assert_bits_equal(&Matrix::col_vector(&from_transpose), &product);
        let xt = signed_zero_matrix(&mut rng, rows, 1, zeros);
        let mut yt = Vec::new();
        m.matvec_tn_into(xt.as_slice(), &mut yt);
        assert_bits_equal(
            &Matrix::col_vector(&yt),
            &m.transpose().matmul_reference(&xt),
        );
    }

    /// The one-pass `W_h` gradient: `Σ_t col_t row_tᵀ` from the last step
    /// to the first is a zero fill followed by one `add_outer` per step in
    /// that order, bit for bit, whatever `out` held before.
    #[test]
    fn outer_product_sum_matches_add_outer_sweep(
        seed in any::<u64>(),
        steps in 0usize..24,
        m in 0usize..20,
        n in 0usize..53,
        zeros in prop_oneof![Just(0.2), Just(0.5), Just(1.0)],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cols = signed_zero_matrix(&mut rng, steps, m, zeros);
        let rows = signed_zero_matrix(&mut rng, steps, n, zeros);
        let mut expected = Matrix::zeros(m, n);
        for t in (0..steps).rev() {
            expected.add_outer(cols.row(t), rows.row(t));
        }
        let mut summed = Matrix::filled(m, n, 7.0);
        kernel::sum_outer_rev(summed.as_mut_slice(), cols.as_slice(), rows.as_slice(), m, n);
        assert_bits_equal(&summed, &expected);
    }

    /// The recurrent step's one-hot input products: the column gather is
    /// the matmul with a one-hot vector, and the column scatter is the
    /// rank-1 update with a one-hot row, bit for bit on finite operands
    /// that include exact and negative zeros.
    #[test]
    fn one_hot_column_kernels_match_reference(
        seed in any::<u64>(),
        rows in 0usize..40,
        cols in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_matrix(&mut rng, rows, cols);
        let col = rng.gen_range(0..cols);
        let mut e = Matrix::zeros(cols, 1);
        e[(col, 0)] = 1.0;
        let mut gathered = vec![7.0; rows];
        kernel::gather_column(m.as_slice(), col, &mut gathered, rows, cols);
        assert_bits_equal(&Matrix::col_vector(&gathered), &m.matmul_reference(&e));

        // Scatter into an accumulator the way gradient buffers are used:
        // start zeroed, then take several updates on varying columns.
        // Such a buffer never holds `-0.0` (see `negative_zero_and_non_finite_caveats`).
        let mut scattered = Matrix::zeros(rows, cols);
        let mut dense = Matrix::zeros(rows, cols);
        for _ in 0..4 {
            let col = rng.gen_range(0..cols);
            let mut e = Matrix::zeros(1, cols);
            e[(0, col)] = 1.0;
            let v = random_matrix(&mut rng, rows, 1);
            kernel::scatter_add_column(scattered.as_mut_slice(), col, v.as_slice(), rows, cols);
            dense.add_outer(v.as_slice(), e.as_slice());
            assert_bits_equal(&scattered, &dense);
        }
    }

    /// Outer-product helpers match the rank-1 matmul composition bit for
    /// bit, both the overwriting and the accumulating form.
    #[test]
    fn outer_product_kernels_match_reference(
        seed in any::<u64>(),
        rows in 0usize..16,
        cols in 0usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let col = random_matrix(&mut rng, rows, 1);
        let row = random_matrix(&mut rng, 1, cols);
        let rank1 = col.matmul_reference(&row);
        let mut m = random_matrix(&mut rng, 2, 5);
        m.set_outer(col.as_slice(), row.as_slice());
        assert_bits_equal(&m, &rank1);
        let base = random_matrix(&mut rng, rows, cols);
        let mut accumulated = base.clone();
        accumulated.add_outer(col.as_slice(), row.as_slice());
        let mut expected = base;
        expected += &rank1;
        assert_bits_equal(&accumulated, &expected);
    }
}

/// The old dense kernel skipped `lhs` entries that compared equal to
/// zero.  On finite inputs the skip changed no bit: every skipped term is
/// `0.0 * x = ±0.0`, and an accumulator that starts at `+0.0` stays
/// `+0.0` under round-to-nearest addition of a signed zero, which is also
/// what skipping leaves behind.  The only observable difference is
/// non-finite operands: the skip suppressed `0.0 * inf = NaN`.  This test
/// pins both facts, so the zero-skip removal is an audited decision
/// rather than a silent change.
#[test]
fn zero_skip_semantics() {
    fn matmul_with_zero_skip(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(lhs.rows(), rhs.cols());
        for i in 0..lhs.rows() {
            for k in 0..lhs.cols() {
                let a = lhs[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols() {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    // Non-finite corner: the skip never evaluates 0.0 * inf, so it hides
    // the NaN the IEEE semantics (and the branch-free kernel) produce.
    let lhs = Matrix::row_vector(&[0.0]);
    let rhs = Matrix::col_vector(&[f64::INFINITY]);
    let skipped = matmul_with_zero_skip(&lhs, &rhs);
    let dense = lhs.matmul(&rhs);
    assert_eq!(skipped[(0, 0)].to_bits(), 0.0_f64.to_bits());
    assert!(dense[(0, 0)].is_nan());
    // The branch-free kernel agrees with the retained reference even
    // here; the skip kernel is the odd one out.
    assert!(lhs.matmul_reference(&rhs)[(0, 0)].is_nan());

    // On finite inputs — including exact and negative zeros — the two
    // kernels agree bit for bit, so no search outcome could observe the
    // removal.
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..64 {
        let m = rng.gen_range(1usize..5);
        let p = rng.gen_range(1usize..40);
        let n = rng.gen_range(1usize..5);
        let a = random_matrix(&mut rng, m, p);
        let b = random_matrix(&mut rng, p, n);
        assert_bits_equal(&matmul_with_zero_skip(&a, &b), &a.matmul(&b));
    }
}

/// Where the one-hot column kernels and the dense products they replace
/// part ways — pinned so the preconditions the controller relies on are
/// audited facts, not assumptions:
///
/// * an infinite weight elsewhere in the row makes the dense product's
///   `inf * 0.0` term `NaN`, while the gather never reads it;
/// * a non-finite update value turns the whole dense rank-1 row `NaN`,
///   while the scatter touches one column;
/// * the dense rank-1 update normalises a `-0.0` accumulator entry in
///   another column to `+0.0`, while the scatter leaves it alone (in the
///   updated column both add `v + 0.0` and agree).
///
/// None of these can reach the controller: gradient clipping keeps its
/// weights finite, `ReinforceTrainer::update` rejects non-finite rewards
/// (so every gradient is finite), and gradient buffers start at `+0.0`
/// and only ever receive `x + 0.0` terms, which are never `-0.0`.
#[test]
fn negative_zero_and_non_finite_caveats() {
    // Gather vs one-hot matmul with an infinite entry in another column.
    let m = Matrix::row_vector(&[f64::INFINITY, 2.0]);
    let mut gathered = [0.0];
    kernel::gather_column(m.as_slice(), 1, &mut gathered, 1, 2);
    assert_eq!(gathered[0], 2.0);
    assert!(m.matmul_reference(&Matrix::col_vector(&[0.0, 1.0]))[(0, 0)].is_nan());

    // Scatter vs rank-1 update with a non-finite value.
    for bad in [f64::INFINITY, f64::NAN] {
        let mut scattered = Matrix::zeros(1, 3);
        kernel::scatter_add_column(scattered.as_mut_slice(), 1, &[bad], 1, 3);
        let mut dense = Matrix::zeros(1, 3);
        dense.add_outer(&[bad], &[0.0, 1.0, 0.0]);
        assert_eq!((scattered[(0, 0)], scattered[(0, 2)]), (0.0, 0.0), "{bad}");
        assert!(dense[(0, 0)].is_nan() && dense[(0, 2)].is_nan(), "{bad}");
    }

    // A `-0.0` accumulator entry: outside the updated column the dense
    // update normalises it to `+0.0` and the scatter leaves it; inside the
    // column both add `v + 0.0` and agree.
    let mut scattered = Matrix::row_vector(&[-0.0, -0.0]);
    kernel::scatter_add_column(scattered.as_mut_slice(), 1, &[-0.0], 1, 2);
    let mut dense = Matrix::row_vector(&[-0.0, -0.0]);
    dense.add_outer(&[-0.0], &[0.0, 1.0]);
    assert_eq!(scattered[(0, 0)].to_bits(), (-0.0_f64).to_bits());
    assert_eq!(dense[(0, 0)].to_bits(), 0.0_f64.to_bits());
    assert_eq!(scattered[(0, 1)].to_bits(), 0.0_f64.to_bits());
    assert_eq!(dense[(0, 1)].to_bits(), 0.0_f64.to_bits());
}

/// `sum_outer_rev` drops `add_outer`'s `+ 0.0`.  That term turns a `-0.0`
/// product into `+0.0`; the kernel's accumulators start at `+0.0`, and
/// `+0.0 + -0.0` is `+0.0` under round-to-nearest, so they never hold
/// `-0.0` and the dropped term cannot show.  Pinned on the case where it
/// would: every product `-0.0`, over one step and over several, on both
/// sides of the register block.
#[test]
fn outer_product_sum_of_negative_zero_products_is_positive_zero() {
    for (steps, m, n) in [(1, 3, 5), (4, 2, 16), (3, 5, 37)] {
        // Even steps pair a -0.0 column with a positive row, odd steps a
        // positive column with a -0.0 row: every product is -0.0.
        let cols: Vec<f64> = (0..steps * m)
            .map(|k| if (k / m) % 2 == 0 { -0.0 } else { 1.5 })
            .collect();
        let rows: Vec<f64> = (0..steps * n)
            .map(|k| if (k / n) % 2 == 0 { 0.75 } else { -0.0 })
            .collect();
        let mut expected = Matrix::zeros(m, n);
        for t in (0..steps).rev() {
            expected.add_outer(&cols[t * m..(t + 1) * m], &rows[t * n..(t + 1) * n]);
        }
        let mut summed = vec![-0.0; m * n];
        kernel::sum_outer_rev(&mut summed, &cols, &rows, m, n);
        for (got, want) in summed.iter().zip(expected.as_slice()) {
            assert_eq!(got.to_bits(), 0.0_f64.to_bits(), "{steps}x{m}x{n}");
            assert_eq!(want.to_bits(), 0.0_f64.to_bits(), "{steps}x{m}x{n}");
        }
    }
}
