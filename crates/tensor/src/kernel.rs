//! Dense slice-level kernels behind [`Matrix`](crate::Matrix).
//!
//! Every kernel here is **accumulation-order preserving**: the products
//! contributing to one output element are added one at a time in strictly
//! increasing `k` order, exactly like the retained naive triple loop
//! ([`Matrix::matmul_reference`](crate::Matrix::matmul_reference)).  Loop
//! blocking and unrolling only change *which element* is updated next,
//! never the order of additions *within* an element, so every kernel is
//! bit-for-bit identical to the reference composition it replaces
//! (asserted by the `kernel_identity` property suite).
//!
//! The kernels are branch-free in the inner loop: the old data-dependent
//! zero-skip (`if a == 0.0 { continue; }`) stalled the dense
//! controller/proxy workload on a mispredictable branch while saving
//! nothing (the operands are dense), and it silently suppressed NaN
//! propagation from non-finite operands (`0.0 * inf`).  On finite inputs
//! the skip was bit-identical — an accumulator that starts at `+0.0` can
//! never become `-0.0` under round-to-nearest addition — so removing it
//! changed no observable result (pinned by
//! `tests/kernel_identity.rs::zero_skip_semantics`).  The kernels operate
//! on raw row-major slices, so the per-element bounds checks of
//! `Matrix`'s `Index` implementation never run on the hot path.
//!
//! Products that sum along a row-major matrix's leading index
//! ([`matvec_tn`], [`sum_outer_rev`]) are register-blocked in the manner
//! of Goto & van de Geijn, "Anatomy of High-Performance Matrix
//! Multiplication" (ACM TOMS 2008): a block of 16 output
//! accumulators stays in registers for the whole sum and is vectorised
//! across the block, while each accumulator still starts at `+0.0` and
//! adds its terms one at a time in the reference order.

/// Rows of the right-hand operand kept hot per blocking step.
///
/// A block of `K_BLOCK` rhs rows (`K_BLOCK x n` doubles) is streamed
/// against every output row before the kernel moves on, so for the
/// controller / proxy shapes (`n <= 64`) the active rhs working set stays
/// within half an L1 data cache.
const K_BLOCK: usize = 32;

/// `out[j] += a * rhs[j]` over whole rows, unrolled by four.
///
/// Each output element receives exactly one addition, so unrolling cannot
/// reorder any element's accumulation.
#[inline]
fn axpy_row(out: &mut [f64], a: f64, rhs: &[f64]) {
    debug_assert_eq!(out.len(), rhs.len());
    let mut out_chunks = out.chunks_exact_mut(4);
    let mut rhs_chunks = rhs.chunks_exact(4);
    for (o, r) in out_chunks.by_ref().zip(rhs_chunks.by_ref()) {
        o[0] += a * r[0];
        o[1] += a * r[1];
        o[2] += a * r[2];
        o[3] += a * r[3];
    }
    for (o, r) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(rhs_chunks.remainder())
    {
        *o += a * r;
    }
}

/// Sequential dot product (single accumulator starting at `+0.0`,
/// ascending `k`).
///
/// Deliberately *not* multi-accumulator: splitting the sum would reorder
/// the additions and break bit-identity with the naive reference.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// `out = lhs * rhs` for row-major `lhs` (`m x p`), `rhs` (`p x n`),
/// `out` (`m x n`).  `out` is overwritten.
///
/// Blocked over `k`: a band of rhs rows is reused across every output row
/// while it is cache-hot.  Within one output element the `k` order is the
/// naive ascending order.
///
/// # Panics
///
/// Debug-asserts the slice lengths match the shapes.
pub fn matmul(lhs: &[f64], rhs: &[f64], out: &mut [f64], m: usize, p: usize, n: usize) {
    debug_assert_eq!(lhs.len(), m * p);
    debug_assert_eq!(rhs.len(), p * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    let mut kb = 0;
    while kb < p {
        let kend = (kb + K_BLOCK).min(p);
        for i in 0..m {
            let lhs_row = &lhs[i * p..(i + 1) * p];
            let out_row = &mut out[i * n..(i + 1) * n];
            for k in kb..kend {
                axpy_row(out_row, lhs_row[k], &rhs[k * n..(k + 1) * n]);
            }
        }
        kb = kend;
    }
}

/// Dot products of `x` with every row of `m` (`cols` wide), handed to
/// `emit(row, dot)` in row order.
///
/// Four rows run interleaved, each in its own accumulator with exactly
/// [`dot`]'s order (start at `+0.0`, ascending `k`), so every result is
/// bit-identical to `dot` while four independent addition chains keep
/// the floating-point adder busy instead of waiting on one chain.
#[inline]
fn row_dots(m: &[f64], x: &[f64], rows: usize, cols: usize, mut emit: impl FnMut(usize, f64)) {
    if cols == 0 {
        // Empty sums: every row's dot is the accumulator's initial `+0.0`.
        (0..rows).for_each(|row| emit(row, 0.0));
        return;
    }
    let mut blocks = m.chunks_exact(4 * cols);
    let mut row = 0;
    for block in blocks.by_ref() {
        let (r0, rest) = block.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        let mut acc = [0.0; 4];
        for ((((&a, &b), &c), &d), &xk) in r0.iter().zip(r1).zip(r2).zip(r3).zip(x) {
            acc[0] += a * xk;
            acc[1] += b * xk;
            acc[2] += c * xk;
            acc[3] += d * xk;
        }
        for value in acc {
            emit(row, value);
            row += 1;
        }
    }
    for tail in blocks.remainder().chunks_exact(cols) {
        emit(row, dot(tail, x));
        row += 1;
    }
}

/// Matrix-vector product `out = m * x` (`m` is `rows x cols` row-major).
pub fn matvec(m: &[f64], x: &[f64], out: &mut [f64], rows: usize, cols: usize) {
    debug_assert_eq!(m.len(), rows * cols);
    debug_assert_eq!(x.len(), cols);
    debug_assert_eq!(out.len(), rows);
    row_dots(m, x, rows, cols, |i, value| out[i] = value);
}

/// Output elements one register block of the column kernels holds: eight
/// SSE2 registers of two lanes, leaving the other eight for the loaded
/// row and the broadcast coefficient.
const J_BLOCK: usize = 16;

/// `out[j] = Σ_s a_s * r_s[j]` over the `(a_s, r_s)` pairs of `terms`,
/// each element summed from `+0.0` in the iteration order of `terms`.
///
/// The register block: [`J_BLOCK`] accumulators are held for a whole pass
/// over `terms` and written once, instead of read and written per term as
/// [`axpy_row`] does.  Every element still receives its terms one at a
/// time in `terms`' order, so blocking cannot reorder any element's sum.
/// Every `r_s` must be at least `out.len()` long.
#[inline(always)]
fn column_sums<'a>(out: &mut [f64], terms: impl Iterator<Item = (f64, &'a [f64])> + Clone) {
    let mut blocks = out.chunks_exact_mut(J_BLOCK);
    let mut j0 = 0;
    for block in blocks.by_ref() {
        let mut acc = [0.0; J_BLOCK];
        for (a, row) in terms.clone() {
            for (s, &r) in acc.iter_mut().zip(&row[j0..j0 + J_BLOCK]) {
                *s += a * r;
            }
        }
        block.copy_from_slice(&acc);
        j0 += J_BLOCK;
    }
    let tail = blocks.into_remainder();
    if tail.is_empty() {
        return;
    }
    tail.fill(0.0);
    for (a, row) in terms {
        for (s, &r) in tail.iter_mut().zip(&row[j0..]) {
            *s += a * r;
        }
    }
}

/// Transposed matrix-vector product `out = m^T * x` (`m` is
/// `rows x cols` row-major, `x` has `rows` elements, `out` has `cols`):
/// `out[j] = Σ_k m[k, j] * x[k]`, summed from `+0.0` in ascending `k`.
///
/// Register-blocked over `j` (see the module docs).  Called on the
/// transpose `wᵀ` of a matrix `w`, it is also the plain product `w * x`
/// bit for bit, since `(wᵀ)ᵀ x` sums the same products in the same order.
pub fn matvec_tn(m: &[f64], x: &[f64], out: &mut [f64], rows: usize, cols: usize) {
    debug_assert_eq!(m.len(), rows * cols);
    debug_assert_eq!(x.len(), rows);
    debug_assert_eq!(out.len(), cols);
    if cols == 0 {
        return;
    }
    column_sums(out, x.iter().copied().zip(m.chunks_exact(cols)));
}

/// Sum of outer products `out = Σ_t col_t row_tᵀ` (`out` is `m x n`
/// row-major; `cols` stacks the `m`-long vectors `col_t`, `rows` the
/// `n`-long `row_t`, one pair per step `t`), added from the last step to
/// the first — the order of a backward sweep through time.
///
/// Bit for bit a zero fill followed by one [`add_outer`]`(out, col_t,
/// row_t)` per `t`, from the last to the first, but register-blocked over
/// each output row (see the module docs) instead of reading and writing
/// all of `out` once per step.  It drops [`add_outer`]'s `+ 0.0`: that
/// term only turns a `-0.0` product into `+0.0`, and adding `-0.0` or
/// `+0.0` to an accumulator that is not `-0.0` gives the same result.  An
/// accumulator that starts at `+0.0` never becomes `-0.0` under
/// round-to-nearest, because `x + y` is `-0.0` only when both are `-0.0`.
pub fn sum_outer_rev(out: &mut [f64], cols: &[f64], rows: &[f64], m: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    debug_assert_eq!(cols.len() / m, rows.len() / n, "one column per row");
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        // Each side reversed before the zip: a reversed zip would recount
        // both sides' lengths, a division each, at every step.
        let col_i = cols.chunks_exact(m).rev().map(move |col| col[i]);
        column_sums(out_row, col_i.zip(rows.chunks_exact(n).rev()));
    }
}

/// Column gather `out[i] = m[i, col] + 0.0` (`m` is `rows x cols`
/// row-major) — the product `m * e_col` with the one-hot vector `e_col`.
///
/// The reference product of a row with a one-hot vector accumulates
/// `0.0 + m[i, 0] * 0.0 + ... + m[i, col] * 1.0 + ...`: every zero term is
/// a signed zero, which leaves an accumulator that started at `+0.0`
/// unchanged, and the one live term lands as `m[i, col] + 0.0` (a `-0.0`
/// entry becomes `+0.0`).  So the gather is bit-identical to the product
/// whenever the row is finite; an infinite entry elsewhere in the row
/// makes the product's `inf * 0.0` term `NaN`, which the gather never
/// evaluates.
pub fn gather_column(m: &[f64], col: usize, out: &mut [f64], rows: usize, cols: usize) {
    assert!(col < cols, "column {col} out of range for {cols} columns");
    debug_assert_eq!(m.len(), rows * cols);
    debug_assert_eq!(out.len(), rows);
    for (slot, row) in out.iter_mut().zip(m.chunks_exact(cols)) {
        *slot = row[col] + 0.0;
    }
}

/// Column scatter `m[i, col] += v[i] + 0.0` (`m` is `rows x cols`
/// row-major) — the rank-1 update `m += v * e_col^T` with a one-hot row.
///
/// [`add_outer`] adds `v[i] * 0.0 + 0.0 = +0.0` to every other column,
/// which changes nothing as long as `v` is finite and the accumulator
/// holds no `-0.0` (true of any buffer that starts zeroed and only
/// receives `x + 0.0` terms, as gradient buffers do).  A non-finite
/// `v[i]` turns the rank-1 update's whole row `NaN`; the scatter touches
/// only `col`.
pub fn scatter_add_column(m: &mut [f64], col: usize, v: &[f64], rows: usize, cols: usize) {
    assert!(col < cols, "column {col} out of range for {cols} columns");
    debug_assert_eq!(m.len(), rows * cols);
    debug_assert_eq!(v.len(), rows);
    for (row, &vi) in m.chunks_exact_mut(cols).zip(v) {
        row[col] += vi + 0.0;
    }
}

/// Rank-1 update `out += col * row^T` (`out` is `col.len() x row.len()`
/// row-major) — the fused form of `grads += dz.matmul(&x.transpose())`.
///
/// The `+ 0.0` mirrors the composition being fused: the materialised
/// rank-1 matmul accumulates each product into a zeroed buffer, turning a
/// `-0.0` product into `+0.0` before the `+=` — the fused kernel must do
/// the same to stay bit-identical.
pub fn add_outer(out: &mut [f64], col: &[f64], row: &[f64]) {
    debug_assert_eq!(out.len(), col.len() * row.len());
    let n = row.len();
    for (i, &c) in col.iter().enumerate() {
        for (slot, &r) in out[i * n..(i + 1) * n].iter_mut().zip(row) {
            *slot += c * r + 0.0;
        }
    }
}

/// Outer product `out = col * row^T` (overwrites `out`).
///
/// Implemented as zero-then-accumulate rather than a direct store: the
/// reference composition computes `0.0 + c * r`, and `0.0 + (-0.0)` is
/// `+0.0` while a direct store would keep the `-0.0` — the accumulate
/// keeps the kernel bit-identical.
pub fn set_outer(out: &mut [f64], col: &[f64], row: &[f64]) {
    debug_assert_eq!(out.len(), col.len() * row.len());
    out.fill(0.0);
    add_outer(out, col, row);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_result() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let mut out = vec![0.0; 4];
        matmul(
            &[1.0, 2.0, 3.0, 4.0],
            &[5.0, 6.0, 7.0, 8.0],
            &mut out,
            2,
            2,
            2,
        );
        assert_eq!(out, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn empty_dimensions_are_no_ops() {
        let mut out: Vec<f64> = Vec::new();
        matmul(&[], &[1.0, 2.0], &mut out, 0, 1, 2);
        assert!(out.is_empty());
    }

    #[test]
    fn matvec_pair_round_trip() {
        let m = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let mut y = vec![0.0; 2];
        matvec(&m, &[1.0, 0.0, -1.0], &mut y, 2, 3);
        assert_eq!(y, vec![-2.0, -2.0]);
        let mut yt = vec![0.0; 3];
        matvec_tn(&m, &[1.0, -1.0], &mut yt, 2, 3);
        assert_eq!(yt, vec![-3.0, -3.0, -3.0]);
    }

    #[test]
    fn outer_products_accumulate() {
        let mut out = vec![0.0; 6];
        set_outer(&mut out, &[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(out, vec![3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
        add_outer(&mut out, &[1.0, 1.0], &[1.0, 1.0, 1.0]);
        assert_eq!(out, vec![4.0, 5.0, 6.0, 7.0, 9.0, 11.0]);
        // The same two steps as one sum: [1 2] x [3 4 5] + [1 1] x [1 1 1].
        let mut summed = vec![7.0; 6];
        sum_outer_rev(
            &mut summed,
            &[1.0, 2.0, 1.0, 1.0],
            &[3.0, 4.0, 5.0, 1.0, 1.0, 1.0],
            2,
            3,
        );
        assert_eq!(summed, out);
    }
}
