//! Vector and (flat row-major) matrix primitives for batch-size-1 training.
//!
//! The matrix-vector kernels write into a caller-owned `&mut [f64]`
//! output slice, so the training and forecast loops never allocate. The
//! original allocating forms (`matvec`, `matvec_transposed`) survive only
//! under `#[cfg(test)]`, as the oracle the write-into and column-major
//! forms are checked against: each output element is accumulated as the
//! same ordered sequence of IEEE-754 adds, so the optimized layouts change
//! memory traffic, never rounding.

use rand::Rng;

/// y = W·x where `w` is `rows × cols` row-major and `x` has `cols` entries
/// (allocating test oracle for [`matvec_into`]).
///
/// # Panics
///
/// Panics if dimensions disagree.
#[cfg(test)]
pub(crate) fn matvec(w: &[f64], rows: usize, cols: usize, x: &[f64]) -> Vec<f64> {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    let mut y = vec![0.0; rows];
    for (r, yr) in y.iter_mut().enumerate() {
        let row = &w[r * cols..(r + 1) * cols];
        let mut acc = 0.0;
        for (wv, xv) in row.iter().zip(x) {
            acc += wv * xv;
        }
        *yr = acc;
    }
    y
}

/// `y = W·x` where `w` is `rows × cols` row-major, written into a
/// caller-owned slice of `rows` entries.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn matvec_into(w: &[f64], rows: usize, cols: usize, x: &[f64], y: &mut [f64]) {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    assert_eq!(y.len(), rows, "output length mismatch");
    for (r, yr) in y.iter_mut().enumerate() {
        let row = &w[r * cols..(r + 1) * cols];
        let mut acc = 0.0;
        for (wv, xv) in row.iter().zip(x) {
            acc += wv * xv;
        }
        *yr = acc;
    }
}

/// `y = W·x` where `wt` stores W in **column-major** order (`wt[c·rows + r]
/// = W[r][c]`, see [`transpose_into`]). Iterating columns in the outer loop
/// turns each column's contribution into a contiguous axpy over `y`, which
/// vectorizes — while every `y[r]` still accumulates `W[r][c]·x[c]` for
/// `c = 0, 1, …` in exactly the order the row-major dot product in
/// [`matvec_into`] uses, so the result is bit-identical.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn matvec_colmajor_into(wt: &[f64], rows: usize, cols: usize, x: &[f64], y: &mut [f64]) {
    assert_eq!(wt.len(), rows * cols, "weight shape mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    assert_eq!(y.len(), rows, "output length mismatch");
    y.iter_mut().for_each(|v| *v = 0.0);
    for (c, &xv) in x.iter().enumerate() {
        let col = &wt[c * rows..(c + 1) * rows];
        for (yv, &wv) in y.iter_mut().zip(col) {
            *yv += wv * xv;
        }
    }
}

/// Writes the column-major mirror of the `rows × cols` row-major `w` into
/// `wt` (`wt[c·rows + r] = w[r·cols + c]`). Cells refresh their mirrors
/// after each optimizer step so [`matvec_colmajor_into`] always sees
/// current weights.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn transpose_into(w: &[f64], rows: usize, cols: usize, wt: &mut [f64]) {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(wt.len(), rows * cols, "mirror length mismatch");
    for r in 0..rows {
        let row = &w[r * cols..(r + 1) * cols];
        for (c, &wv) in row.iter().enumerate() {
            wt[c * rows + r] = wv;
        }
    }
}

/// y = Wᵀ·g where `w` is `rows × cols` row-major and `g` has `rows`
/// entries (allocating test oracle for [`matvec_transposed_into`]).
///
/// # Panics
///
/// Panics if dimensions disagree.
#[cfg(test)]
pub(crate) fn matvec_transposed(w: &[f64], rows: usize, cols: usize, g: &[f64]) -> Vec<f64> {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(g.len(), rows, "gradient length mismatch");
    let mut y = vec![0.0; cols];
    matvec_transposed_into(w, rows, cols, g, &mut y);
    y
}

/// `y = Wᵀ·g` into a caller-owned slice — how gradients propagate back
/// through a linear map. The row-outer/column-inner loop is already the
/// vector-friendly orientation for a row-major `w` (each row is a
/// contiguous axpy over `y`), and each `y[c]` accumulates over
/// `r = 0, 1, …` in a fixed order.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn matvec_transposed_into(w: &[f64], rows: usize, cols: usize, g: &[f64], y: &mut [f64]) {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(g.len(), rows, "gradient length mismatch");
    assert_eq!(y.len(), cols, "output length mismatch");
    y.iter_mut().for_each(|v| *v = 0.0);
    for (r, &gr) in g.iter().enumerate() {
        let row = &w[r * cols..(r + 1) * cols];
        for (yc, wv) in y.iter_mut().zip(row) {
            *yc += wv * gr;
        }
    }
}

/// dW += g ⊗ x (outer product accumulate) for a `rows × cols` gradient
/// buffer.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn outer_accumulate(dw: &mut [f64], g: &[f64], x: &[f64]) {
    assert_eq!(dw.len(), g.len() * x.len(), "gradient shape mismatch");
    for (r, &gr) in g.iter().enumerate() {
        let row = &mut dw[r * x.len()..(r + 1) * x.len()];
        for (d, &xv) in row.iter_mut().zip(x) {
            *d += gr * xv;
        }
    }
}

/// Element-wise a += b.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn add_assign(a: &mut [f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (av, bv) in a.iter_mut().zip(b) {
        *av += bv;
    }
}

/// Xavier/Glorot uniform initialization for a `rows × cols` weight matrix.
pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Vec<f64> {
    let bound = (6.0 / (rows + cols) as f64).sqrt();
    (0..rows * cols)
        .map(|_| rng.gen_range(-bound..bound))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matvec_known_result() {
        // [[1,2],[3,4]] · [5,6] = [17, 39]
        let w = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(matvec(&w, 2, 2, &[5.0, 6.0]), vec![17.0, 39.0]);
    }

    #[test]
    fn transpose_consistency() {
        // (Wᵀg)·x == g·(Wx) for all g, x
        let w = [0.5, -1.0, 2.0, 0.25, 1.5, -0.75];
        let x = [1.0, 2.0, 3.0];
        let g = [0.3, -0.6];
        let wx = matvec(&w, 2, 3, &x);
        let wtg = matvec_transposed(&w, 2, 3, &g);
        let lhs: f64 = wtg.iter().zip(&x).map(|(a, b)| a * b).sum();
        let rhs: f64 = g.iter().zip(&wx).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn outer_accumulate_adds() {
        let mut dw = vec![1.0; 4];
        outer_accumulate(&mut dw, &[2.0, 3.0], &[10.0, 20.0]);
        assert_eq!(dw, vec![21.0, 41.0, 31.0, 61.0]);
    }

    #[test]
    fn add_assign_elementwise() {
        let mut a = vec![1.0, 2.0];
        add_assign(&mut a, &[3.0, 4.0]);
        assert_eq!(a, vec![4.0, 6.0]);
    }

    #[test]
    fn xavier_respects_bound_and_seed() {
        let mut rng = StdRng::seed_from_u64(9);
        let w = xavier(8, 8, &mut rng);
        let bound = (6.0 / 16.0_f64).sqrt();
        assert!(w.iter().all(|v| v.abs() < bound));
        let mut rng2 = StdRng::seed_from_u64(9);
        assert_eq!(w, xavier(8, 8, &mut rng2));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matvec_rejects_bad_shape() {
        let _ = matvec(&[1.0, 2.0], 2, 2, &[1.0, 1.0]);
    }

    /// Awkward rows/cols and values spanning many exponents: the write-into
    /// and column-major forms must be bit-identical to the reference, not
    /// merely close.
    #[test]
    fn into_variants_are_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(17);
        for (rows, cols) in [(1, 1), (3, 5), (128, 32), (128, 1), (7, 13)] {
            let w = xavier(rows, cols, &mut rng);
            let x: Vec<f64> = (0..cols)
                .map(|i| (i as f64 - 2.0) * 1e3_f64.powi(i as i32 % 5 - 2))
                .collect();
            let g: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.37).sin() * 1e-3).collect();

            let y_ref = matvec(&w, rows, cols, &x);
            let mut y = vec![f64::NAN; rows];
            matvec_into(&w, rows, cols, &x, &mut y);
            assert_eq!(y, y_ref, "matvec_into {rows}x{cols}");

            let mut wt = vec![0.0; rows * cols];
            transpose_into(&w, rows, cols, &mut wt);
            let mut y2 = vec![f64::NAN; rows];
            matvec_colmajor_into(&wt, rows, cols, &x, &mut y2);
            assert_eq!(y2, y_ref, "matvec_colmajor_into {rows}x{cols}");

            let t_ref = matvec_transposed(&w, rows, cols, &g);
            let mut t = vec![f64::NAN; cols];
            matvec_transposed_into(&w, rows, cols, &g, &mut t);
            assert_eq!(t, t_ref, "matvec_transposed_into {rows}x{cols}");
        }
    }

    #[test]
    fn transpose_round_trips() {
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let mut wt = [0.0; 6];
        transpose_into(&w, 2, 3, &mut wt);
        assert_eq!(wt, [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let mut back = [0.0; 6];
        transpose_into(&wt, 3, 2, &mut back);
        assert_eq!(back, w);
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn matvec_into_rejects_bad_output() {
        let mut y = [0.0; 3];
        matvec_into(&[1.0, 2.0, 3.0, 4.0], 2, 2, &[1.0, 1.0], &mut y);
    }
}
