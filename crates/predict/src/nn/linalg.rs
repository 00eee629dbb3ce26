//! Vector and (flat row-major) `f32` matrix primitives for batch-size-1
//! training.
//!
//! The matrix-vector kernels write into a caller-owned `&mut [f32]`
//! output slice, so the training and forecast loops never allocate. The
//! original allocating forms (`matvec`, `matvec_transposed`) survive only
//! under `#[cfg(test)]`, as the oracle the write-into and column-major
//! forms are checked against: each output element is accumulated as the
//! same ordered sequence of IEEE-754 adds, so the optimized layouts change
//! memory traffic, never rounding.
//!
//! The training kernels are register-tiled. [`matvec_colmajor_into`] and
//! [`matvec_transposed_into`] hold a `TILE`-wide slice of their output
//! in a local array for its whole reduction, and [`outer_accumulate_seq`]
//! holds each block of `dW` there across all timesteps, so every output
//! element is stored once instead of being reloaded and re-stored for
//! every weight column or timestep. Elements outside whole tiles run the
//! untiled loop. Tiling changes which elements are live at once, never
//! the order in which any one element accumulates.

use rand::Rng;

/// Output elements a tiled matvec holds in registers across its whole
/// reduction (and the height of the column strips in
/// [`outer_accumulate_seq`]): four AVX2 registers of `f32`.
pub(crate) const TILE: usize = 32;

/// Rows of the `dW` block [`outer_accumulate_seq`] holds in registers.
pub(crate) const BLOCK_ROWS: usize = 4;

/// Columns of the `dW` block [`outer_accumulate_seq`] holds in registers.
pub(crate) const BLOCK_COLS: usize = 16;

/// y = W·x where `w` is `rows × cols` row-major and `x` has `cols` entries
/// (allocating test oracle for [`matvec_into`]).
///
/// # Panics
///
/// Panics if dimensions disagree.
#[cfg(test)]
pub(crate) fn matvec(w: &[f32], rows: usize, cols: usize, x: &[f32]) -> Vec<f32> {
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
pub fn matvec_into(w: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
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
/// = W[r][c]`, see [`transpose_into`]). Each 32-wide tile of `y`
/// accumulates in registers across all columns as contiguous per-column
/// axpys, which vectorize — while every `y[r]` still accumulates
/// `W[r][c]·x[c]` for `c = 0, 1, …` in exactly the order the row-major
/// dot product in [`matvec_into`] uses, so the result is bit-identical.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn matvec_colmajor_into(wt: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
    assert_eq!(wt.len(), rows * cols, "weight shape mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    assert_eq!(y.len(), rows, "output length mismatch");
    transposed_tiled(wt, x, y);
}

/// Writes the column-major mirror of the `rows × cols` row-major `w` into
/// `wt` (`wt[c·rows + r] = w[r·cols + c]`). Cells refresh their mirrors
/// after each optimizer step so [`matvec_colmajor_into`] always sees
/// current weights.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn transpose_into(w: &[f32], rows: usize, cols: usize, wt: &mut [f32]) {
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
pub(crate) fn matvec_transposed(w: &[f32], rows: usize, cols: usize, g: &[f32]) -> Vec<f32> {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(g.len(), rows, "gradient length mismatch");
    let mut y = vec![0.0; cols];
    matvec_transposed_into(w, rows, cols, g, &mut y);
    y
}

/// `y = Wᵀ·g` into a caller-owned slice — how gradients propagate back
/// through a linear map. Each 32-wide tile of `y` accumulates in registers
/// across all rows of the row-major `w` (contiguous row segments, which
/// vectorize), and each `y[c]` accumulates over `r = 0, 1, …` in a fixed
/// order.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn matvec_transposed_into(w: &[f32], rows: usize, cols: usize, g: &[f32], y: &mut [f32]) {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(g.len(), rows, "gradient length mismatch");
    assert_eq!(y.len(), cols, "output length mismatch");
    transposed_tiled(w, g, y);
}

/// `y = Mᵀ·v` for a row-major `v.len() × y.len()` matrix `m`: each `y[j]`
/// starts at 0.0 and adds `m[i][j]·v[i]` for `i = 0, 1, …`. Both matvec
/// layouts reduce to this shape — the column-major mirror of W is Wᵀ row
/// by row. Full tiles of `y` stay in a local array for the whole sweep
/// over `v`; the remainder runs the untiled axpy loop.
fn transposed_tiled(m: &[f32], v: &[f32], y: &mut [f32]) {
    let n = y.len();
    let mut tiles = y.chunks_exact_mut(TILE);
    let mut j0 = 0;
    for tile in tiles.by_ref() {
        let mut acc = [0.0; TILE];
        for (i, &vi) in v.iter().enumerate() {
            let seg = &m[i * n + j0..i * n + j0 + TILE];
            for (a, &mv) in acc.iter_mut().zip(seg) {
                *a += mv * vi;
            }
        }
        tile.copy_from_slice(&acc);
        j0 += TILE;
    }
    let rest = tiles.into_remainder();
    rest.fill(0.0);
    for (i, &vi) in v.iter().enumerate() {
        for (yj, &mv) in rest.iter_mut().zip(&m[i * n + j0..(i + 1) * n]) {
            *yj += mv * vi;
        }
    }
}

/// dW += g ⊗ x (outer product accumulate) for a `rows × cols` gradient
/// buffer.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn outer_accumulate(dw: &mut [f32], g: &[f32], x: &[f32]) {
    assert_eq!(dw.len(), g.len() * x.len(), "gradient shape mismatch");
    for (r, &gr) in g.iter().enumerate() {
        let row = &mut dw[r * x.len()..(r + 1) * x.len()];
        for (d, &xv) in row.iter_mut().zip(x) {
            *d += gr * xv;
        }
    }
}

/// Sequence form of [`outer_accumulate`]: `dW += Σ_t g_t ⊗ x_t` over the
/// flat `steps × rows` gradients `gs` and `steps × cols` inputs `xs`,
/// adding steps in **reverse** order (`t = steps-1, …, 0`) — bit-identical
/// to calling `outer_accumulate(dw, g_t, x_t)` once per step while
/// backpropagating through time.
///
/// `dW` is covered by disjoint blocks, each held in registers for the
/// whole sweep over steps: 4 × 16 blocks where the shape allows, then
/// 32 × 1 column strips (the narrow input matrix of a first LSTM layer),
/// then single elements.
///
/// # Panics
///
/// Panics if `steps` is zero or the shapes disagree.
pub fn outer_accumulate_seq(dw: &mut [f32], gs: &[f32], xs: &[f32], steps: usize) {
    assert!(steps > 0, "need at least one step");
    let (rows, cols) = (gs.len() / steps, xs.len() / steps);
    assert_eq!(gs.len(), steps * rows, "gradient sequence shape mismatch");
    assert_eq!(xs.len(), steps * cols, "input sequence shape mismatch");
    assert_eq!(dw.len(), rows * cols, "gradient shape mismatch");
    let shape = (rows, cols);
    let full_rows = rows - rows % BLOCK_ROWS;
    let full_cols = cols - cols % BLOCK_COLS;
    let strip_rows = rows - rows % TILE;
    for r0 in (0..full_rows).step_by(BLOCK_ROWS) {
        for c0 in (0..full_cols).step_by(BLOCK_COLS) {
            accumulate_block::<BLOCK_ROWS, BLOCK_COLS>(dw, gs, xs, shape, r0, c0);
        }
    }
    for c in full_cols..cols {
        for r0 in (0..strip_rows).step_by(TILE) {
            accumulate_block::<TILE, 1>(dw, gs, xs, shape, r0, c);
        }
    }
    for r in full_rows..rows {
        for c in 0..full_cols {
            accumulate_block::<1, 1>(dw, gs, xs, shape, r, c);
        }
    }
    for r in strip_rows..rows {
        for c in full_cols..cols {
            accumulate_block::<1, 1>(dw, gs, xs, shape, r, c);
        }
    }
}

/// Adds `g_t[r]·x_t[c]` for `t = steps-1, …, 0` to the `R × C` block of
/// the row-major `dw` whose top-left element is `(r0, c0)`, holding the
/// block in a local array across all steps.
#[inline(always)]
fn accumulate_block<const R: usize, const C: usize>(
    dw: &mut [f32],
    gs: &[f32],
    xs: &[f32],
    (rows, cols): (usize, usize),
    r0: usize,
    c0: usize,
) {
    let mut acc = [[0.0; C]; R];
    for (i, a) in acc.iter_mut().enumerate() {
        let at = (r0 + i) * cols + c0;
        a.copy_from_slice(&dw[at..at + C]);
    }
    for (g, x) in gs.chunks_exact(rows).zip(xs.chunks_exact(cols)).rev() {
        let (g, x) = (&g[r0..r0 + R], &x[c0..c0 + C]);
        for i in 0..R {
            for j in 0..C {
                acc[i][j] += g[i] * x[j];
            }
        }
    }
    for (i, a) in acc.iter().enumerate() {
        let at = (r0 + i) * cols + c0;
        dw[at..at + C].copy_from_slice(a);
    }
}

/// Element-wise a += b.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (av, bv) in a.iter_mut().zip(b) {
        *av += bv;
    }
}

/// Xavier/Glorot uniform initialization for a `rows × cols` weight matrix.
pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Vec<f32> {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
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
        let lhs: f32 = wtg.iter().zip(&x).map(|(a, b)| a * b).sum();
        let rhs: f32 = g.iter().zip(&wx).map(|(a, b)| a * b).sum();
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
        let bound = (6.0 / 16.0_f32).sqrt();
        assert!(w.iter().all(|v| v.abs() < bound));
        let mut rng2 = StdRng::seed_from_u64(9);
        assert_eq!(w, xavier(8, 8, &mut rng2));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matvec_rejects_bad_shape() {
        let _ = matvec(&[1.0, 2.0], 2, 2, &[1.0, 1.0]);
    }

    /// Row/column counts on both sides of the tile width.
    const EDGES: [usize; 5] = [1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3];

    /// Awkward rows/cols and values spanning many exponents: the write-into
    /// and column-major forms must be bit-identical to the reference, not
    /// merely close.
    #[test]
    fn into_variants_are_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(17);
        let edges = EDGES
            .iter()
            .flat_map(|&r| EDGES.iter().map(move |&c| (r, c)));
        let shapes = [(1, 1), (3, 5), (128, 32), (128, 1), (7, 13), (32, 128)];
        for (rows, cols) in shapes.into_iter().chain(edges) {
            let w = xavier(rows, cols, &mut rng);
            let x: Vec<f32> = (0..cols)
                .map(|i| (i as f32 - 2.0) * 1e3_f32.powi(i as i32 % 5 - 2))
                .collect();
            let g: Vec<f32> = (0..rows).map(|i| (i as f32 * 0.37).sin() * 1e-3).collect();

            let y_ref = matvec(&w, rows, cols, &x);
            let mut y = vec![f32::NAN; rows];
            matvec_into(&w, rows, cols, &x, &mut y);
            assert_eq!(y, y_ref, "matvec_into {rows}x{cols}");

            let mut wt = vec![0.0; rows * cols];
            transpose_into(&w, rows, cols, &mut wt);
            let mut y2 = vec![f32::NAN; rows];
            matvec_colmajor_into(&wt, rows, cols, &x, &mut y2);
            assert_eq!(y2, y_ref, "matvec_colmajor_into {rows}x{cols}");

            let t_ref = matvec_transposed(&w, rows, cols, &g);
            let mut t = vec![f32::NAN; cols];
            matvec_transposed_into(&w, rows, cols, &g, &mut t);
            assert_eq!(t, t_ref, "matvec_transposed_into {rows}x{cols}");
            // Wᵀ·g is the row-major dot product over the explicit transpose
            let wt_rows = matvec(&wt, cols, rows, &g);
            assert_eq!(
                t, wt_rows,
                "matvec_transposed_into vs oracle on Wᵀ {rows}x{cols}"
            );
        }
    }

    /// The sequence accumulation must equal per-step `outer_accumulate`
    /// calls in reverse step order, bit for bit, starting from a nonzero
    /// accumulator — across whole blocks, column strips and single
    /// leftover elements.
    #[test]
    fn outer_accumulate_seq_matches_per_step_reverse_order() {
        let rows_set = [1, BLOCK_ROWS - 1, BLOCK_ROWS + 1, TILE, TILE + 3, 128];
        let cols_set = [
            1,
            BLOCK_COLS - 1,
            BLOCK_COLS,
            BLOCK_COLS + 1,
            32,
            2 * BLOCK_COLS + 5,
        ];
        for rows in rows_set {
            for cols in cols_set {
                for steps in [1, 3, 20] {
                    let gs: Vec<f32> = (0..steps * rows)
                        .map(|i| (i as f32 * 0.61).sin() * 1e2_f32.powi(i as i32 % 5 - 2))
                        .collect();
                    let xs: Vec<f32> = (0..steps * cols)
                        .map(|i| (i as f32 * 0.29).cos() * 1e3_f32.powi(i as i32 % 3 - 1))
                        .collect();
                    let init: Vec<f32> = (0..rows * cols).map(|i| (i as f32 * 0.7).sin()).collect();
                    let mut expect = init.clone();
                    for t in (0..steps).rev() {
                        let g = &gs[t * rows..(t + 1) * rows];
                        outer_accumulate(&mut expect, g, &xs[t * cols..(t + 1) * cols]);
                    }
                    let mut got = init;
                    outer_accumulate_seq(&mut got, &gs, &xs, steps);
                    assert_eq!(got, expect, "{rows}x{cols} over {steps} steps");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn outer_accumulate_seq_rejects_bad_shape() {
        let mut dw = [0.0; 5];
        outer_accumulate_seq(&mut dw, &[1.0; 4], &[1.0; 6], 2);
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
