//! An LSTM cell with full backpropagation-through-time.
//!
//! Implements the standard LSTM equations (Hochreiter & Schmidhuber 1997,
//! the paper's citation \[51\]): input/forget/output gates plus a candidate
//! cell update. Caches per-timestep activations so a sequence can be
//! unrolled forward and gradients propagated backward through time.

use crate::checkpoint::{CheckpointError, CkptReader, CkptWriter};
use crate::nn::adam::Adam;
use crate::nn::dense::clip;
#[cfg(test)]
use crate::nn::linalg::outer_accumulate;
#[cfg(test)]
use crate::nn::linalg::{matvec, matvec_transposed};
use crate::nn::linalg::{
    matvec_colmajor_into, matvec_transposed_into, outer_accumulate_seq, transpose_into, xavier,
};
#[cfg(test)]
use crate::nn::math::{sigmoid, tanh};
use crate::nn::math::{sigmoid_slice, tanh_slice};
use crate::nn::{sigmoid_deriv, tanh_deriv};
use rand::Rng;

/// Hidden/cell state pair carried across timesteps.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden output vector `h`.
    pub h: Vec<f64>,
    /// Cell memory vector `c`.
    pub c: Vec<f64>,
}

impl LstmState {
    /// Zero state for a cell of `hidden` units.
    pub fn zeros(hidden: usize) -> Self {
        LstmState {
            h: vec![0.0; hidden],
            c: vec![0.0; hidden],
        }
    }

    /// Zeroes the state in place (sequence restart without reallocation).
    pub fn reset(&mut self) {
        self.h.iter_mut().for_each(|v| *v = 0.0);
        self.c.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// Cached activations for one timestep of the `Vec`-per-step oracle,
/// needed by its backward pass.
#[cfg(test)]
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    g: Vec<f64>,
    o: Vec<f64>,
    tanh_c: Vec<f64>,
}

/// A single LSTM layer (batch size 1) with trainable input, recurrent and
/// bias parameters, stacked gate-major: `[i, f, g, o]`.
///
/// [`forward_step_into`](Self::forward_step_into) /
/// [`backward_flat`](Self::backward_flat) run over flat preallocated
/// workspace buffers, with column-major weight mirrors for the forward
/// matvecs, and allocate nothing once the workspace has grown to the
/// longest sequence seen. The original per-step-allocating forms survive
/// under `#[cfg(test)]` as the oracle these are checked against bit for
/// bit: every output element accumulates the same ordered sequence of
/// IEEE-754 operations (see `nn::linalg`).
#[derive(Debug, Clone)]
pub struct LstmCell {
    input: usize,
    hidden: usize,
    /// Input weights, `(4·hidden) × input`.
    wx: Vec<f64>,
    /// Recurrent weights, `(4·hidden) × hidden`.
    wh: Vec<f64>,
    /// Bias, `4·hidden` (forget-gate bias initialized to 1, the standard
    /// trick to keep memory open early in training).
    b: Vec<f64>,
    dwx: Vec<f64>,
    dwh: Vec<f64>,
    db: Vec<f64>,
    opt_wx: Adam,
    opt_wh: Adam,
    opt_b: Adam,
    /// Per-step activations cached by the oracle's `forward_step`.
    #[cfg(test)]
    cache: Vec<StepCache>,
    /// Column-major mirror of `wx` (refreshed after every optimizer step)
    /// so the forward matvec runs as contiguous per-column axpys.
    wx_t: Vec<f64>,
    /// Column-major mirror of `wh`.
    wh_t: Vec<f64>,
    /// Timesteps currently cached in the flat workspace.
    steps: usize,
    /// Flat inputs, `steps × input`.
    xs: Vec<f64>,
    /// Flat hidden states, `(steps+1) × hidden`; row `t` is h *before*
    /// step `t` (so row 0 is the initial state).
    hs: Vec<f64>,
    /// Flat cell states, same layout as `hs`.
    cs: Vec<f64>,
    /// Flat post-activation gates, `steps × 4·hidden`, gate-major
    /// `[i, f, g, o]` within each row.
    gate_acts: Vec<f64>,
    /// Flat `tanh(c_t)`, `steps × hidden`.
    tanh_cs: Vec<f64>,
    /// Scratch: gate pre-activations (`4·hidden`).
    z: Vec<f64>,
    /// Scratch: recurrent half of the pre-activation (`4·hidden`).
    zh: Vec<f64>,
    /// Flat gate pre-activation gradients, `steps × 4·hidden`, filled by
    /// the recurrent sweep of [`backward_flat`](Self::backward_flat) and
    /// consumed by its weight-gradient pass.
    dzs: Vec<f64>,
    /// Scratch: dL/dh carried to timestep t-1 (`hidden`).
    dh_next: Vec<f64>,
    /// Scratch: dL/dc carried to timestep t-1 (`hidden`).
    dc_next: Vec<f64>,
}

impl LstmCell {
    /// Creates a cell with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(input: usize, hidden: usize, lr: f64, rng: &mut R) -> Self {
        assert!(input > 0 && hidden > 0, "dimensions must be positive");
        let gates = 4 * hidden;
        let mut b = vec![0.0; gates];
        for v in b.iter_mut().take(2 * hidden).skip(hidden) {
            *v = 1.0; // forget gate bias
        }
        let wx = xavier(gates, input, rng);
        let wh = xavier(gates, hidden, rng);
        let mut wx_t = vec![0.0; gates * input];
        transpose_into(&wx, gates, input, &mut wx_t);
        let mut wh_t = vec![0.0; gates * hidden];
        transpose_into(&wh, gates, hidden, &mut wh_t);
        LstmCell {
            input,
            hidden,
            wx,
            wh,
            b,
            dwx: vec![0.0; gates * input],
            dwh: vec![0.0; gates * hidden],
            db: vec![0.0; gates],
            opt_wx: Adam::new(gates * input, lr),
            opt_wh: Adam::new(gates * hidden, lr),
            opt_b: Adam::new(gates, lr),
            #[cfg(test)]
            cache: Vec::new(),
            wx_t,
            wh_t,
            steps: 0,
            xs: Vec::new(),
            hs: Vec::new(),
            cs: Vec::new(),
            gate_acts: Vec::new(),
            tanh_cs: Vec::new(),
            z: vec![0.0; gates],
            zh: vec![0.0; gates],
            dzs: Vec::new(),
            dh_next: vec![0.0; hidden],
            dc_next: vec![0.0; hidden],
        }
    }

    /// Hidden width of this cell.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width of this cell.
    pub fn input(&self) -> usize {
        self.input
    }

    /// Runs one timestep: advances `state` in place, caching activations in
    /// the flat workspace for [`backward_flat`](Self::backward_flat).
    ///
    /// The matvecs run over the column-major mirrors (see
    /// [`matvec_colmajor_into`]). Allocation-free once the workspace has
    /// grown to the longest sequence seen.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn forward_step_into(&mut self, x: &[f64], state: &mut LstmState) {
        assert_eq!(x.len(), self.input, "input width mismatch");
        assert_eq!(state.h.len(), self.hidden, "state width mismatch");
        let h = self.hidden;
        let gates = 4 * h;
        let t = self.steps;
        if t == 0 {
            self.xs.clear();
            self.hs.clear();
            self.cs.clear();
            self.gate_acts.clear();
            self.tanh_cs.clear();
            self.hs.extend_from_slice(&state.h);
            self.cs.extend_from_slice(&state.c);
        } else {
            // row t was written by the previous step; refresh from the
            // caller's state so injected state edits take effect
            self.hs[t * h..(t + 1) * h].copy_from_slice(&state.h);
            self.cs[t * h..(t + 1) * h].copy_from_slice(&state.c);
        }
        self.xs.extend_from_slice(x);
        // z = Wx·x + (Wh·h_prev + b), grouped exactly as the oracle
        matvec_colmajor_into(&self.wx_t, gates, self.input, x, &mut self.z);
        matvec_colmajor_into(&self.wh_t, gates, h, &state.h, &mut self.zh);
        for ((zv, zhv), bv) in self.z.iter_mut().zip(&self.zh).zip(&self.b) {
            *zv += zhv + bv;
        }
        // the activations run over whole gate rows, where they vectorize
        let g0 = self.gate_acts.len();
        self.gate_acts.extend_from_slice(&self.z);
        let gr = &mut self.gate_acts[g0..];
        sigmoid_slice(&mut gr[..2 * h]);
        tanh_slice(&mut gr[2 * h..3 * h]);
        sigmoid_slice(&mut gr[3 * h..]);
        let gr = &self.gate_acts[g0..];
        let c0 = self.cs.len();
        self.cs.resize(c0 + h, 0.0);
        for k in 0..h {
            self.cs[c0 + k] = gr[h + k] * state.c[k] + gr[k] * gr[2 * h + k];
        }
        let tc0 = self.tanh_cs.len();
        self.tanh_cs.extend_from_slice(&self.cs[c0..]);
        tanh_slice(&mut self.tanh_cs[tc0..]);
        let h0 = self.hs.len();
        self.hs.resize(h0 + h, 0.0);
        for k in 0..h {
            self.hs[h0 + k] = gr[3 * h + k] * self.tanh_cs[tc0 + k];
        }
        state.h.copy_from_slice(&self.hs[h0..]);
        state.c.copy_from_slice(&self.cs[c0..]);
        self.steps = t + 1;
    }

    /// Backpropagates through time over the flat workspace filled by
    /// [`forward_step_into`](Self::forward_step_into).
    ///
    /// `dh_seq` is the flat `steps × hidden` loss gradient (row `t` is
    /// dL/dh at timestep `t`). When `dx_seq` is `Some`, it is resized to
    /// `steps × input` and receives dL/dx (stacked models need it;
    /// bottom layers pass `None` and skip that work). Accumulates weight
    /// gradients and resets the workspace; allocation-free in steady
    /// state.
    ///
    /// Two phases. The recurrent sweep walks `t = steps-1, …, 0` and
    /// computes only what step `t-1` depends on — the gate gradients
    /// `dz_t` (kept in a flat `steps × 4·hidden` workspace), `Whᵀ·dz_t`
    /// and `dc·f`. One pass over the whole sequence then accumulates
    /// `dWx`, `dWh` and `db` in the same reverse step order (each `dW`
    /// tile held in registers, see [`outer_accumulate_seq`]) and computes
    /// `dx_t = Wxᵀ·dz_t`. Every element sees the same IEEE-754 operations
    /// in the same order as a per-step interleaving of both phases.
    ///
    /// # Panics
    ///
    /// Panics if `dh_seq.len()` is not `steps × hidden`.
    pub fn backward_flat(&mut self, dh_seq: &[f64], dx_seq: Option<&mut Vec<f64>>) {
        let h = self.hidden;
        let gates = 4 * h;
        let steps = self.steps;
        assert_eq!(dh_seq.len(), steps * h, "need one dh per cached timestep");
        self.dzs.clear();
        self.dzs.resize(steps * gates, 0.0);
        self.dh_next.iter_mut().for_each(|v| *v = 0.0);
        self.dc_next.iter_mut().for_each(|v| *v = 0.0);
        for t in (0..steps).rev() {
            let dz = &mut self.dzs[t * gates..(t + 1) * gates];
            gate_grads(
                &dh_seq[t * h..(t + 1) * h],
                &self.dh_next,
                &mut self.dc_next,
                &self.gate_acts[t * gates..(t + 1) * gates],
                &self.tanh_cs[t * h..(t + 1) * h],
                // row t of cs is the cell state *entering* step t
                &self.cs[t * h..(t + 1) * h],
                dz,
            );
            matvec_transposed_into(&self.wh, gates, h, dz, &mut self.dh_next);
        }
        if steps > 0 {
            // rows 0..steps of hs are the hidden states entering each step
            outer_accumulate_seq(&mut self.dwx, &self.dzs, &self.xs, steps);
            outer_accumulate_seq(&mut self.dwh, &self.dzs, &self.hs[..steps * h], steps);
        }
        for dz in self.dzs.rchunks_exact(gates) {
            for (d, g) in self.db.iter_mut().zip(dz) {
                *d += g;
            }
        }
        if let Some(dx) = dx_seq {
            dx.clear();
            dx.resize(steps * self.input, 0.0);
            for (dz, dx_t) in self
                .dzs
                .chunks_exact(gates)
                .zip(dx.chunks_exact_mut(self.input))
            {
                matvec_transposed_into(&self.wx, gates, self.input, dz, dx_t);
            }
        }
        self.clear_cache();
    }

    /// Applies accumulated gradients with Adam and zeroes accumulators.
    pub fn apply_grads(&mut self, t: u64) {
        clip(&mut self.dwx, 5.0);
        clip(&mut self.dwh, 5.0);
        clip(&mut self.db, 5.0);
        self.opt_wx.step(&mut self.wx, &self.dwx, t);
        self.opt_wh.step(&mut self.wh, &self.dwh, t);
        self.opt_b.step(&mut self.b, &self.db, t);
        self.dwx.iter_mut().for_each(|v| *v = 0.0);
        self.dwh.iter_mut().for_each(|v| *v = 0.0);
        self.db.iter_mut().for_each(|v| *v = 0.0);
        let gates = 4 * self.hidden;
        transpose_into(&self.wx, gates, self.input, &mut self.wx_t);
        transpose_into(&self.wh, gates, self.hidden, &mut self.wh_t);
    }

    /// Discards cached timesteps without applying gradients (inference).
    pub fn clear_cache(&mut self) {
        #[cfg(test)]
        self.cache.clear();
        self.steps = 0;
        self.xs.clear();
        self.hs.clear();
        self.cs.clear();
        self.gate_acts.clear();
        self.tanh_cs.clear();
    }

    /// Number of cached (not yet backpropagated) timesteps.
    pub fn cached_steps(&self) -> usize {
        self.steps
    }

    /// Read-only view of the trainable parameters `(wx, wh, b)`.
    pub fn weights(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.wx, &self.wh, &self.b)
    }

    /// Serializes dimensions, weights and optimizer state. Gradient
    /// accumulators and activation caches are not saved — a checkpoint is
    /// only taken between training steps, where both are empty.
    pub(crate) fn save_state(&self, w: &mut CkptWriter) {
        w.u32(self.input as u32);
        w.u32(self.hidden as u32);
        w.f64s(&self.wx);
        w.f64s(&self.wh);
        w.f64s(&self.b);
        self.opt_wx.save_state(w);
        self.opt_wh.save_state(w);
        self.opt_b.save_state(w);
    }

    /// Restores state saved by [`save_state`](Self::save_state) into a
    /// cell of identical shape. Accumulators are zeroed, caches cleared,
    /// and the column-major weight mirrors refreshed — the same
    /// invariants [`apply_grads`](Self::apply_grads) re-establishes after
    /// every optimizer step.
    pub(crate) fn load_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CheckpointError> {
        if r.u32()? as usize != self.input || r.u32()? as usize != self.hidden {
            return Err(CheckpointError::ModelMismatch("lstm cell dimensions"));
        }
        r.f64s_into(&mut self.wx, "lstm input weights")?;
        r.f64s_into(&mut self.wh, "lstm recurrent weights")?;
        r.f64s_into(&mut self.b, "lstm bias")?;
        self.opt_wx.load_state(r)?;
        self.opt_wh.load_state(r)?;
        self.opt_b.load_state(r)?;
        self.dwx.iter_mut().for_each(|v| *v = 0.0);
        self.dwh.iter_mut().for_each(|v| *v = 0.0);
        self.db.iter_mut().for_each(|v| *v = 0.0);
        self.clear_cache();
        let gates = 4 * self.hidden;
        transpose_into(&self.wx, gates, self.input, &mut self.wx_t);
        transpose_into(&self.wh, gates, self.hidden, &mut self.wh_t);
        Ok(())
    }
}

/// Elementwise half of one step of the backward sweep. From the step's
/// loss gradient `dh_t`, the carries `dh_next`/`dc_next` from step t+1,
/// the step's post-activation gates `gr` (`[i, f, g, o]`), `tanh(c_t)`
/// and `c_{t-1}`, writes the gate pre-activation gradients `dz` (stacked
/// `[i, f, g, o]`) and leaves dL/dc·f — the cell carry into step t-1 —
/// in `dc_next`.
fn gate_grads(
    dh_t: &[f64],
    dh_next: &[f64],
    dc_next: &mut [f64],
    gr: &[f64],
    tc: &[f64],
    c_prev: &[f64],
    dz: &mut [f64],
) {
    let h = dh_t.len();
    let (i, f, g, o) = (
        &gr[..h],
        &gr[h..2 * h],
        &gr[2 * h..3 * h],
        &gr[3 * h..4 * h],
    );
    let (dz_i, rest) = dz.split_at_mut(h);
    let (dz_f, rest) = rest.split_at_mut(h);
    let (dz_g, dz_o) = rest.split_at_mut(h);
    let (dh_next, dc_next, tc, c_prev) = (&dh_next[..h], &mut dc_next[..h], &tc[..h], &c_prev[..h]);
    for k in 0..h {
        let dh = dh_t[k] + dh_next[k];
        // dL/dc through h = o * tanh(c), plus carry from t+1
        let dc = dc_next[k] + dh * o[k] * tanh_deriv(tc[k]);
        dz_i[k] = dc * g[k] * sigmoid_deriv(i[k]);
        dz_f[k] = dc * c_prev[k] * sigmoid_deriv(f[k]);
        dz_g[k] = dc * i[k] * tanh_deriv(g[k]);
        dz_o[k] = dh * tc[k] * sigmoid_deriv(o[k]);
        dc_next[k] = dc * f[k];
    }
}

/// The original per-step-allocating forms, kept as the test oracle the
/// flat workspace path is checked against bit for bit.
#[cfg(test)]
impl LstmCell {
    /// Runs one timestep, caching activations for BPTT, and returns the new
    /// state.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub(crate) fn forward_step(&mut self, x: &[f64], prev: &LstmState) -> LstmState {
        assert_eq!(x.len(), self.input, "input width mismatch");
        assert_eq!(prev.h.len(), self.hidden, "state width mismatch");
        let gates = 4 * self.hidden;
        let mut z = matvec(&self.wx, gates, self.input, x);
        let zh = matvec(&self.wh, gates, self.hidden, &prev.h);
        for (zv, (zhv, bv)) in z.iter_mut().zip(zh.iter().zip(&self.b)) {
            *zv += zhv + bv;
        }
        let h = self.hidden;
        let i: Vec<f64> = z[0..h].iter().map(|&v| sigmoid(v)).collect();
        let f: Vec<f64> = z[h..2 * h].iter().map(|&v| sigmoid(v)).collect();
        let g: Vec<f64> = z[2 * h..3 * h].iter().map(|&v| tanh(v)).collect();
        let o: Vec<f64> = z[3 * h..4 * h].iter().map(|&v| sigmoid(v)).collect();
        let mut c = vec![0.0; h];
        for k in 0..h {
            c[k] = f[k] * prev.c[k] + i[k] * g[k];
        }
        let tanh_c: Vec<f64> = c.iter().map(|&v| tanh(v)).collect();
        let mut h_out = vec![0.0; h];
        for k in 0..h {
            h_out[k] = o[k] * tanh_c[k];
        }
        self.cache.push(StepCache {
            x: x.to_vec(),
            h_prev: prev.h.clone(),
            c_prev: prev.c.clone(),
            i,
            f,
            g,
            o,
            tanh_c,
        });
        LstmState { h: h_out, c }
    }

    /// Backpropagates through all cached timesteps.
    ///
    /// `dh_seq[t]` is dL/dh for timestep `t` (zero vectors for timesteps
    /// without direct loss). Accumulates weight gradients, clears the cache
    /// and returns per-timestep input gradients dL/dx.
    ///
    /// # Panics
    ///
    /// Panics if `dh_seq.len()` differs from the number of cached steps.
    pub(crate) fn backward(&mut self, dh_seq: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert_eq!(
            dh_seq.len(),
            self.cache.len(),
            "need one dh per cached timestep"
        );
        let h = self.hidden;
        let gates = 4 * h;
        let mut dx_seq = vec![vec![0.0; self.input]; dh_seq.len()];
        let mut dh_next = vec![0.0; h];
        let mut dc_next = vec![0.0; h];
        for t in (0..self.cache.len()).rev() {
            let cache = &self.cache[t];
            let mut dh = dh_seq[t].clone();
            for (a, b) in dh.iter_mut().zip(&dh_next) {
                *a += b;
            }
            // dL/dc through h = o * tanh(c), plus carry from t+1
            let mut dc = dc_next.clone();
            for k in 0..h {
                dc[k] += dh[k] * cache.o[k] * tanh_deriv(cache.tanh_c[k]);
            }
            // gate pre-activation gradients, stacked [i, f, g, o]
            let mut dz = vec![0.0; gates];
            for k in 0..h {
                dz[k] = dc[k] * cache.g[k] * sigmoid_deriv(cache.i[k]);
                dz[h + k] = dc[k] * cache.c_prev[k] * sigmoid_deriv(cache.f[k]);
                dz[2 * h + k] = dc[k] * cache.i[k] * tanh_deriv(cache.g[k]);
                dz[3 * h + k] = dh[k] * cache.tanh_c[k] * sigmoid_deriv(cache.o[k]);
            }
            outer_accumulate(&mut self.dwx, &dz, &cache.x);
            outer_accumulate(&mut self.dwh, &dz, &cache.h_prev);
            for (d, g) in self.db.iter_mut().zip(&dz) {
                *d += g;
            }
            dx_seq[t] = matvec_transposed(&self.wx, gates, self.input, &dz);
            dh_next = matvec_transposed(&self.wh, gates, h, &dz);
            for k in 0..h {
                dc_next[k] = dc[k] * cache.f[k];
            }
        }
        self.cache.clear();
        dx_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_sequence(cell: &mut LstmCell, xs: &[f64]) -> Vec<f64> {
        let mut state = LstmState::zeros(cell.hidden());
        let mut last = Vec::new();
        for &x in xs {
            state = cell.forward_step(&[x], &state);
            last = state.h.clone();
        }
        last
    }

    #[test]
    fn forward_produces_bounded_outputs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut cell = LstmCell::new(1, 8, 0.01, &mut rng);
        let mut state = LstmState::zeros(8);
        for x in [0.5, -0.5, 1.0] {
            cell.forward_step_into(&[x], &mut state);
        }
        // h = o·tanh(c), both factors bounded
        assert!(state.h.iter().all(|v| v.abs() <= 1.0));
        assert_eq!(cell.cached_steps(), 3);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // full BPTT check: loss = sum(h_T); perturb an input weight
        let mut rng = StdRng::seed_from_u64(2);
        let mut cell = LstmCell::new(1, 4, 0.01, &mut rng);
        let xs = [0.3, -0.7, 0.9];

        // analytic input gradients
        let mut state = LstmState::zeros(4);
        for &x in &xs {
            state = cell.forward_step(&[x], &state);
        }
        let mut dh_seq = vec![vec![0.0; 4]; xs.len()];
        dh_seq[2] = vec![1.0; 4];
        let dx = cell.backward(&dh_seq);

        // numeric input gradient for each timestep
        let h = 1e-6;
        for t in 0..xs.len() {
            let loss = |cell: &mut LstmCell, xs: &[f64]| -> f64 {
                let out = run_sequence(cell, xs);
                cell.clear_cache();
                out.iter().sum()
            };
            let mut xp = xs;
            xp[t] += h;
            let mut xm = xs;
            xm[t] -= h;
            let numeric = (loss(&mut cell, &xp) - loss(&mut cell, &xm)) / (2.0 * h);
            assert!(
                (numeric - dx[t][0]).abs() < 1e-5,
                "t={t}: numeric {numeric} vs analytic {}",
                dx[t][0]
            );
        }
    }

    #[test]
    fn learns_to_remember_first_input() {
        // task: output sign of the first input after 4 steps of noise —
        // requires memory, which is what an LSTM adds over an MLP
        let mut rng = StdRng::seed_from_u64(3);
        let mut cell = LstmCell::new(1, 8, 0.02, &mut rng);
        let mut head = crate::nn::Dense::new(8, 1, 0.02, &mut rng);
        let mut step = 0;
        for epoch in 0..300 {
            let first = if epoch % 2 == 0 { 1.0 } else { -1.0 };
            let xs = [first, 0.1, -0.1, 0.05];
            let mut state = LstmState::zeros(8);
            let mut hs = Vec::new();
            for &x in &xs {
                state = cell.forward_step(&[x], &state);
                hs.push(state.h.clone());
            }
            let y = head.forward(&state.h)[0];
            let err = y - first;
            let dh_last = head.backward(&state.h, &[2.0 * err]);
            let mut dh_seq = vec![vec![0.0; 8]; xs.len()];
            dh_seq[3] = dh_last;
            cell.backward(&dh_seq);
            step += 1;
            cell.apply_grads(step);
            head.apply_grads(step);
        }
        // evaluate
        let mut predict = |first: f64| {
            let xs = [first, 0.1, -0.1, 0.05];
            let out = run_sequence(&mut cell, &xs);
            cell.clear_cache();
            head.forward(&out)[0]
        };
        assert!(predict(1.0) > 0.4, "positive case {}", predict(1.0));
        assert!(predict(-1.0) < -0.4, "negative case {}", predict(-1.0));
    }

    #[test]
    #[should_panic(expected = "one dh per cached timestep")]
    fn backward_requires_matching_length() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut cell = LstmCell::new(1, 2, 0.01, &mut rng);
        let s = LstmState::zeros(2);
        cell.forward_step(&[1.0], &s);
        let _ = cell.backward(&[]);
    }

    #[test]
    fn clear_cache_resets() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cell = LstmCell::new(1, 2, 0.01, &mut rng);
        let mut s = LstmState::zeros(2);
        cell.forward_step_into(&[1.0], &mut s);
        cell.clear_cache();
        assert_eq!(cell.cached_steps(), 0);
    }

    /// The flat-workspace path must match the per-step oracle bit for bit —
    /// hidden states, input gradients and post-update weights compared
    /// with `==` across several training rounds — at shapes below, at and
    /// across the kernels' tile and block widths (the paper's 32 × 32
    /// layer included).
    #[test]
    fn flat_path_bit_identical_to_reference() {
        for (input, hidden, seed) in [
            (2, 8, 11u64),
            (2, 8, 42),
            (2, 8, 303),
            (1, 32, 42),
            (32, 32, 42),
            (17, 9, 42),
        ] {
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            let mut reference = LstmCell::new(input, hidden, 0.01, &mut r1);
            let mut optimized = LstmCell::new(input, hidden, 0.01, &mut r2);
            let seq: Vec<Vec<f64>> = (0..6)
                .map(|i| {
                    (0..input)
                        .map(|j| ((i * input + j) as f64 * 0.7).sin() + (j as f64 * 0.3).cos())
                        .collect()
                })
                .collect();
            let mut dx_flat = Vec::new();
            for round in 1..=5u64 {
                let mut s_ref = LstmState::zeros(hidden);
                let mut s_opt = LstmState::zeros(hidden);
                for x in &seq {
                    s_ref = reference.forward_step(x, &s_ref);
                    optimized.forward_step_into(x, &mut s_opt);
                    assert_eq!(
                        s_opt.h, s_ref.h,
                        "h drift {input}x{hidden} seed={seed} round={round}"
                    );
                    assert_eq!(
                        s_opt.c, s_ref.c,
                        "c drift {input}x{hidden} seed={seed} round={round}"
                    );
                }
                // seed the loss at the last step only, like the models do
                let mut dh_seq = vec![vec![0.0; hidden]; seq.len()];
                dh_seq[seq.len() - 1] = (0..hidden).map(|k| 0.1 * (k as f64 + 1.0)).collect();
                let dh_flat: Vec<f64> = dh_seq.concat();
                let dx_ref = reference.backward(&dh_seq);
                optimized.backward_flat(&dh_flat, Some(&mut dx_flat));
                assert_eq!(
                    dx_flat,
                    dx_ref.concat(),
                    "dx drift {input}x{hidden} seed={seed}"
                );
                reference.apply_grads(round);
                optimized.apply_grads(round);
                assert_eq!(
                    optimized.weights(),
                    reference.weights(),
                    "weight drift {input}x{hidden} seed={seed} round={round}"
                );
            }
        }
    }

    /// `backward_flat(None)` must accumulate the same weight gradients as
    /// with a dx output buffer — the skipped dx matvec feeds nothing else.
    #[test]
    fn backward_flat_without_dx_matches() {
        let mut r1 = StdRng::seed_from_u64(6);
        let mut r2 = StdRng::seed_from_u64(6);
        let mut a = LstmCell::new(1, 4, 0.01, &mut r1);
        let mut b = LstmCell::new(1, 4, 0.01, &mut r2);
        let mut sa = LstmState::zeros(4);
        let mut sb = LstmState::zeros(4);
        for &x in &[0.2, -0.4, 0.6] {
            a.forward_step_into(&[x], &mut sa);
            b.forward_step_into(&[x], &mut sb);
        }
        let dh = vec![0.25; 12];
        let mut dx = Vec::new();
        a.backward_flat(&dh, Some(&mut dx));
        b.backward_flat(&dh, None);
        a.apply_grads(1);
        b.apply_grads(1);
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let build = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cell = LstmCell::new(1, 4, 0.01, &mut rng);
            run_sequence(&mut cell, &[0.1, 0.2, 0.3])
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }
}
