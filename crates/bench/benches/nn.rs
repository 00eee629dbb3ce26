//! Criterion benchmarks for the NN substrate underneath the neural
//! predictors: the matvec kernels (row-major write-into vs the
//! column-major mirror the LSTM forward pass uses, and the transposed
//! matvec that carries gradients back), the 20-step sequence gradient
//! accumulation of LSTM backpropagation, one LstmCell forward step, a
//! full forward+backward+Adam round, and an end-to-end `train_epochs`
//! round — the microscope behind the `nn` section of
//! `BENCH_simulator.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use fifer_predict::nn::{
    matvec_colmajor_into, matvec_into, matvec_transposed_into, outer_accumulate_seq,
    transpose_into, LstmCell, LstmState,
};
use fifer_predict::train::TrainConfig;
use fifer_predict::{LoadPredictor, LstmPredictor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// 4H×H gate-matrix shape at the paper's 32 hidden units.
const ROWS: usize = 128;
const COLS: usize = 32;

fn bench_matvec(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let w: Vec<f64> = (0..ROWS * COLS).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let x: Vec<f64> = (0..COLS).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut wt = vec![0.0; ROWS * COLS];
    transpose_into(&w, ROWS, COLS, &mut wt);
    let mut y = vec![0.0; ROWS];

    let mut g = c.benchmark_group("matvec_128x32");
    g.bench_function("into", |b| {
        b.iter(|| matvec_into(black_box(&w), ROWS, COLS, black_box(&x), &mut y))
    });
    g.bench_function("colmajor_into", |b| {
        b.iter(|| matvec_colmajor_into(black_box(&wt), ROWS, COLS, black_box(&x), &mut y))
    });
    // Wᵀ·g: the backward direction (gate gradients to dL/dh or dL/dx)
    let g_rows: Vec<f64> = (0..ROWS).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut yt = vec![0.0; COLS];
    g.bench_function("transposed_into", |b| {
        b.iter(|| matvec_transposed_into(black_box(&w), ROWS, COLS, black_box(&g_rows), &mut yt))
    });
    g.finish();
}

/// Timesteps per training window (the default lag count).
const STEPS: usize = 20;

fn bench_seq_accumulate(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let gs: Vec<f64> = (0..STEPS * ROWS)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let xs: Vec<f64> = (0..STEPS * COLS)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let mut dw = vec![0.0; ROWS * COLS];
    let mut g = c.benchmark_group("seq_accumulate_20x128x32");
    g.bench_function("outer_accumulate_seq", |b| {
        b.iter(|| outer_accumulate_seq(black_box(&mut dw), black_box(&gs), black_box(&xs), STEPS))
    });
    g.finish();
}

fn cell_inputs(steps: usize, input: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(5);
    (0..steps)
        .map(|_| (0..input).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

fn bench_lstm_cell(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut cell = LstmCell::new(1, COLS, 1e-2, &mut rng);
    let xs = cell_inputs(STEPS, 1);
    let dh_seq = vec![0.01; STEPS * COLS];
    let mut state = LstmState::zeros(COLS);

    let mut g = c.benchmark_group("lstm_cell_h32");
    g.bench_function("forward_step", |b| {
        b.iter(|| {
            state.reset();
            cell.forward_step_into(black_box(&xs[0]), &mut state);
            cell.clear_cache();
        })
    });
    g.bench_function("forward20_backward_adam", |b| {
        let mut t = 0u64;
        b.iter(|| {
            state.reset();
            for x in &xs {
                cell.forward_step_into(black_box(x), &mut state);
            }
            cell.backward_flat(black_box(&dh_seq), None);
            t += 1;
            cell.apply_grads(t);
        })
    });
    g.finish();
}

fn bench_train_round(c: &mut Criterion) {
    let series: Vec<f64> = (0..80)
        .map(|i| 100.0 + 60.0 * (i as f64 * 0.3).sin())
        .collect();
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::default()
    };
    let mut g = c.benchmark_group("lstm_train_one_epoch");
    g.sample_size(10);
    g.bench_function("pretrain", |b| {
        b.iter(|| {
            let mut p = LstmPredictor::new(cfg, 32, 1, 2);
            p.pretrain(black_box(&series));
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_matvec,
    bench_seq_accumulate,
    bench_lstm_cell,
    bench_train_round
);
criterion_main!(benches);
