//! Steady-state allocation test: after one warm-up round, the flat-
//! workspace LSTM forward/backward/Adam loop (narrow and paper-shaped
//! cells), a repeated pretrain of the paper's 2 × 32 stack and a trained
//! model's forecast path must not touch the heap at all. A counting global
//! allocator makes any regression an exact, reproducible failure.
//!
//! This file holds exactly one `#[test]` — the allocation counter is
//! process-global, and a second concurrently-running test would make the
//! delta nondeterministic.

use fifer_predict::nn::{LstmCell, LstmState};
use fifer_predict::train::TrainConfig;
use fifer_predict::{LoadPredictor, LstmPredictor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Delegates to the system allocator, counting every allocation and
/// reallocation (frees are not counted: releasing retained capacity is
/// not the regression this test guards against).
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One forward/backward/Adam round over the sequence `xs`.
fn cell_round(cell: &mut LstmCell, state: &mut LstmState, xs: &[Vec<f64>], dh_seq: &[f64], t: u64) {
    state.reset();
    for x in xs {
        cell.forward_step_into(x, state);
    }
    cell.backward_flat(dh_seq, None);
    cell.apply_grads(t);
}

/// Warms an `input × hidden` cell up once (the workspace and the `dz`
/// buffer grow to capacity there), then asserts four more rounds
/// allocate nothing.
fn assert_cell_rounds_allocation_free(input: usize, hidden: usize) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut cell = LstmCell::new(input, hidden, 1e-2, &mut rng);
    let xs: Vec<Vec<f64>> = (0..12)
        .map(|t| {
            (0..input)
                .map(|i| ((t * input + i) as f64 * 0.13).sin())
                .collect()
        })
        .collect();
    let dh_seq = vec![0.01_f64; 12 * hidden];
    let mut state = LstmState::zeros(hidden);
    cell_round(&mut cell, &mut state, &xs, &dh_seq, 1);
    let before = allocations();
    for t in 2..6 {
        cell_round(&mut cell, &mut state, &xs, &dh_seq, t);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state {input}x{hidden} LSTM forward/backward/Adam must be allocation-free, saw {delta}"
    );
}

#[test]
fn steady_state_training_and_forecast_do_not_allocate() {
    // --- cell level: forward steps + backward + Adam, warmed up once;
    // narrower than the kernel tiles, then the paper's 32 × 32 layer ---
    assert_cell_rounds_allocation_free(4, 16);
    assert_cell_rounds_allocation_free(32, 32);

    // --- model level: a second pretrain of the paper-shaped 2 × 32
    // stack reuses every workspace the first one grew ---
    let short: Vec<f64> = (0..40)
        .map(|i| 50.0 + 20.0 * (i as f64 * 0.3).sin())
        .collect();
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    let mut paper = LstmPredictor::new(cfg, 32, 3, 2);
    paper.pretrain(&short);
    let before = allocations();
    paper.pretrain(&short);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "a repeated 2x32 pretrain must be allocation-free, saw {delta}"
    );

    // --- model level: a trained predictor's forecast path ---
    let series: Vec<f64> = (0..60)
        .map(|i| 30.0 + 10.0 * (i as f64 * 0.2).sin())
        .collect();
    let mut p = LstmPredictor::new(TrainConfig::fast(), 8, 5, 2);
    p.pretrain(&series);
    for &v in &series[..12] {
        p.observe(v);
    }
    let _ = p.forecast(); // warm-up for the forecast scratch buffers
    let before = allocations();
    for &v in &series[12..24] {
        p.observe(v);
        let f = p.forecast();
        assert!(f.is_finite());
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "trained observe/forecast must be allocation-free, saw {delta}"
    );
}
