//! Criterion micro-benchmarks for the §6.1.5 scheduling-path overheads:
//! the LSF scheduling decision, greedy container selection, the modeled
//! stats-store access, and the reactive/proactive scaling decisions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fifer_core::scaling::{
    proactive_containers_needed, reactive_containers_needed, ProactiveInputs, ReactiveInputs,
};
use fifer_core::scheduling::{
    select_container, select_task, ContainerCandidate, ContainerSelection, QueuedTask,
    SchedulingPolicy,
};
use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::stats_store::{StatsStore, StoreOp};
use std::hint::black_box;

fn queue(n: u64) -> Vec<QueuedTask> {
    (0..n)
        .map(|i| QueuedTask {
            job_id: i,
            enqueued: SimTime::from_millis(i),
            job_deadline: SimTime::from_millis(1_000 + (i * 37) % 900),
            remaining_work: SimDuration::from_millis(100 + (i % 10) * 10),
        })
        .collect()
}

fn candidates(n: u64) -> Vec<ContainerCandidate> {
    (0..n)
        .map(|id| ContainerCandidate {
            id,
            free_slots: (id % 7) as usize,
        })
        .collect()
}

fn bench_scheduling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduling_decision");
    for &n in &[10u64, 100, 1000] {
        let q = queue(n);
        let now = SimTime::from_secs(1);
        g.bench_with_input(BenchmarkId::new("lsf", n), &q, |b, q| {
            b.iter(|| select_task(SchedulingPolicy::Lsf, black_box(q), now))
        });
        g.bench_with_input(BenchmarkId::new("fifo", n), &q, |b, q| {
            b.iter(|| select_task(SchedulingPolicy::Fifo, black_box(q), now))
        });
    }
    g.finish();
}

fn bench_container_selection(c: &mut Criterion) {
    let mut g = c.benchmark_group("container_selection");
    for &n in &[10u64, 100, 1000] {
        let cands = candidates(n);
        g.bench_with_input(BenchmarkId::new("greedy", n), &cands, |b, cands| {
            b.iter(|| select_container(ContainerSelection::GreedyLeastFreeSlots, black_box(cands)))
        });
    }
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut store = StatsStore::paper_default();
    c.bench_function("stats_store_access", |b| {
        b.iter(|| store.access(black_box(StoreOp::PodQuery)))
    });
}

fn bench_scaling(c: &mut Criterion) {
    let reactive = ReactiveInputs {
        pending_queue_len: 500,
        num_containers: 40,
        batch_size: 6,
        stage_response_latency: SimDuration::from_millis(400),
        cold_start: SimDuration::from_secs(3),
        observed_delay: SimDuration::from_millis(450),
        stage_slack: SimDuration::from_millis(350),
    };
    c.bench_function("reactive_scaling_decision", |b| {
        b.iter(|| reactive_containers_needed(black_box(&reactive)))
    });
    let proactive = ProactiveInputs {
        forecast_rate: 120.0,
        num_containers: 12,
        batch_size: 6,
        stage_response_latency: SimDuration::from_millis(400),
    };
    c.bench_function("proactive_scaling_decision", |b| {
        b.iter(|| proactive_containers_needed(black_box(&proactive)))
    });
}

criterion_group!(
    benches,
    bench_scheduling,
    bench_container_selection,
    bench_store,
    bench_scaling
);
criterion_main!(benches);
