//! Analytical validation of the simulator (paper §5.2 validates theirs
//! against the real prototype; we validate ours against queueing theory).
//!
//! With a single-container fixed pool, Poisson arrivals and near-
//! deterministic service, each stage is an M/G/1 queue with a known mean
//! waiting time (Pollaczek–Khinchine). The simulator's measured queuing
//! delay must match within the tolerance set by service-time jitter and
//! finite-run noise.

use fifer_core::rm::RmKind;
use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::{SimConfig, Simulation};
use fifer_workloads::{
    Application, JobRequest, JobStream, PoissonTrace, TraceGenerator, WorkloadMix,
};

/// A single-application Poisson stream (all jobs FaceSecurity).
fn face_security_stream(rate: f64, secs: u64, seed: u64) -> JobStream {
    let arrivals = PoissonTrace::new(rate).generate(SimDuration::from_secs(secs), seed);
    let jobs: Vec<JobRequest> = arrivals
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| JobRequest {
            id: i as u64,
            app: Application::FaceSecurity,
            arrival,
            input_scale: 1.0,
        })
        .collect();
    JobStream::from_jobs(jobs, WorkloadMix::Light)
}

/// Pollaczek–Khinchine mean wait for M/G/1: `λ·E[S²] / (2(1−ρ))`.
fn mg1_wait_ms(lambda_per_s: f64, service_ms: f64, cv: f64) -> f64 {
    let s = service_ms / 1e3;
    let rho = lambda_per_s * s;
    assert!(rho < 1.0, "queue must be stable");
    let es2 = s * s * (1.0 + cv * cv);
    lambda_per_s * es2 / (2.0 * (1.0 - rho)) * 1e3
}

#[test]
fn mean_queuing_matches_pollaczek_khinchine() {
    // λ = 100 req/s onto FaceSecurity (FACED 6.1 ms → FACER 5.5 ms) with a
    // one-container-per-stage fixed pool → two M/G/1 queues in series
    let rate = 100.0;
    let stream = face_security_stream(rate, 600, 9);
    let mut cfg = SimConfig::prototype(RmKind::SBatch.config(), rate);
    cfg.warmup = SimDuration::from_secs(60);
    let r = Simulation::new(cfg, &stream).run();
    assert_eq!(
        r.stages[&fifer_workloads::Microservice::Faced].containers_spawned,
        1,
        "test assumes a single-container FACED pool"
    );
    assert_eq!(
        r.stages[&fifer_workloads::Microservice::Facer].containers_spawned,
        1,
        "test assumes a single-container FACER pool"
    );

    let measured_ms: f64 = r
        .records
        .iter()
        .map(|rec| rec.breakdown.queuing.as_millis_f64())
        .sum::<f64>()
        / r.records.len() as f64;
    // Stage 1 (FACED) sees Poisson arrivals → M/G/1 with cv = 0.05 (the
    // catalog's 5% jitter). Stage 2 (FACER) sees stage 1's *departure*
    // process, which near-deterministic service renders almost regular, so
    // its wait collapses toward zero (tandem-queue smoothing). The total
    // must therefore land between Wq1 alone and Wq1 + Wq2(M/G/1).
    let wq1 = mg1_wait_ms(rate, 6.1, 0.05);
    let wq2 = mg1_wait_ms(rate, 5.5, 0.05);
    assert!(
        measured_ms >= wq1 * 0.75 && measured_ms <= (wq1 + wq2) * 1.3,
        "mean queuing {measured_ms:.2}ms outside [{:.2}, {:.2}]ms (Wq1 {wq1:.2}, Wq2 {wq2:.2})",
        wq1 * 0.75,
        (wq1 + wq2) * 1.3
    );
}

#[test]
fn throughput_conserves_arrivals() {
    let rate = 40.0;
    let stream = face_security_stream(rate, 300, 10);
    let cfg = SimConfig::prototype(RmKind::Fifer.config(), rate);
    let r = Simulation::new(cfg, &stream).run();
    assert_eq!(r.records.len(), stream.len(), "no job may be lost");
    let thr = r.throughput();
    assert!(
        (thr / rate - 1.0).abs() < 0.1,
        "throughput {thr:.1}/s must match arrivals {rate}/s"
    );
}

#[test]
fn throughput_counts_only_the_measured_window() {
    // records hold only the jobs submitted after the warmup, so their rate
    // is over the measured window, not the whole horizon (which would read
    // half the arrival rate here)
    let rate = 40.0;
    let stream = face_security_stream(rate, 300, 13);
    let mut cfg = SimConfig::prototype(RmKind::Fifer.config(), rate);
    cfg.warmup = SimDuration::from_secs(150);
    let r = Simulation::new(cfg, &stream).run();
    let thr = r.throughput();
    assert!(
        (thr / rate - 1.0).abs() < 0.1,
        "throughput {thr:.1}/s over the measured window must match arrivals {rate}/s"
    );
}

#[test]
fn response_floor_is_the_chain_runtime() {
    // nobody can finish faster than exec + transition overheads (minus the
    // jitter floor); verifies no time is silently skipped
    let stream = face_security_stream(5.0, 120, 11);
    let cfg = SimConfig::prototype(RmKind::Bline.config(), 5.0);
    let r = Simulation::new(cfg, &stream).run();
    let floor_ms = Application::FaceSecurity
        .spec()
        .total_runtime()
        .as_millis_f64()
        * 0.8;
    for rec in &r.records {
        assert!(
            rec.response_latency().as_millis_f64() >= floor_ms,
            "job {} finished in {:.1}ms, below the {floor_ms:.1}ms chain floor",
            rec.job_id,
            rec.response_latency().as_millis_f64()
        );
    }
}

#[test]
fn littles_law_holds_for_the_stable_pool() {
    // L = λ·W: mean jobs resident in the system equals arrival rate times
    // mean response time. Estimate L from the completion timeline.
    let rate = 80.0;
    let stream = face_security_stream(rate, 600, 12);
    let mut cfg = SimConfig::prototype(RmKind::SBatch.config(), rate);
    cfg.warmup = SimDuration::from_secs(60);
    let r = Simulation::new(cfg, &stream).run();
    let mean_w_s = r
        .records
        .iter()
        .map(|rec| rec.response_latency().as_secs_f64())
        .sum::<f64>()
        / r.records.len() as f64;
    // integrate residency over the measured window
    let (from, to) = (60.0, 600.0);
    let resident_area: f64 = r
        .records
        .iter()
        .map(|rec| {
            let a = rec.submitted.as_secs_f64().max(from);
            let d = rec.completed.as_secs_f64().min(to);
            (d - a).max(0.0)
        })
        .sum();
    let mean_l = resident_area / (to - from);
    let expected_l = rate * mean_w_s;
    let ratio = mean_l / expected_l;
    assert!(
        (0.8..=1.2).contains(&ratio),
        "Little's law: L {mean_l:.2} vs λW {expected_l:.2} (ratio {ratio:.2})"
    );
}

#[test]
fn overload_is_reported_not_hidden() {
    // λ far above a single fixed container's service rate → the queue must
    // diverge and violations approach 100%; a simulator that "loses" work
    // would report something rosier
    let rate = 400.0; // FACED service rate is ~164/s per container
    let stream = face_security_stream(rate, 60, 13);
    let mut cfg = SimConfig::prototype(RmKind::SBatch.config(), 1.0); // pool sized for 1 req/s
    cfg.expected_avg_rate = 1.0;
    let r = Simulation::new(cfg, &stream).run();
    assert_eq!(r.records.len(), stream.len());
    assert!(
        r.slo_whole_run.violation_fraction() > 0.9,
        "overload must violate nearly everything, got {:.3}",
        r.slo_whole_run.violation_fraction()
    );
    let _ = SimTime::ZERO; // keep import used on all paths
}
