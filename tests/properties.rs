//! Property-based tests over cross-crate invariants: arbitrary workloads
//! and configurations must never break the simulator's accounting.

use fifer::prelude::*;
use fifer::sim::engine::{Event, EventQueue};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn arbitrary_mix() -> impl Strategy<Value = WorkloadMix> {
    prop_oneof![
        Just(WorkloadMix::Heavy),
        Just(WorkloadMix::Medium),
        Just(WorkloadMix::Light),
    ]
}

fn arbitrary_rm() -> impl Strategy<Value = RmKind> {
    prop_oneof![
        Just(RmKind::Bline),
        Just(RmKind::SBatch),
        Just(RmKind::RScale),
        Just(RmKind::BPred),
        Just(RmKind::Fifer),
        Just(RmKind::Harvest),
        Just(RmKind::HybridHist),
    ]
}

/// Random fault plans over every fault class the simulator injects;
/// outage windows stay inside the short property-run horizons and on the
/// 5-node prototype cluster.
fn arbitrary_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..1_000,
        0.0f64..0.15,
        0.0f64..0.10,
        (0.0f64..0.20, 1.0f64..6.0),
        0u32..8,
        (any::<bool>(), 0usize..5, 2u64..15, 1u64..10),
    )
        .prop_map(
            |(seed, spawn, crash, (strag_p, strag_f), retries, (outage, node, down, dur))| {
                let mut plan = FaultPlan::none();
                plan.seed = seed;
                plan.spawn_fail_prob = spawn;
                plan.crash_prob = crash;
                plan.straggler_prob = strag_p;
                plan.straggler_factor = strag_f;
                plan.max_retries = retries;
                if outage {
                    plan.outages.push(fifer::sim::fault::NodeOutage {
                        node,
                        down_at: SimTime::from_secs(down),
                        up_at: SimTime::from_secs(down + dur),
                    });
                }
                plan
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the seed, rate, mix and RM: every job completes, the
    /// latency breakdown accounts for the full response latency, and no
    /// metric goes negative or non-finite.
    #[test]
    fn simulation_invariants(
        seed in 0u64..1_000,
        rate in 1.0f64..15.0,
        secs in 10u64..40,
        mix in arbitrary_mix(),
        rm in arbitrary_rm(),
    ) {
        let stream = JobStream::generate(
            &PoissonTrace::new(rate),
            mix,
            SimDuration::from_secs(secs),
            seed,
        );
        let mut cfg = SimConfig::prototype(rm.config(), rate);
        cfg.seed = seed;
        let r = Simulation::new(cfg, &stream).run();

        prop_assert_eq!(r.records.len(), stream.len());
        for rec in &r.records {
            prop_assert_eq!(rec.breakdown.total(), rec.response_latency());
            prop_assert!(rec.completed >= rec.submitted);
        }
        prop_assert!(r.energy_joules >= 0.0 && r.energy_joules.is_finite());
        prop_assert!(r.avg_live_containers() >= 0.0);
        prop_assert!(r.slo_violation_fraction() <= 1.0);
        // cumulative spawn series is monotone
        let pts = r.cumulative_spawns.points();
        for w in pts.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "spawn series must be monotone");
        }
        // stage task accounting matches the workload's chain lengths
        let expected: u64 = stream.iter().map(|j| j.app.chain().len() as u64).sum();
        let tasks: u64 = r.stages.values().map(|s| s.tasks_executed).sum();
        prop_assert_eq!(tasks, expected);
    }

    /// Extension axes (tenants, early exit, warm pools) never break the
    /// completion and accounting invariants.
    #[test]
    fn extension_axes_preserve_invariants(
        seed in 0u64..200,
        tenants in 1usize..5,
        early_exit in 0.0f64..1.0,
        warm_pool in 0usize..4,
    ) {
        let stream = JobStream::generate(
            &PoissonTrace::new(6.0),
            WorkloadMix::Medium,
            SimDuration::from_secs(20),
            seed,
        );
        let mut cfg = SimConfig::prototype(RmKind::Fifer.config(), 6.0);
        cfg.seed = seed;
        cfg.tenants = tenants;
        cfg.early_exit_prob = early_exit;
        cfg.min_warm_pool = warm_pool;
        let r = Simulation::new(cfg, &stream).run();
        prop_assert_eq!(r.records.len(), stream.len());
        for rec in &r.records {
            prop_assert_eq!(rec.breakdown.total(), rec.response_latency());
        }
        // early exits can only reduce total stage work, never increase it
        let max_tasks: u64 = stream.iter().map(|j| j.app.chain().len() as u64).sum();
        let tasks: u64 = r.stages.values().map(|s| s.tasks_executed).sum();
        prop_assert!(tasks <= max_tasks);
        prop_assert!(tasks >= stream.len() as u64, "stage 1 always runs");
    }

    /// Slack plans: allocated slack never exceeds the app's slack; batch
    /// sizes are positive; proportional stage slack orders by exec time.
    #[test]
    fn slack_plan_invariants(slo_ms in 200u64..5_000) {
        use fifer::core::slack::{AppPlan, SlackPolicy};
        let slo = SimDuration::from_millis(slo_ms);
        for app in Application::ALL {
            let spec = app.spec_with_slo(slo);
            for policy in SlackPolicy::ALL {
                let plan = AppPlan::new(&spec, policy);
                prop_assert!(plan.allocated_slack() <= spec.total_slack());
                for st in plan.stages() {
                    prop_assert!(st.batch_size >= 1);
                    prop_assert_eq!(
                        st.response_latency,
                        st.slack + st.exec_time
                    );
                }
                if policy == SlackPolicy::Proportional {
                    // longer stages receive no less slack
                    for a in plan.stages() {
                        for b in plan.stages() {
                            if a.exec_time > b.exec_time {
                                prop_assert!(a.slack >= b.slack);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Trace generators: arrivals sorted, inside the horizon, and
    /// deterministic per seed.
    #[test]
    fn trace_invariants(seed in 0u64..500, scale in 0.02f64..0.3) {
        let horizon = SimDuration::from_secs(120);
        let traces: Vec<Box<dyn TraceGenerator>> = vec![
            Box::new(PoissonTrace::new(50.0 * scale)),
            Box::new(WikiLikeTrace::scaled(scale)),
            Box::new(WitsLikeTrace::scaled(scale, horizon, seed)),
        ];
        for t in traces {
            let a = t.generate(horizon, seed);
            let b = t.generate(horizon, seed);
            prop_assert_eq!(&a, &b, "{} must be deterministic", t.name());
            for w in a.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            if let Some(last) = a.last() {
                prop_assert!(*last < SimTime::ZERO + horizon);
            }
            // envelope sanity at random instants
            for s in [0u64, 13, 59, 119] {
                let r = t.rate_at(SimTime::from_secs(s));
                prop_assert!(r.is_finite() && r >= 0.0);
                prop_assert!(r <= t.peak_rate() + 1e-9);
            }
        }
    }

    /// Any random fault plan, on any resource manager, with the invariant
    /// auditor watching every event commit: conservation laws hold, every
    /// job either completes with a full latency breakdown or is recorded
    /// as dropped, and the run replays bit-for-bit.
    #[test]
    fn fault_plans_never_break_invariants(
        seed in 0u64..500,
        rate in 2.0f64..8.0,
        rm in arbitrary_rm(),
        plan in arbitrary_fault_plan(),
    ) {
        let stream = JobStream::generate(
            &PoissonTrace::new(rate),
            WorkloadMix::Medium,
            SimDuration::from_secs(20),
            seed,
        );
        let mk = || {
            let mut cfg = SimConfig::prototype(rm.config(), rate);
            cfg.seed = seed;
            cfg.faults = plan.clone();
            cfg.audit = true;
            Simulation::new(cfg, &stream).run()
        };
        let r = mk();
        prop_assert!(
            r.audit_violations.is_empty(),
            "{rm} under {plan:?}: {:?}", r.audit_violations
        );
        prop_assert!(r.audit_checks > 0);
        prop_assert_eq!(
            r.records.len() as u64 + r.jobs_dropped,
            stream.len() as u64,
            "every job must complete or be dropped"
        );
        for rec in &r.records {
            prop_assert_eq!(rec.breakdown.total(), rec.response_latency());
        }
        prop_assert!(r.tasks_crashed >= r.tasks_requeued);
        // deterministic replay under the same plan and seeds
        prop_assert_eq!(r.to_json(), mk().to_json(), "faulted run must replay");
    }

    /// A plan with all probabilities zero and no outages is not merely
    /// "few faults" — it is byte-identical to the fault-free simulator,
    /// with the auditor on or off.
    #[test]
    fn inactive_fault_plan_is_byte_identical(
        seed in 0u64..500,
        rate in 2.0f64..8.0,
        fault_seed in 0u64..1_000,
        rm in arbitrary_rm(),
    ) {
        let stream = JobStream::generate(
            &PoissonTrace::new(rate),
            WorkloadMix::Medium,
            SimDuration::from_secs(20),
            seed,
        );
        let mk = |faults: FaultPlan, audit: bool| {
            let mut cfg = SimConfig::prototype(rm.config(), rate);
            cfg.seed = seed;
            cfg.faults = faults;
            cfg.audit = audit;
            Simulation::new(cfg, &stream).run().to_json()
        };
        let baseline = mk(FaultPlan::none(), false);
        // the fault seed is irrelevant while every probability is zero
        let mut inert = FaultPlan::none();
        inert.seed = fault_seed;
        prop_assert_eq!(&baseline, &mk(inert.clone(), false));
        prop_assert_eq!(&baseline, &mk(inert, true));
    }

    /// Harvesting under arbitrary knobs, workloads and fault plans, with
    /// the auditor checking every event commit: the resource conservation
    /// chain (`used ≤ allocated ≤ capacity`, exact integers), the lease
    /// balance (created − ended = live), and the per-node borrowed/lent
    /// equality hold across every random interleaving of spawns, lease
    /// reclamations, preemptions and injected faults.
    #[test]
    fn harvesting_never_breaks_conservation(
        seed in 0u64..500,
        rate in 2.0f64..8.0,
        headroom_pct in 1u8..101,
        min_lend in 0u64..600,
        rightsize in any::<bool>(),
        plan in arbitrary_fault_plan(),
    ) {
        use fifer::core::rm::HarvestConfig;
        let stream = JobStream::generate(
            &PoissonTrace::new(rate),
            WorkloadMix::Medium,
            SimDuration::from_secs(20),
            seed,
        );
        let mut cfg = SimConfig::prototype(
            RmKind::Harvest.config().with_harvest(HarvestConfig {
                enabled: true,
                rightsize,
                lend_headroom_pct: headroom_pct,
                min_lend_cpu_milli: min_lend,
            }),
            rate,
        );
        cfg.seed = seed;
        cfg.faults = plan.clone();
        cfg.audit = true;
        let r = Simulation::new(cfg, &stream).run();
        prop_assert!(
            r.audit_violations.is_empty(),
            "harvest(headroom={headroom_pct}%, min_lend={min_lend}, rightsize={rightsize}) \
             under {plan:?}: {:?}",
            r.audit_violations
        );
        prop_assert!(r.audit_checks > 0);
        prop_assert_eq!(
            r.records.len() as u64 + r.jobs_dropped,
            stream.len() as u64,
            "every job must complete or be dropped"
        );
        prop_assert_eq!(r.harvest_spawns, r.leases_created);
        prop_assert!(r.leases_ended <= r.leases_created);
        prop_assert!(
            r.used_core_hours <= r.alloc_core_hours + 1e-9,
            "usage integral {} must not exceed allocation integral {}",
            r.used_core_hours, r.alloc_core_hours
        );
    }

    /// `HarvestConfig::none()` is not merely "few leases" — the whole
    /// resource-model refactor is inert until switched on: the Harvest
    /// RM with harvesting disabled replays the baseline byte for byte.
    #[test]
    fn disabled_harvesting_is_byte_identical(
        seed in 0u64..500,
        rate in 2.0f64..8.0,
    ) {
        use fifer::core::rm::HarvestConfig;
        let stream = JobStream::generate(
            &PoissonTrace::new(rate),
            WorkloadMix::Medium,
            SimDuration::from_secs(20),
            seed,
        );
        let mk = |rm: fifer::core::rm::RmConfig| {
            let mut cfg = SimConfig::prototype(rm, rate);
            cfg.seed = seed;
            Simulation::new(cfg, &stream).run().to_json()
        };
        let baseline = mk(RmKind::Bline.config());
        let disabled = mk(RmKind::Harvest.config().with_harvest(HarvestConfig::none()));
        prop_assert_eq!(baseline, disabled);
    }

    /// `OnlineRetrainConfig::none()` is inert: a Fifer run with online
    /// retraining explicitly disabled replays the plain Fifer run byte
    /// for byte — the §8 extension only changes behaviour when armed.
    #[test]
    fn disabled_online_retraining_is_byte_identical(
        seed in 0u64..500,
        rate in 2.0f64..8.0,
    ) {
        use fifer::core::rm::OnlineRetrainConfig;
        let stream = JobStream::generate(
            &PoissonTrace::new(rate),
            WorkloadMix::Medium,
            SimDuration::from_secs(20),
            seed,
        );
        let mk = |rm: fifer::core::rm::RmConfig| {
            let mut cfg = SimConfig::prototype(rm, rate);
            cfg.seed = seed;
            Simulation::new(cfg, &stream).run().to_json()
        };
        let baseline = mk(RmKind::Fifer.config());
        let disabled = mk(
            RmKind::Fifer
                .config()
                .with_online_retrain(OnlineRetrainConfig::none()),
        );
        prop_assert_eq!(baseline, disabled);
    }

    /// The hybrid histogram's windows for arbitrary idle samples: the
    /// keep-alive window always covers the pre-warm window (head
    /// percentile), both are inside the histogram's range plus the
    /// fallback, and feeding the same samples twice changes nothing.
    #[test]
    fn keepalive_window_covers_the_head_percentile(
        samples in prop::collection::vec(0u64..400, 1..200),
        bin_width in 1u64..20,
        bins in 1usize..80,
        head in 1u8..50,
        tail in 50u8..100,
    ) {
        use fifer::predict::IdleHistogram;
        let mut h = IdleHistogram::new(bin_width, bins);
        for &s in &samples {
            h.record(s);
        }
        let w = h.windows(head, tail, 20, 1, 60);
        prop_assert!(
            w.keepalive_s >= w.prewarm_s,
            "keep-alive {} must cover the pre-warm head {}",
            w.keepalive_s, w.prewarm_s
        );
        prop_assert!(w.keepalive_s <= h.range_s().max(60));
        if !w.oob {
            // in-bounds regime: both windows sit on bin edges
            prop_assert_eq!(w.prewarm_s % bin_width, 0);
            prop_assert_eq!(w.keepalive_s % bin_width, 0);
        }
        prop_assert_eq!(h.total(), samples.len() as u64);
    }

    /// An app whose idle times fall out of the histogram's bounds — the
    /// Azure characterization's "pattern not representable" case — never
    /// triggers pre-warming: the policy falls back to a fixed keep-alive.
    #[test]
    fn oob_pattern_apps_are_never_prewarmed(
        in_bounds in prop::collection::vec(0u64..100, 0..20),
        oob in prop::collection::vec(100u64..10_000, 1..60),
    ) {
        use fifer::predict::IdleHistogram;
        // 10 bins x 10 s: everything >= 100 s is out of bounds
        let mut h = IdleHistogram::new(10, 10);
        for &s in in_bounds.iter().chain(&oob) {
            h.record(s);
        }
        prop_assert_eq!(h.oob_count(), oob.len() as u64);
        if h.is_oob_pattern(20) {
            let w = h.windows(5, 99, 20, 1, 60);
            prop_assert!(w.oob);
            prop_assert_eq!(w.prewarm_s, 0, "OOB apps must never pre-warm");
            prop_assert_eq!(w.keepalive_s, 60, "OOB apps fall back to the fixed window");
        }
    }

    /// The Azure family's heavy tail is real: with two apps the top-ranked
    /// app's empirical share of arrivals tracks its configured Zipf share
    /// across arbitrary seeds and tail exponents.
    #[test]
    fn azure_rank_one_share_follows_the_configured_tail(
        seed in 0u64..500,
        tail_exp in 0.8f64..2.5,
    ) {
        let cfg = AzureWorkloadConfig {
            apps: 2,
            tail_exponent: tail_exp,
            total_rate: 20.0,
            trigger_mix: TriggerMix::paper_default(),
            mix: WorkloadMix::Medium,
        };
        let stream = cfg.generate_stream(SimDuration::from_secs(240), seed);
        prop_assert!(!stream.is_empty());
        // with two apps the ranks map to distinct chains, so the top
        // app's share is directly observable from the stream
        let expected = cfg.zipf_share(0);
        let top = stream.app_fraction(cfg.mix.application_for_rank(0));
        prop_assert!(
            (top - expected).abs() < 0.1,
            "rank-1 share {top:.3} should be within 0.1 of the Zipf share \
             {expected:.3} (s={tail_exp:.2})"
        );
    }

    /// `KeepAliveConfig::none()` is not merely "few pre-warms" — the
    /// histogram layer is inert until switched on: HybridHist with
    /// keep-alive disabled replays the baseline byte for byte.
    #[test]
    fn disabled_keepalive_is_byte_identical(
        seed in 0u64..500,
        rate in 2.0f64..8.0,
    ) {
        let stream = JobStream::generate(
            &PoissonTrace::new(rate),
            WorkloadMix::Medium,
            SimDuration::from_secs(20),
            seed,
        );
        let mk = |rm: fifer::core::rm::RmConfig| {
            let mut cfg = SimConfig::prototype(rm, rate);
            cfg.seed = seed;
            Simulation::new(cfg, &stream).run().to_json()
        };
        let baseline = mk(RmKind::Bline.config());
        let mut disabled = RmKind::HybridHist.config();
        disabled.keepalive = KeepAliveConfig::none();
        prop_assert_eq!(baseline, mk(disabled));
    }

    /// Scaling decisions never panic and never return absurd counts for
    /// arbitrary inputs.
    #[test]
    fn scaling_decision_bounds(
        pending in 0usize..10_000,
        containers in 0usize..1_000,
        batch in 1usize..64,
        slack_ms in 0u64..2_000,
        exec_ms in 1u64..500,
        delay_ms in 0u64..5_000,
    ) {
        use fifer::core::scaling::{
            proactive_containers_needed, reactive_containers_needed,
            ProactiveInputs, ReactiveInputs,
        };
        let inp = ReactiveInputs {
            pending_queue_len: pending,
            num_containers: containers,
            batch_size: batch,
            stage_response_latency: SimDuration::from_millis(slack_ms + exec_ms),
            cold_start: SimDuration::from_millis(3000),
            observed_delay: SimDuration::from_millis(delay_ms),
            stage_slack: SimDuration::from_millis(slack_ms),
        };
        let n = reactive_containers_needed(&inp);
        // never spawn more than one container per pending request
        prop_assert!(n <= pending);
        let p = ProactiveInputs {
            forecast_rate: pending as f64,
            num_containers: containers,
            batch_size: batch,
            stage_response_latency: SimDuration::from_millis(slack_ms + exec_ms),
        };
        let m = proactive_containers_needed(&p);
        prop_assert!(m < 1_000_000, "proactive count {m} must stay bounded");
    }
}

/// The plain-heap oracle: one binary heap over every event keyed by
/// `(time, seq)`, with preloads treated as ordinary schedules. Its pop
/// order is the commit order the simulator's event queue must replay.
#[derive(Default)]
struct HeapOracle {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    events: Vec<Event>,
    now: SimTime,
}

impl HeapOracle {
    fn schedule(&mut self, at: SimTime, event: Event) {
        self.heap.push(Reverse((at, self.events.len() as u64)));
        self.events.push(event);
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        let Reverse((at, seq)) = self.heap.pop()?;
        self.now = at;
        Some((at, self.events[seq as usize]))
    }
}

/// A delay in microseconds: zero (a schedule at `now`, tying with
/// whatever else is pending there), tiny, or far in the future.
fn arbitrary_delay_us() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..3, 0u64..20_000]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The event queue (arrival slab plus heap) pops exactly the sequence
    /// the plain-heap oracle pops: random preload runs with tied arrival
    /// times, startup schedules before them, tick schedules after them,
    /// and run-time schedules at `now` and in the future while draining.
    /// `len` and `now` match the oracle after every step.
    #[test]
    fn event_queue_matches_the_plain_heap_oracle(
        startup in prop::collection::vec(0u64..2_000, 0..8),
        gaps in prop::collection::vec(prop_oneof![Just(0u64), 0u64..1_000], 0..64),
        ticks in prop::collection::vec(0u64..50_000, 0..4),
        fanout in prop::collection::vec(
            prop::collection::vec(arbitrary_delay_us(), 0..4),
            0..96,
        ),
    ) {
        let mut q = EventQueue::new();
        let mut oracle = HeapOracle::default();
        let mut next_container = 0u64;
        let mut schedule_both = |q: &mut EventQueue, oracle: &mut HeapOracle, at: SimTime| {
            next_container += 1;
            let e = Event::TaskFinish { container: next_container };
            q.schedule(at, e);
            oracle.schedule(at, e);
        };
        for &t in &startup {
            schedule_both(&mut q, &mut oracle, SimTime::from_micros(t));
        }
        let mut at = 0u64;
        for (job, &gap) in gaps.iter().enumerate() {
            at += gap;
            let e = Event::JobArrival { job };
            q.preload_arrival(SimTime::from_micros(at), e);
            oracle.schedule(SimTime::from_micros(at), e);
        }
        for &t in &ticks {
            schedule_both(&mut q, &mut oracle, SimTime::from_micros(t));
        }
        prop_assert_eq!(q.len(), oracle.heap.len());
        prop_assert_eq!(q.now(), SimTime::ZERO);

        let mut pops = 0usize;
        loop {
            let got = q.pop();
            prop_assert_eq!(got, oracle.pop(), "pop {} diverged", pops);
            let Some((t, _)) = got else { break };
            prop_assert_eq!(q.now(), oracle.now);
            for &d in fanout.get(pops).map(Vec::as_slice).unwrap_or_default() {
                schedule_both(&mut q, &mut oracle, t + SimDuration::from_micros(d));
            }
            prop_assert_eq!(q.len(), oracle.heap.len());
            pops += 1;
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(pops, oracle.events.len());
    }
}
