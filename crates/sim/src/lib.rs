//! Discrete-event serverless cluster simulator.
//!
//! The paper evaluates Fifer both on a real Kubernetes/Brigade cluster and
//! on "a high-fidelity event-driven simulator" calibrated with the real
//! system's cold-start, image-load and transition latencies (§5.2). This
//! crate is that simulator, rebuilt from scratch:
//!
//! * [`engine`] — the event queue (the stream's arrivals decoded in
//!   order plus one heap, committed in `(time, seq)` order) and the
//!   simulation clock,
//! * [`config`] — simulation parameters (Tables 1–2 defaults),
//! * [`cluster`] — nodes, CPU/memory accounting and the greedy
//!   bin-packing node selection (§4.4.2),
//! * [`container`] — container lifecycle: cold starts, batch slots,
//!   sequential batch execution, idle timeout (§2.2.1, §4.4.1),
//! * [`stage`] — per-microservice stage runtime: global queue and load
//!   monitor (§4.2),
//! * [`energy`] — the linear node power model and power-off accounting
//!   (§6.1.4),
//! * [`stats_store`] — the MongoDB stand-in: it counts store reads and
//!   writes; its §6.1.5 access latency is reported, not charged,
//! * [`driver`] — the discrete-event loop and the policy hook call sites:
//!   it snapshots read-only views, collects the
//!   [`ResourceManager`](fifer_core::policy::ResourceManager)'s typed
//!   decisions, and applies them through the mechanism modules,
//! * `accounting` — view snapshots, stage-table setup and result assembly
//!   (exposed through [`Simulation`] and [`driver::window_max_series`]),
//! * `dispatcher` — task-to-slot binding under the configured scheduling
//!   and selection policies,
//! * `lifecycle` — container spawn/placement/eviction/kill and the
//!   warm-pool floor,
//! * `harvest` — idle-resource harvesting: node-local leases carved from
//!   idle containers' allocation headroom, with safe reclamation when a
//!   lender's usage rises,
//! * [`scenario`] — one run's arrival family, mix, rate, horizon,
//!   warmup, seed and cluster: the single mapping from a family to its
//!   generator and from a stream to the stream-dependent config fields
//!   (expected rate, warmup, idle scan, pretraining series),
//! * [`fault`] — the deterministic fault-injection plan (seeded spawn
//!   failures, mid-task crashes, node outages, stragglers),
//! * `audit` — the runtime invariant auditor: conservation laws checked
//!   at event-commit points when [`config::SimConfig::audit`] is set,
//! * [`trace`] — the structured decision trace (ring-buffered
//!   [`SimEvent`]s with cause attribution, optional JSONL export),
//! * [`results`] — everything the experiment harness needs to regenerate
//!   the paper's figures.
//!
//! Policy lives in `fifer_core::policy`; the driver and its mechanism
//! modules never inspect the scaling mode — they only execute decisions.
//!
//! # Example
//!
//! ```
//! use fifer_sim::{config::SimConfig, driver::Simulation};
//! use fifer_core::rm::RmKind;
//! use fifer_workloads::{JobStream, PoissonTrace, WorkloadMix};
//! use fifer_metrics::SimDuration;
//!
//! let trace = PoissonTrace::new(10.0);
//! let stream = JobStream::generate(&trace, WorkloadMix::Light,
//!                                  SimDuration::from_secs(30), 42);
//! let cfg = SimConfig::prototype(RmKind::Fifer.config(), 10.0);
//! let result = Simulation::new(cfg, &stream).run();
//! assert_eq!(result.records.len(), stream.len());
//! ```

mod accounting;
mod audit;
pub mod cluster;
pub mod config;
pub mod container;
mod dispatcher;
pub mod driver;
pub mod energy;
pub mod engine;
pub mod fault;
mod harvest;
mod lifecycle;
pub mod results;
pub mod scenario;
pub mod stage;
pub mod stats_store;
pub mod trace;

pub use config::{ClusterConfig, SimConfig};
pub use driver::Simulation;
pub use fault::{FaultKind, FaultPlan, NodeOutage};
pub use results::SimResult;
pub use scenario::{Arrivals, Scenario};
pub use trace::{SimEvent, SimTrace, TraceConfig};
