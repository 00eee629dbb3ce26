//! # Fifer — stage-aware serverless resource management (reproduction)
//!
//! A from-scratch Rust reproduction of *Fifer: Tackling Resource
//! Underutilization in the Serverless Era* (Middleware 2020). Fifer
//! manages function chains on serverless platforms by batching requests
//! into existing containers using per-stage slack, and hiding cold starts
//! with LSTM-driven proactive container provisioning.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `fifer-core` | slack estimation, batch sizing, LSF scheduling, reactive/proactive scaling, the five resource managers |
//! | [`sim`] | `fifer-sim` | the discrete-event cluster simulator (nodes, containers, cold starts, energy) |
//! | [`predict`] | `fifer-predict` | eight load predictors incl. a from-scratch LSTM |
//! | [`workloads`] | `fifer-workloads` | microservice catalog, chains, mixes, traces |
//! | [`metrics`] | `fifer-metrics` | time, percentiles, breakdowns, reporting |
//!
//! # Quickstart
//!
//! ```
//! use fifer::prelude::*;
//!
//! // a 30-second Poisson workload over the Light mix (IMG + FaceSecurity)
//! let trace = PoissonTrace::new(10.0);
//! let stream = JobStream::generate(&trace, WorkloadMix::Light,
//!                                  SimDuration::from_secs(30), 7);
//!
//! // run it under the full Fifer resource manager on the 80-core cluster
//! let cfg = SimConfig::prototype(RmKind::Fifer.config(), 10.0);
//! let result = Simulation::new(cfg, &stream).run();
//!
//! assert_eq!(result.records.len(), stream.len());
//! println!("SLO violations: {:.2}%", result.slo_violation_fraction() * 100.0);
//! ```

pub use fifer_core as core;
pub use fifer_metrics as metrics;
pub use fifer_predict as predict;
pub use fifer_sim as sim;
pub use fifer_workloads as workloads;

/// The common imports for driving a simulation end to end.
pub mod prelude {
    pub use fifer_core::rm::{KeepAliveConfig, RmConfig, RmKind};
    pub use fifer_core::slack::{AppPlan, SlackPolicy};
    pub use fifer_core::WarmStart;
    pub use fifer_metrics::{SimDuration, SimTime};
    pub use fifer_predict::{LoadPredictor, ModelCache, PredictorKind};
    pub use fifer_sim::{FaultPlan, SimConfig, SimResult, Simulation};
    pub use fifer_workloads::{
        Application, AzureWorkloadConfig, JobStream, Microservice, PoissonTrace, TraceGenerator,
        TriggerMix, WikiLikeTrace, WitsLikeTrace, WorkloadMix,
    };
}
