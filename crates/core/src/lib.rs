//! The Fifer policy layer — the paper's primary contribution.
//!
//! Fifer (Middleware '20) is a stage-aware, slack-aware resource-management
//! framework for serverless function chains. This crate implements every
//! policy the paper describes, as pure, simulator-agnostic decision logic:
//!
//! * [`slack`] — SLO fixing, slack estimation and per-stage slack division
//!   (equal vs. proportional, §4.1), and batch sizing
//!   `B_size = Stage_Slack / Stage_Exec_Time` (§3),
//! * [`scheduling`] — Least-Slack-First task selection (§4.3) and greedy
//!   least-free-slots container selection (§4.4.1),
//! * [`scaling`] — dynamic reactive scaling (Algorithm 1 a/b) and proactive
//!   forecast-driven scaling (Algorithm 1 e),
//! * [`rm`] — the five resource-manager configurations evaluated in §6
//!   (Bline, SBatch, RScale, BPred, Fifer),
//! * [`policy`] — the [`policy::ResourceManager`] decision-hook trait that
//!   turns those configurations into pluggable policy objects
//!   (`RmKind::build() -> Box<dyn ResourceManager>`), the read-only
//!   [`policy::ClusterView`]/[`policy::StageView`] snapshots they consume,
//!   and the typed [`policy::Decision`]s they emit,
//! * [`features`] — the Table 6 feature matrix versus related work.
//!
//! The event-driven cluster substrate that executes these policies lives in
//! the `fifer-sim` crate; keeping the policies pure makes every decision
//! unit-testable against the paper's algorithms.
//!
//! # Example
//!
//! ```
//! use fifer_core::slack::{AppPlan, SlackPolicy};
//! use fifer_workloads::Application;
//!
//! let plan = AppPlan::new(&Application::Ipa.spec(), SlackPolicy::Proportional);
//! // every stage gets a batch size derived from its share of the slack
//! for stage in plan.stages() {
//!     assert!(stage.batch_size >= 1);
//! }
//! ```

pub mod features;
pub mod policy;
pub mod resources;
pub mod rm;
pub mod scaling;
pub mod scheduling;
pub mod slack;

pub use policy::{
    ClusterView, ContainerView, Decision, DecisionCause, ResourceManager, StageView, WarmStart,
};
pub use resources::ResourceVec;
pub use rm::{BatchingMode, NodePlacement, RmConfig, RmKind, ScalingMode};
pub use scheduling::{ContainerSelection, SchedulingPolicy};
pub use slack::{AppPlan, SlackPolicy, StagePlan};
