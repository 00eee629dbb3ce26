//! Metrics pipeline for the Fifer reproduction.
//!
//! This crate is the dependency-light foundation of the workspace. It provides:
//!
//! * [`time`] — the simulation clock types [`SimTime`] and [`SimDuration`]
//!   (integer microseconds, so experiments are bit-reproducible),
//! * [`percentile`] — exact percentile/CDF estimation over latency samples,
//! * [`timeseries`] — time-stamped series with windowed aggregation,
//! * [`breakdown`] — per-request latency breakdowns (execution vs. cold-start
//!   vs. queuing delay) as plotted in Figure 9 of the paper, and the
//!   compact [`RecordLog`] the simulator keeps its per-request records in,
//! * [`slo`] — service-level-objective accounting (violation fractions),
//! * [`report`] — aligned text tables and CSV output used by the experiment
//!   harness to regenerate the paper's tables and figure series,
//! * [`varint`] — the LEB128-in-64-KiB-chunks byte code behind the
//!   record log and `fifer-workloads`' compact job stream.
//!
//! # Example
//!
//! ```
//! use fifer_metrics::{SimTime, SimDuration, percentile::Samples};
//!
//! let t0 = SimTime::ZERO;
//! let t1 = t0 + SimDuration::from_millis(250);
//! assert_eq!((t1 - t0).as_millis_f64(), 250.0);
//!
//! let mut lat = Samples::new();
//! for ms in [10.0, 20.0, 30.0, 40.0] {
//!     lat.push(ms);
//! }
//! assert_eq!(lat.median(), 25.0);
//! ```

pub mod breakdown;
pub mod percentile;
pub mod report;
pub mod slo;
pub mod time;
pub mod timeseries;
pub mod varint;

pub use breakdown::{LatencyBreakdown, RecordLog, RequestRecord};
pub use percentile::{Cdf, Samples};
pub use slo::SloAccountant;
pub use time::{SimDuration, SimTime};
pub use timeseries::TimeSeries;
