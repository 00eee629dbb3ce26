//! Experiment harness for the Fifer reproduction.
//!
//! [`runner`] executes simulations (with a cross-figure result cache and
//! parallel sweeps over [`pool::par_map`]); [`figures`] contains one driver per table and figure
//! of the paper plus the ablations listed in DESIGN.md. The `experiments`
//! binary dispatches by id (`fig8`, `tab3`, `abl-pred`, `all`, …), prints
//! each artifact as an aligned table and writes CSV series into
//! `results/`.

pub mod figures;
pub mod json;
pub mod perf;
pub mod plots;
pub mod pool;
pub mod runner;

pub use runner::{Ctx, RunSpec};
