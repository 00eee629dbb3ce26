//! Load-prediction models for proactive container scaling (paper §4.5).
//!
//! Fifer forecasts the arrival rate of the next monitoring window and
//! proactively spawns containers, hiding cold starts. The paper compares
//! eight predictors brick-by-brick (Figure 6a) — four classical models
//! fitted online over the last 100 seconds, and four neural models
//! pre-trained on 60% of the trace:
//!
//! | family | models | module |
//! |---|---|---|
//! | classical | MWA, EWMA, linear regression, logistic regression | [`classic`] |
//! | neural | SimpleFF (MLP), WeaveNet-style dilated conv, DeepAR-style probabilistic RNN, LSTM | [`models`] |
//!
//! All neural models are built on the from-scratch [`nn`] substrate (no
//! external ML dependency): dense layers, LSTM cells with BPTT, dilated
//! causal convolutions, and Adam.
//!
//! [`sampler::WindowSampler`] implements the paper's load-sampling scheme:
//! every T = 10 s the arrival rate is sampled in adjacent Ws = 5 s windows
//! over the past 100 s, tracking the per-window maximum (§4.5).
//!
//! # Example
//!
//! ```
//! use fifer_predict::{LoadPredictor, classic::Ewma};
//!
//! let mut p = Ewma::new(0.5);
//! for rate in [10.0, 20.0, 30.0] {
//!     p.observe(rate);
//! }
//! let f = p.forecast();
//! assert!(f > 10.0 && f <= 30.0);
//! ```

pub mod checkpoint;
pub mod classic;
pub mod eval;
pub mod histogram;
pub mod models;
pub mod nn;
pub mod predictor;
pub mod rightsize;
pub mod sampler;
pub mod train;

pub use checkpoint::{CheckpointError, ModelCache};
pub use classic::{Ewma, LinearTrend, LogisticTrend, MovingWindowAverage};
pub use eval::{accuracy, mae, mape, rmse};
pub use histogram::{HistWindows, IdleHistogram};
pub use models::{DeepArPredictor, LstmPredictor, SimpleFfPredictor, WeaveNetPredictor};
pub use predictor::{LoadPredictor, PredictorKind};
pub use rightsize::{RecommendedSize, RightSizer};
pub use sampler::WindowSampler;
