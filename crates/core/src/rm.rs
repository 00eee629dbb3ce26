//! The five resource-manager configurations evaluated in the paper (§3,
//! §5.3): Bline, SBatch, RScale, BPred and Fifer.
//!
//! A resource manager is fully described by five orthogonal choices —
//! batching mode, scaling mode (a proactive one names its load predictor),
//! task scheduling, container selection and node placement — plus three
//! switches: harvesting with right-sizing, the hybrid keep-alive
//! ([`KeepAliveConfig`]) and online predictor retraining. [`RmConfig`]
//! encodes those choices; [`RmKind`] provides the paper's named
//! configurations. The simulator consumes an `RmConfig`, so ablations are
//! just custom configs.

use crate::scheduling::{ContainerSelection, SchedulingPolicy};
use crate::slack::SlackPolicy;
use fifer_predict::PredictorKind;
use std::fmt;

/// How requests map onto containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchingMode {
    /// One request per container at a time (AWS-style, §2.2).
    None,
    /// Batch size fixed offline from equal-slack division (SBatch).
    StaticEqualSlack,
    /// Batch size from slack division at the configured policy — Fifer and
    /// RScale use proportional division (§4.1).
    Dynamic(SlackPolicy),
}

impl BatchingMode {
    /// The slack-division policy implied by this mode. Non-batching RMs
    /// still need per-stage response budgets for their scalers; those
    /// follow the stages' execution-time shares (proportional), while
    /// SBatch is defined by equal division (§5.3).
    pub fn slack_policy(self) -> SlackPolicy {
        match self {
            BatchingMode::None => SlackPolicy::Proportional,
            BatchingMode::StaticEqualSlack => SlackPolicy::EqualDivision,
            BatchingMode::Dynamic(p) => p,
        }
    }

    /// `true` when requests may queue at containers.
    pub fn batches(self) -> bool {
        !matches!(self, BatchingMode::None)
    }
}

/// How container counts react to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalingMode {
    /// Spawn on demand when a request finds no free container (Bline).
    OnDemand,
    /// Fixed pool sized to the trace's average rate; never scales (SBatch).
    FixedPool,
    /// Reactive only: Algorithm 1 a/b at each monitoring interval (RScale).
    Reactive,
    /// Reactive plus proactive forecasting with one of the eight load
    /// predictors of Figure 6a (BPred: EWMA, Fifer: LSTM).
    ReactivePlusProactive(PredictorKind),
}

/// Where new containers are placed on nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodePlacement {
    /// Fifer's modified MostRequestedPriority: lowest-numbered node with the
    /// least available resources that still fits the pod (§4.4.2).
    GreedyBinPack,
    /// Kubernetes' default spreading (LeastRequestedPriority-style):
    /// emptiest node first.
    Spread,
}

/// Hybrid-histogram keep-alive / pre-warm switch ("Serverless in the
/// Wild", Shahrad et al.). The histogram windows are constants next to
/// [`HybridHistPolicy`](crate::policy::HybridHistPolicy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeepAliveConfig {
    /// Master switch. When `false` the policy registry never builds the
    /// keep-alive policy and the simulator's behavior is bit-identical to
    /// a run without it.
    pub enabled: bool,
}

impl KeepAliveConfig {
    /// Hybrid keep-alive fully off — the default for every other RM.
    pub const fn none() -> Self {
        KeepAliveConfig { enabled: false }
    }

    /// Hybrid keep-alive on — the seventh RM.
    pub const fn paper_default() -> Self {
        KeepAliveConfig { enabled: true }
    }
}

/// A complete resource-manager configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RmConfig {
    /// Request-to-container batching.
    pub batching: BatchingMode,
    /// Container-count scaling (and, when proactive, its load predictor).
    pub scaling: ScalingMode,
    /// Task selection at stage queues.
    pub scheduling: SchedulingPolicy,
    /// Container selection within a stage.
    pub container_selection: ContainerSelection,
    /// Node placement for new containers.
    pub placement: NodePlacement,
    /// Freyr-style idle-resource harvesting plus Sizeless-style
    /// right-sizing (on for the sixth RM only). When `false` no lease is
    /// ever created and no usage sample reaches the policy.
    pub harvest: bool,
    /// Hybrid-histogram keep-alive / pre-warm (off for every RM but the
    /// seventh).
    pub keepalive: KeepAliveConfig,
    /// Keep fine-tuning the predictor on the observed rate tail during the
    /// run (the paper's §8 "the LSTM model parameters can be constantly
    /// updated by retraining in the background" extension). Off by default;
    /// only a [predictor](Self::predictor) that
    /// [retrains online](PredictorKind::retrains_online) is touched.
    pub online_retrain: bool,
}

impl RmConfig {
    /// Applies a different predictor where scaling is proactive (for the
    /// predictor ablation).
    pub fn with_predictor(mut self, kind: PredictorKind) -> Self {
        if let ScalingMode::ReactivePlusProactive(_) = self.scaling {
            self.scaling = ScalingMode::ReactivePlusProactive(kind);
        }
        self
    }

    /// Applies a different slack-division policy where batching is dynamic.
    pub fn with_slack_policy(mut self, policy: SlackPolicy) -> Self {
        if let BatchingMode::Dynamic(_) = self.batching {
            self.batching = BatchingMode::Dynamic(policy);
        }
        self
    }

    /// The load predictor a proactive RM forecasts with.
    pub fn predictor(&self) -> Option<PredictorKind> {
        match self.scaling {
            ScalingMode::ReactivePlusProactive(kind) => Some(kind),
            _ => None,
        }
    }

    /// `true` when this RM pre-spawns containers from forecasts.
    pub fn is_proactive(&self) -> bool {
        self.predictor().is_some()
    }
}

/// The paper's five named resource managers, plus the harvesting sixth and
/// the hybrid keep-alive seventh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RmKind {
    /// AWS-style baseline: no batching, spawn per request (§3).
    Bline,
    /// Static batching on a fixed pool (Azure-style queuing, §5.3).
    SBatch,
    /// Dynamic reactive scaling with batching — GrandSLAm-like (§5.3).
    RScale,
    /// Bline plus LSF and EWMA prediction — Archipelago-like (§5.3).
    BPred,
    /// The full system: batching + reactive + LSTM-proactive + greedy
    /// selection/placement.
    Fifer,
    /// Bline plus Freyr-style idle-resource harvesting and Sizeless-style
    /// right-sizing (ROADMAP item 3): spawn on demand, but back new
    /// containers with lent idle headroom where possible and shrink
    /// allocations toward observed usage.
    Harvest,
    /// Bline plus the hybrid-histogram keep-alive / pre-warm policy from
    /// "Serverless in the Wild" (ROADMAP item 2): per-app idle-time
    /// histograms pick a pre-warm window (head percentile) and keep-alive
    /// window (tail percentile), with a fixed-keep-alive fallback for
    /// out-of-bounds apps.
    HybridHist,
}

impl RmKind {
    /// All evaluated RMs: the paper's five in comparison order, then the
    /// harvesting and hybrid keep-alive extensions.
    pub const ALL: [RmKind; 7] = [
        RmKind::Bline,
        RmKind::SBatch,
        RmKind::RScale,
        RmKind::BPred,
        RmKind::Fifer,
        RmKind::Harvest,
        RmKind::HybridHist,
    ];

    /// The configuration the paper evaluates for this RM.
    pub fn config(self) -> RmConfig {
        match self {
            RmKind::Bline => RmConfig {
                batching: BatchingMode::None,
                scaling: ScalingMode::OnDemand,
                scheduling: SchedulingPolicy::Fifo,
                container_selection: ContainerSelection::FirstFit,
                placement: NodePlacement::Spread,
                harvest: false,
                keepalive: KeepAliveConfig::none(),
                online_retrain: false,
            },
            RmKind::SBatch => RmConfig {
                batching: BatchingMode::StaticEqualSlack,
                scaling: ScalingMode::FixedPool,
                scheduling: SchedulingPolicy::Fifo,
                container_selection: ContainerSelection::FirstFit,
                // the fixed pool is placed once; consolidating it costs
                // nothing and matches SBatch's near-Fifer energy in Fig 15
                placement: NodePlacement::GreedyBinPack,
                harvest: false,
                keepalive: KeepAliveConfig::none(),
                online_retrain: false,
            },
            RmKind::RScale => RmConfig {
                batching: BatchingMode::Dynamic(SlackPolicy::Proportional),
                scaling: ScalingMode::Reactive,
                scheduling: SchedulingPolicy::Lsf,
                container_selection: ContainerSelection::GreedyLeastFreeSlots,
                placement: NodePlacement::GreedyBinPack,
                harvest: false,
                keepalive: KeepAliveConfig::none(),
                online_retrain: false,
            },
            RmKind::BPred => RmConfig {
                batching: BatchingMode::None,
                scaling: ScalingMode::ReactivePlusProactive(PredictorKind::Ewma),
                scheduling: SchedulingPolicy::Lsf,
                container_selection: ContainerSelection::FirstFit,
                placement: NodePlacement::Spread,
                harvest: false,
                keepalive: KeepAliveConfig::none(),
                online_retrain: false,
            },
            RmKind::Fifer => RmConfig {
                batching: BatchingMode::Dynamic(SlackPolicy::Proportional),
                scaling: ScalingMode::ReactivePlusProactive(PredictorKind::Lstm),
                scheduling: SchedulingPolicy::Lsf,
                container_selection: ContainerSelection::GreedyLeastFreeSlots,
                placement: NodePlacement::GreedyBinPack,
                harvest: false,
                keepalive: KeepAliveConfig::none(),
                online_retrain: false,
            },
            // Bline-shaped on purpose: identical batching/scaling/selection
            // keeps its spawn and dispatch timing structurally comparable to
            // the baseline, so utilization deltas are attributable to the
            // harvesting mechanism alone
            RmKind::Harvest => RmConfig {
                batching: BatchingMode::None,
                scaling: ScalingMode::OnDemand,
                scheduling: SchedulingPolicy::Fifo,
                container_selection: ContainerSelection::FirstFit,
                placement: NodePlacement::Spread,
                harvest: true,
                keepalive: KeepAliveConfig::none(),
                online_retrain: false,
            },
            // Bline-shaped for the same reason as Harvest: identical
            // batching/scaling/selection means cold-start and memory-time
            // deltas against the baseline are attributable to the
            // keep-alive windows alone
            RmKind::HybridHist => RmConfig {
                batching: BatchingMode::None,
                scaling: ScalingMode::OnDemand,
                scheduling: SchedulingPolicy::Fifo,
                container_selection: ContainerSelection::FirstFit,
                placement: NodePlacement::Spread,
                harvest: false,
                keepalive: KeepAliveConfig::paper_default(),
                online_retrain: false,
            },
        }
    }
}

impl fmt::Display for RmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = match self {
            RmKind::Bline => "Bline",
            RmKind::SBatch => "SBatch",
            RmKind::RScale => "RScale",
            RmKind::BPred => "BPred",
            RmKind::Fifer => "Fifer",
            RmKind::Harvest => "Harvest",
            RmKind::HybridHist => "HybridHist",
        };
        f.write_str(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bline_matches_paper_definition() {
        let c = RmKind::Bline.config();
        assert!(!c.batching.batches());
        assert_eq!(c.scaling, ScalingMode::OnDemand);
        assert!(!c.is_proactive());
    }

    #[test]
    fn fifer_combines_all_mechanisms() {
        let c = RmKind::Fifer.config();
        assert_eq!(c.batching, BatchingMode::Dynamic(SlackPolicy::Proportional));
        assert!(c.is_proactive());
        assert_eq!(
            c.scaling,
            ScalingMode::ReactivePlusProactive(PredictorKind::Lstm)
        );
        assert_eq!(c.scheduling, SchedulingPolicy::Lsf);
        assert_eq!(
            c.container_selection,
            ContainerSelection::GreedyLeastFreeSlots
        );
        assert_eq!(c.placement, NodePlacement::GreedyBinPack);
    }

    #[test]
    fn bpred_is_archipelago_like() {
        // §5.3: BPred = Bline + LSF + EWMA prediction, no batching
        let c = RmKind::BPred.config();
        assert!(!c.batching.batches());
        assert_eq!(
            c.scaling,
            ScalingMode::ReactivePlusProactive(PredictorKind::Ewma)
        );
        assert_eq!(c.scheduling, SchedulingPolicy::Lsf);
        assert!(c.is_proactive());
    }

    #[test]
    fn sbatch_uses_equal_slack_fixed_pool() {
        // §5.3: "In Sbatch, we set the batch size by equal-slack-division
        // policy and fix the number of containers"
        let c = RmKind::SBatch.config();
        assert_eq!(c.batching, BatchingMode::StaticEqualSlack);
        assert_eq!(c.scaling, ScalingMode::FixedPool);
        assert_eq!(c.batching.slack_policy(), SlackPolicy::EqualDivision);
    }

    #[test]
    fn rscale_is_fifer_without_prediction() {
        // §5.3: Fifer-with-RScale-only is "akin to the dynamic batching
        // policy employed in GrandSLAm"
        let f = RmKind::Fifer.config();
        let r = RmKind::RScale.config();
        assert_eq!(f.batching, r.batching);
        assert_eq!(f.scheduling, r.scheduling);
        assert_eq!(f.container_selection, r.container_selection);
        assert_eq!(f.placement, r.placement);
        assert!(!r.is_proactive());
    }

    #[test]
    fn predictor_ablation_builder() {
        let c = RmKind::Fifer.config().with_predictor(PredictorKind::Mwa);
        assert_eq!(
            c.scaling,
            ScalingMode::ReactivePlusProactive(PredictorKind::Mwa)
        );
        assert!(c.is_proactive());
        let b = RmKind::Bline.config();
        assert_eq!(b.with_predictor(PredictorKind::Mwa), b);
    }

    #[test]
    fn slack_policy_builder_only_affects_dynamic() {
        let f = RmKind::Fifer
            .config()
            .with_slack_policy(SlackPolicy::EqualDivision);
        assert_eq!(
            f.batching,
            BatchingMode::Dynamic(SlackPolicy::EqualDivision)
        );
        let b = RmKind::Bline
            .config()
            .with_slack_policy(SlackPolicy::EqualDivision);
        assert_eq!(b.batching, BatchingMode::None);
    }

    #[test]
    fn display_names() {
        assert_eq!(RmKind::Fifer.to_string(), "Fifer");
        assert_eq!(RmKind::Bline.to_string(), "Bline");
        assert_eq!(RmKind::Harvest.to_string(), "Harvest");
        assert_eq!(RmKind::HybridHist.to_string(), "HybridHist");
    }

    #[test]
    fn harvest_is_bline_plus_harvesting() {
        // the sixth RM differs from the baseline only in its harvest knob,
        // so utilization deltas are attributable to harvesting alone
        let h = RmKind::Harvest.config();
        let b = RmKind::Bline.config();
        assert_eq!(h.batching, b.batching);
        assert_eq!(h.scaling, b.scaling);
        assert_eq!(h.scheduling, b.scheduling);
        assert_eq!(h.container_selection, b.container_selection);
        assert_eq!(h.placement, b.placement);
        assert!(h.harvest && !b.harvest);
    }

    #[test]
    fn paper_five_ship_with_harvesting_off() {
        for kind in [
            RmKind::Bline,
            RmKind::SBatch,
            RmKind::RScale,
            RmKind::BPred,
            RmKind::Fifer,
        ] {
            assert!(!kind.config().harvest, "{kind}");
        }
    }

    #[test]
    fn only_hybridhist_ships_with_keepalive_on() {
        for kind in RmKind::ALL {
            let c = kind.config();
            assert_eq!(c.keepalive.enabled, kind == RmKind::HybridHist, "{kind}");
            if kind != RmKind::HybridHist {
                assert_eq!(c.keepalive, KeepAliveConfig::none(), "{kind}");
            }
        }
    }

    #[test]
    fn hybridhist_is_bline_plus_keepalive() {
        // the seventh RM differs from the baseline only in its keep-alive
        // knob, so cold-start deltas are attributable to the windows alone
        let h = RmKind::HybridHist.config();
        let b = RmKind::Bline.config();
        assert_eq!(h.batching, b.batching);
        assert_eq!(h.scaling, b.scaling);
        assert_eq!(h.scheduling, b.scheduling);
        assert_eq!(h.container_selection, b.container_selection);
        assert_eq!(h.placement, b.placement);
        assert_eq!(h.harvest, b.harvest);
        assert!(h.keepalive.enabled && !b.keepalive.enabled);
    }
}
