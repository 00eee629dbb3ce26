//! The five resource-manager configurations evaluated in the paper (§3,
//! §5.3): Bline, SBatch, RScale, BPred and Fifer.
//!
//! A resource manager is fully described by six orthogonal choices —
//! batching mode, scaling mode, predictor, task scheduling, container
//! selection and node placement — plus the optional harvesting
//! ([`HarvestConfig`]) and hybrid keep-alive ([`KeepAliveConfig`])
//! extensions. [`RmConfig`] encodes those choices; [`RmKind`] provides the
//! paper's named configurations. The simulator consumes an `RmConfig`, so
//! ablations are just custom configs.

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
    /// Reactive plus proactive forecasting (BPred, Fifer).
    ReactivePlusProactive,
}

/// Which load predictor drives proactive scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorChoice {
    /// No prediction (Bline, SBatch, RScale).
    None,
    /// One of the eight models of Figure 6a.
    Model(PredictorKind),
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

/// Idle-resource harvesting and right-sizing knobs (Freyr/Sizeless-style,
/// ROADMAP item 3). All-integer so `RmConfig` stays `Copy + Eq + Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HarvestConfig {
    /// Master switch. When `false` the simulator's behavior is bit-identical
    /// to the pre-harvest code — no lease is ever created and no usage
    /// sample reaches the policy.
    pub enabled: bool,
    /// Feed usage samples into the right-sizer and shrink future spawns to
    /// its recommendation (clamped to the per-container busy peak so
    /// `usage ≤ allocation` always holds).
    pub rightsize: bool,
    /// Fraction of a lender's idle headroom (allocation − usage) that may
    /// be lent out, in percent. Freyr keeps a safety margin rather than
    /// lending everything.
    pub lend_headroom_pct: u8,
    /// Minimum CPU worth lending per lease part, in millicores; avoids
    /// fragmenting headroom into useless slivers.
    pub min_lend_cpu_milli: u64,
}

impl HarvestConfig {
    /// Harvesting fully off — the default for the paper's five RMs.
    pub const fn none() -> Self {
        HarvestConfig {
            enabled: false,
            rightsize: false,
            lend_headroom_pct: 0,
            min_lend_cpu_milli: 0,
        }
    }

    /// The defaults the sixth (harvesting) RM ships with: lend 80% of idle
    /// headroom, but never slivers below 100 millicores, and right-size
    /// future spawns from observed usage.
    pub const fn paper_default() -> Self {
        HarvestConfig {
            enabled: true,
            rightsize: true,
            lend_headroom_pct: 80,
            min_lend_cpu_milli: 100,
        }
    }
}

impl Default for HarvestConfig {
    fn default() -> Self {
        HarvestConfig::none()
    }
}

/// Hybrid-histogram keep-alive / pre-warm knobs ("Serverless in the Wild",
/// Shahrad et al., ROADMAP item 2). All-integer so `RmConfig` stays
/// `Copy + Eq + Hash`; the windows they derive are computed by
/// `fifer_predict::IdleHistogram`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeepAliveConfig {
    /// Master switch. When `false` the policy registry ignores every other
    /// field and the simulator's behavior is bit-identical to a run without
    /// the hybrid keep-alive manager.
    pub enabled: bool,
    /// Idle-time histogram bin width in seconds.
    pub bin_width_s: u64,
    /// Number of histogram bins; `bin_width_s × num_bins` is the covered
    /// idle-time range, beyond which samples count as out-of-bounds.
    pub num_bins: u32,
    /// Head percentile: the pre-warm window (load the container back just
    /// before the next invocation becomes likely).
    pub head_pct: u8,
    /// Tail percentile: the keep-alive window (stay loaded until almost
    /// every observed idle gap is covered).
    pub tail_pct: u8,
    /// Minimum percentage of out-of-bounds samples at which an app is
    /// classed into the OOB pattern (fallback keep-alive, no pre-warm).
    pub oob_threshold_pct: u8,
    /// Fixed keep-alive window (seconds) used for OOB-pattern and
    /// under-sampled apps.
    pub fallback_keepalive_s: u64,
    /// Idle-gap observations required before the histogram's windows are
    /// trusted over the fallback.
    pub min_samples: u32,
}

impl KeepAliveConfig {
    /// Hybrid keep-alive fully off — the default for every other RM.
    pub const fn none() -> Self {
        KeepAliveConfig {
            enabled: false,
            bin_width_s: 0,
            num_bins: 0,
            head_pct: 0,
            tail_pct: 0,
            oob_threshold_pct: 0,
            fallback_keepalive_s: 0,
            min_samples: 0,
        }
    }

    /// The defaults the seventh (hybrid keep-alive) RM ships with. The
    /// source policy uses 1-minute bins over 4 hours with a 5th/99th
    /// head/tail split; simulated horizons are minutes rather than days,
    /// so the range scales down to 5-second bins over 5 minutes while the
    /// percentile structure stays the paper's.
    pub const fn paper_default() -> Self {
        KeepAliveConfig {
            enabled: true,
            bin_width_s: 5,
            num_bins: 60,
            head_pct: 5,
            tail_pct: 99,
            oob_threshold_pct: 20,
            fallback_keepalive_s: 60,
            min_samples: 8,
        }
    }
}

impl Default for KeepAliveConfig {
    fn default() -> Self {
        KeepAliveConfig::none()
    }
}

/// Online-retraining knobs for neural predictors (the paper's §8 "the
/// LSTM model parameters can be constantly updated by retraining in the
/// background" extension). All-integer so `RmConfig` stays
/// `Copy + Eq + Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OnlineRetrainConfig {
    /// Master switch. When `false` the predictor is frozen after
    /// pretraining and the simulator's behavior is bit-identical to a run
    /// without this config.
    pub enabled: bool,
    /// Retraining period in observed monitoring samples.
    pub every: u32,
    /// Fine-tuning epochs per retraining round.
    pub epochs: u32,
}

impl OnlineRetrainConfig {
    /// Online retraining fully off — the default for every RM.
    pub const fn none() -> Self {
        OnlineRetrainConfig {
            enabled: false,
            every: 0,
            epochs: 0,
        }
    }

    /// Retrain every 30 observed samples (≈ 5 simulated minutes at the
    /// paper's 10 s monitoring interval) for 2 fine-tuning epochs — cheap
    /// enough to run inline, frequent enough to track a regime shift
    /// within a few monitoring windows.
    pub const fn paper_default() -> Self {
        OnlineRetrainConfig {
            enabled: true,
            every: 30,
            epochs: 2,
        }
    }
}

impl Default for OnlineRetrainConfig {
    fn default() -> Self {
        OnlineRetrainConfig::none()
    }
}

/// A complete resource-manager configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RmConfig {
    /// Request-to-container batching.
    pub batching: BatchingMode,
    /// Container-count scaling.
    pub scaling: ScalingMode,
    /// Load predictor for proactive scaling.
    pub predictor: PredictorChoice,
    /// Task selection at stage queues.
    pub scheduling: SchedulingPolicy,
    /// Container selection within a stage.
    pub container_selection: ContainerSelection,
    /// Node placement for new containers.
    pub placement: NodePlacement,
    /// Idle-resource harvesting / right-sizing (off for the paper's five).
    pub harvest: HarvestConfig,
    /// Hybrid-histogram keep-alive / pre-warm (off for every RM but the
    /// seventh).
    pub keepalive: KeepAliveConfig,
    /// Online retraining of the neural predictor (off by default).
    pub online_retrain: OnlineRetrainConfig,
}

impl RmConfig {
    /// Applies a different predictor (for the predictor ablation).
    pub fn with_predictor(mut self, kind: PredictorKind) -> Self {
        self.predictor = PredictorChoice::Model(kind);
        self
    }

    /// Applies a different slack-division policy where batching is dynamic.
    pub fn with_slack_policy(mut self, policy: SlackPolicy) -> Self {
        if let BatchingMode::Dynamic(_) = self.batching {
            self.batching = BatchingMode::Dynamic(policy);
        }
        self
    }

    /// `true` when this RM pre-spawns containers from forecasts.
    pub fn is_proactive(&self) -> bool {
        matches!(self.scaling, ScalingMode::ReactivePlusProactive)
            && !matches!(self.predictor, PredictorChoice::None)
    }

    /// Enables harvesting (and right-sizing) on top of this configuration.
    pub fn with_harvest(mut self, harvest: HarvestConfig) -> Self {
        self.harvest = harvest;
        self
    }

    /// Enables the hybrid-histogram keep-alive on top of this configuration.
    pub fn with_keepalive(mut self, keepalive: KeepAliveConfig) -> Self {
        self.keepalive = keepalive;
        self
    }

    /// Enables online predictor retraining on top of this configuration.
    pub fn with_online_retrain(mut self, online_retrain: OnlineRetrainConfig) -> Self {
        self.online_retrain = online_retrain;
        self
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

    /// The four RMs normalized against Bline in Figures 8/13/15.
    pub const VERSUS_BLINE: [RmKind; 4] =
        [RmKind::SBatch, RmKind::RScale, RmKind::BPred, RmKind::Fifer];

    /// The configuration the paper evaluates for this RM.
    pub fn config(self) -> RmConfig {
        match self {
            RmKind::Bline => RmConfig {
                batching: BatchingMode::None,
                scaling: ScalingMode::OnDemand,
                predictor: PredictorChoice::None,
                scheduling: SchedulingPolicy::Fifo,
                container_selection: ContainerSelection::FirstFit,
                placement: NodePlacement::Spread,
                harvest: HarvestConfig::none(),
                keepalive: KeepAliveConfig::none(),
                online_retrain: OnlineRetrainConfig::none(),
            },
            RmKind::SBatch => RmConfig {
                batching: BatchingMode::StaticEqualSlack,
                scaling: ScalingMode::FixedPool,
                predictor: PredictorChoice::None,
                scheduling: SchedulingPolicy::Fifo,
                container_selection: ContainerSelection::FirstFit,
                // the fixed pool is placed once; consolidating it costs
                // nothing and matches SBatch's near-Fifer energy in Fig 15
                placement: NodePlacement::GreedyBinPack,
                harvest: HarvestConfig::none(),
                keepalive: KeepAliveConfig::none(),
                online_retrain: OnlineRetrainConfig::none(),
            },
            RmKind::RScale => RmConfig {
                batching: BatchingMode::Dynamic(SlackPolicy::Proportional),
                scaling: ScalingMode::Reactive,
                predictor: PredictorChoice::None,
                scheduling: SchedulingPolicy::Lsf,
                container_selection: ContainerSelection::GreedyLeastFreeSlots,
                placement: NodePlacement::GreedyBinPack,
                harvest: HarvestConfig::none(),
                keepalive: KeepAliveConfig::none(),
                online_retrain: OnlineRetrainConfig::none(),
            },
            RmKind::BPred => RmConfig {
                batching: BatchingMode::None,
                scaling: ScalingMode::ReactivePlusProactive,
                predictor: PredictorChoice::Model(PredictorKind::Ewma),
                scheduling: SchedulingPolicy::Lsf,
                container_selection: ContainerSelection::FirstFit,
                placement: NodePlacement::Spread,
                harvest: HarvestConfig::none(),
                keepalive: KeepAliveConfig::none(),
                online_retrain: OnlineRetrainConfig::none(),
            },
            RmKind::Fifer => RmConfig {
                batching: BatchingMode::Dynamic(SlackPolicy::Proportional),
                scaling: ScalingMode::ReactivePlusProactive,
                predictor: PredictorChoice::Model(PredictorKind::Lstm),
                scheduling: SchedulingPolicy::Lsf,
                container_selection: ContainerSelection::GreedyLeastFreeSlots,
                placement: NodePlacement::GreedyBinPack,
                harvest: HarvestConfig::none(),
                keepalive: KeepAliveConfig::none(),
                online_retrain: OnlineRetrainConfig::none(),
            },
            // Bline-shaped on purpose: identical batching/scaling/selection
            // keeps its spawn and dispatch timing structurally comparable to
            // the baseline, so utilization deltas are attributable to the
            // harvesting mechanism alone
            RmKind::Harvest => RmConfig {
                batching: BatchingMode::None,
                scaling: ScalingMode::OnDemand,
                predictor: PredictorChoice::None,
                scheduling: SchedulingPolicy::Fifo,
                container_selection: ContainerSelection::FirstFit,
                placement: NodePlacement::Spread,
                harvest: HarvestConfig::paper_default(),
                keepalive: KeepAliveConfig::none(),
                online_retrain: OnlineRetrainConfig::none(),
            },
            // Bline-shaped for the same reason as Harvest: identical
            // batching/scaling/selection means cold-start and memory-time
            // deltas against the baseline are attributable to the
            // keep-alive windows alone
            RmKind::HybridHist => RmConfig {
                batching: BatchingMode::None,
                scaling: ScalingMode::OnDemand,
                predictor: PredictorChoice::None,
                scheduling: SchedulingPolicy::Fifo,
                container_selection: ContainerSelection::FirstFit,
                placement: NodePlacement::Spread,
                harvest: HarvestConfig::none(),
                keepalive: KeepAliveConfig::paper_default(),
                online_retrain: OnlineRetrainConfig::none(),
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
        assert_eq!(c.predictor, PredictorChoice::Model(PredictorKind::Lstm));
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
        assert_eq!(c.predictor, PredictorChoice::Model(PredictorKind::Ewma));
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
        assert_eq!(c.predictor, PredictorChoice::Model(PredictorKind::Mwa));
        assert!(c.is_proactive());
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
        assert_eq!(h.predictor, b.predictor);
        assert_eq!(h.scheduling, b.scheduling);
        assert_eq!(h.container_selection, b.container_selection);
        assert_eq!(h.placement, b.placement);
        assert!(h.harvest.enabled && h.harvest.rightsize);
        assert!(!b.harvest.enabled);
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
            assert_eq!(kind.config().harvest, HarvestConfig::none(), "{kind}");
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
        assert_eq!(h.predictor, b.predictor);
        assert_eq!(h.scheduling, b.scheduling);
        assert_eq!(h.container_selection, b.container_selection);
        assert_eq!(h.placement, b.placement);
        assert_eq!(h.harvest, b.harvest);
        assert!(h.keepalive.enabled && !b.keepalive.enabled);
    }

    #[test]
    fn keepalive_defaults_are_sane() {
        let k = KeepAliveConfig::paper_default();
        assert!(k.bin_width_s > 0 && k.num_bins > 0);
        assert!(k.head_pct > 0 && k.head_pct < k.tail_pct && k.tail_pct <= 100);
        assert!(k.oob_threshold_pct > 0 && k.oob_threshold_pct <= 100);
        assert!(k.fallback_keepalive_s > 0 && k.min_samples > 0);
        // the fallback window must fit the histogram range, else OOB apps
        // would be kept longer than any in-bounds gap the histogram covers
        assert!(k.fallback_keepalive_s <= k.bin_width_s * u64::from(k.num_bins));
        let none = KeepAliveConfig::none();
        assert!(!none.enabled);
        assert_eq!(KeepAliveConfig::default(), none);
    }

    #[test]
    fn harvest_defaults_are_sane() {
        let h = HarvestConfig::paper_default();
        assert!(h.lend_headroom_pct > 0 && h.lend_headroom_pct <= 100);
        assert!(h.min_lend_cpu_milli > 0);
        let none = HarvestConfig::none();
        assert!(!none.enabled && !none.rightsize);
        assert_eq!(HarvestConfig::default(), none);
    }
}
