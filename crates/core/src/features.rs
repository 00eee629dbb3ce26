//! The Table 6 feature matrix: Fifer versus related resource-management
//! frameworks. Used by the `tab6` experiment driver to regenerate the
//! paper's comparison table.

/// The eight feature dimensions of Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feature {
    /// Consolidates containers onto fewer servers.
    ServerConsolidation,
    /// Provides SLO guarantees.
    SloGuarantees,
    /// Handles chained functions, not just monoliths.
    FunctionChains,
    /// Schedules using available slack.
    SlackBasedScheduling,
    /// Sizes request batches from slack.
    SlackAwareBatching,
    /// Optimizes cluster energy.
    EnergyEfficient,
    /// Scales container counts automatically.
    AutoscalingContainers,
    /// Predicts request arrivals.
    RequestArrivalPrediction,
}

impl Feature {
    /// All features in Table 6 row order.
    pub const ALL: [Feature; 8] = [
        Feature::ServerConsolidation,
        Feature::SloGuarantees,
        Feature::FunctionChains,
        Feature::SlackBasedScheduling,
        Feature::SlackAwareBatching,
        Feature::EnergyEfficient,
        Feature::AutoscalingContainers,
        Feature::RequestArrivalPrediction,
    ];

    /// Row label as printed in Table 6.
    pub fn label(self) -> &'static str {
        match self {
            Feature::ServerConsolidation => "Server consolidation",
            Feature::SloGuarantees => "SLO Guarantees",
            Feature::FunctionChains => "Function Chains",
            Feature::SlackBasedScheduling => "Slack based scheduling",
            Feature::SlackAwareBatching => "Slack aware batching",
            Feature::EnergyEfficient => "Energy Efficient",
            Feature::AutoscalingContainers => "Autoscaling Containers",
            Feature::RequestArrivalPrediction => "Request Arrival prediction",
        }
    }
}

/// The systems compared in Table 6 (columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComparedSystem {
    /// GrandSLAm (EuroSys '19).
    GrandSlam,
    /// PowerChief.
    PowerChief,
    /// TimeTrader (MICRO '15).
    TimeTrader,
    /// PARTIES (ASPLOS '19).
    Parties,
    /// MArk (ATC '19).
    MArk,
    /// Archipelago.
    Archipelago,
    /// Swayam (Middleware '17).
    Swayam,
    /// This paper's system.
    Fifer,
}

impl ComparedSystem {
    /// All systems in Table 6 column order.
    pub const ALL: [ComparedSystem; 8] = [
        ComparedSystem::GrandSlam,
        ComparedSystem::PowerChief,
        ComparedSystem::TimeTrader,
        ComparedSystem::Parties,
        ComparedSystem::MArk,
        ComparedSystem::Archipelago,
        ComparedSystem::Swayam,
        ComparedSystem::Fifer,
    ];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            ComparedSystem::GrandSlam => "Grandslam",
            ComparedSystem::PowerChief => "Power-chief",
            ComparedSystem::TimeTrader => "Time-Trader",
            ComparedSystem::Parties => "Parties",
            ComparedSystem::MArk => "MArk",
            ComparedSystem::Archipelago => "Archipelago",
            ComparedSystem::Swayam => "Swayam",
            ComparedSystem::Fifer => "Fifer",
        }
    }

    /// Whether this system provides `feature`, per Table 6.
    pub fn has(self, feature: Feature) -> bool {
        use ComparedSystem::*;
        use Feature::*;
        match feature {
            ServerConsolidation => {
                matches!(
                    self,
                    GrandSlam | PowerChief | TimeTrader | MArk | Swayam | Fifer
                )
            }
            SloGuarantees => !matches!(self, PowerChief),
            FunctionChains => matches!(self, GrandSlam | PowerChief | Archipelago | Fifer),
            SlackBasedScheduling => {
                matches!(
                    self,
                    GrandSlam | PowerChief | TimeTrader | Parties | Archipelago | Fifer
                )
            }
            SlackAwareBatching => matches!(self, GrandSlam | Fifer),
            EnergyEfficient => matches!(self, PowerChief | TimeTrader | Swayam | Fifer),
            AutoscalingContainers => {
                matches!(self, PowerChief | MArk | Archipelago | Swayam | Fifer)
            }
            RequestArrivalPrediction => matches!(self, Archipelago | Swayam | Fifer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifer_has_every_feature() {
        for f in Feature::ALL {
            assert!(ComparedSystem::Fifer.has(f), "Fifer should have {f:?}");
        }
    }

    #[test]
    fn no_other_system_has_every_feature() {
        for sys in ComparedSystem::ALL {
            if sys == ComparedSystem::Fifer {
                continue;
            }
            assert!(
                Feature::ALL.iter().any(|&f| !sys.has(f)),
                "{sys:?} should miss at least one feature"
            );
        }
    }

    #[test]
    fn grandslam_row_matches_table6() {
        let g = ComparedSystem::GrandSlam;
        assert!(g.has(Feature::ServerConsolidation));
        assert!(g.has(Feature::SloGuarantees));
        assert!(g.has(Feature::FunctionChains));
        assert!(g.has(Feature::SlackBasedScheduling));
        assert!(g.has(Feature::SlackAwareBatching));
        assert!(!g.has(Feature::EnergyEfficient));
        assert!(!g.has(Feature::AutoscalingContainers));
        assert!(!g.has(Feature::RequestArrivalPrediction));
    }

    #[test]
    fn archipelago_row_matches_table6() {
        let a = ComparedSystem::Archipelago;
        assert!(!a.has(Feature::ServerConsolidation));
        assert!(a.has(Feature::SloGuarantees));
        assert!(a.has(Feature::FunctionChains));
        assert!(a.has(Feature::AutoscalingContainers));
        assert!(a.has(Feature::RequestArrivalPrediction));
        assert!(!a.has(Feature::SlackAwareBatching));
        assert!(!a.has(Feature::EnergyEfficient));
    }

    #[test]
    fn only_grandslam_and_fifer_batch_by_slack() {
        let with: Vec<ComparedSystem> = ComparedSystem::ALL
            .into_iter()
            .filter(|s| s.has(Feature::SlackAwareBatching))
            .collect();
        assert_eq!(with, vec![ComparedSystem::GrandSlam, ComparedSystem::Fifer]);
    }

    #[test]
    fn labels_are_nonempty() {
        for f in Feature::ALL {
            assert!(!f.label().is_empty());
        }
        for s in ComparedSystem::ALL {
            assert!(!s.label().is_empty());
        }
    }
}
