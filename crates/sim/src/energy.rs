//! Cluster energy model (paper §6.1.4).
//!
//! The paper measures per-socket energy with Intel Power Gadget and shows
//! Fifer's bin-packing consolidates containers onto fewer nodes, letting
//! the rest idle or power off. We model each node with the standard linear
//! power curve `P = P_idle + (P_peak − P_idle) · utilization` while it
//! hosts pods (or recently did), and zero once it has been empty longer
//! than the power-off timeout. Comparisons are normalized to Bline, so the
//! absolute wattage constants cancel out of the paper's metric.

use crate::cluster::Cluster;
use fifer_metrics::{SimDuration, SimTime};

/// Node power-curve parameters (dual-socket Xeon-class defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Power of a powered-on but idle node, in watts.
    pub idle_w: f64,
    /// Power of a fully busy node, in watts.
    pub peak_w: f64,
    /// How long an empty node keeps drawing idle power before switching
    /// off.
    pub poweroff_timeout: SimDuration,
}

impl PowerModel {
    /// Defaults for the paper's dual-socket Xeon Gold 6242 nodes.
    pub fn paper_default(poweroff_timeout: SimDuration) -> Self {
        PowerModel {
            idle_w: 100.0,
            peak_w: 300.0,
            poweroff_timeout,
        }
    }

    /// Instantaneous power of one node at `now`.
    ///
    /// `busy_cores / total_cores` is the utilization; a node empty longer
    /// than the power-off timeout draws nothing.
    pub fn node_power(
        &self,
        busy_cores: f64,
        total_cores: f64,
        empty_since: Option<SimTime>,
        now: SimTime,
    ) -> f64 {
        if let Some(since) = empty_since {
            if now.saturating_since(since) >= self.poweroff_timeout {
                return 0.0;
            }
        }
        let util = (busy_cores / total_cores).clamp(0.0, 1.0);
        self.idle_w + (self.peak_w - self.idle_w) * util
    }
}

/// Integrates cluster energy over time by sampling at monitor ticks.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    model: PowerModel,
    container_cpu: f64,
    last_sample: SimTime,
    joules: f64,
}

impl EnergyMeter {
    /// Creates a meter.
    pub fn new(model: PowerModel, container_cpu: f64) -> Self {
        EnergyMeter {
            model,
            container_cpu,
            last_sample: SimTime::ZERO,
            joules: 0.0,
        }
    }

    /// Accrues energy for the interval since the previous sample, using the
    /// cluster's current occupancy (rectangle rule — matching the paper's
    /// 10-second sampling of Power Gadget readings).
    pub fn sample(&mut self, cluster: &Cluster, now: SimTime) {
        let dt = now.saturating_since(self.last_sample).as_secs_f64();
        if dt > 0.0 {
            let watts: f64 = cluster
                .nodes()
                .iter()
                .map(|n| {
                    let busy = n.executing as f64 * self.container_cpu;
                    self.model
                        .node_power(busy, n.capacity.cpu_cores(), n.empty_since, now)
                })
                .sum();
            self.joules += watts * dt;
            self.last_sample = now;
        }
    }

    /// Total energy accrued so far, in joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::paper_default(SimDuration::from_secs(60))
    }

    #[test]
    fn idle_node_draws_idle_power() {
        let p = model().node_power(0.0, 16.0, None, SimTime::from_secs(10));
        assert_eq!(p, 100.0);
    }

    #[test]
    fn full_node_draws_peak() {
        let p = model().node_power(16.0, 16.0, None, SimTime::ZERO);
        assert_eq!(p, 300.0);
    }

    #[test]
    fn utilization_interpolates_linearly() {
        let p = model().node_power(8.0, 16.0, None, SimTime::ZERO);
        assert_eq!(p, 200.0);
    }

    #[test]
    fn recently_emptied_node_still_draws_idle() {
        let m = model();
        let p = m.node_power(
            0.0,
            16.0,
            Some(SimTime::from_secs(100)),
            SimTime::from_secs(130),
        );
        assert_eq!(p, 100.0);
    }

    #[test]
    fn long_empty_node_powers_off() {
        let m = model();
        let p = m.node_power(
            0.0,
            16.0,
            Some(SimTime::from_secs(100)),
            SimTime::from_secs(161),
        );
        assert_eq!(p, 0.0);
    }

    #[test]
    fn meter_integrates_rectangles() {
        let cluster = Cluster::new(2, 16.0, 192.0, 0.5, 1.0);
        let mut meter = EnergyMeter::new(model(), 0.5);
        // both nodes start empty at t=0 → idle until 60s, off afterwards
        meter.sample(&cluster, SimTime::from_secs(10));
        // 2 nodes × 100 W × 10 s = 2000 J
        assert!((meter.joules() - 2000.0).abs() < 1e-9);
        meter.sample(&cluster, SimTime::from_secs(70));
        // at the 70s sample both nodes have been empty > 60s → 0 W for the
        // whole rectangle (rectangle rule uses the at-sample state)
        assert!((meter.joules() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn busier_cluster_draws_more() {
        let mut cluster = Cluster::new(1, 16.0, 192.0, 0.5, 1.0);
        let mut idle_meter = EnergyMeter::new(model(), 0.5);
        let mut busy_meter = EnergyMeter::new(model(), 0.5);
        cluster.place(
            0,
            fifer_core::ResourceVec::from_cores_gb(0.5, 1.0),
            SimTime::ZERO,
        );
        idle_meter.sample(&cluster, SimTime::from_secs(10));
        cluster.set_executing(0, 8);
        busy_meter.sample(&cluster, SimTime::from_secs(10));
        assert!(busy_meter.joules() > idle_meter.joules());
    }

    #[test]
    fn duplicate_samples_accrue_nothing() {
        let cluster = Cluster::new(1, 16.0, 192.0, 0.5, 1.0);
        let mut meter = EnergyMeter::new(model(), 0.5);
        meter.sample(&cluster, SimTime::from_secs(5));
        let j = meter.joules();
        meter.sample(&cluster, SimTime::from_secs(5));
        assert_eq!(meter.joules(), j);
    }
}
