//! First-class resource vectors: exact integer millicores / MB.
//!
//! The seed booked every container as a hard-coded `f64` core/GB pair and
//! accumulated allocations with `+= / -=`, which drifts (the old
//! `cluster.rs` carried `1e-9` epsilons in `fits()` and a zero-clamp hack
//! in `release()` to paper over it). [`ResourceVec`] replaces that with
//! exact integer arithmetic: CPU in millicores, memory in MB. Every
//! resource quantity the repo uses (0.5 cores, 1 GB, 16 cores, 192 GB, …)
//! converts exactly in both directions, so the float-facing surfaces
//! (energy model, config) see bit-identical values while the bookkeeping
//! itself can never drift.
//!
//! The same type carries both *allocation* (what a container reserves) and
//! *usage* (what it actually consumes), the split at the heart of the
//! underutilization story (paper §2.3; Freyr/Sizeless in PAPERS.md).

use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An exact (CPU millicores, memory MB) resource vector.
///
/// Deliberately NOT `Ord`/`PartialOrd`: resources are partially ordered
/// at best (see [`fits_within`](ResourceVec::fits_within)), and a derived
/// lexicographic order would shadow the component-wise
/// [`min`](ResourceVec::min)/[`max`](ResourceVec::max) at by-value call
/// sites (`Ord::min` takes `self` and wins method resolution), silently
/// turning exact bookkeeping into whole-vector picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceVec {
    /// CPU in millicores (1000 = one core).
    pub cpu_milli: u64,
    /// Memory in MB (1024 = one GB).
    pub mem_mb: u64,
}

impl ResourceVec {
    /// The zero vector.
    pub const ZERO: ResourceVec = ResourceVec {
        cpu_milli: 0,
        mem_mb: 0,
    };

    /// Builds a vector from explicit integer parts.
    pub const fn new(cpu_milli: u64, mem_mb: u64) -> Self {
        ResourceVec { cpu_milli, mem_mb }
    }

    /// Converts float cores / GB (the config-facing units) to exact
    /// integers. Panics on negative or non-finite inputs; rounding absorbs
    /// only representation noise (every value the repo uses is an exact
    /// multiple of 1 millicore / 1 MB).
    pub fn from_cores_gb(cores: f64, gb: f64) -> Self {
        assert!(
            cores.is_finite() && cores >= 0.0 && gb.is_finite() && gb >= 0.0,
            "resource quantities must be finite and non-negative"
        );
        ResourceVec {
            cpu_milli: (cores * 1000.0).round() as u64,
            mem_mb: (gb * 1024.0).round() as u64,
        }
    }

    /// CPU back in cores. Exact for every value produced by
    /// [`Self::from_cores_gb`] on the repo's configs (n/1000 is representable to
    /// f64 precision and the test below pins the round-trip).
    pub fn cpu_cores(&self) -> f64 {
        self.cpu_milli as f64 / 1000.0
    }

    /// Memory back in GB (exact: mem_mb / 1024 is a binary fraction).
    pub fn mem_gb(&self) -> f64 {
        self.mem_mb as f64 / 1024.0
    }

    /// `true` when both components are zero.
    pub fn is_zero(&self) -> bool {
        self.cpu_milli == 0 && self.mem_mb == 0
    }

    /// Component-wise `self ≤ other` — "this request fits inside that
    /// budget". This is the single fits-check shared by node selection and
    /// the allocation assertion (the seed repeated it with epsilons).
    pub fn fits_within(&self, other: ResourceVec) -> bool {
        self.cpu_milli <= other.cpu_milli && self.mem_mb <= other.mem_mb
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(&self, other: ResourceVec) -> ResourceVec {
        ResourceVec {
            cpu_milli: self.cpu_milli.saturating_sub(other.cpu_milli),
            mem_mb: self.mem_mb.saturating_sub(other.mem_mb),
        }
    }

    /// Component-wise minimum.
    pub fn min(&self, other: ResourceVec) -> ResourceVec {
        ResourceVec {
            cpu_milli: self.cpu_milli.min(other.cpu_milli),
            mem_mb: self.mem_mb.min(other.mem_mb),
        }
    }

    /// Component-wise maximum.
    pub fn max(&self, other: ResourceVec) -> ResourceVec {
        ResourceVec {
            cpu_milli: self.cpu_milli.max(other.cpu_milli),
            mem_mb: self.mem_mb.max(other.mem_mb),
        }
    }

    /// Scales both components by an integer percentage, rounding down.
    pub fn scale_pct(&self, pct: u64) -> ResourceVec {
        ResourceVec {
            cpu_milli: self.cpu_milli * pct / 100,
            mem_mb: self.mem_mb * pct / 100,
        }
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;
    fn add(self, rhs: ResourceVec) -> ResourceVec {
        ResourceVec {
            cpu_milli: self.cpu_milli + rhs.cpu_milli,
            mem_mb: self.mem_mb + rhs.mem_mb,
        }
    }
}

impl AddAssign for ResourceVec {
    fn add_assign(&mut self, rhs: ResourceVec) {
        self.cpu_milli += rhs.cpu_milli;
        self.mem_mb += rhs.mem_mb;
    }
}

impl Sub for ResourceVec {
    type Output = ResourceVec;
    fn sub(self, rhs: ResourceVec) -> ResourceVec {
        ResourceVec {
            cpu_milli: self
                .cpu_milli
                .checked_sub(rhs.cpu_milli)
                .expect("ResourceVec cpu underflow"),
            mem_mb: self
                .mem_mb
                .checked_sub(rhs.mem_mb)
                .expect("ResourceVec mem underflow"),
        }
    }
}

impl SubAssign for ResourceVec {
    fn sub_assign(&mut self, rhs: ResourceVec) {
        *self = *self - rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_quantities_convert_exactly_both_ways() {
        // every (cores, gb) pair the configs/paper use must round-trip with
        // zero error — this is what lets the integer refactor stay
        // bit-identical on the float-facing surfaces
        for &(cores, gb) in &[
            (0.5, 1.0),
            (1.0, 2.0),
            (4.0, 16.0),
            (16.0, 192.0),
            (0.25, 0.5),
            (2.0, 8.0),
        ] {
            let v = ResourceVec::from_cores_gb(cores, gb);
            assert_eq!(v.cpu_cores(), cores, "cpu round-trip for {cores}");
            assert_eq!(v.mem_gb(), gb, "mem round-trip for {gb}");
        }
        assert_eq!(ResourceVec::from_cores_gb(0.5, 1.0).cpu_milli, 500);
        assert_eq!(ResourceVec::from_cores_gb(0.5, 1.0).mem_mb, 1024);
        assert_eq!(ResourceVec::from_cores_gb(16.0, 192.0).cpu_milli, 16_000);
        assert_eq!(ResourceVec::from_cores_gb(16.0, 192.0).mem_mb, 196_608);
    }

    #[test]
    fn fits_within_is_component_wise() {
        let budget = ResourceVec::new(1000, 2048);
        assert!(ResourceVec::new(1000, 2048).fits_within(budget));
        assert!(ResourceVec::new(0, 0).fits_within(budget));
        assert!(!ResourceVec::new(1001, 0).fits_within(budget));
        assert!(!ResourceVec::new(0, 2049).fits_within(budget));
    }

    #[test]
    fn arithmetic_is_exact() {
        let mut v = ResourceVec::new(500, 1024);
        v += ResourceVec::new(500, 1024);
        assert_eq!(v, ResourceVec::new(1000, 2048));
        v -= ResourceVec::new(1000, 2048);
        assert_eq!(v, ResourceVec::ZERO);
        assert!(v.is_zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = ResourceVec::new(1, 0) - ResourceVec::new(2, 0);
    }

    #[test]
    fn saturating_min_max_scale() {
        let a = ResourceVec::new(300, 4096);
        let b = ResourceVec::new(500, 1024);
        assert_eq!(a.saturating_sub(b), ResourceVec::new(0, 3072));
        assert_eq!(a.min(b), ResourceVec::new(300, 1024));
        assert_eq!(a.max(b), ResourceVec::new(500, 4096));
        assert_eq!(b.scale_pct(50), ResourceVec::new(250, 512));
        assert_eq!(b.scale_pct(100), b);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_quantities_rejected() {
        let _ = ResourceVec::from_cores_gb(-0.5, 1.0);
    }
}
