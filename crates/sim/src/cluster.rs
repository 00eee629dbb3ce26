//! Nodes, resource accounting and node selection (paper §4.4.2, §5.1).
//!
//! Fifer modifies Kubernetes' `MostRequestedPriority` so a new pod lands on
//! the lowest-numbered node with the *least* available cores that still
//! satisfies the pod's CPU/memory request, consolidating work onto few
//! nodes so the rest can power off. The spread baseline places pods on the
//! emptiest node, Kubernetes-default style.
//!
//! Bookkeeping is exact-integer [`ResourceVec`]s (millicores / MB), per
//! request size, on three separate tracks:
//!
//! * **allocated** — primary reservations, bounded by node capacity,
//! * **harvested** — amounts backed by harvest leases, i.e. carved out of
//!   idle lenders' `allocated − used` headroom (never out of free
//!   capacity, so `allocated + request ≤ capacity` stays the only
//!   admission test),
//! * **used** — what resident containers actually consume right now.
//!
//! The conservation chain `used ≤ allocated ≤ capacity` holds per node at
//! all times (the auditor checks it exactly — no epsilons), and the
//! cluster integrates allocated/used/harvested CPU over time so results
//! can report core-hours of waste.

use fifer_core::resources::ResourceVec;
use fifer_core::rm::NodePlacement;
use fifer_metrics::SimTime;

/// One worker node's live resource state.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Schedulable capacity.
    pub capacity: ResourceVec,
    /// Resources reserved by primary allocations.
    pub allocated: ResourceVec,
    /// Resources backed by harvest leases (inside lenders' idle headroom,
    /// not counted against capacity).
    pub harvested: ResourceVec,
    /// Resources resident containers are actually using right now.
    pub used: ResourceVec,
    /// Pods (containers) resident on this node.
    pub pods: usize,
    /// Pods currently executing a request (for the power model).
    pub executing: usize,
    /// When the node last became empty (for power-off accounting).
    pub empty_since: Option<SimTime>,
    /// `false` while the node is down (fault injection); a down node
    /// refuses placements until it recovers.
    pub up: bool,
}

impl Node {
    fn new(capacity: ResourceVec) -> Self {
        Node {
            capacity,
            allocated: ResourceVec::ZERO,
            harvested: ResourceVec::ZERO,
            used: ResourceVec::ZERO,
            pods: 0,
            executing: 0,
            empty_since: Some(SimTime::ZERO),
            up: true,
        }
    }

    /// Unallocated CPU, in millicores.
    pub fn available_cpu_milli(&self) -> u64 {
        self.capacity.cpu_milli - self.allocated.cpu_milli
    }

    /// The free headroom a primary allocation may still claim.
    pub fn free(&self) -> ResourceVec {
        self.capacity - self.allocated
    }

    /// `true` if a primary allocation of `request` fits. This is the one
    /// fits-check shared by node selection and the allocation assertion
    /// (exact integers — the seed's `1e-9` epsilons are gone).
    pub fn fits(&self, request: ResourceVec) -> bool {
        request.fits_within(self.free())
    }

    /// `true` when the node hosts no pods.
    pub fn is_empty(&self) -> bool {
        self.pods == 0
    }
}

/// Allocation / usage / harvest CPU integrals, reported in core-hours.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Utilization {
    /// Core-hours of primary allocation.
    pub alloc_core_hours: f64,
    /// Core-hours actually used.
    pub used_core_hours: f64,
    /// Core-hours served out of harvest leases instead of allocation.
    pub harvested_core_hours: f64,
}

/// Millicore-microseconds per core-hour.
const MCPU_US_PER_CORE_HOUR: f64 = 1000.0 * 3_600.0 * 1_000_000.0;

/// The cluster: an indexed set of nodes with placement and accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    nodes: Vec<Node>,
    /// The default container shape (paper Table 2), used by callers that
    /// size requests and kept here for capacity sanity checks.
    container_alloc: ResourceVec,
    // cluster-wide running sums, maintained incrementally on every
    // mutation so views and accrual never rescan the node table
    total_allocated: ResourceVec,
    total_used: ResourceVec,
    total_harvested: ResourceVec,
    total_capacity: ResourceVec,
    // CPU-time integrals in exact millicore-microseconds (u64 is ample:
    // 157 nodes × 16 cores × 2 h ≈ 1.8e16 ≪ 2^64)
    last_accrual: SimTime,
    alloc_integral: u64,
    used_integral: u64,
    harvested_integral: u64,
}

impl Cluster {
    /// Builds a homogeneous cluster.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or resources are non-positive.
    pub fn new(
        n: usize,
        cores_per_node: f64,
        mem_per_node_gb: f64,
        container_cpu: f64,
        container_mem_gb: f64,
    ) -> Self {
        assert!(n > 0, "need at least one node");
        assert!(
            cores_per_node > 0.0 && mem_per_node_gb > 0.0,
            "node resources must be positive"
        );
        assert!(
            container_cpu > 0.0 && container_mem_gb > 0.0,
            "pod resources must be positive"
        );
        let capacity = ResourceVec::from_cores_gb(cores_per_node, mem_per_node_gb);
        let container_alloc = ResourceVec::from_cores_gb(container_cpu, container_mem_gb);
        Cluster {
            nodes: (0..n).map(|_| Node::new(capacity)).collect(),
            container_alloc,
            total_allocated: ResourceVec::ZERO,
            total_used: ResourceVec::ZERO,
            total_harvested: ResourceVec::ZERO,
            total_capacity: ResourceVec::new(
                capacity.cpu_milli * n as u64,
                capacity.mem_mb * n as u64,
            ),
            last_accrual: SimTime::ZERO,
            alloc_integral: 0,
            used_integral: 0,
            harvested_integral: 0,
        }
    }

    /// The nodes, indexed 1..=n in paper terms (we use 0-based indices).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The default per-container allocation this cluster was built with.
    pub fn container_alloc(&self) -> ResourceVec {
        self.container_alloc
    }

    /// Cluster-wide capacity across all nodes (up or down).
    pub fn total_capacity(&self) -> ResourceVec {
        self.total_capacity
    }

    /// Cluster-wide primary allocation.
    pub fn total_allocated(&self) -> ResourceVec {
        self.total_allocated
    }

    /// Cluster-wide usage.
    pub fn total_used(&self) -> ResourceVec {
        self.total_used
    }

    /// Cluster-wide lease-backed resources.
    pub fn total_harvested(&self) -> ResourceVec {
        self.total_harvested
    }

    /// Advances the allocation/usage/harvest CPU integrals to `now`. Every
    /// mutator calls this first, so the integrals are exact piecewise-
    /// constant sums; callers may also invoke it at sampling points (ticks,
    /// drain) to close the final rectangle.
    pub fn accrue(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_accrual).as_micros();
        if dt > 0 {
            self.alloc_integral += self.total_allocated.cpu_milli * dt;
            self.used_integral += self.total_used.cpu_milli * dt;
            self.harvested_integral += self.total_harvested.cpu_milli * dt;
            self.last_accrual = now;
        }
    }

    /// The accrued integrals, in core-hours.
    pub fn utilization(&self) -> Utilization {
        Utilization {
            alloc_core_hours: self.alloc_integral as f64 / MCPU_US_PER_CORE_HOUR,
            used_core_hours: self.used_integral as f64 / MCPU_US_PER_CORE_HOUR,
            harvested_core_hours: self.harvested_integral as f64 / MCPU_US_PER_CORE_HOUR,
        }
    }

    /// Picks a node for a primary allocation of `request` under
    /// `placement`, or `None` when no node fits. Does not allocate; call
    /// [`Cluster::place`] with the returned index.
    pub fn select_node(&self, placement: NodePlacement, request: ResourceVec) -> Option<usize> {
        // allocation-free scan: this runs on every spawn, which at the
        // 50k-core scale means thousands of nodes visited millions of
        // times. Ties on available CPU break toward the lowest index for
        // both policies (keep-first below), matching the reference
        // min/max-with-index-tie-break semantics exactly.
        let mut best: Option<(u64, usize)> = None;
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.up || !n.fits(request) {
                continue;
            }
            let cpu = n.available_cpu_milli();
            let better = match (placement, best) {
                (_, None) => true,
                (NodePlacement::GreedyBinPack, Some((b, _))) => cpu < b,
                (NodePlacement::Spread, Some((b, _))) => cpu > b,
            };
            if better {
                best = Some((cpu, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Allocates one container with primary reservation `alloc` on `node`
    /// at `now`. A fully lease-backed pod passes `ResourceVec::ZERO` and
    /// adds its backing through [`Cluster::borrow`].
    ///
    /// # Panics
    ///
    /// Panics if the allocation does not fit (callers must use
    /// [`Cluster::select_node`] first — same fits-check, no drift).
    pub fn place(&mut self, node: usize, alloc: ResourceVec, now: SimTime) {
        self.accrue(now);
        let n = &mut self.nodes[node];
        assert!(n.fits(alloc), "pod does not fit on node {node}");
        n.allocated += alloc;
        n.pods += 1;
        n.empty_since = None;
        self.total_allocated += alloc;
    }

    /// Releases one container's primary reservation `alloc` from `node` at
    /// time `now`. Exact integers: when the last pod leaves, the node's
    /// ledgers are zero by arithmetic, not by clamping.
    ///
    /// # Panics
    ///
    /// Panics if the node hosts no pods or the ledger would underflow.
    pub fn release(&mut self, node: usize, alloc: ResourceVec, now: SimTime) {
        self.accrue(now);
        let n = &mut self.nodes[node];
        assert!(n.pods > 0, "release on empty node {node}");
        n.allocated -= alloc;
        n.pods -= 1;
        if n.pods == 0 {
            assert!(
                n.allocated.is_zero() && n.harvested.is_zero() && n.used.is_zero(),
                "empty node {node} holds resources: {:?}/{:?}/{:?}",
                n.allocated,
                n.harvested,
                n.used
            );
            n.empty_since = Some(now);
        }
        self.total_allocated -= alloc;
    }

    /// Records `amount` of lease-backed resources on `node` (a harvest
    /// lease was created: the amount lives inside lenders' idle headroom,
    /// so capacity is not charged).
    pub fn borrow(&mut self, node: usize, amount: ResourceVec, now: SimTime) {
        self.accrue(now);
        self.nodes[node].harvested += amount;
        self.total_harvested += amount;
    }

    /// Removes `amount` of lease-backed resources from `node` (the lease
    /// was dissolved — the borrower died).
    pub fn repay(&mut self, node: usize, amount: ResourceVec, now: SimTime) {
        self.accrue(now);
        self.nodes[node].harvested -= amount;
        self.total_harvested -= amount;
    }

    /// Returns `delta` of primary allocation on `node` without ending a
    /// pod (the right-sizer downsized an idle container in place).
    ///
    /// # Panics
    ///
    /// Panics (via exact-integer underflow) if `delta` exceeds the node's
    /// current allocation — the caller shrinks a live container, so its
    /// own allocation always covers the delta.
    pub fn shrink(&mut self, node: usize, delta: ResourceVec, now: SimTime) {
        self.accrue(now);
        self.nodes[node].allocated -= delta;
        self.total_allocated -= delta;
    }

    /// Converts `amount` of lease backing on `node` into a primary
    /// allocation (reclamation re-backed a borrower from free capacity).
    ///
    /// # Panics
    ///
    /// Panics if the amount does not fit the node's free capacity.
    pub fn convert_lease(&mut self, node: usize, amount: ResourceVec, now: SimTime) {
        self.accrue(now);
        let n = &mut self.nodes[node];
        assert!(n.fits(amount), "lease re-backing does not fit node {node}");
        n.allocated += amount;
        n.harvested -= amount;
        self.total_allocated += amount;
        self.total_harvested -= amount;
    }

    /// Adds `delta` to `node`'s usage track (a container went busy, or a
    /// fresh container's idle footprint appeared).
    pub fn add_usage(&mut self, node: usize, delta: ResourceVec, now: SimTime) {
        self.accrue(now);
        self.nodes[node].used += delta;
        self.total_used += delta;
    }

    /// Removes `delta` from `node`'s usage track.
    pub fn sub_usage(&mut self, node: usize, delta: ResourceVec, now: SimTime) {
        self.accrue(now);
        self.nodes[node].used -= delta;
        self.total_used -= delta;
    }

    /// Marks a pod on `node` as starting/stopping execution (power model).
    pub fn set_executing(&mut self, node: usize, delta: i64) {
        let n = &mut self.nodes[node];
        n.executing = (n.executing as i64 + delta).max(0) as usize;
    }

    /// Marks `node` up or down (fault injection). Down nodes refuse
    /// placements; the caller is responsible for evacuating resident
    /// containers first.
    pub fn set_node_up(&mut self, node: usize, up: bool) {
        self.nodes[node].up = up;
    }

    /// `true` while `node` accepts placements.
    pub fn node_is_up(&self, node: usize) -> bool {
        self.nodes[node].up
    }

    /// Number of nodes currently hosting at least one pod.
    pub fn active_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_empty()).count()
    }

    /// Total pods across the cluster.
    pub fn total_pods(&self) -> usize {
        self.nodes.iter().map(|n| n.pods).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default pod shape used by most tests (paper Table 2).
    fn pod() -> ResourceVec {
        ResourceVec::from_cores_gb(0.5, 1.0)
    }

    fn cluster() -> Cluster {
        Cluster::new(3, 4.0, 16.0, 0.5, 1.0)
    }

    fn place_default(c: &mut Cluster, node: usize) {
        c.place(node, pod(), SimTime::ZERO);
    }

    #[test]
    fn greedy_packs_lowest_then_fullest() {
        let mut c = cluster();
        // empty cluster: all equal → lowest index
        assert_eq!(c.select_node(NodePlacement::GreedyBinPack, pod()), Some(0));
        place_default(&mut c, 0);
        // node 0 now least-available → still chosen
        assert_eq!(c.select_node(NodePlacement::GreedyBinPack, pod()), Some(0));
    }

    #[test]
    fn spread_prefers_emptiest() {
        let mut c = cluster();
        place_default(&mut c, 0);
        place_default(&mut c, 0);
        place_default(&mut c, 1);
        // node 2 is emptiest
        assert_eq!(c.select_node(NodePlacement::Spread, pod()), Some(2));
    }

    #[test]
    fn greedy_fills_one_node_before_the_next() {
        let mut c = cluster();
        for _ in 0..8 {
            let n = c.select_node(NodePlacement::GreedyBinPack, pod()).unwrap();
            assert_eq!(n, 0, "greedy must fill node 0 first");
            place_default(&mut c, n);
        }
        // node 0 full (8 × 0.5 = 4.0 cores) → next goes to node 1
        assert_eq!(c.select_node(NodePlacement::GreedyBinPack, pod()), Some(1));
        assert_eq!(c.active_nodes(), 1);
    }

    #[test]
    fn selection_returns_none_when_full() {
        let mut c = Cluster::new(1, 1.0, 16.0, 0.5, 1.0);
        place_default(&mut c, 0);
        place_default(&mut c, 0);
        assert_eq!(c.select_node(NodePlacement::GreedyBinPack, pod()), None);
        assert_eq!(c.select_node(NodePlacement::Spread, pod()), None);
    }

    #[test]
    fn memory_can_be_the_binding_resource() {
        let mut c = Cluster::new(1, 16.0, 2.0, 0.5, 1.0);
        place_default(&mut c, 0);
        place_default(&mut c, 0);
        // CPU would fit 32 pods but memory only 2
        assert_eq!(c.select_node(NodePlacement::GreedyBinPack, pod()), None);
    }

    #[test]
    fn variable_sizes_are_honored_exactly() {
        // a 1-core node takes exactly 1000 millicores of mixed-size pods —
        // the integer ledger neither drifts nor needs epsilons
        let mut c = Cluster::new(1, 1.0, 16.0, 0.5, 1.0);
        c.place(0, ResourceVec::new(300, 512), SimTime::ZERO);
        c.place(0, ResourceVec::new(300, 512), SimTime::ZERO);
        c.place(0, ResourceVec::new(300, 512), SimTime::ZERO);
        // 100 millicores left: a 100-mcpu request fits, a 101 one does not
        assert_eq!(
            c.select_node(NodePlacement::Spread, ResourceVec::new(100, 64)),
            Some(0)
        );
        assert_eq!(
            c.select_node(NodePlacement::Spread, ResourceVec::new(101, 64)),
            None
        );
        c.place(0, ResourceVec::new(100, 64), SimTime::ZERO);
        assert_eq!(c.nodes()[0].available_cpu_milli(), 0);
    }

    #[test]
    fn release_restores_capacity_and_marks_empty() {
        let mut c = cluster();
        place_default(&mut c, 1);
        assert_eq!(c.active_nodes(), 1);
        c.release(1, pod(), SimTime::from_secs(9));
        assert_eq!(c.active_nodes(), 0);
        assert_eq!(c.nodes()[1].empty_since, Some(SimTime::from_secs(9)));
        assert_eq!(c.nodes()[1].allocated, ResourceVec::ZERO);
        assert_eq!(c.total_allocated(), ResourceVec::ZERO);
    }

    #[test]
    fn executing_counter_saturates() {
        let mut c = cluster();
        c.set_executing(0, -5);
        assert_eq!(c.nodes()[0].executing, 0);
        c.set_executing(0, 3);
        assert_eq!(c.nodes()[0].executing, 3);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn place_on_full_node_panics() {
        let mut c = Cluster::new(1, 0.5, 16.0, 0.5, 1.0);
        place_default(&mut c, 0);
        place_default(&mut c, 0);
    }

    #[test]
    #[should_panic(expected = "release on empty node")]
    fn release_on_empty_panics() {
        let mut c = cluster();
        c.release(0, pod(), SimTime::ZERO);
    }

    #[test]
    fn down_nodes_refuse_placements() {
        let mut c = cluster();
        c.set_node_up(0, false);
        assert!(!c.node_is_up(0));
        // greedy would pick node 0 when all are empty; down → next index
        assert_eq!(c.select_node(NodePlacement::GreedyBinPack, pod()), Some(1));
        c.set_node_up(1, false);
        c.set_node_up(2, false);
        assert_eq!(c.select_node(NodePlacement::GreedyBinPack, pod()), None);
        assert_eq!(c.select_node(NodePlacement::Spread, pod()), None);
        c.set_node_up(0, true);
        assert_eq!(c.select_node(NodePlacement::GreedyBinPack, pod()), Some(0));
    }

    #[test]
    fn harvest_ledger_tracks_borrow_convert_repay() {
        let mut c = cluster();
        // a lender with a primary allocation, then a fully lease-backed pod
        place_default(&mut c, 0);
        c.place(0, ResourceVec::ZERO, SimTime::ZERO);
        c.borrow(0, ResourceVec::new(200, 256), SimTime::ZERO);
        assert_eq!(c.nodes()[0].harvested, ResourceVec::new(200, 256));
        assert_eq!(c.total_harvested(), ResourceVec::new(200, 256));
        // reclamation re-backs half from free capacity…
        c.convert_lease(0, ResourceVec::new(100, 128), SimTime::ZERO);
        assert_eq!(c.nodes()[0].harvested, ResourceVec::new(100, 128));
        assert_eq!(c.nodes()[0].allocated, pod() + ResourceVec::new(100, 128));
        // …and the borrower's death repays the rest
        c.repay(0, ResourceVec::new(100, 128), SimTime::ZERO);
        assert_eq!(c.nodes()[0].harvested, ResourceVec::ZERO);
        assert_eq!(c.total_harvested(), ResourceVec::ZERO);
    }

    #[test]
    fn usage_track_moves_with_the_containers() {
        let mut c = cluster();
        place_default(&mut c, 2);
        c.add_usage(2, ResourceVec::new(25, 100), SimTime::ZERO);
        c.add_usage(2, ResourceVec::new(300, 200), SimTime::ZERO);
        assert_eq!(c.nodes()[2].used, ResourceVec::new(325, 300));
        assert_eq!(c.total_used(), ResourceVec::new(325, 300));
        c.sub_usage(2, ResourceVec::new(300, 200), SimTime::ZERO);
        assert_eq!(c.nodes()[2].used, ResourceVec::new(25, 100));
    }

    #[test]
    fn integrals_are_exact_rectangles() {
        let mut c = Cluster::new(1, 4.0, 16.0, 0.5, 1.0);
        // 1 core allocated for one hour, half of it used
        c.place(0, ResourceVec::new(1000, 1024), SimTime::ZERO);
        c.add_usage(0, ResourceVec::new(500, 512), SimTime::ZERO);
        c.accrue(SimTime::from_secs(3600));
        let u = c.utilization();
        assert!((u.alloc_core_hours - 1.0).abs() < 1e-12, "{u:?}");
        assert!((u.used_core_hours - 0.5).abs() < 1e-12, "{u:?}");
        assert_eq!(u.harvested_core_hours, 0.0);
        // accruing twice at the same instant adds nothing
        c.accrue(SimTime::from_secs(3600));
        assert_eq!(c.utilization(), u);
    }

    #[test]
    #[should_panic(expected = "holds resources")]
    fn leaking_usage_on_empty_node_is_caught() {
        let mut c = cluster();
        place_default(&mut c, 0);
        c.add_usage(0, ResourceVec::new(10, 10), SimTime::ZERO);
        // releasing the last pod without retiring its usage must panic
        c.release(0, pod(), SimTime::from_secs(1));
    }
}
