//! Mechanism: idle-resource harvesting — node-local leases carved from
//! idle containers' allocation headroom.
//!
//! The paper's motivating observation is that serverless clusters hold
//! large amounts of *allocated-but-unused* resources: warm containers
//! reserve their full request while consuming an idle footprint. A harvest
//! lease lends part of that headroom to a new container on the same node
//! (Freyr-style), so bursts are absorbed without new primary allocation.
//!
//! Rules (all mechanism-side; the policy only says *when* to harvest via
//! [`Decision::Harvest`](fifer_core::policy::Decision)):
//!
//! * **Node-local, all-or-nothing** — a lease aggregates parts from idle
//!   lenders on one node until the full request is covered; if no node can
//!   cover it, the spawn falls back to a normal primary allocation.
//! * **One hop** — borrowers never lend, and a lender backs at most one
//!   lease part, so reclamation never cascades.
//! * **Safe reclamation** — when a lender goes busy again its part is
//!   settled immediately: re-backed from the node's free capacity when it
//!   fits, else the borrower is preempted (its tasks bounce back into the
//!   stage queue *without* consuming fault-retry budget). A dead lender
//!   always re-backs its part — releasing its own allocation frees at
//!   least what it had lent. A dead borrower's lease dissolves, returning
//!   every part to its lender.
//!
//! The node-level conservation chain `used ≤ allocated ≤ capacity` holds
//! continuously: lent amounts live inside `allocated − used` headroom and
//! are scaled by [`LEND_HEADROOM_PCT`].

use crate::driver::Simulation;
use crate::lifecycle::Retired;
use crate::stage::StageTask;
use crate::stats_store::StoreOp;
use crate::trace::SimEvent;
use fifer_core::policy::DecisionCause;
use fifer_core::resources::ResourceVec;
use fifer_metrics::SimTime;

/// Percentage of a lender's idle headroom (allocation − idle usage) that
/// may be lent out. Freyr keeps a safety margin rather than lending
/// everything.
pub const LEND_HEADROOM_PCT: u64 = 80;

/// Minimum CPU worth lending per lease part, in millicores; avoids
/// fragmenting headroom into useless slivers.
pub const MIN_LEND_CPU_MILLI: u64 = 100;

const _: () = assert!(LEND_HEADROOM_PCT > 0 && LEND_HEADROOM_PCT <= 100 && MIN_LEND_CPU_MILLI > 0);

/// One lender's contribution to a harvest lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LeasePart {
    /// The idle container lending the headroom.
    pub lender: u64,
    /// The amount carved out of its headroom.
    pub amount: ResourceVec,
}

/// A node-local harvest lease: `borrower` runs entirely on resources
/// carved from the listed lenders' idle headroom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HarvestLease {
    /// The lease-backed container.
    pub borrower: u64,
    /// The node hosting borrower and every lender.
    pub node: usize,
    /// Backing parts, in ascending lender id (creation scan order).
    pub parts: Vec<LeasePart>,
}

/// All live harvest leases. A plain vector with linear scans: lease counts
/// are bounded by live containers, and vector order keeps every lookup
/// deterministic.
#[derive(Debug, Default)]
pub(crate) struct HarvestLedger {
    /// Live leases in creation order.
    pub leases: Vec<HarvestLease>,
}

impl HarvestLedger {
    /// Index of the lease `cid` borrows through, if any.
    pub fn by_borrower(&self, cid: u64) -> Option<usize> {
        self.leases.iter().position(|l| l.borrower == cid)
    }

    /// `(lease index, part index)` of the single part `cid` backs, if any
    /// (the one-hop rule caps every lender at one part).
    pub fn by_lender(&self, cid: u64) -> Option<(usize, usize)> {
        self.leases.iter().enumerate().find_map(|(li, l)| {
            l.parts
                .iter()
                .position(|p| p.lender == cid)
                .map(|pi| (li, pi))
        })
    }

    /// Total lease-backed resources on `node` (for audits).
    pub fn node_total(&self, node: usize) -> ResourceVec {
        self.leases
            .iter()
            .filter(|l| l.node == node)
            .flat_map(|l| l.parts.iter())
            .fold(ResourceVec::ZERO, |acc, p| acc + p.amount)
    }
}

impl Simulation<'_> {
    /// Spawns one container for `sidx` preferring harvest backing: if some
    /// node's idle lenders can jointly cover the full request, the
    /// container is created with a zero primary allocation and a lease;
    /// otherwise this falls back to [`Simulation::spawn_container`]. With
    /// harvesting disabled in the config it is exactly a normal spawn.
    pub(crate) fn spawn_harvested(
        &mut self,
        sidx: usize,
        now: SimTime,
        cause: DecisionCause,
    ) -> Option<u64> {
        if !self.cfg.rm.harvest {
            return self.spawn_container(sidx, now, cause);
        }
        let (request, profile) = self.spawn_request(sidx);
        let Some((node, parts)) = self.find_backing(sidx, request) else {
            return self.spawn_container(sidx, now, cause);
        };
        for p in &parts {
            self.containers[p.lender].lent = p.amount;
        }
        self.cluster.borrow(node, request, now);
        self.cluster.place(node, ResourceVec::ZERO, now);
        self.leases_created += 1;
        let num_parts = parts.len();
        let shape = crate::lifecycle::SpawnShape {
            alloc: ResourceVec::ZERO,
            borrowed: request,
            profile,
        };
        let id = self.finish_spawn(sidx, node, now, cause, shape);
        self.ledger.leases.push(HarvestLease {
            borrower: id,
            node,
            parts,
        });
        self.trace.record(|| SimEvent::HarvestLease {
            at: now,
            container: id,
            stage: sidx,
            node,
            parts: num_parts,
            cpu_milli: request.cpu_milli,
        });
        Some(id)
    }

    /// Finds the lowest-indexed node whose idle lenders can jointly back a
    /// `request`-sized lease, returning the greedy part assignment
    /// (ascending lender id). Candidates must be warm-idle, on an up node,
    /// serve a different stage, and obey the one-hop rule (not currently
    /// lending or borrowing); each lends at most [`LEND_HEADROOM_PCT`] of
    /// its `allocation − idle-usage` headroom, and none less than
    /// [`MIN_LEND_CPU_MILLI`].
    fn find_backing(&self, sidx: usize, request: ResourceVec) -> Option<(usize, Vec<LeasePart>)> {
        let mut cands: Vec<(usize, LeasePart)> = Vec::new();
        for c in self.live_containers() {
            if !c.is_idle()
                || c.stage == sidx
                || !c.lent.is_zero()
                || !c.borrowed.is_zero()
                || !self.cluster.node_is_up(c.node)
            {
                continue;
            }
            let headroom = c
                .alloc
                .saturating_sub(c.usage.idle)
                .scale_pct(LEND_HEADROOM_PCT);
            if headroom.cpu_milli < MIN_LEND_CPU_MILLI {
                continue;
            }
            cands.push((
                c.node,
                LeasePart {
                    lender: c.id,
                    amount: headroom,
                },
            ));
        }
        // nodes in index order, each node's lenders in ascending id
        cands.sort_unstable_by_key(|&(node, p)| (node, p.lender));
        for group in cands.chunk_by(|a, b| a.0 == b.0) {
            let node = group[0].0;
            let mut remaining = request;
            let mut parts = Vec::new();
            for &(_, cand) in group {
                if remaining.is_zero() {
                    break;
                }
                let part = remaining.min(cand.amount);
                if part.is_zero() {
                    continue;
                }
                remaining = remaining.saturating_sub(part);
                parts.push(LeasePart {
                    lender: cand.lender,
                    amount: part,
                });
            }
            if remaining.is_zero() && !parts.is_empty() {
                return Some((node, parts));
            }
        }
        None
    }

    /// Settles the lease part backed by live lender `cid`, which just went
    /// busy and needs its headroom back: re-back the part from the node's
    /// free capacity when it fits, else preempt the borrower. Called by
    /// `try_start` immediately after the lender starts executing, so the
    /// lender's headroom is never double-committed across an event.
    pub(crate) fn settle_lender(&mut self, cid: u64, now: SimTime) {
        let Some((li, pi)) = self.ledger.by_lender(cid) else {
            debug_assert!(false, "container {cid} lends without a ledger entry");
            return;
        };
        let (node, borrower, part) = {
            let l = &self.ledger.leases[li];
            (l.node, l.borrower, l.parts[pi].amount)
        };
        if part.fits_within(self.cluster.nodes()[node].free()) {
            self.reback_part(li, pi, now);
            self.trace.record(|| SimEvent::LeaseReclaimed {
                at: now,
                lender: cid,
                borrower,
                node,
                preempted: false,
            });
        } else {
            self.preempt_borrower(borrower, cid, now);
        }
    }

    /// Settles the lease part backed by `cid` after its death. The caller
    /// has already released the lender's primary allocation, which freed at
    /// least the lent amount — so re-backing from free capacity always
    /// fits and the borrower is never disturbed.
    pub(crate) fn settle_dead_lender(&mut self, cid: u64, now: SimTime) {
        let Some((li, pi)) = self.ledger.by_lender(cid) else {
            debug_assert!(false, "dead container {cid} lends without a ledger entry");
            return;
        };
        let (node, borrower) = {
            let l = &self.ledger.leases[li];
            (l.node, l.borrower)
        };
        self.reback_part(li, pi, now);
        self.trace.record(|| SimEvent::LeaseReclaimed {
            at: now,
            lender: cid,
            borrower,
            node,
            preempted: false,
        });
    }

    /// Converts one lease part into primary allocation for its borrower
    /// and drops it from the ledger (ending the lease when it was the last
    /// part). The caller guarantees the part fits the node's free capacity.
    fn reback_part(&mut self, li: usize, pi: usize, now: SimTime) {
        let lease = &mut self.ledger.leases[li];
        let node = lease.node;
        let borrower = lease.borrower;
        let LeasePart { lender, amount } = lease.parts.remove(pi);
        let ended = lease.parts.is_empty();
        if ended {
            self.ledger.leases.remove(li);
        }
        self.cluster.convert_lease(node, amount, now);
        self.containers[lender].lent = ResourceVec::ZERO;
        let bstage = {
            let b = &mut self.containers[borrower];
            b.alloc += amount;
            b.borrowed -= amount;
            b.stage
        };
        self.stages[bstage].allocated += amount;
        self.lease_parts_reclaimed += 1;
        if ended {
            self.leases_ended += 1;
        }
    }

    /// Dissolves the lease a dead borrower held: every part flows back to
    /// its lender and the node's harvested ledger is repaid. Called from
    /// the kill/crash paths before the borrower's (possibly zero) primary
    /// allocation is released.
    pub(crate) fn dissolve_borrower(&mut self, cid: u64, now: SimTime) {
        let Some(li) = self.ledger.by_borrower(cid) else {
            debug_assert!(false, "container {cid} borrows without a ledger entry");
            return;
        };
        let lease = self.ledger.leases.remove(li);
        let mut total = ResourceVec::ZERO;
        for p in &lease.parts {
            self.containers[p.lender].lent = ResourceVec::ZERO;
            total += p.amount;
        }
        self.cluster.repay(lease.node, total, now);
        self.leases_ended += 1;
    }

    /// Preempts a lease-backed borrower whose lender needs its headroom
    /// back and whose backing cannot be re-homed: the container dies, its
    /// lease dissolves, and its tasks bounce back into the stage queue
    /// *without* consuming fault-retry budget (preemption is
    /// policy-induced, not a fault).
    fn preempt_borrower(&mut self, cid: u64, lender: u64, now: SimTime) {
        // a borrower never lends (one hop), so retiring it dissolves its
        // lease and settles nothing else
        let Retired {
            stage: sidx,
            node,
            lost,
            interrupted,
        } = self.retire_container(cid, now);
        self.store.access(StoreOp::ContainerStats);
        self.containers_preempted += 1;
        let num_tasks = lost.len();
        self.trace.record(|| SimEvent::LeaseReclaimed {
            at: now,
            lender,
            borrower: cid,
            node,
            preempted: true,
        });
        self.trace.record(|| SimEvent::Preempt {
            at: now,
            container: cid,
            stage: sidx,
            node,
            tasks: num_tasks,
        });
        for (i, t) in lost.into_iter().enumerate() {
            let enqueued = if interrupted && i == 0 {
                now
            } else {
                t.enqueued
            };
            let task = StageTask {
                job: t.job,
                enqueued,
                job_deadline: self.request(t.job).arrival + self.cfg.slo,
                remaining_work: self.route(t.job).remaining_work[self.jobs[t.job].stage_pos],
                // preemption never charges the fault-retry budget
                retries: t.retries,
            };
            // raw push (not `requeue`): the stage's fault ledger and
            // arrival counters stay untouched — bound simply moves back to
            // pending, keeping `entered == accounted` balanced
            self.stages[sidx].queue.push(task);
            self.pending_tasks += 1;
            self.peak_queue_depth = self.peak_queue_depth.max(self.pending_tasks as u64);
            self.dirty_stages.insert(sidx as u64);
            self.tasks_preempted += 1;
        }
        // the preempted stage may respawn right away (possibly harvesting
        // someone else's headroom); bounded — every preemption removed a
        // lease, and new leases need fresh idle lenders
        self.dispatch(sidx, now, DecisionCause::HarvestReclaim);
    }
}
