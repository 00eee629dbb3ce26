//! Slack estimation, per-stage slack division and batch sizing
//! (paper §3, §4.1).
//!
//! Given an application's SLO and profiled stage execution times, Fifer
//! computes the total slack (`SLO − end-to-end runtime`), divides it across
//! stages, and derives each stage's batch size
//! `B_size = Stage_Slack / Stage_Exec_Time` — the number of requests one
//! container can queue without violating the application SLO.

use fifer_metrics::SimDuration;
use fifer_workloads::apps::AppSpec;
use fifer_workloads::Microservice;

/// How the total application slack is divided among stages (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlackPolicy {
    /// Equal division: every stage gets `total_slack / num_stages`.
    EqualDivision,
    /// Proportional to the stage's share of total execution time — the
    /// policy Fifer adopts ("known to give better per-stage utilization",
    /// §4.1, citing GrandSLAm).
    Proportional,
}

impl SlackPolicy {
    /// Both policies, for ablations.
    pub const ALL: [SlackPolicy; 2] = [SlackPolicy::EqualDivision, SlackPolicy::Proportional];
}

/// One stage's runtime plan: its slack share, batch size and the per-stage
/// response-latency budget used by the reactive scaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePlan {
    /// The microservice running at this stage.
    pub microservice: Microservice,
    /// Profiled mean execution time for this stage.
    pub exec_time: SimDuration,
    /// Slack allocated to this stage by the division policy.
    pub slack: SimDuration,
    /// Per-stage response latency `S_r = slack + exec_time` (§4.2) — the
    /// longest a request may spend at this stage without jeopardizing the
    /// application SLO.
    pub response_latency: SimDuration,
    /// Batch size `B_size = max(1, ⌊slack / exec_time⌋)`: the container
    /// queue length this stage tolerates (§3).
    pub batch_size: usize,
}

/// The per-application plan Fifer stores offline in its database (§5.1):
/// stage order, slack division and batch sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct AppPlan {
    app: fifer_workloads::Application,
    slo: SimDuration,
    policy: SlackPolicy,
    stages: Vec<StagePlan>,
}

impl AppPlan {
    /// Computes the plan for `spec` under the given slack-division policy.
    ///
    /// Chain transition overheads are charged against the budget before
    /// division, so allocated slack is truly available for queuing.
    pub fn new(spec: &AppSpec, policy: SlackPolicy) -> Self {
        let total_slack = spec.total_slack();
        let total_exec = spec.total_exec();
        let n = spec.num_stages();
        let stages = spec
            .stages()
            .iter()
            .map(|st| {
                let slack = match policy {
                    SlackPolicy::EqualDivision => total_slack / n as u64,
                    SlackPolicy::Proportional => {
                        if total_exec.is_zero() {
                            total_slack / n as u64
                        } else {
                            // floor to whole microseconds so per-stage
                            // shares can never sum past the total
                            let share = st.mean_exec.ratio(total_exec);
                            SimDuration::from_micros(
                                (total_slack.as_micros() as f64 * share) as u64,
                            )
                        }
                    }
                };
                StagePlan {
                    microservice: st.microservice,
                    exec_time: st.mean_exec,
                    slack,
                    response_latency: slack + st.mean_exec,
                    batch_size: batch_size(slack, st.mean_exec),
                }
            })
            .collect();
        AppPlan {
            app: spec.application(),
            slo: spec.slo(),
            policy,
            stages,
        }
    }

    /// The application this plan describes.
    pub fn application(&self) -> fifer_workloads::Application {
        self.app
    }

    /// The SLO this plan was computed for.
    pub fn slo(&self) -> SimDuration {
        self.slo
    }

    /// The slack-division policy used.
    pub fn policy(&self) -> SlackPolicy {
        self.policy
    }

    /// The per-stage plans in chain order.
    pub fn stages(&self) -> &[StagePlan] {
        &self.stages
    }

    /// Plan for stage `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn stage(&self, idx: usize) -> &StagePlan {
        &self.stages[idx]
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total slack allocated across stages (≤ the application slack; equal
    /// division rounds down per stage).
    pub fn allocated_slack(&self) -> SimDuration {
        self.stages
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.slack)
    }
}

/// `B_size = ⌊stage_slack / stage_exec⌋`, floored at 1 — a container always
/// holds at least the request it is executing (§3).
pub fn batch_size(stage_slack: SimDuration, stage_exec: SimDuration) -> usize {
    if stage_exec.is_zero() {
        return 1;
    }
    (stage_slack.ratio(stage_exec).floor() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifer_workloads::Application;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn batch_size_formula() {
        assert_eq!(batch_size(ms(500), ms(100)), 5);
        assert_eq!(batch_size(ms(499), ms(100)), 4);
        assert_eq!(batch_size(ms(50), ms(100)), 1, "floors at 1");
        assert_eq!(batch_size(ms(100), SimDuration::ZERO), 1);
    }

    #[test]
    fn proportional_allocates_by_exec_share() {
        let spec = Application::Ipa.spec();
        let plan = AppPlan::new(&spec, SlackPolicy::Proportional);
        // ASR (46.1ms) must receive ~46.1/102.39 of the slack; NLP (~0.19ms)
        // almost none
        let total: f64 = plan.allocated_slack().as_millis_f64();
        let asr = plan.stage(0);
        let nlp = plan.stage(1);
        assert!(asr.slack.as_millis_f64() / total > 0.4);
        assert!(nlp.slack.as_millis_f64() / total < 0.01);
    }

    #[test]
    fn equal_division_is_uniform() {
        let spec = Application::Img.spec();
        let plan = AppPlan::new(&spec, SlackPolicy::EqualDivision);
        let s0 = plan.stage(0).slack;
        assert!(plan.stages().iter().all(|s| s.slack == s0));
    }

    #[test]
    fn proportional_yields_similar_batch_sizes_across_stages() {
        // §4.2: proportional slack allocation "results in having similar
        // batch sizes for the containers at every stage"
        for app in Application::ALL {
            let plan = AppPlan::new(&app.spec(), SlackPolicy::Proportional);
            let sizes: Vec<usize> = plan.stages().iter().map(|s| s.batch_size).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(
                max - min <= 1,
                "{app}: proportional batch sizes should be near-uniform, got {sizes:?}"
            );
        }
    }

    #[test]
    fn equal_division_skews_batch_sizes() {
        // under ED, the short NLP stage gets an enormous batch while the
        // long ASR stage gets a small one — the per-stage utilization skew
        // the paper argues against
        let plan = AppPlan::new(&Application::Ipa.spec(), SlackPolicy::EqualDivision);
        let asr = plan.stage(0).batch_size;
        let nlp = plan.stage(1).batch_size;
        assert!(nlp > asr * 10, "ED should skew: ASR {asr} vs NLP {nlp}");
    }

    #[test]
    fn response_latency_is_slack_plus_exec() {
        let plan = AppPlan::new(&Application::FaceSecurity.spec(), SlackPolicy::Proportional);
        for s in plan.stages() {
            assert_eq!(s.response_latency, s.slack + s.exec_time);
        }
    }

    #[test]
    fn allocated_slack_never_exceeds_app_slack() {
        for app in Application::ALL {
            for policy in SlackPolicy::ALL {
                let spec = app.spec();
                let plan = AppPlan::new(&spec, policy);
                assert!(
                    plan.allocated_slack() <= spec.total_slack(),
                    "{app}/{policy:?}"
                );
            }
        }
    }

    #[test]
    fn zero_slack_slo_still_produces_valid_plan() {
        let spec = Application::DetectFatigue.spec_with_slo(ms(100));
        let plan = AppPlan::new(&spec, SlackPolicy::Proportional);
        for s in plan.stages() {
            assert_eq!(s.slack, SimDuration::ZERO);
            assert_eq!(s.batch_size, 1);
        }
    }

    #[test]
    fn stage_order_matches_chain() {
        let spec = Application::DetectFatigue.spec();
        let plan = AppPlan::new(&spec, SlackPolicy::Proportional);
        let chain = Application::DetectFatigue.chain();
        assert_eq!(plan.num_stages(), chain.len());
        for (s, &m) in plan.stages().iter().zip(chain) {
            assert_eq!(s.microservice, m);
        }
    }
}
