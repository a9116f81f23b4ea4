//! Seeded node-level fault plans for the simulated cluster.
//!
//! A [`FaultPlan`] describes what goes wrong on which machine during a
//! job: a crash at a simulated time (killing in-flight attempts and
//! losing the node's completed map outputs), a persistent slowdown
//! factor, or per-attempt flakiness. Plans are plain data — attach one
//! with [`crate::Cluster::with_fault_plan`] and the event-driven
//! scheduler replays it deterministically.
//!
//! [`FaultPlan::seeded`] derives a whole plan from a `(seed, machines,
//! FaultMix)` triple using the same splitmix64 chain as task seeds, so a
//! chaos sweep over hundreds of scenarios needs no RNG state: scenario
//! `i` is `FaultPlan::seeded(base ^ i, machines, &mix)` forever.

use crate::job::mix_seed;
use std::collections::BTreeMap;

/// What goes wrong on one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFault {
    /// Simulated time at which the node crashes (µs since job start).
    /// In-flight attempts are killed, completed map outputs still
    /// needed by the shuffle are lost and re-executed elsewhere, and
    /// the node never comes back for the rest of the job.
    pub crash_at_us: Option<f64>,
    /// Persistent slowness multiplier (1.0 = nominal, 3.0 = a third of
    /// the speed): a task on the node takes this many times its nominal
    /// simulated time.
    pub slowdown: f64,
    /// Probability that each task attempt on this node fails
    /// independently and is retried.
    pub flaky_prob: f64,
}

impl Default for NodeFault {
    fn default() -> Self {
        NodeFault {
            crash_at_us: None,
            slowdown: 1.0,
            flaky_prob: 0.0,
        }
    }
}

impl NodeFault {
    /// True when the fault changes nothing (the default).
    pub fn is_benign(&self) -> bool {
        self.crash_at_us.is_none() && self.slowdown == 1.0 && self.flaky_prob == 0.0
    }
}

/// A per-machine fault assignment for one job. Machines not mentioned
/// are healthy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: BTreeMap<usize, NodeFault>,
}

impl FaultPlan {
    /// An empty plan: every machine healthy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Crash `machine` at simulated time `at_us` (µs since job start).
    pub fn crash(mut self, machine: usize, at_us: f64) -> Self {
        assert!(at_us >= 0.0, "crash time must be non-negative");
        self.entry(machine).crash_at_us = Some(at_us);
        self
    }

    /// Slow `machine` down by `factor` (must be positive; values above
    /// 1.0 model degraded nodes).
    pub fn slow(mut self, machine: usize, factor: f64) -> Self {
        assert!(factor > 0.0, "slowdown factor must be positive");
        self.entry(machine).slowdown = factor;
        self
    }

    /// Make every task attempt on `machine` fail independently with
    /// probability `prob`.
    pub fn flaky(mut self, machine: usize, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "prob must be in [0, 1]");
        self.entry(machine).flaky_prob = prob;
        self
    }

    fn entry(&mut self, machine: usize) -> &mut NodeFault {
        self.faults.entry(machine).or_default()
    }

    /// The fault assigned to `machine` (benign default when unset).
    pub fn fault(&self, machine: usize) -> NodeFault {
        self.faults.get(&machine).copied().unwrap_or_default()
    }

    /// The highest machine index the plan names, if any.
    pub(crate) fn last_machine(&self) -> Option<usize> {
        self.faults.keys().next_back().copied()
    }

    /// True when no machine has a non-benign fault.
    pub fn is_benign(&self) -> bool {
        self.faults.values().all(NodeFault::is_benign)
    }

    /// Derive a plan for `machines` nodes deterministically from `seed`
    /// and a [`FaultMix`]. Same inputs, same plan — on any host, any
    /// thread count, forever.
    pub fn seeded(seed: u64, machines: usize, mix: &FaultMix) -> Self {
        let mut plan = FaultPlan::new();
        for m in 0..machines {
            let node = mix_seed(seed, 0xC4A0_5000 + m as u64);
            if unit(node, 1) < mix.crash_prob {
                let (lo, hi) = mix.crash_window_us;
                plan = plan.crash(m, lo + unit(node, 2) * (hi - lo).max(0.0));
            }
            if unit(node, 3) < mix.slow_prob {
                plan = plan.slow(m, 1.0 + unit(node, 4) * (mix.max_slowdown - 1.0).max(0.0));
            }
            if unit(node, 5) < mix.flaky_prob {
                plan = plan.flaky(m, unit(node, 6) * mix.max_flaky_task_prob);
            }
        }
        plan
    }
}

/// Knobs for [`FaultPlan::seeded`]: how likely each fault kind is per
/// node, and how severe it gets.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMix {
    /// Probability a node crashes during the job.
    pub crash_prob: f64,
    /// Window the crash time is drawn uniformly from, µs.
    pub crash_window_us: (f64, f64),
    /// Probability a node is persistently slow.
    pub slow_prob: f64,
    /// Worst slowdown factor drawn (factors are in `[1, max_slowdown]`).
    pub max_slowdown: f64,
    /// Probability a node is flaky.
    pub flaky_prob: f64,
    /// Worst per-attempt failure probability drawn for a flaky node.
    pub max_flaky_task_prob: f64,
}

impl Default for FaultMix {
    fn default() -> Self {
        FaultMix {
            crash_prob: 0.0,
            crash_window_us: (0.0, 30e6),
            slow_prob: 0.0,
            max_slowdown: 4.0,
            flaky_prob: 0.0,
            max_flaky_task_prob: 0.6,
        }
    }
}

impl FaultMix {
    /// Crash-only mix: roughly one node in four dies mid-job.
    pub fn crashes() -> Self {
        FaultMix {
            crash_prob: 0.25,
            ..FaultMix::default()
        }
    }

    /// Slowness-only mix: roughly one node in three is degraded.
    pub fn slowness() -> Self {
        FaultMix {
            slow_prob: 0.35,
            ..FaultMix::default()
        }
    }

    /// Flakiness-only mix: roughly one node in three drops attempts.
    pub fn flaky() -> Self {
        FaultMix {
            flaky_prob: 0.35,
            ..FaultMix::default()
        }
    }

    /// Everything at once — the full chaos diet.
    pub fn mixed() -> Self {
        FaultMix {
            crash_prob: 0.2,
            slow_prob: 0.25,
            flaky_prob: 0.25,
            ..FaultMix::default()
        }
    }
}

/// A uniform draw in `[0, 1)` from the splitmix64 chain.
fn unit(seed: u64, salt: u64) -> f64 {
    (mix_seed(seed, salt) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_and_reads_faults() {
        let plan = FaultPlan::new().crash(2, 1e6).slow(1, 3.0).flaky(1, 0.5);
        assert_eq!(plan.fault(2).crash_at_us, Some(1e6));
        assert_eq!(plan.fault(1).slowdown, 3.0);
        assert_eq!(plan.fault(1).flaky_prob, 0.5);
        assert!(plan.fault(0).is_benign());
        assert!(!plan.is_benign());
    }

    #[test]
    fn empty_plan_is_benign() {
        assert!(FaultPlan::new().is_benign());
        assert!(FaultPlan::seeded(1, 8, &FaultMix::default()).is_benign());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let mix = FaultMix::mixed();
        let a = FaultPlan::seeded(7, 8, &mix);
        let b = FaultPlan::seeded(7, 8, &mix);
        assert_eq!(a, b);
        let distinct = (0..64)
            .map(|s| FaultPlan::seeded(s, 8, &mix))
            .collect::<Vec<_>>();
        let faulty = distinct.iter().filter(|p| !p.is_benign()).count();
        assert!(faulty > 32, "mixed plans should usually inject something");
        assert!(
            distinct.iter().any(|p| *p != distinct[0]),
            "seeds must vary plans"
        );
    }

    #[test]
    fn seeded_severities_stay_in_range() {
        let mix = FaultMix::mixed();
        for seed in 0..200 {
            let plan = FaultPlan::seeded(seed, 16, &mix);
            for m in 0..16 {
                let f = plan.fault(m);
                if let Some(t) = f.crash_at_us {
                    assert!((0.0..=30e6).contains(&t));
                }
                assert!((1.0..=mix.max_slowdown).contains(&f.slowdown));
                assert!((0.0..=mix.max_flaky_task_prob).contains(&f.flaky_prob));
            }
        }
    }
}
