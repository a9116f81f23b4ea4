//! Multi-job drivers.
//!
//! MR-CPS "can be implemented as a series of MapReduce programs"
//! (§5.2.5); a [`JobLog`] accumulates the per-phase statistics of such a
//! series and derives the aggregate figures the evaluation reports:
//! total simulated makespan, per-phase work fractions, and shuffle
//! volume.

use crate::cluster::JobStats;
use crate::cost::SimTime;
use serde::{Deserialize, Serialize};

/// A labeled log of the jobs one driver ran, with aggregates.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobLog {
    phases: Vec<(String, JobStats)>,
}

impl JobLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one finished job under a label.
    pub fn record(&mut self, label: impl Into<String>, stats: JobStats) {
        self.phases.push((label.into(), stats));
    }

    /// The recorded `(label, stats)` pairs, in execution order.
    pub fn phases(&self) -> &[(String, JobStats)] {
        &self.phases
    }

    /// Number of jobs recorded.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Total simulated makespan of the series (jobs run back to back).
    pub fn total_makespan_us(&self) -> f64 {
        self.phases.iter().map(|(_, s)| s.sim.makespan_us).sum()
    }

    /// Total bytes shuffled across all jobs.
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.phases.iter().map(|(_, s)| s.shuffle_bytes).sum()
    }

    /// Total input records scanned across all jobs (each job re-scans
    /// the dataset, as the paper's phase analysis assumes).
    pub fn total_records_scanned(&self) -> u64 {
        self.phases.iter().map(|(_, s)| s.map_input_records).sum()
    }

    /// Total µs of work across all jobs that produced no surviving
    /// output (failed attempts, crash kills, speculative losers, lost
    /// map executions) — zero on a fault-free series.
    pub fn total_wasted_us(&self) -> f64 {
        self.phases.iter().map(|(_, s)| s.wasted_us).sum()
    }

    /// Aggregate simulated work across phases.
    pub fn aggregate_sim(&self) -> SimTime {
        let mut sim = SimTime::default();
        for (_, s) in &self.phases {
            sim.map_us += s.sim.map_us;
            sim.combine_us += s.sim.combine_us;
            sim.shuffle_us += s.sim.shuffle_us;
            sim.reduce_us += s.sim.reduce_us;
            sim.makespan_us += s.sim.makespan_us;
        }
        sim
    }

    /// Render a compact text summary (one line per job plus totals).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (label, s) in &self.phases {
            let _ = writeln!(
                out,
                "{label:<24} {:>8.1} s  scan {:>10}  shuffle {:>10} B",
                s.sim.makespan_secs(),
                s.map_input_records,
                s.shuffle_bytes
            );
        }
        let _ = writeln!(
            out,
            "{:<24} {:>8.1} s  scan {:>10}  shuffle {:>10} B",
            "total",
            self.total_makespan_us() / 1e6,
            self.total_records_scanned(),
            self.total_shuffle_bytes()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::job::{Emitter, Job, TaskCtx};
    use crate::split::make_splits;

    struct Count;
    impl Job for Count {
        type Input = u64;
        type Key = u8;
        type MapOut = u64;
        type ReduceOut = u64;
        fn map(&self, _c: &TaskCtx, r: &u64, out: &mut Emitter<u8, u64>) {
            out.emit((*r % 3) as u8, 1);
        }
        fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<u64>) -> u64 {
            v.into_iter().sum()
        }
        fn input_bytes(&self, _r: &u64) -> u64 {
            100
        }
        fn pair_bytes(&self, _k: &u8, _v: &u64) -> u64 {
            9
        }
    }

    #[test]
    fn log_accumulates_job_series() {
        let cluster = Cluster::new(2);
        let splits = make_splits((0..300).collect(), 4, 2);
        let mut log = JobLog::new();
        for (i, label) in ["first pass", "second pass", "third pass"]
            .iter()
            .enumerate()
        {
            let out = cluster.try_run(&Count, &splits, i as u64).unwrap();
            log.record(*label, out.stats);
        }
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.total_records_scanned(), 900);
        assert!(log.total_shuffle_bytes() > 0);
        // totals equal the sum of phases
        let sum: f64 = log.phases().iter().map(|(_, s)| s.sim.makespan_us).sum();
        assert_eq!(log.total_makespan_us(), sum);
        let agg = log.aggregate_sim();
        assert!(agg.map_us > 0.0 && agg.makespan_us == sum);
        assert_eq!(
            log.total_wasted_us(),
            0.0,
            "fault-free series wastes nothing"
        );
    }

    #[test]
    fn wasted_work_aggregates_across_jobs() {
        let cluster = Cluster::new(2)
            .with_fault_plan(crate::chaos::FaultPlan::new().flaky(1, 1.0))
            .with_blacklist_after(3);
        let splits = make_splits((0..300).collect(), 4, 2);
        let mut log = JobLog::new();
        for i in 0..2 {
            log.record(
                format!("pass {i}"),
                cluster.try_run(&Count, &splits, i).unwrap().stats,
            );
        }
        let sum: f64 = log.phases().iter().map(|(_, s)| s.wasted_us).sum();
        assert!(sum > 0.0, "an always-flaky node must waste work");
        assert_eq!(log.total_wasted_us(), sum);
    }

    #[test]
    fn summary_lists_every_phase_and_total() {
        let cluster = Cluster::new(1);
        let splits = make_splits((0..30).collect(), 2, 1);
        let mut log = JobLog::new();
        log.record("only", cluster.try_run(&Count, &splits, 1).unwrap().stats);
        let text = log.summary();
        assert!(text.contains("only"));
        assert!(text.contains("total"));
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let cluster = Cluster::new(1);
        let splits = make_splits((0..10).collect(), 1, 1);
        let mut log = JobLog::new();
        log.record("p", cluster.try_run(&Count, &splits, 0).unwrap().stats);
        let json = serde_json::to_string(&log).unwrap();
        let back: JobLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.total_records_scanned(), 10);
    }
}
