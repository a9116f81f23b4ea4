//! The simulated cluster cost model.
//!
//! The paper evaluates on 11 Amazon EC2 M1-Small VMs running Hadoop; this
//! reproduction runs on one machine, so "running time" for the
//! scalability experiments (Figure 7) is computed from a deterministic
//! cost model instead of wall clock. Every map task is charged for
//! scanning its split from disk plus per-record CPU; combiners are
//! charged per consumed record; shuffle is charged per byte crossing the
//! network; reducers per consumed record; and every task pays a fixed
//! scheduling overhead (Hadoop task-startup latency).
//!
//! The defaults are calibrated to the paper's hardware so absolute
//! magnitudes land in the right regime: ~60 MB/s sequential disk on an
//! M1-Small and ~20 MB/s instance network give a 100 GB scan on 10
//! workers a makespan of minutes, matching §7's "order of a few minutes".

use serde::{Deserialize, Serialize};

/// Per-operation simulated costs, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostConfig {
    /// Disk scan cost per input byte during the map phase (µs/byte).
    pub scan_us_per_byte: f64,
    /// CPU cost per record mapped (µs).
    pub map_cpu_us_per_record: f64,
    /// CPU cost per record consumed by a combiner (µs).
    pub combine_cpu_us_per_record: f64,
    /// Network cost per byte shuffled to a reducer (µs/byte).
    pub network_us_per_byte: f64,
    /// CPU cost per record consumed by a reducer (µs).
    pub reduce_cpu_us_per_record: f64,
    /// Fixed scheduling/startup overhead per task (µs).
    pub task_overhead_us: f64,
    /// Fixed per-job overhead: job setup, staging, cleanup (µs).
    pub job_overhead_us: f64,
}

impl Default for CostConfig {
    fn default() -> Self {
        Self {
            // ~60 MB/s sequential read
            scan_us_per_byte: 1.0 / 60.0,
            map_cpu_us_per_record: 1.0,
            combine_cpu_us_per_record: 0.5,
            // ~20 MB/s instance-to-instance network
            network_us_per_byte: 1.0 / 20.0,
            reduce_cpu_us_per_record: 1.0,
            // Hadoop task startup (JVM spawn) ~1 s
            task_overhead_us: 1_000_000.0,
            // job submission + staging ~5 s
            job_overhead_us: 5_000_000.0,
        }
    }
}

impl CostConfig {
    /// A zero-overhead configuration useful in unit tests where only
    /// record/byte accounting matters.
    pub fn zero_overhead() -> Self {
        Self {
            task_overhead_us: 0.0,
            job_overhead_us: 0.0,
            ..Self::default()
        }
    }
}

/// Simulated time breakdown of one job, in microseconds.
///
/// `map`, `combine`, `shuffle` and `reduce` are *total work* per phase
/// (the quantities behind the paper's "70% / 28% / 1%" phase breakdown);
/// `makespan` is the critical-path time on the simulated cluster —
/// phases execute in sequence, tasks within a phase run in parallel
/// across machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SimTime {
    /// Total map work across all tasks (µs).
    pub map_us: f64,
    /// Total combiner work across all tasks (µs).
    pub combine_us: f64,
    /// Total shuffle transfer cost (µs).
    pub shuffle_us: f64,
    /// Total reduce work across all tasks (µs).
    pub reduce_us: f64,
    /// Critical-path job time on the cluster (µs), including overheads.
    pub makespan_us: f64,
}

impl SimTime {
    /// Total work across phases, excluding scheduling overhead (µs).
    pub fn total_work_us(&self) -> f64 {
        self.map_us + self.combine_us + self.shuffle_us + self.reduce_us
    }

    /// Fraction of total work spent in each of (map, combine, reduce);
    /// shuffle is folded into combine as in the paper's phase accounting.
    pub fn phase_fractions(&self) -> (f64, f64, f64) {
        let total = self.total_work_us();
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.map_us / total,
            (self.combine_us + self.shuffle_us) / total,
            self.reduce_us / total,
        )
    }

    /// Makespan in seconds.
    pub fn makespan_secs(&self) -> f64 {
        self.makespan_us / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_calibration_regime() {
        let c = CostConfig::default();
        // 100 GB scan at the default disk rate ≈ 28 minutes of map work;
        // spread over 10 machines that is minutes, as in the paper.
        let scan_us = 100e9 * c.scan_us_per_byte;
        let minutes_on_10 = scan_us / 10.0 / 60e6;
        assert!(
            (1.0..=10.0).contains(&minutes_on_10),
            "calibration off: {minutes_on_10} minutes"
        );
    }

    #[test]
    fn phase_fractions_sum_to_one() {
        let t = SimTime {
            map_us: 70.0,
            combine_us: 20.0,
            shuffle_us: 8.0,
            reduce_us: 2.0,
            makespan_us: 100.0,
        };
        let (m, c, r) = t.phase_fractions();
        assert!((m + c + r - 1.0).abs() < 1e-12);
        assert!((m - 0.70).abs() < 1e-12);
        assert!((c - 0.28).abs() < 1e-12);
        assert!((r - 0.02).abs() < 1e-12);
    }

    #[test]
    fn empty_simtime_has_zero_fractions() {
        let t = SimTime::default();
        assert_eq!(t.phase_fractions(), (0.0, 0.0, 0.0));
        assert_eq!(t.total_work_us(), 0.0);
    }
}
