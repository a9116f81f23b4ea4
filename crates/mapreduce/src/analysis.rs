//! Post-hoc analysis of per-task traces: critical-path attribution,
//! shuffle skew and straggler detection.
//!
//! All functions consume the [`JobTrace`]s collected by
//! [`Cluster::with_trace`](crate::Cluster::with_trace). Because the
//! trace *is* the schedule, the critical path is reconstructed purely
//! from event windows: under the barrier model the job's makespan is
//!
//! ```text
//! overhead + (map barrier − overhead) + (shuffle end − map barrier)
//!          + (reduce end − shuffle end)
//! ```
//!
//! where each barrier is the latest event end of its phase, and
//! [`critical_path`] returns exactly that chain of tasks — cross-checked
//! against `JobStats::sim.makespan_us` by `tests/analysis.rs` to ~1e-9
//! relative error. Measuring *windows* (latest end) instead of summing
//! per-machine busy time keeps the identity exact under the
//! fault-tolerant scheduler too, where retries back off, crashed work is
//! re-executed after a gap, and speculative backups overlap their
//! primaries.

use stratmr_telemetry::{JobTrace, TraceEvent, TracePhase};

/// The chain of tasks bounding a job's makespan.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Job setup overhead, µs (the path's first edge).
    pub overhead_us: f64,
    /// Machine whose map work (incl. combines, retries and
    /// re-executions) finished last — it defines the map barrier.
    pub map_machine: u64,
    /// Map-phase window, µs: map barrier minus setup overhead. Equals
    /// the bounding machine's busy time in a fault-free run; under
    /// faults it additionally absorbs backoff gaps and re-execution
    /// stalls on that machine.
    pub map_us: f64,
    /// Partition of the longest shuffle transfer (`None` when the job
    /// shuffled nothing).
    pub shuffle_partition: Option<u64>,
    /// Duration of that transfer, µs.
    pub shuffle_us: f64,
    /// Machine whose reduce work finished last.
    pub reduce_machine: u64,
    /// Reduce-phase window, µs: makespan minus the shuffle end.
    pub reduce_us: f64,
    /// The events along the path, in schedule order: every map/combine
    /// task (and failed attempt) on `map_machine`, the bounding shuffle
    /// transfer, every reduce task on `reduce_machine`.
    pub tasks: Vec<TraceEvent>,
    /// Sum of the path: `overhead + map + shuffle + reduce`, µs.
    /// Equals the job's simulated makespan exactly (each window is
    /// measured between the same event ends the scheduler used).
    pub total_us: f64,
}

/// Shuffle-partition byte skew of one job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SkewReport {
    /// Number of reduce partitions.
    pub partitions: u64,
    /// Total bytes shuffled.
    pub total_bytes: u64,
    /// Bytes of the largest partition.
    pub max_bytes: u64,
    /// Mean bytes per partition.
    pub mean_bytes: f64,
    /// Partition holding `max_bytes` (`None` when nothing shuffled).
    pub max_partition: Option<u64>,
    /// `max / mean` (1.0 for a perfectly balanced or empty shuffle).
    pub skew: f64,
}

/// A machine whose phase busy time exceeds its peers'.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Straggler {
    /// The slow machine.
    pub machine: u64,
    /// Phase in which it straggles ([`TracePhase::Map`] or
    /// [`TracePhase::Reduce`]).
    pub phase: TracePhase,
    /// Its busy time in that phase, µs.
    pub busy_us: f64,
    /// Mean busy time of the *other* machines in that phase, µs.
    pub peer_mean_us: f64,
    /// `busy / peer_mean`.
    pub slowdown: f64,
}

fn phase_busy(trace: &JobTrace, machines: usize, phases: &[TracePhase]) -> Vec<f64> {
    let mut busy = vec![0.0f64; machines];
    for e in &trace.events {
        if phases.contains(&e.phase) {
            busy[(e.machine as usize) % machines.max(1)] += e.dur_us;
        }
    }
    busy
}

/// The latest event end in the given phases, with the machine attaining
/// it (first such machine in trace order on exact ties). Returns
/// `floor` with machine 0 when the phases have no events.
fn phase_barrier(trace: &JobTrace, phases: &[TracePhase], floor: f64) -> (f64, u64) {
    let mut end = floor;
    let mut machine = 0u64;
    let mut seen = false;
    for e in &trace.events {
        if !phases.contains(&e.phase) {
            continue;
        }
        let e_end = e.start_us + e.dur_us;
        if !seen || e_end > end {
            machine = e.machine;
            end = end.max(e_end);
            seen = true;
        }
    }
    (end, machine)
}

/// Extract the task chain bounding the makespan (see module docs).
///
/// Ties (two machines finishing a phase at the same instant) resolve to
/// the first in trace order — the lowest machine id under the sorted
/// trace contract — so the result is deterministic.
pub fn critical_path(trace: &JobTrace) -> CriticalPath {
    let (map_end, map_machine) = phase_barrier(
        trace,
        &[TracePhase::Map, TracePhase::Combine],
        trace.overhead_us,
    );
    let bounding_shuffle = trace
        .phase_events(TracePhase::Shuffle)
        .max_by(|a, b| {
            (a.start_us + a.dur_us)
                .partial_cmp(&(b.start_us + b.dur_us))
                .unwrap_or(std::cmp::Ordering::Equal)
                // ties → lowest partition id, matching the cluster's
                // fold(f64::max) which keeps the first maximum
                .then(b.task.cmp(&a.task))
        })
        .cloned();
    let shuffle_end = bounding_shuffle
        .as_ref()
        .map(|e| (e.start_us + e.dur_us).max(map_end))
        .unwrap_or(map_end);
    let (reduce_end, reduce_machine) = phase_barrier(trace, &[TracePhase::Reduce], shuffle_end);
    let reduce_machine = if trace.phase_events(TracePhase::Reduce).next().is_some() {
        reduce_machine
    } else {
        0
    };

    let mut tasks: Vec<TraceEvent> = trace
        .events
        .iter()
        .filter(|e| match e.phase {
            TracePhase::Map | TracePhase::Combine => e.machine == map_machine,
            TracePhase::Shuffle => false,
            TracePhase::Reduce => e.machine == reduce_machine,
        })
        .cloned()
        .collect();
    tasks.extend(bounding_shuffle.as_ref().cloned());
    tasks.sort_by(|a, b| {
        a.start_us
            .partial_cmp(&b.start_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                (a.phase, a.machine, a.task, a.attempt)
                    .cmp(&(b.phase, b.machine, b.task, b.attempt))
            })
    });

    CriticalPath {
        overhead_us: trace.overhead_us,
        map_machine,
        map_us: map_end - trace.overhead_us,
        shuffle_partition: bounding_shuffle.and_then(|e| e.partition),
        shuffle_us: shuffle_end - map_end,
        reduce_machine,
        reduce_us: reduce_end - shuffle_end,
        tasks,
        total_us: reduce_end,
    }
}

/// Byte skew across the job's shuffle partitions.
pub fn shuffle_skew(trace: &JobTrace) -> SkewReport {
    let mut partitions = 0u64;
    let mut total = 0u64;
    let mut max = 0u64;
    let mut max_partition = None;
    for e in trace.phase_events(TracePhase::Shuffle) {
        partitions += 1;
        total += e.bytes;
        if e.bytes > max {
            max = e.bytes;
            max_partition = e.partition.or(Some(e.task));
        }
    }
    let mean = if partitions > 0 {
        total as f64 / partitions as f64
    } else {
        0.0
    };
    SkewReport {
        partitions,
        total_bytes: total,
        max_bytes: max,
        mean_bytes: mean,
        max_partition,
        skew: if mean > 0.0 { max as f64 / mean } else { 1.0 },
    }
}

/// Machines whose map or reduce busy time exceeds `threshold` × the
/// mean busy time of their peers (the other machines). Returns an empty
/// list on single-machine clusters — there is no peer to compare with.
pub fn stragglers(trace: &JobTrace, threshold: f64) -> Vec<Straggler> {
    let machines = trace.machines.max(1) as usize;
    if machines < 2 {
        return Vec::new();
    }
    let mut found = Vec::new();
    for (phase, phases) in [
        (TracePhase::Map, &[TracePhase::Map, TracePhase::Combine][..]),
        (TracePhase::Reduce, &[TracePhase::Reduce][..]),
    ] {
        let busy = phase_busy(trace, machines, phases);
        let total: f64 = busy.iter().sum();
        for (m, &b) in busy.iter().enumerate() {
            let peer_mean = (total - b) / (machines - 1) as f64;
            if peer_mean > 0.0 && b > threshold * peer_mean {
                found.push(Straggler {
                    machine: m as u64,
                    phase,
                    busy_us: b,
                    peer_mean_us: peer_mean,
                    slowdown: b / peer_mean,
                });
            }
        }
    }
    found
}

/// One-line human-readable summary of a job: makespan, critical path,
/// skew and any stragglers (≥ 1.5× their peers). Used by the bench
/// report.
pub fn summarize(trace: &JobTrace) -> String {
    use std::fmt::Write as _;
    let cp = critical_path(trace);
    let skew = shuffle_skew(trace);
    let mut line = format!(
        "{}#{}: makespan {:.3}s = setup {:.3}s + m{} map {:.3}s + shuffle {:.3}s + m{} reduce {:.3}s",
        trace.name,
        trace.seq,
        trace.makespan_us / 1e6,
        cp.overhead_us / 1e6,
        cp.map_machine,
        cp.map_us / 1e6,
        cp.shuffle_us / 1e6,
        cp.reduce_machine,
        cp.reduce_us / 1e6,
    );
    if let Some(p) = cp.shuffle_partition {
        let _ = write!(
            line,
            "; shuffle bound by partition {p} ({} B), skew {:.2}x",
            skew.max_bytes, skew.skew
        );
    }
    let slow = stragglers(trace, 1.5);
    if !slow.is_empty() {
        line.push_str("; stragglers:");
        for s in slow {
            let _ = write!(
                line,
                " m{} {} {:.2}x",
                s.machine,
                s.phase.as_str(),
                s.slowdown
            );
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        phase: TracePhase,
        machine: u64,
        task: u64,
        start: f64,
        dur: f64,
        bytes: u64,
    ) -> TraceEvent {
        TraceEvent {
            phase,
            task,
            machine,
            partition: matches!(phase, TracePhase::Shuffle | TracePhase::Reduce).then_some(task),
            attempt: 0,
            failed: false,
            speculative: false,
            start_us: start,
            dur_us: dur,
            records: 1,
            bytes,
        }
    }

    /// 2 machines: m0 maps 10µs, m1 maps 30µs (bounds); partition 0
    /// transfers 5µs (bounds), partition 1 transfers 2µs; m0 reduces
    /// 8µs (bounds), m1 reduces 1µs. Setup 4µs → makespan 47µs.
    fn toy_trace() -> JobTrace {
        JobTrace {
            name: "toy".into(),
            seq: 0,
            start_us: 0.0,
            overhead_us: 4.0,
            makespan_us: 47.0,
            machines: 2,
            events: vec![
                ev(TracePhase::Map, 0, 0, 4.0, 10.0, 100),
                ev(TracePhase::Map, 1, 1, 4.0, 30.0, 100),
                ev(TracePhase::Shuffle, 0, 0, 34.0, 5.0, 100),
                ev(TracePhase::Shuffle, 1, 1, 34.0, 2.0, 40),
                ev(TracePhase::Reduce, 0, 0, 39.0, 8.0, 100),
                ev(TracePhase::Reduce, 1, 1, 39.0, 1.0, 40),
            ],
        }
    }

    #[test]
    fn critical_path_picks_bounding_chain() {
        let cp = critical_path(&toy_trace());
        assert_eq!(cp.map_machine, 1);
        assert_eq!(cp.shuffle_partition, Some(0));
        assert_eq!(cp.reduce_machine, 0);
        assert!((cp.total_us - 47.0).abs() < 1e-12);
        // path events in schedule order: map on m1, shuffle p0, reduce m0
        let phases: Vec<TracePhase> = cp.tasks.iter().map(|e| e.phase).collect();
        assert_eq!(
            phases,
            vec![TracePhase::Map, TracePhase::Shuffle, TracePhase::Reduce]
        );
    }

    #[test]
    fn critical_path_windows_absorb_scheduling_gaps() {
        // m1's surviving map attempt starts after a backoff gap; the map
        // window must still end exactly where the attempt does
        let trace = JobTrace {
            name: "gappy".into(),
            seq: 0,
            start_us: 0.0,
            overhead_us: 4.0,
            makespan_us: 45.0,
            machines: 2,
            events: vec![
                ev(TracePhase::Map, 0, 0, 4.0, 10.0, 100),
                TraceEvent {
                    failed: true,
                    ..ev(TracePhase::Map, 1, 1, 4.0, 6.0, 0)
                },
                TraceEvent {
                    attempt: 1,
                    ..ev(TracePhase::Map, 1, 1, 20.0, 15.0, 100)
                },
                ev(TracePhase::Shuffle, 0, 0, 35.0, 5.0, 100),
                ev(TracePhase::Reduce, 0, 0, 40.0, 5.0, 100),
            ],
        };
        let cp = critical_path(&trace);
        assert_eq!(cp.map_machine, 1);
        assert!((cp.map_us - 31.0).abs() < 1e-12, "window, not busy sum");
        assert!((cp.total_us - trace.makespan_us).abs() < 1e-12);
    }

    #[test]
    fn skew_reports_max_over_mean() {
        let skew = shuffle_skew(&toy_trace());
        assert_eq!(skew.partitions, 2);
        assert_eq!(skew.total_bytes, 140);
        assert_eq!(skew.max_bytes, 100);
        assert_eq!(skew.max_partition, Some(0));
        assert!((skew.skew - 100.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let trace = JobTrace {
            name: "empty".into(),
            seq: 0,
            start_us: 0.0,
            overhead_us: 0.0,
            makespan_us: 0.0,
            machines: 1,
            events: vec![],
        };
        let cp = critical_path(&trace);
        assert_eq!(cp.total_us, 0.0);
        assert!(cp.tasks.is_empty());
        assert_eq!(cp.shuffle_partition, None);
        let skew = shuffle_skew(&trace);
        assert_eq!(skew.skew, 1.0);
        assert!(stragglers(&trace, 1.5).is_empty());
    }

    #[test]
    fn straggler_flagged_against_peer_mean() {
        let slow = stragglers(&toy_trace(), 1.5);
        // m1's map busy (30) vs peer mean (10) → 3×; m0's reduce (8)
        // vs peer mean (1) → 8×
        assert_eq!(slow.len(), 2);
        assert!(slow.iter().any(|s| s.machine == 1
            && s.phase == TracePhase::Map
            && (s.slowdown - 3.0).abs() < 1e-12));
        assert!(slow
            .iter()
            .any(|s| s.machine == 0 && s.phase == TracePhase::Reduce));
    }

    #[test]
    fn summary_names_the_bottlenecks() {
        let s = summarize(&toy_trace());
        assert!(s.contains("toy#0"), "{s}");
        assert!(s.contains("m1 map"), "{s}");
        assert!(s.contains("m0 reduce"), "{s}");
        assert!(s.contains("partition 0"), "{s}");
        assert!(s.contains("stragglers"), "{s}");
    }
}
