//! Per-task trace events for the simulated cluster.
//!
//! A [`TraceSink`] collects one [`JobTrace`] per executed MapReduce job:
//! the job's name, its per-task [`TraceEvent`]s (map, combine,
//! shuffle-transfer and reduce tasks, including failed attempts under
//! failure injection) with *simulated* start times and durations in
//! microseconds, and the job's makespan. Because task start times are
//! derived from the deterministic serial-per-machine scheduling model,
//! the trace **is** the schedule — summing durations along the bounding
//! chain reproduces the makespan, and downstream analysis (critical
//! path, skew, stragglers) needs no extra bookkeeping.
//!
//! # Determinism contract
//!
//! Events are assembled by the cluster's driver thread in the serial
//! accounting sections — the parallel map/reduce workers never touch the
//! sink — and are batch-appended once per job, so the collected stream
//! is independent of host thread interleaving. Within a job, events are
//! sorted by `(phase, machine, task, attempt)`; jobs are ordered by
//! execution. Event *durations* are simulated times, which the cluster
//! charges from record and byte counts only, so they are pure functions
//! of the job seed and the Chrome-trace export is byte-reproducible.
//!
//! # Viewing a trace
//!
//! [`TraceSink::chrome_trace_json`] renders the standard trace-event
//! format: load the file in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`. Each job appears as a process track, each
//! simulated machine as a thread track, with a `driver` row carrying the
//! per-job setup overhead. The clock is simulated microseconds.

use crate::json::{self, Layout, Shortest, Writer};
use std::sync::{Arc, Mutex};

/// The phase a traced task belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TracePhase {
    /// A map task (one per input split).
    Map,
    /// A combiner run inside a map task.
    Combine,
    /// A shuffle transfer (one per reduce partition).
    Shuffle,
    /// A reduce task (one per partition).
    Reduce,
}

impl TracePhase {
    /// Lower-case phase name, as used in exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            TracePhase::Map => "map",
            TracePhase::Combine => "combine",
            TracePhase::Shuffle => "shuffle",
            TracePhase::Reduce => "reduce",
        }
    }
}

/// One scheduled task (or task attempt) of a job.
///
/// `start_us` is relative to the owning job's start; the
/// [`JobTrace::start_us`] offset places the job on the series timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Phase of the task.
    pub phase: TracePhase,
    /// Task id: input-split id (map/combine) or partition id
    /// (shuffle/reduce).
    pub task: u64,
    /// Machine executing the task (shuffle: destination machine).
    pub machine: u64,
    /// Reduce partition, for shuffle and reduce events.
    pub partition: Option<u64>,
    /// Attempt number; retried attempts come first, the successful
    /// attempt is the highest.
    pub attempt: u32,
    /// True for an attempt that did not produce the task's output: a
    /// failed (retried) attempt, an attempt killed by a node crash, or
    /// the losing half of a speculative pair.
    pub failed: bool,
    /// True for a speculative backup attempt (launched against a
    /// straggling primary; first finisher wins).
    pub speculative: bool,
    /// Simulated start, µs since the job started.
    pub start_us: f64,
    /// Simulated duration, µs (already scaled by the machine's slowness
    /// factor).
    pub dur_us: f64,
    /// Records processed (map: input records; combine: pairs consumed;
    /// shuffle: pairs transferred; reduce: values consumed).
    pub records: u64,
    /// Bytes involved (map: bytes scanned; shuffle/reduce: partition
    /// bytes).
    pub bytes: u64,
}

/// The full trace of one executed job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobTrace {
    /// Job name (e.g. `sqe`, `cps/residual#0`); `job` when unnamed.
    pub name: String,
    /// Execution index within the sink (0-based).
    pub seq: u64,
    /// Start offset on the series timeline (jobs run back to back), µs.
    pub start_us: f64,
    /// Per-job setup overhead charged before the first map task, µs.
    pub overhead_us: f64,
    /// Simulated critical-path time of the job, µs (including
    /// `overhead_us`).
    pub makespan_us: f64,
    /// Number of machines in the simulated cluster.
    pub machines: u64,
    /// Events sorted by `(phase, machine, task, attempt)`.
    pub events: Vec<TraceEvent>,
}

impl JobTrace {
    /// Iterate the events of one phase.
    pub fn phase_events(&self, phase: TracePhase) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.phase == phase)
    }
}

/// A shared sink of per-job traces.
///
/// Cloning is cheap; clones share the same store. The cluster appends
/// one fully-assembled [`JobTrace`] per job from its driver thread, so
/// the sink's lock is taken once per job, never inside the parallel
/// sections.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Arc<Mutex<Vec<JobTrace>>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("jobs", &self.len())
            .finish()
    }
}

impl TraceSink {
    /// Create an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one job's trace. The sink assigns the job its sequence
    /// number and its start offset on the series timeline (directly
    /// after the previous job). Returns the sequence number.
    pub fn record_job(
        &self,
        name: &str,
        overhead_us: f64,
        makespan_us: f64,
        machines: u64,
        events: Vec<TraceEvent>,
    ) -> u64 {
        let mut jobs = self.inner.lock().unwrap();
        let seq = jobs.len() as u64;
        let start_us = jobs
            .last()
            .map(|j| j.start_us + j.makespan_us)
            .unwrap_or(0.0);
        jobs.push(JobTrace {
            name: name.to_string(),
            seq,
            start_us,
            overhead_us,
            makespan_us,
            machines,
            events,
        });
        seq
    }

    /// Copy out every recorded job trace, in execution order.
    pub fn jobs(&self) -> Vec<JobTrace> {
        self.inner.lock().unwrap().clone()
    }

    /// Number of recorded jobs.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// True when no job has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Indent unit of the Chrome-trace document: none, so every trace
    /// event is one unindented line.
    pub const JSON_INDENT: &'static str = "";

    /// Render the whole sink in the Chrome trace-event JSON format
    /// (loadable in Perfetto / `chrome://tracing`).
    ///
    /// Layout: one *process* per job (pid = sequence number, named after
    /// the job), one *thread* per simulated machine plus a `driver` row
    /// carrying the job-setup slice; `ts`/`dur` are simulated
    /// microseconds on the series timeline, so the export is
    /// byte-reproducible whenever the event durations are (see the
    /// module docs).
    pub fn chrome_trace_json(&self) -> String {
        json::document(Self::JSON_INDENT, |w| self.write_fields(w))
    }

    /// Write the fields of [`TraceSink::chrome_trace_json`] into the open
    /// object of `w` (a document indented by [`TraceSink::JSON_INDENT`]).
    /// The trace-event format tolerates extra top-level keys, so a
    /// document may lead with its own header and stay Perfetto-loadable.
    pub fn write_fields(&self, w: &mut Writer) {
        let jobs = self.inner.lock().unwrap();
        w.field("displayTimeUnit", "ms");
        w.key("traceEvents").array(Layout::Lines, |w| {
            for job in jobs.iter() {
                write_job_events(w, job);
            }
        });
    }
}

/// The metadata rows, the setup slice and every task slice of one job.
fn write_job_events(w: &mut Writer, job: &JobTrace) {
    let pid = job.seq;
    let name_row = |w: &mut Writer, tid: Option<u64>, what: &str, name: &str| {
        w.object(Layout::Inline, |w| {
            w.field("ph", "M").field("pid", pid);
            if let Some(tid) = tid {
                w.field("tid", tid);
            }
            w.field("name", what)
                .key("args")
                .object(Layout::Inline, |w| {
                    w.field("name", name);
                });
        });
    };
    name_row(w, None, "process_name", &format!("#{pid} {}", job.name));
    for m in 0..job.machines {
        name_row(w, Some(m), "thread_name", &format!("machine {m}"));
    }
    let driver_tid = job.machines;
    name_row(w, Some(driver_tid), "thread_name", "driver");
    w.object(Layout::Inline, |w| {
        w.field("ph", "X")
            .field("pid", pid)
            .field("tid", driver_tid)
            .field("name", "job setup")
            .field("cat", "setup")
            .field("ts", Shortest(job.start_us))
            .field("dur", Shortest(job.overhead_us))
            .key("args")
            .object(Layout::Inline, |_| {});
    });
    for e in &job.events {
        let phase = e.phase.as_str();
        let name = match (e.failed, e.speculative) {
            (true, true) => format!("{phase} {} spec-kill#{}", e.task, e.attempt),
            (true, false) => format!("{phase} {} retry#{}", e.task, e.attempt),
            (false, true) => format!("{phase} {} spec-win#{}", e.task, e.attempt),
            (false, false) => format!("{phase} {}", e.task),
        };
        w.object(Layout::Inline, |w| {
            w.field("ph", "X")
                .field("pid", pid)
                .field("tid", e.machine)
                .field("name", &name)
                .field("cat", phase)
                .field("ts", Shortest(job.start_us + e.start_us))
                .field("dur", Shortest(e.dur_us));
            w.key("args").object(Layout::Inline, |w| {
                w.field("task", e.task)
                    .field("attempt", e.attempt)
                    .field("records", e.records)
                    .field("bytes", e.bytes);
                if let Some(p) = e.partition {
                    w.field("partition", p);
                }
                if e.speculative {
                    w.field("speculative", true);
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(phase: TracePhase, machine: u64, task: u64, start: f64, dur: f64) -> TraceEvent {
        TraceEvent {
            phase,
            task,
            machine,
            partition: None,
            attempt: 0,
            failed: false,
            speculative: false,
            start_us: start,
            dur_us: dur,
            records: 1,
            bytes: 2,
        }
    }

    #[test]
    fn jobs_lay_out_back_to_back() {
        let sink = TraceSink::new();
        assert!(sink.is_empty());
        sink.record_job("a", 5.0, 100.0, 2, vec![]);
        sink.record_job("b", 5.0, 50.0, 2, vec![]);
        let jobs = sink.jobs();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].start_us, 0.0);
        assert_eq!(jobs[1].start_us, 100.0);
        assert_eq!(jobs[1].seq, 1);
    }

    #[test]
    fn chrome_export_contains_metadata_and_slices() {
        let sink = TraceSink::new();
        sink.record_job(
            "wordcount",
            5.0,
            30.0,
            2,
            vec![
                event(TracePhase::Map, 0, 0, 5.0, 10.0),
                event(TracePhase::Reduce, 1, 0, 20.0, 10.0),
            ],
        );
        let json = sink.chrome_trace_json();
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("#0 wordcount"));
        assert!(json.contains("\"machine 1\""));
        assert!(json.contains("\"driver\""));
        assert!(json.contains("\"job setup\""));
        assert!(json.contains("\"map 0\""));
        assert!(json.contains("\"reduce 0\""));
        // second job's slices are offset by the first's makespan
        sink.record_job(
            "second",
            5.0,
            10.0,
            1,
            vec![event(TracePhase::Map, 0, 0, 5.0, 1.0)],
        );
        let json = sink.chrome_trace_json();
        assert!(json.contains("\"ts\": 35"), "offset start missing: {json}");
    }

    #[test]
    fn clones_share_the_store() {
        let sink = TraceSink::new();
        let clone = sink.clone();
        clone.record_job("j", 0.0, 1.0, 1, vec![]);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn header_fields_lead_the_chrome_export() {
        let sink = TraceSink::new();
        sink.record_job("j", 0.0, 1.0, 1, vec![]);
        let json = json::document(TraceSink::JSON_INDENT, |w| {
            w.key("meta").map(Layout::Inline, [("seed", 7u64)]);
            sink.write_fields(w);
        });
        let plain = sink.chrome_trace_json();
        assert_eq!(
            json,
            plain.replacen("{\n", "{\n\"meta\": {\"seed\": 7},\n", 1)
        );
        // an empty sink renders an empty event list
        let empty = TraceSink::new().chrome_trace_json();
        assert!(empty.ends_with("\"traceEvents\": []\n}\n"), "{empty}");
    }

    #[test]
    fn retry_slices_are_labeled() {
        let sink = TraceSink::new();
        let mut e = event(TracePhase::Map, 0, 3, 0.0, 1.0);
        e.failed = true;
        e.attempt = 0;
        sink.record_job("j", 0.0, 1.0, 1, vec![e]);
        assert!(sink.chrome_trace_json().contains("map 3 retry#0"));
    }

    #[test]
    fn speculative_slices_are_labeled() {
        let sink = TraceSink::new();
        let mut win = event(TracePhase::Map, 1, 3, 0.0, 1.0);
        win.speculative = true;
        win.attempt = 1;
        let mut kill = event(TracePhase::Map, 0, 4, 0.0, 1.0);
        kill.speculative = true;
        kill.failed = true;
        sink.record_job("j", 0.0, 1.0, 2, vec![win, kill]);
        let json = sink.chrome_trace_json();
        assert!(json.contains("map 3 spec-win#1"), "{json}");
        assert!(json.contains("map 4 spec-kill#0"), "{json}");
        assert!(json.contains("\"speculative\": true"), "{json}");
    }
}
