//! Determinism and completeness of the per-task trace stream.
//!
//! The trace is part of the engine's reproducibility contract: with the
//! measured-CPU term zeroed (`cpu_slowdown = 0.0`), the collected
//! stream — and its Chrome-trace JSON export — must be bit-identical
//! across runs and across host thread counts, and sorted by
//! `(phase, machine, task, attempt)` within each job.
//!
//! Regenerate the golden Chrome-trace export after an intentional
//! format or accounting change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p stratmr-mapreduce --test trace
//! ```

use proptest::prelude::*;
use std::path::PathBuf;
use stratmr_mapreduce::{
    make_splits, Cluster, CombineJob, CostConfig, Emitter, JobTrace, TaskCtx, TracePhase, TraceSink,
};

struct WordLen;

impl CombineJob for WordLen {
    type Input = String;
    type Key = usize;
    type MapOut = u64;
    type Acc = u64;
    type CombOut = u64;
    type ReduceOut = u64;
    fn map(&self, _c: &TaskCtx, r: &String, out: &mut Emitter<usize, u64>) {
        out.emit(r.len(), 1);
    }
    fn start(&self, _c: &TaskCtx, _k: &usize) -> u64 {
        0
    }
    fn observe(&self, acc: &mut u64, v: u64) {
        *acc += v;
    }
    fn finish(&self, acc: u64) -> u64 {
        acc
    }
    fn reduce(&self, _c: &TaskCtx, _k: &usize, v: Vec<u64>) -> u64 {
        v.into_iter().sum()
    }
    fn comb_bytes(&self, _k: &usize, _v: &u64) -> u64 {
        16
    }
}

fn words(n: u64) -> Vec<String> {
    (0..n).map(|i| "x".repeat((i % 7 + 1) as usize)).collect()
}

/// Deterministic cost model: the measured-CPU term is the only
/// host-dependent input to simulated times.
fn pinned_costs() -> CostConfig {
    CostConfig {
        cpu_slowdown: 0.0,
        ..CostConfig::default()
    }
}

fn traced_run(machines: usize, failure_prob: f64, seed: u64) -> Vec<JobTrace> {
    let sink = TraceSink::new();
    let mut cluster = Cluster::new(machines)
        .with_costs(pinned_costs())
        .with_trace(sink.clone())
        .with_job_name("wordlen");
    if failure_prob > 0.0 {
        cluster = cluster.with_failures(failure_prob);
    }
    let splits = make_splits(words(64), 5, machines);
    cluster
        .try_run_with_combiner(&WordLen, &splits, seed)
        .unwrap();
    sink.jobs()
}

#[test]
fn trace_stream_is_sorted_and_complete() {
    let sink = TraceSink::new();
    let cluster = Cluster::new(3)
        .with_costs(pinned_costs())
        .with_failures(0.25)
        .with_trace(sink.clone())
        .with_job_name("wordlen");
    let splits = make_splits(words(64), 5, 3);
    let out = cluster
        .try_run_with_combiner(&WordLen, &splits, 0xDEAD_BEEF)
        .unwrap();

    let jobs = sink.jobs();
    assert_eq!(jobs.len(), 1);
    let job = &jobs[0];
    assert_eq!(job.name, "wordlen");
    assert_eq!(job.machines, 3);
    assert_eq!(job.overhead_us, cluster.costs().job_overhead_us);
    assert!((job.makespan_us - out.stats.sim.makespan_us).abs() < 1e-9);

    // sorted-stream contract
    let keys: Vec<_> = job
        .events
        .iter()
        .map(|e| (e.phase, e.machine, e.task, e.attempt))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "events must be pre-sorted");

    // one successful event per task of every phase
    let succeeded = |p| job.phase_events(p).filter(|e| !e.failed).count() as u64;
    assert_eq!(succeeded(TracePhase::Map), out.stats.map_tasks);
    assert_eq!(succeeded(TracePhase::Combine), out.stats.map_tasks);
    assert_eq!(succeeded(TracePhase::Shuffle), out.stats.reduce_tasks);
    assert_eq!(succeeded(TracePhase::Reduce), out.stats.reduce_tasks);

    // failed attempts mirror the retry counters
    let failed = |p| job.phase_events(p).filter(|e| e.failed).count() as u64;
    assert!(out.stats.map_task_retries + out.stats.reduce_task_retries > 0);
    assert_eq!(failed(TracePhase::Map), out.stats.map_task_retries);
    assert_eq!(failed(TracePhase::Reduce), out.stats.reduce_task_retries);

    // record/byte accounting matches JobStats
    let sum = |p, f: fn(&stratmr_mapreduce::TraceEvent) -> u64| -> u64 {
        job.phase_events(p).filter(|e| !e.failed).map(f).sum()
    };
    assert_eq!(
        sum(TracePhase::Map, |e| e.records),
        out.stats.map_input_records
    );
    assert_eq!(
        sum(TracePhase::Combine, |e| e.records),
        out.stats.map_output_records
    );
    assert_eq!(
        sum(TracePhase::Shuffle, |e| e.bytes),
        out.stats.shuffle_bytes
    );
    assert_eq!(
        sum(TracePhase::Reduce, |e| e.records),
        out.stats.reduce_input_values
    );
}

#[test]
fn chrome_trace_export_is_byte_identical_across_runs() {
    let export = |seed| {
        let sink = TraceSink::new();
        let cluster = Cluster::new(4)
            .with_costs(pinned_costs())
            .with_failures(0.2)
            .with_trace(sink.clone())
            .with_job_name("repro");
        let splits = make_splits(words(128), 9, 4);
        cluster
            .try_run_with_combiner(&WordLen, &splits, seed)
            .unwrap();
        sink.chrome_trace_json()
    };
    assert_eq!(
        export(7),
        export(7),
        "fixed-seed trace export must be byte-identical"
    );
    assert_ne!(export(7), export(8), "the seed must matter");
}

#[test]
fn chrome_trace_export_matches_golden_file() {
    let sink = TraceSink::new();
    let cluster = Cluster::new(3)
        .with_costs(pinned_costs())
        .with_failures(0.25)
        .with_trace(sink.clone())
        .with_job_name("wordlen");
    let splits = make_splits(words(64), 5, 3);
    cluster
        .try_run_with_combiner(&WordLen, &splits, 0xDEAD_BEEF)
        .unwrap();

    let json = sink.chrome_trace_json();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chrome_trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        json, want,
        "Chrome-trace JSON drifted from the golden file; if the change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn trace_is_bit_identical_across_thread_counts(
        machines in 1usize..6,
        failure_prob in prop_oneof![Just(0.0f64), Just(0.3f64)],
        seed in any::<u64>(),
    ) {
        // The trace is assembled from the deterministic schedule, never
        // from worker interleaving, so it must match bit for bit whether
        // rayon runs on 1 or 4 threads. The vendored rayon re-reads
        // RAYON_NUM_THREADS on each call; no other test in this binary
        // sets it.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let single = traced_run(machines, failure_prob, seed);
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let multi = traced_run(machines, failure_prob, seed);
        std::env::remove_var("RAYON_NUM_THREADS");
        prop_assert_eq!(single, multi);
    }
}

/// Counter, span and job names reach the JSON exports verbatim through
/// `Registry::counter`, `Registry::span` and `Cluster::with_job_name`.
/// A control character or a combining accent must still come out as
/// valid JSON that parses back to the same name.
#[test]
fn exports_escape_hostile_names() {
    use serde::{find_field, Value};
    use stratmr_mapreduce::Registry;
    let names = ["a\u{1}b", "e\u{301}"];
    let registry = Registry::new();
    let sink = TraceSink::new();
    for name in names {
        registry.counter(name).inc();
        drop(registry.span(name));
        Cluster::new(2)
            .with_trace(sink.clone())
            .with_job_name(name)
            .try_run_with_combiner(&WordLen, &make_splits(words(8), 2, 2), 1)
            .unwrap();
    }
    let parse = |json: &str| serde_json::from_str::<Value>(json).expect("valid JSON");
    let field = |v: &Value, key: &str| find_field(v.as_object().unwrap(), key).unwrap().clone();
    let snapshot = parse(&registry.snapshot().to_json());
    for section in ["counters", "spans"] {
        let keys: Vec<String> = field(&snapshot, section)
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(keys, names, "{section}");
    }
    let trace = parse(&sink.chrome_trace_json());
    let processes: Vec<String> = field(&trace, "traceEvents")
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| field(e, "name").as_str() == Some("process_name"))
        .map(|e| {
            field(&field(e, "args"), "name")
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(processes, ["#0 a\u{1}b", "#1 e\u{301}"]);
}
