//! Cross-check: telemetry counters are derived at the event sites
//! (inside map/shuffle/reduce execution), while `JobStats` is derived
//! in the driver's accounting pass. The two accountings must agree on
//! every job, for every cluster shape, with and without failures.

use stratmr_mapreduce::{make_splits, Cluster, CombineJob, Emitter, Job, JobStats, TaskCtx};
use stratmr_telemetry::Registry;

struct SumJob;

impl Job for SumJob {
    type Input = (u8, i64);
    type Key = u8;
    type MapOut = i64;
    type ReduceOut = i64;
    fn map(&self, _c: &TaskCtx, r: &(u8, i64), out: &mut Emitter<u8, i64>) {
        out.emit(r.0, r.1);
    }
    fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<i64>) -> i64 {
        v.into_iter().sum()
    }
    fn pair_bytes(&self, _k: &u8, _v: &i64) -> u64 {
        9
    }
}

struct SumJobCombined;

impl CombineJob for SumJobCombined {
    type Input = (u8, i64);
    type Key = u8;
    type MapOut = i64;
    type Acc = i64;
    type CombOut = i64;
    type ReduceOut = i64;
    type Side = ();
    fn map(&self, _c: &TaskCtx, r: &(u8, i64), out: &mut Emitter<u8, i64>) {
        out.emit(r.0, r.1);
    }
    fn start(&self, _c: &TaskCtx, _k: &u8) -> i64 {
        0
    }
    fn observe(&self, acc: &mut i64, v: i64) {
        *acc += v;
    }
    fn finish(&self, acc: i64) -> i64 {
        acc
    }
    fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<i64>) -> i64 {
        v.into_iter().sum()
    }
    fn comb_bytes(&self, _k: &u8, _v: &i64) -> u64 {
        9
    }
}

fn records(n: u64) -> Vec<(u8, i64)> {
    (0..n).map(|i| ((i % 13) as u8, (i as i64) - 40)).collect()
}

/// Sum of the JobStats fields the counters must reproduce.
#[derive(Default)]
struct Expected {
    jobs: u64,
    map_input_records: u64,
    map_output_records: u64,
    combine_output_pairs: u64,
    shuffle_bytes: u64,
    reduce_input_values: u64,
    distinct_keys: u64,
    map_tasks: u64,
    reduce_tasks: u64,
    map_task_retries: u64,
    reduce_task_retries: u64,
}

impl Expected {
    fn absorb(&mut self, s: &JobStats) {
        self.jobs += 1;
        self.map_input_records += s.map_input_records;
        self.map_output_records += s.map_output_records;
        self.combine_output_pairs += s.combine_output_pairs;
        self.shuffle_bytes += s.shuffle_bytes;
        self.reduce_input_values += s.reduce_input_values;
        self.distinct_keys += s.distinct_keys;
        self.map_tasks += s.map_tasks;
        self.reduce_tasks += s.reduce_tasks;
        self.map_task_retries += s.map_task_retries;
        self.reduce_task_retries += s.reduce_task_retries;
    }

    fn assert_matches(&self, registry: &Registry) {
        let snap = registry.snapshot();
        let pairs = [
            ("mr.jobs", self.jobs),
            ("mr.map.input_records", self.map_input_records),
            ("mr.map.output_records", self.map_output_records),
            ("mr.combine.output_pairs", self.combine_output_pairs),
            ("mr.shuffle.bytes", self.shuffle_bytes),
            ("mr.reduce.input_values", self.reduce_input_values),
            ("mr.distinct_keys", self.distinct_keys),
            ("mr.map.tasks", self.map_tasks),
            ("mr.reduce.tasks", self.reduce_tasks),
            ("mr.map.task_retries", self.map_task_retries),
            ("mr.reduce.task_retries", self.reduce_task_retries),
        ];
        for (name, want) in pairs {
            assert_eq!(
                snap.counter(name),
                want,
                "counter `{name}` disagrees with JobStats accounting"
            );
        }
    }
}

#[test]
fn counters_agree_with_job_stats_on_every_job() {
    let registry = Registry::new();
    let mut expected = Expected::default();

    for (machines, splits_n, seed) in [(1usize, 1usize, 7u64), (3, 5, 8), (4, 9, 9)] {
        let cluster = Cluster::new(machines).with_telemetry(registry.clone());
        let splits = make_splits(records(200), splits_n, machines);
        let out = cluster.try_run(&SumJob, &splits, seed).unwrap();
        expected.absorb(&out.stats);
        expected.assert_matches(&registry);

        let out = cluster
            .try_run_with_combiner(&SumJobCombined, &splits, seed ^ 0xABCD)
            .unwrap();
        expected.absorb(&out.stats);
        expected.assert_matches(&registry);
    }
}

#[test]
fn retry_counters_agree_under_failures() {
    let registry = Registry::new();
    let mut expected = Expected::default();
    let cluster = Cluster::new(2)
        .with_failures(0.4)
        .with_telemetry(registry.clone());
    let splits = make_splits(records(120), 6, 2);
    for seed in 0..10u64 {
        let out = cluster.try_run(&SumJob, &splits, seed).unwrap();
        expected.absorb(&out.stats);
    }
    assert!(
        expected.map_task_retries + expected.reduce_task_retries > 0,
        "failure injection produced no retries; the cross-check is vacuous"
    );
    expected.assert_matches(&registry);
}

#[test]
fn phase_spans_cover_the_job() {
    let registry = Registry::new();
    let cluster = Cluster::new(2).with_telemetry(registry.clone());
    let splits = make_splits(records(50), 4, 2);
    cluster
        .try_run_with_combiner(&SumJobCombined, &splits, 3)
        .unwrap();
    cluster.try_run(&SumJob, &splits, 4).unwrap();

    let snap = registry.snapshot();
    assert_eq!(snap.span_calls("mr.job"), 2);
    assert_eq!(snap.span_calls("mr.job/map"), 2);
    assert_eq!(snap.span_calls("mr.job/shuffle"), 2);
    assert_eq!(snap.span_calls("mr.job/reduce"), 2);
    // combine is only reported for jobs that actually have a combiner
    assert_eq!(snap.span_calls("mr.job/combine"), 1);
}

#[test]
fn cluster_without_telemetry_emits_nothing() {
    let registry = Registry::new();
    let cluster = Cluster::new(2);
    let splits = make_splits(records(30), 2, 2);
    cluster.try_run(&SumJob, &splits, 1).unwrap();
    assert_eq!(registry.snapshot().counter_names().count(), 0);
    assert!(cluster.telemetry().is_none());
}
