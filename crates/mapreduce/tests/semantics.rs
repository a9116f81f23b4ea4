//! Integration tests of MapReduce execution semantics beyond simple
//! sums: combiner invocation contracts, reduce-task placement, and
//! stats/serde behavior.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use stratmr_mapreduce::{
    make_splits, Cluster, CombineJob, CostConfig, Emitter, InputSplit, JobStats, TaskCtx,
};

/// A job that records how often its combiner finishes and verifies the
/// combiner folds all values of one key from one task into one output.
struct CombinerContract {
    combine_calls: AtomicU64,
}

impl CombineJob for &CombinerContract {
    type Input = (u8, u64);
    type Key = u8;
    type MapOut = u64;
    type Acc = (u64, u64);
    type CombOut = (u64, u64); // (sum, count)
    type ReduceOut = (u64, u64);

    fn map(&self, _c: &TaskCtx, r: &(u8, u64), out: &mut Emitter<u8, u64>) {
        out.emit(r.0, r.1);
    }

    fn start(&self, _c: &TaskCtx, _k: &u8) -> (u64, u64) {
        (0, 0)
    }

    fn observe(&self, acc: &mut (u64, u64), value: u64) {
        acc.0 += value;
        acc.1 += 1;
    }

    fn finish(&self, acc: (u64, u64)) -> (u64, u64) {
        self.combine_calls.fetch_add(1, Ordering::Relaxed);
        acc
    }

    fn reduce(&self, _c: &TaskCtx, _k: &u8, values: Vec<(u64, u64)>) -> (u64, u64) {
        values
            .into_iter()
            .fold((0, 0), |(s, c), (s2, c2)| (s + s2, c + c2))
    }
}

#[test]
fn combiner_runs_once_per_task_key_pair() {
    // 2 keys in every one of 3 splits → exactly 6 combiner calls
    let records: Vec<(u8, u64)> = (0..30).map(|i| ((i % 2) as u8, i)).collect();
    let splits: Vec<InputSplit<(u8, u64)>> = make_splits(records.clone(), 3, 2);
    let job = CombinerContract {
        combine_calls: AtomicU64::new(0),
    };
    let out = Cluster::new(2)
        .try_run_with_combiner(&&job, &splits, 5)
        .unwrap();
    assert_eq!(job.combine_calls.load(Ordering::Relaxed), 6);
    let results: HashMap<u8, (u64, u64)> = out.results.into_iter().collect();
    // counts add up to the full input per key
    assert_eq!(results[&0].1 + results[&1].1, 30);
    let want_sum: u64 = (0..30).sum();
    assert_eq!(results[&0].0 + results[&1].0, want_sum);
    assert_eq!(out.stats.combine_output_pairs, 6);
}

#[test]
fn more_reduce_tasks_than_machines_is_fine() {
    let records: Vec<(u8, u64)> = (0..100).map(|i| ((i % 10) as u8, 1)).collect();
    let splits = make_splits(records, 4, 2);
    let job = CombinerContract {
        combine_calls: AtomicU64::new(0),
    };
    let out = Cluster::new(2)
        .with_reduce_tasks(7)
        .try_run_with_combiner(&&job, &splits, 1)
        .unwrap();
    let results: HashMap<u8, (u64, u64)> = out.results.into_iter().collect();
    assert_eq!(results.len(), 10);
    assert!(results
        .values()
        .all(|&(sum, count)| sum == 10 && count == 10));
}

#[test]
fn stats_serialize_to_json() {
    let records: Vec<(u8, u64)> = (0..10).map(|i| (0, i)).collect();
    let splits = make_splits(records, 2, 2);
    let job = CombinerContract {
        combine_calls: AtomicU64::new(0),
    };
    let out = Cluster::new(2)
        .try_run_with_combiner(&&job, &splits, 1)
        .unwrap();
    let json = serde_json::to_string(&out.stats).unwrap();
    let back: JobStats = serde_json::from_str(&json).unwrap();
    assert_eq!(back.map_input_records, out.stats.map_input_records);
    assert_eq!(back.shuffle_bytes, out.stats.shuffle_bytes);
    assert_eq!(back.sim.makespan_us, out.stats.sim.makespan_us);
}

#[test]
fn empty_splits_are_charged_only_overhead() {
    let splits: Vec<InputSplit<(u8, u64)>> = make_splits(vec![], 3, 3);
    let job = CombinerContract {
        combine_calls: AtomicU64::new(0),
    };
    let costs = CostConfig {
        cpu_slowdown: 0.0,
        ..CostConfig::default()
    };
    let out = Cluster::new(3)
        .with_costs(costs)
        .try_run_with_combiner(&&job, &splits, 1)
        .unwrap();
    assert_eq!(job.combine_calls.load(Ordering::Relaxed), 0);
    assert!(out.results.is_empty());
    // map tasks pay startup even when empty, as on Hadoop
    let expected = costs.job_overhead_us + costs.task_overhead_us /* map */
        + costs.task_overhead_us /* reduce */;
    assert!((out.stats.sim.makespan_us - expected).abs() < 1e-6);
}
