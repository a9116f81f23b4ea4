//! Property tests for the MapReduce engine: for arbitrary inputs, split
//! shapes, cluster sizes and failure rates, a grouping-sum job must
//! produce exactly the per-key sums of a sequential reference
//! implementation — MapReduce semantics are deterministic dataflow, not
//! approximation.

use proptest::prelude::*;
use std::collections::HashMap;
use stratmr_mapreduce::{
    analysis, make_splits, Cluster, CombineJob, CostConfig, Emitter, FaultMix, FaultPlan, Job,
    TaskCtx, TraceSink,
};
use stratmr_telemetry::{Registry, Snapshot};

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

/// Run one plain + one combined job on a telemetry-instrumented cluster
/// and return the host-independent snapshot.
fn instrumented_snapshot(
    records: &[(u8, i64)],
    machines: usize,
    failure_prob: f64,
    seed: u64,
) -> Snapshot {
    let registry = Registry::new();
    let splits = make_splits(records.to_vec(), 4, machines);
    let mut cluster = Cluster::new(machines).with_telemetry(registry.clone());
    if failure_prob > 0.0 {
        cluster = cluster.with_failures(failure_prob);
    }
    cluster.try_run(&SumJob, &splits, seed).unwrap();
    cluster
        .try_run_with_combiner(&SumJobCombined, &splits, seed ^ 0x5A5A)
        .unwrap();
    registry.snapshot().without_host()
}

fn reference(records: &[(u8, i64)]) -> HashMap<u8, i64> {
    let mut out = HashMap::new();
    for &(k, v) in records {
        *out.entry(k).or_insert(0) += v;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sums_match_sequential_reference(
        records in prop::collection::vec((0u8..12, -100i64..100), 0..300),
        machines in 1usize..8,
        splits in 1usize..12,
        reduce_tasks in 1usize..6,
        seed in any::<u64>(),
    ) {
        let cluster = Cluster::new(machines).with_reduce_tasks(reduce_tasks);
        let split_vec = make_splits(records.clone(), splits, machines);
        let plain = cluster.try_run(&SumJob, &split_vec, seed).unwrap();
        let combined = cluster.try_run_with_combiner(&SumJobCombined, &split_vec, seed).unwrap();
        let want = reference(&records);
        let got_plain: HashMap<u8, i64> = plain.results.into_iter().collect();
        let got_combined: HashMap<u8, i64> = combined.results.into_iter().collect();
        prop_assert_eq!(&got_plain, &want);
        prop_assert_eq!(&got_combined, &want);
        // record accounting
        prop_assert_eq!(plain.stats.map_input_records, records.len() as u64);
        prop_assert_eq!(plain.stats.map_output_records, records.len() as u64);
        prop_assert_eq!(got_plain.len() as u64, plain.stats.distinct_keys);
    }

    #[test]
    fn failures_never_change_results(
        records in prop::collection::vec((0u8..6, 0i64..50), 1..120),
        prob in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let splits = make_splits(records.clone(), 4, 2);
        let clean = Cluster::new(2).try_run(&SumJob, &splits, seed).unwrap();
        let flaky = Cluster::new(2)
            .with_failures(prob)
            .try_run(&SumJob, &splits, seed)
            .unwrap();
        let a: HashMap<u8, i64> = clean.results.into_iter().collect();
        let b: HashMap<u8, i64> = flaky.results.into_iter().collect();
        prop_assert_eq!(a, b);
        prop_assert!(flaky.stats.sim.makespan_us >= clean.stats.sim.makespan_us - 1e-6);
    }

    #[test]
    fn telemetry_is_invariant_across_thread_counts(
        records in prop::collection::vec((0u8..10, -50i64..50), 1..150),
        machines in 1usize..6,
        seed in any::<u64>(),
    ) {
        // The engine's dataflow (and its simulated cost model) is defined
        // to be independent of host parallelism, so *every* deterministic
        // telemetry field — counters, sim-time histograms, span call
        // counts — must be identical whether rayon runs on 1 or 4
        // threads. The vendored rayon re-reads RAYON_NUM_THREADS on each
        // call; no other test in this binary sets it.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let single = instrumented_snapshot(&records, machines, 0.0, seed);
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let multi = instrumented_snapshot(&records, machines, 0.0, seed);
        std::env::remove_var("RAYON_NUM_THREADS");
        prop_assert!(
            single.deterministic_eq(&multi),
            "telemetry differs across thread counts:\n--- 1 thread ---\n{}\n--- 4 threads ---\n{}",
            single.render_text(),
            multi.render_text()
        );
    }

    #[test]
    fn failure_injection_only_moves_retry_counters_and_sim_time(
        records in prop::collection::vec((0u8..8, 0i64..40), 1..120),
        seed in any::<u64>(),
    ) {
        // Extends `failures_never_change_results` to the telemetry layer:
        // retries are accounting-only, so a flaky cluster must emit the
        // exact same counters as a clean one except the two retry
        // counters (and the simulated-time histograms, which legitimately
        // stretch under re-execution).
        let clean = instrumented_snapshot(&records, 2, 0.0, seed);
        let flaky = instrumented_snapshot(&records, 2, 0.3, seed);
        let names_a: Vec<&str> = clean.counter_names().collect();
        let names_b: Vec<&str> = flaky.counter_names().collect();
        prop_assert_eq!(&names_a, &names_b);
        for name in names_a {
            if name.ends_with(".task_retries") {
                continue;
            }
            prop_assert_eq!(
                clean.counter(name),
                flaky.counter(name),
                "non-retry counter `{}` changed under failure injection",
                name
            );
        }
        for span in ["mr.job", "mr.job/map", "mr.job/combine", "mr.job/shuffle", "mr.job/reduce"] {
            prop_assert_eq!(
                clean.span_calls(span),
                flaky.span_calls(span),
                "span `{}` call count changed under failure injection",
                span
            );
        }
    }

    #[test]
    fn speculation_and_blacklisting_never_change_output(
        records in prop::collection::vec((0u8..8, -60i64..60), 1..150),
        machines in 1usize..8,
        splits in 1usize..10,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        // the full recovery machinery at once: seeded crashes, slowness
        // and flakiness, plus speculation, blacklisting and backoff —
        // with machine 0 kept healthy so completion is guaranteed, the
        // answer must be bit-identical to the fault-free run
        let split_vec = make_splits(records.clone(), splits, machines);
        let seeded = FaultPlan::seeded(fault_seed, machines, &FaultMix::mixed());
        let mut plan = FaultPlan::new();
        for m in 1..machines {
            let f = seeded.fault(m);
            if let Some(t) = f.crash_at_us {
                plan = plan.crash(m, t);
            }
            plan = plan.slow(m, f.slowdown).flaky(m, f.flaky_prob);
        }
        let clean = Cluster::new(machines).try_run(&SumJob, &split_vec, seed).unwrap();
        let chaotic = Cluster::new(machines)
            .with_fault_plan(plan)
            .with_speculation(1.5)
            .with_blacklist_after(2)
            .with_retry_backoff(250_000.0)
            .try_run(&SumJob, &split_vec, seed);
        let chaotic = match chaotic {
            Ok(out) => out,
            Err(e) => return Err(TestCaseError::fail(format!(
                "job must complete with machine 0 healthy: {e}"
            ))),
        };
        let a: HashMap<u8, i64> = clean.results.into_iter().collect();
        let b: HashMap<u8, i64> = chaotic.results.into_iter().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn slow_and_flaky_faults_never_shorten_the_job(
        records in prop::collection::vec((0u8..6, 0i64..40), 1..120),
        machines in 1usize..8,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        // without reassignment (no crash) and without backups (no
        // speculation), home placement is preserved, so slow or flaky
        // nodes can only ever add simulated time
        let mix = FaultMix {
            slow_prob: 0.5,
            flaky_prob: 0.5,
            ..FaultMix::default()
        };
        let plan = FaultPlan::seeded(fault_seed, machines, &mix);
        let splits = make_splits(records, 4, machines);
        let clean = Cluster::new(machines)
            .try_run(&SumJob, &splits, seed)
            .unwrap();
        let faulty = Cluster::new(machines)
            .with_fault_plan(plan)
            .try_run(&SumJob, &splits, seed)
            .unwrap();
        prop_assert!(
            faulty.stats.sim.makespan_us >= clean.stats.sim.makespan_us - 1e-6,
            "faults shortened the job: {} < {}",
            faulty.stats.sim.makespan_us,
            clean.stats.sim.makespan_us
        );
    }

    #[test]
    fn critical_path_sums_to_makespan_under_faults(
        records in prop::collection::vec((0u8..8, 0i64..40), 1..120),
        machines in 1usize..6,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        // the trace *is* the schedule even under recovery: the phase
        // windows reconstructed from events must sum to the scheduler's
        // makespan to FP rounding, with backoff gaps, re-executions and
        // overlapping speculative backups all in play
        let mix = FaultMix {
            slow_prob: 0.4,
            flaky_prob: 0.4,
            ..FaultMix::default()
        };
        let plan = FaultPlan::seeded(fault_seed, machines, &mix);
        let sink = TraceSink::new();
        let splits = make_splits(records, 4, machines);
        let out = Cluster::new(machines)
            .with_trace(sink.clone())
            .with_fault_plan(plan)
            .with_speculation(1.5)
            .with_retry_backoff(125_000.0)
            .try_run_with_combiner(&SumJobCombined, &splits, seed)
            .unwrap();
        let jobs = sink.jobs();
        let cp = analysis::critical_path(&jobs[0]);
        let makespan = out.stats.sim.makespan_us;
        prop_assert!(
            (cp.total_us - makespan).abs() <= 1e-6 * makespan.max(1.0),
            "critical path {} != makespan {}",
            cp.total_us,
            makespan
        );
        prop_assert!((jobs[0].makespan_us - makespan).abs() < 1e-9);
    }

    #[test]
    fn makespan_is_monotone_in_overheads(
        records in prop::collection::vec((0u8..4, 0i64..10), 1..100),
        seed in any::<u64>(),
    ) {
        let splits = make_splits(records, 3, 3);
        let cheap = Cluster::new(3).with_costs(CostConfig {
            task_overhead_us: 0.0,
            job_overhead_us: 0.0,
            ..CostConfig::default()
        });
        let costly = Cluster::new(3).with_costs(CostConfig::default());
        let a = cheap.try_run(&SumJob, &splits, seed).unwrap();
        let b = costly.try_run(&SumJob, &splits, seed).unwrap();
        prop_assert!(b.stats.sim.makespan_us > a.stats.sim.makespan_us);
    }
}
