//! The analysis layer's core guarantee: the trace *is* the schedule.
//!
//! Under the barrier scheduling model the makespan is
//! `overhead + max_machine(map) + max_partition(shuffle) +
//!  max_machine(reduce)`, and the critical path reconstructed from
//! trace events must sum to exactly that — including per-machine
//! slowness factors and failure-injection retries. The trace scales
//! each task component individually while the aggregate accounting
//! scales per-machine sums, so the two agree to floating-point rounding
//! (well within the 1e-6 relative bound asserted here).

use proptest::prelude::*;
use stratmr_mapreduce::analysis::{critical_path, shuffle_skew, stragglers, summarize};
use stratmr_mapreduce::{
    make_splits, Cluster, CostConfig, Emitter, FaultPlan, Job, JobTrace, SimTime, TaskCtx,
    TracePhase, TraceSink,
};

struct KeyedSum;

impl Job for KeyedSum {
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
    fn input_bytes(&self, _r: &(u8, i64)) -> u64 {
        1000
    }
    fn pair_bytes(&self, _k: &u8, _v: &i64) -> u64 {
        9
    }
}

fn records(n: u64) -> Vec<(u8, i64)> {
    (0..n).map(|i| ((i % 16) as u8, i as i64)).collect()
}

/// Machine `m` runs `slowness[m]` times slower than nominal, and every
/// task attempt fails independently with probability `p`.
fn fleet(slowness: &[f64], p: f64) -> FaultPlan {
    slowness
        .iter()
        .enumerate()
        .fold(FaultPlan::new(), |plan, (m, &s)| {
            plan.slow(m, s).flaky(m, p)
        })
}

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

#[test]
fn critical_path_sums_to_makespan_with_slowness_and_failures() {
    // heterogeneous fleet with a 2.5× straggler, aggressive failure
    // injection, and the *default* cost model
    let sink = TraceSink::new();
    let cluster = Cluster::new(4)
        .with_fault_plan(fleet(&[1.0, 1.3, 2.5, 0.8], 0.3))
        .with_reduce_tasks(7)
        .with_trace(sink.clone());
    let splits = make_splits(records(500), 11, 4);
    let out = cluster.try_run(&KeyedSum, &splits, 42).unwrap();
    assert!(
        out.stats.map_task_retries + out.stats.reduce_task_retries > 0,
        "test must exercise retries"
    );

    let jobs = sink.jobs();
    let cp = critical_path(&jobs[0]);
    assert!(
        rel_err(cp.total_us, out.stats.sim.makespan_us) < 1e-9,
        "critical path {} != makespan {}",
        cp.total_us,
        out.stats.sim.makespan_us
    );
    // the path's segments are consistent with its own total
    let seg_sum = cp.overhead_us + cp.map_us + cp.shuffle_us + cp.reduce_us;
    assert!(rel_err(seg_sum, cp.total_us) < 1e-12);
    // and the event chain covers the bounding machines only
    assert!(cp
        .tasks
        .iter()
        .filter(|e| e.phase == TracePhase::Map)
        .all(|e| e.machine == cp.map_machine));
}

#[test]
fn straggler_machine_is_detected_and_attributed() {
    let sink = TraceSink::new();
    let cluster = Cluster::new(4)
        .with_fault_plan(FaultPlan::new().slow(3, 3.0))
        .with_trace(sink.clone());
    // 8 equal splits → 2 per machine, so machine 3's 3× slowness is a
    // pure straggler signal
    let splits = make_splits(records(400), 8, 4);
    let out = cluster.try_run(&KeyedSum, &splits, 0).unwrap();
    let job = &sink.jobs()[0];

    let slow = stragglers(job, 1.5);
    assert!(
        slow.iter()
            .any(|s| s.machine == 3 && s.phase == TracePhase::Map && s.slowdown > 2.0),
        "machine 3 must be flagged: {slow:?}"
    );
    let cp = critical_path(job);
    assert_eq!(cp.map_machine, 3, "the straggler bounds the map phase");
    assert!(rel_err(cp.total_us, out.stats.sim.makespan_us) < 1e-9);
}

#[test]
fn skew_report_matches_shuffle_accounting() {
    let sink = TraceSink::new();
    let cluster = Cluster::new(3)
        .with_reduce_tasks(5)
        .with_trace(sink.clone());
    let splits = make_splits(records(300), 6, 3);
    let out = cluster.try_run(&KeyedSum, &splits, 1).unwrap();
    let job = &sink.jobs()[0];
    let skew = shuffle_skew(job);
    assert_eq!(skew.partitions, 5);
    assert_eq!(skew.total_bytes, out.stats.shuffle_bytes);
    assert!(skew.max_bytes <= skew.total_bytes);
    assert!(skew.skew >= 1.0 - 1e-12);
    let cp = critical_path(job);
    assert_eq!(
        cp.shuffle_partition, skew.max_partition,
        "the largest partition bounds the shuffle barrier"
    );
}

#[test]
fn summary_renders_the_schedule() {
    let sink = TraceSink::new();
    let cluster = Cluster::new(3)
        .with_fault_plan(FaultPlan::new().slow(2, 3.0))
        .with_trace(sink.clone())
        .named("demo");
    let splits = make_splits(records(300), 6, 3);
    cluster.try_run(&KeyedSum, &splits, 2).unwrap();
    let job = &sink.jobs()[0];

    let summary = summarize(job);
    assert!(summary.starts_with("demo#0:"), "{summary}");
    assert!(
        summary.contains("m2 map"),
        "straggler attribution: {summary}"
    );
    assert!(summary.contains("stragglers"), "{summary}");
}

#[test]
fn zero_work_job_yields_zero_fractions_and_overhead_only_makespan() {
    // SimTime edge case: an empty job does no work in any phase, so
    // phase_fractions must be all-zero (not NaN) and the makespan must
    // collapse to the configured overheads.
    let costs = CostConfig::zero_overhead();
    let sink = TraceSink::new();
    let cluster = Cluster::new(2).with_costs(costs).with_trace(sink.clone());
    let splits = make_splits(Vec::<(u8, i64)>::new(), 2, 2);
    let out = cluster.try_run(&KeyedSum, &splits, 0).unwrap();
    assert_eq!(out.stats.sim.phase_fractions(), (0.0, 0.0, 0.0));
    assert_eq!(out.stats.sim.total_work_us(), 0.0);
    assert_eq!(out.stats.sim.makespan_us, 0.0);
    let cp = critical_path(&sink.jobs()[0]);
    assert_eq!(cp.total_us, 0.0);

    // with overheads restored, the empty job costs exactly the fixed
    // overheads: job setup + one task overhead per phase barrier chain
    let costs = CostConfig::default();
    let out = Cluster::new(2).try_run(&KeyedSum, &splits, 0).unwrap();
    let expect = costs.job_overhead_us + costs.task_overhead_us + costs.task_overhead_us;
    assert!(
        rel_err(out.stats.sim.makespan_us, expect) < 1e-12,
        "empty-job makespan {} != overheads {}",
        out.stats.sim.makespan_us,
        expect
    );
}

fn arb_costs() -> impl Strategy<Value = CostConfig> {
    (
        (
            0.0f64..0.1, // scan_us_per_byte
            0.0f64..5.0, // map_cpu_us_per_record
            0.0f64..2.0, // combine_cpu_us_per_record
        ),
        (
            0.0f64..0.2, // network_us_per_byte
            0.0f64..5.0, // reduce_cpu_us_per_record
            0.0f64..1e6, // task_overhead_us
            0.0f64..1e7, // job_overhead_us
        ),
    )
        .prop_map(
            |((scan, map, combine), (net, reduce, task_oh, job_oh))| CostConfig {
                scan_us_per_byte: scan,
                map_cpu_us_per_record: map,
                combine_cpu_us_per_record: combine,
                network_us_per_byte: net,
                reduce_cpu_us_per_record: reduce,
                task_overhead_us: task_oh,
                job_overhead_us: job_oh,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn critical_path_equals_makespan_for_random_configs(
        costs in arb_costs(),
        machines in 1usize..7,
        n_splits in 1usize..14,
        reduce_tasks in 1usize..9,
        slowness in prop::collection::vec(0.25f64..4.0, 7),
        failure_prob in prop_oneof![Just(0.0f64), Just(0.2f64), Just(0.5f64)],
        n_records in 0u64..400,
        seed in any::<u64>(),
    ) {
        let sink = TraceSink::new();
        let cluster = Cluster::new(machines)
            .with_costs(costs)
            .with_reduce_tasks(reduce_tasks)
            .with_fault_plan(fleet(&slowness[..machines], failure_prob))
            .with_trace(sink.clone());
        let splits = make_splits(records(n_records), n_splits, machines);
        let out = cluster.try_run(&KeyedSum, &splits, seed).unwrap();

        let jobs = sink.jobs();
        prop_assert_eq!(jobs.len(), 1);
        let cp = critical_path(&jobs[0]);
        prop_assert!(
            rel_err(cp.total_us, out.stats.sim.makespan_us) < 1e-6,
            "critical path {} != makespan {} (machines={}, splits={}, costs={:?})",
            cp.total_us, out.stats.sim.makespan_us, machines, n_splits, costs
        );
    }

    #[test]
    fn makespan_is_bounded_by_total_work(
        machines in 1usize..7,
        n_splits in 1usize..14,
        n_records in 1u64..400,
        seed in any::<u64>(),
    ) {
        // On a uniform fleet with no failures: the makespan can never
        // beat perfect map/combine parallelism, and can never exceed
        // fully serialized work (overhead + every phase's total).
        let costs = CostConfig::default();
        let cluster = Cluster::new(machines);
        let splits = make_splits(records(n_records), n_splits, machines);
        let sim: SimTime = cluster.try_run(&KeyedSum, &splits, seed).unwrap().stats.sim;
        let upper = costs.job_overhead_us + sim.total_work_us();
        let lower = costs.job_overhead_us
            + (sim.map_us + sim.combine_us) / machines as f64;
        prop_assert!(
            sim.makespan_us <= upper + 1e-6,
            "makespan {} exceeds serialized work {}", sim.makespan_us, upper
        );
        prop_assert!(
            sim.makespan_us >= lower - 1e-6,
            "makespan {} beats perfect parallelism {}", sim.makespan_us, lower
        );
        prop_assert!(sim.makespan_us >= costs.job_overhead_us);
        // fractions are a partition of total work
        let (m, c, r) = sim.phase_fractions();
        prop_assert!((m + c + r - 1.0).abs() < 1e-9);
    }
}

/// Regression guard: `JobTrace` jobs recorded back to back keep series
/// offsets consistent with their makespans (the Fig.7-style multi-job
/// timeline Perfetto shows).
#[test]
fn job_series_offsets_accumulate() {
    let sink = TraceSink::new();
    let cluster = Cluster::new(2).with_trace(sink.clone());
    let splits = make_splits(records(100), 4, 2);
    cluster
        .named("first")
        .try_run(&KeyedSum, &splits, 1)
        .unwrap();
    cluster
        .named("second")
        .try_run(&KeyedSum, &splits, 2)
        .unwrap();
    let jobs: Vec<JobTrace> = sink.jobs();
    assert_eq!(jobs.len(), 2);
    assert_eq!(jobs[0].start_us, 0.0);
    assert!((jobs[1].start_us - jobs[0].makespan_us).abs() < 1e-12);
    assert_eq!(jobs[0].name, "first");
    assert_eq!(jobs[1].name, "second");
}
