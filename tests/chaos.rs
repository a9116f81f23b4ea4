//! Deterministic chaos harness for the fault-tolerant scheduler.
//!
//! Sweeps hundreds of seeded fault scenarios — node crashes, persistent
//! slowness, flaky attempts, and everything at once — across 1–16-node
//! clusters, running the paper's samplers (MR-SQE, MR-MQE, MR-CPS)
//! under each plan. The invariant: every job that *completes* produces
//! a bit-identical answer to its fault-free run, because task outputs
//! are computed before the fault plan is replayed (DESIGN.md, "Fault
//! model & recovery"). Jobs that cannot complete must fail with a typed
//! [`JobError`], never a panic and never a silently wrong answer.
//!
//! On any violation the harness dumps the offending run's Chrome trace
//! and telemetry snapshot to `target/chaos-artifacts/` so CI can upload
//! them for post-mortem.
//!
//! `STRATMR_CHAOS_SEEDS` overrides the seeds swept per (machines, mix)
//! cell (default 4 → 256 scenarios; CI's smoke step uses 1 → 64).

use std::collections::HashMap;
use stratmr::mapreduce::{Cluster, FaultMix, FaultPlan, JobError, Registry, TraceSink};
use stratmr::population::{AttrDef, AttrId, Dataset, Placement, Schema};
use stratmr::query::{CostModel, Formula, MssdQuery, SsdQuery, StratumConstraint};
use stratmr::sampling::cps::{try_mr_cps_on_splits, CpsConfig, CpsError};
use stratmr::sampling::mqe::try_mr_mqe_on_splits;
use stratmr::sampling::sqe::try_mr_sqe_on_splits;
use stratmr::sampling::{
    mr_sqe_percent, mr_srs_on_splits, naive_sqe_on_splits, to_input_splits,
    try_stratum_selection_limits, PercentSsdQuery, PercentStratum,
};
use stratmr_mapreduce::InputSplit;
use stratmr_population::Individual;

const POPULATION: usize = 600;
const SPLITS_PER_MACHINE: usize = 2;

fn dataset() -> Dataset {
    let schema = Schema::new(vec![
        AttrDef::numeric("x", 0, 99),
        AttrDef::numeric("y", 0, 9),
    ]);
    let tuples = (0..POPULATION as u64)
        .map(|i| Individual::new(i, vec![(i % 100) as i64, ((i / 7) % 10) as i64], 64))
        .collect();
    Dataset::new(schema, tuples)
}

fn queries() -> Vec<SsdQuery> {
    let x = AttrId(0);
    let y = AttrId(1);
    vec![
        SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x, 50), 8),
            StratumConstraint::new(Formula::ge(x, 50), 12),
        ]),
        SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(y, 5), 6),
            StratumConstraint::new(Formula::ge(y, 5), 9),
        ]),
    ]
}

fn mssd() -> MssdQuery {
    MssdQuery::new(queries(), CostModel::indifferent(vec![3.0, 2.0]))
}

fn splits_for(machines: usize) -> Vec<InputSplit<Individual>> {
    let dist = dataset().distribute(
        machines,
        machines * SPLITS_PER_MACHINE,
        Placement::RoundRobin,
    );
    to_input_splits(&dist)
}

/// One chaos scenario: which cluster, which faults, which knobs.
#[derive(Debug, Clone)]
struct Scenario {
    id: usize,
    machines: usize,
    mix_name: &'static str,
    plan: FaultPlan,
    speculation: bool,
    blacklist: bool,
    backoff: bool,
}

fn scenarios() -> Vec<Scenario> {
    let seeds_per_cell: u64 = std::env::var("STRATMR_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let mixes: [(&'static str, FaultMix); 4] = [
        ("crashes", FaultMix::crashes()),
        ("slowness", FaultMix::slowness()),
        ("flaky", FaultMix::flaky()),
        ("mixed", FaultMix::mixed()),
    ];
    let mut out = Vec::new();
    let mut id = 0usize;
    for machines in 1..=16usize {
        for (mix_name, mix) in &mixes {
            for s in 0..seeds_per_cell {
                let seed = 0xC4A0_0000 ^ (machines as u64) << 16 ^ (id as u64) << 4 ^ s;
                out.push(Scenario {
                    id,
                    machines,
                    mix_name,
                    plan: FaultPlan::seeded(seed, machines, mix),
                    speculation: id % 2 == 0,
                    blacklist: id % 3 == 0,
                    backoff: id % 5 == 0,
                });
                id += 1;
            }
        }
    }
    out
}

fn chaotic_cluster(sc: &Scenario, registry: &Registry, sink: &TraceSink) -> Cluster {
    let mut cluster = Cluster::new(sc.machines)
        .with_fault_plan(sc.plan.clone())
        .with_telemetry(registry.clone())
        .with_trace(sink.clone());
    if sc.speculation {
        cluster = cluster.with_speculation(1.5);
    }
    if sc.blacklist {
        cluster = cluster.with_blacklist_after(4);
    }
    if sc.backoff {
        cluster = cluster.with_retry_backoff(300_000.0);
    }
    cluster
}

/// Dump the run's trace + telemetry for CI to upload, then return the
/// artifact directory for the panic message.
fn dump_artifacts(label: &str, sink: &TraceSink, registry: &Registry) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/chaos-artifacts");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    std::fs::write(
        dir.join(format!("{label}-trace.json")),
        sink.chrome_trace_json(),
    )
    .expect("write trace artifact");
    std::fs::write(
        dir.join(format!("{label}-telemetry.json")),
        registry.snapshot().to_json(),
    )
    .expect("write telemetry artifact");
    dir
}

/// The headline sweep: ≥200 seeded scenarios across 1–16 nodes and all
/// fault mixes; every completing SQE/MQE run must match its fault-free
/// answer bit-for-bit, and every failure must be a typed [`JobError`].
#[test]
fn seeded_sweep_is_bit_identical_or_typed_error() {
    let all = scenarios();
    assert!(
        all.len() >= 200 || std::env::var("STRATMR_CHAOS_SEEDS").is_ok(),
        "sweep shrank below the 200-scenario floor: {}",
        all.len()
    );
    let query = &queries()[0];
    let qs = queries();
    // fault-free baselines, one per machine count (the job seed is
    // fixed, so the baseline is a pure function of the cluster shape)
    let mut sqe_base = HashMap::new();
    let mut mqe_base = HashMap::new();
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut faults_visible = 0usize;
    for sc in &all {
        let job_seed = 0xBEEF ^ sc.id as u64;
        let splits = splits_for(sc.machines);
        let clean_cluster = Cluster::new(sc.machines);
        let sqe_clean = sqe_base.entry((sc.machines, job_seed)).or_insert_with(|| {
            try_mr_sqe_on_splits(&clean_cluster, &splits, query, job_seed)
                .expect("fault-free SQE cannot fail")
        });
        let mqe_clean = mqe_base.entry((sc.machines, job_seed)).or_insert_with(|| {
            try_mr_mqe_on_splits(&clean_cluster, &splits, &qs, None, job_seed)
                .expect("fault-free MQE cannot fail")
        });

        let registry = Registry::new();
        let sink = TraceSink::new();
        let cluster = chaotic_cluster(sc, &registry, &sink);
        let sqe = try_mr_sqe_on_splits(&cluster, &splits, query, job_seed);
        let mqe = try_mr_mqe_on_splits(&cluster, &splits, &qs, None, job_seed);

        for (name, outcome) in [
            ("sqe", sqe.as_ref().map(|r| r.answer == sqe_clean.answer)),
            ("mqe", mqe.as_ref().map(|r| r.answer == mqe_clean.answer)),
        ] {
            match outcome {
                Ok(true) => completed += 1,
                Ok(false) => {
                    let dir =
                        dump_artifacts(&format!("scenario-{}-{name}", sc.id), &sink, &registry);
                    panic!(
                        "scenario #{} ({} machines, {}): {name} answer diverged from \
                         fault-free run; artifacts in {}",
                        sc.id,
                        sc.machines,
                        sc.mix_name,
                        dir.display()
                    );
                }
                Err(e) => {
                    assert!(
                        matches!(
                            e,
                            JobError::RetriesExhausted { .. } | JobError::NoHealthyMachines { .. }
                        ),
                        "scenario #{}: unexpected error {e:?}",
                        sc.id
                    );
                    failed += 1;
                }
            }
        }
        // when faults were injected and the jobs completed, the
        // recovery machinery must be visible in the stats
        if let Ok(run) = &sqe {
            let s = &run.stats;
            if !sc.plan.is_benign()
                && s.map_task_retries
                    + s.reduce_task_retries
                    + s.map_task_reexecutions
                    + s.speculative_attempts
                    + s.nodes_crashed
                    > 0
            {
                faults_visible += 1;
            }
        }
    }
    assert!(completed > 0, "no scenario completed");
    assert!(
        faults_visible > all.len() / 8,
        "faults almost never visible in stats: {faults_visible}/{}",
        all.len()
    );
    // crash-heavy single-node plans must produce *some* typed failures
    // across a full sweep — if not, the error path went untested
    if all.len() >= 200 {
        assert!(failed > 0, "expected at least one impossible scenario");
    }
}

/// MR-CPS under chaos: the full multi-phase pipeline (MQE → limits →
/// solver → combined SQE → residual), on the fused schedule and on the
/// paper's three-job one (whose `L(σ)` comes from the Figure 4 job's side
/// tallies, re-executed tasks included), either completes bit-identically
/// to the fault-free run or fails with a typed error.
#[test]
fn cps_pipeline_survives_chaos_bit_identically() {
    let mssd = mssd();
    let all: Vec<Scenario> = scenarios().into_iter().filter(|s| s.id % 8 == 0).collect();
    for (schedule, config) in [
        ("mr_cps", CpsConfig::mr_cps()),
        ("paper", CpsConfig::paper()),
    ] {
        let mut completed = 0usize;
        for sc in &all {
            let job_seed = 0xCB5 ^ sc.id as u64;
            let splits = splits_for(sc.machines);
            let clean =
                try_mr_cps_on_splits(&Cluster::new(sc.machines), &splits, &mssd, config, job_seed)
                    .expect("fault-free CPS cannot fail");
            let registry = Registry::new();
            let sink = TraceSink::new();
            let cluster = chaotic_cluster(sc, &registry, &sink);
            match try_mr_cps_on_splits(&cluster, &splits, &mssd, config, job_seed) {
                Ok(run) => {
                    if run.answer != clean.answer {
                        let dir =
                            dump_artifacts(&format!("cps-{schedule}-{}", sc.id), &sink, &registry);
                        panic!(
                            "{schedule} scenario #{} ({} machines, {}): CPS answer diverged; \
                             artifacts in {}",
                            sc.id,
                            sc.machines,
                            sc.mix_name,
                            dir.display()
                        );
                    }
                    completed += 1;
                }
                Err(CpsError::Job(e)) => {
                    assert!(matches!(
                        e,
                        JobError::RetriesExhausted { .. } | JobError::NoHealthyMachines { .. }
                    ));
                }
                Err(e) => panic!("{schedule} scenario #{}: planning failed: {e:?}", sc.id),
            }
        }
        assert!(completed > 0, "no {schedule} CPS scenario completed");
    }
}

/// A plan that crashes every node before any work finishes cannot
/// complete — every sampler must surface the typed error.
#[test]
fn impossible_plans_fail_with_typed_errors() {
    let machines = 3usize;
    let splits = splits_for(machines);
    let mut plan = FaultPlan::new();
    for m in 0..machines {
        plan = plan.crash(m, 0.0);
    }
    let cluster = Cluster::new(machines).with_fault_plan(plan);
    let q = &queries()[0];
    let qs = queries();
    assert!(matches!(
        try_mr_sqe_on_splits(&cluster, &splits, q, 1),
        Err(JobError::NoHealthyMachines { phase: "map", .. })
    ));
    assert!(matches!(
        try_mr_mqe_on_splits(&cluster, &splits, &qs, None, 1),
        Err(JobError::NoHealthyMachines { .. })
    ));
    assert!(matches!(
        try_mr_cps_on_splits(&cluster, &splits, &mssd(), CpsConfig::mr_cps(), 1),
        Err(CpsError::Job(JobError::NoHealthyMachines { .. }))
    ));
    let percent = PercentSsdQuery::new(vec![PercentStratum {
        formula: Formula::lt(AttrId(0), 50),
        percent: 10.0,
    }]);
    let errors = [
        naive_sqe_on_splits(&cluster, &splits, q, 1).err(),
        mr_srs_on_splits(&cluster, &splits, 5, 1).err(),
        mr_sqe_percent(&cluster, &splits, &percent, 1).err(),
        try_stratum_selection_limits(&cluster, &splits, &qs, None, 1).err(),
    ];
    for (i, e) in errors.into_iter().enumerate() {
        assert!(
            matches!(e, Some(JobError::NoHealthyMachines { .. })),
            "sampler {i}: {e:?}"
        );
    }
}

/// Retry budgets surface exhaustion instead of looping: with every
/// attempt failing, the sampler reports `RetriesExhausted` after the
/// configured number of attempts.
#[test]
fn retry_budget_exhaustion_is_typed_and_bounded() {
    let machines = 2usize;
    let splits = splits_for(machines);
    let always_failing = FaultPlan::new().flaky(0, 1.0).flaky(1, 1.0);
    let cluster = Cluster::new(machines)
        .with_fault_plan(always_failing)
        .with_retry_budget(3);
    let q = &queries()[0];
    match try_mr_sqe_on_splits(&cluster, &splits, q, 7) {
        Err(JobError::RetriesExhausted {
            phase, attempts, ..
        }) => {
            assert_eq!(phase, "map");
            assert_eq!(attempts, 3);
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// Chaos must be visible in the timeline: a crash-recovery run records
/// failed attempts in the Chrome trace and recovery counters in
/// telemetry.
#[test]
fn recovery_shows_up_in_trace_and_counters() {
    let machines = 4usize;
    let splits = splits_for(machines);
    let plan = FaultPlan::new().crash(0, 6_500_000.0).slow(3, 6.0);
    let registry = Registry::new();
    let sink = TraceSink::new();
    let cluster = Cluster::new(machines)
        .with_fault_plan(plan)
        .with_speculation(2.0)
        .with_telemetry(registry.clone())
        .with_trace(sink.clone());
    let q = &queries()[0];
    let clean = try_mr_sqe_on_splits(&Cluster::new(machines), &splits, q, 5).unwrap();
    let run = try_mr_sqe_on_splits(&cluster, &splits, q, 5).unwrap();
    assert_eq!(run.answer, clean.answer);
    assert!(run.stats.nodes_crashed >= 1);
    assert!(run.stats.map_task_reexecutions > 0, "{:?}", run.stats);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("mr.nodes.crashed"), run.stats.nodes_crashed);
    assert_eq!(
        snap.counter("mr.map.task_reexecutions"),
        run.stats.map_task_reexecutions
    );
    let chrome = sink.chrome_trace_json();
    assert!(
        chrome.contains("retry#"),
        "failed attempts missing from the Chrome trace"
    );
    if run.stats.speculative_attempts > 0 {
        assert!(chrome.contains("\"speculative\": true"));
    }
}
