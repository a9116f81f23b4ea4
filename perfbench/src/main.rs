//! Wall-clock benchmark of survey answering: MR-SQE, MR-MQE and MR-CPS
//! on the in-process MapReduce engine, timed on the host.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sqe|mqe|cps> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up generates a synthetic DBLP population from `--seed` and cuts
//! it into input splits, [`SETUP_REPS`] times; `setup_s` is the median.
//! The workload's query pool is then generated from the same seed, and
//! the pool is answered query after query, in passes, for `--seconds`
//! seconds (after one untimed pass): a closed loop with one client, like
//! an analyst submitting a survey and waiting for its sample. Each
//! query's latency is the 10th percentile of its times over the passes
//! ([`PASS_QUANTILE`]); `latency_p50_ms` and `latency_p80_ms` are the
//! median and 80th percentile of those over the pool (56 or 70 queries,
//! so at least ten lie above the 80th), and `queries_per_s` is the
//! pool's size over their sum. Every answer is
//! checked: each stratum holds exactly `min(f_k, N_k)` distinct
//! individuals matching its formula.
//!
//! The last line of standard output is one JSON object. With `--trace 0`
//! it holds the end-to-end metrics, measured with telemetry off; with
//! `--trace 1` a telemetry registry is attached to the cluster and the
//! line holds the per-layer metrics instead. A line on standard error
//! gives the pool size and the share of the measured time the query
//! thread spent waiting for a CPU.
//!
//! Workloads (all on [`POPULATION`] tuples, [`MACHINES`] machines,
//! [`SPLITS`] splits, round-robin placement, [`SAMPLE_SIZE`] individuals
//! per survey):
//!
//! * `sqe` — single SSD queries with 256 strata each (paper group
//!   *Large*), answered by MR-SQE: one MapReduce job, dominated by the
//!   map scan matching each tuple against many strata; no planning.
//! * `mqe` — six-survey MSSD queries with 64 strata per survey (group
//!   *Medium*), answered by MR-MQE: one job with many more keys, so
//!   combine, shuffle and reduce carry more of the time.
//! * `cps` — the same kind of MSSD queries answered by MR-CPS: the
//!   initial MR-MQE job, the L(σ) counting job, one LP per stratum
//!   selection, the combined sampling job and residual rounds.
//!
//! Which end-to-end metric each layer should move: a faster map scan
//! (`map_ms`, `map_tuples_per_s`) moves latency on every workload, most
//! on `sqe`; combine, shuffle and reduce (`combine_ms`, `shuffle_ms`,
//! `reduce_ms`) move `mqe` and `cps`; the CPS phases (`limits_ms`,
//! `solve_ms`, `lp_solve_ms`, `residual_ms`), the planning left outside
//! the jobs (`plan_ms`) and the number of jobs per query (`mr_jobs`)
//! move only `cps`. Population generation and split building
//! (`popgen_ms`, `splits_ms`) move only `setup_s`, and the in-memory
//! split layout moves `peak_rss_mb`.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stratmr::mapreduce::{Cluster, InputSplit, Registry};
use stratmr::population::dblp::{DblpConfig, DblpGenerator, DBLP_ATTRS};
use stratmr::population::{Dataset, Individual, Placement};
use stratmr::query::{GroupSpec, MssdAnswer, MssdQuery, QueryGenerator, SsdAnswer, SsdQuery};
use stratmr::sampling::{
    to_input_splits, try_mr_cps_on_splits, try_mr_mqe_on_splits, try_mr_sqe_on_splits, CpsConfig,
};

/// Individuals in the synthetic population.
const POPULATION: usize = 50_000;
/// Simulated machines holding the data (the paper's 10 slave nodes).
const MACHINES: usize = 10;
/// MapReduce input splits.
const SPLITS: usize = 40;
/// Individuals each survey asks for (the paper's middle scale).
const SAMPLE_SIZE: usize = 1_000;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Worker threads of the engine's parallel map and reduce phases. One
/// thread keeps timings independent of the host's core count and of
/// other load on its cores: with two workers on a shared two-core host,
/// one seed's median latency moved by ±15% from run to run, with one
/// by ±2%.
const WORKER_THREADS: &str = "1";
/// Quantile of a query's times over the passes that is taken as its
/// latency. On a shared host the speed of one thread drifts by up to 2x
/// within seconds, with no wait for a CPU inside the process, so a low
/// quantile reads each query at the host's fast phases while no single
/// lucky pass sets it. Over six seeds in a slow spell, IQR/median of
/// sqe's latency_p50_ms was 0.48 with the per-query median and 0.15
/// with this quantile.
const PASS_QUANTILE: f64 = 0.1;

#[derive(Clone, Copy)]
enum Workload {
    Sqe,
    Mqe,
    Cps,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "sqe" => Some(Workload::Sqe),
            "mqe" => Some(Workload::Mqe),
            "cps" => Some(Workload::Cps),
            _ => None,
        }
    }

    /// Paper query-group shape of the workload's queries.
    fn group(self) -> GroupSpec {
        match self {
            Workload::Sqe => GroupSpec {
                n_ssds: 1,
                ..GroupSpec::LARGE
            },
            Workload::Mqe | Workload::Cps => GroupSpec::MEDIUM,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: stratmr-perfbench --workload <sqe|mqe|cps> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64 finaliser: derives independent seeds from the run seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The population, as generated and as the MapReduce input splits.
struct Population {
    data: Dataset,
    splits: Vec<InputSplit<Individual>>,
}

/// Wall time of each set-up step, in seconds.
struct SetupTimes {
    popgen: f64,
    splits: f64,
}

fn set_up(seed: u64) -> (Population, SetupTimes) {
    let t0 = Instant::now();
    let data = DblpGenerator::new(DblpConfig::default()).generate(POPULATION, mix(seed, 1));
    let t1 = Instant::now();
    let splits = to_input_splits(&data.distribute(MACHINES, SPLITS, Placement::RoundRobin));
    let t2 = Instant::now();
    let times = SetupTimes {
        popgen: (t1 - t0).as_secs_f64(),
        splits: (t2 - t1).as_secs_f64(),
    };
    (Population { data, splits }, times)
}

/// One query per set of `mc` stratification attributes, over every such
/// set of the schema: the seed moves subrange boundaries, frequencies
/// and penalties, but every run covers the same attribute combinations,
/// the property that changes a query's cost the most. An `sqe` query is
/// a group of one survey.
fn query_pool(workload: Workload, data: &Dataset, seed: u64) -> Vec<MssdQuery> {
    let spec = workload.group();
    (0u32..1 << DBLP_ATTRS.len())
        .filter(|mask| mask.count_ones() as usize == spec.mc)
        .zip(0u64..)
        .map(|(mask, g)| {
            let attrs: Vec<&str> = (0..DBLP_ATTRS.len())
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| DBLP_ATTRS[i])
                .collect();
            QueryGenerator::new(DblpGenerator::schema())
                .with_attributes(&attrs)
                .generate_paper_group_on(&spec, SAMPLE_SIZE, data.tuples(), mix(seed, 100 + g))
        })
        .collect()
}

/// Exactly `min(f_k, N_k)` distinct individuals per stratum, each
/// matching its stratum's formula. `N_k` is counted only for strata
/// that came back short.
fn ssd_ok(q: &SsdQuery, answer: &SsdAnswer, data: &Dataset) -> bool {
    let mut ids = HashSet::new();
    answer.num_strata() == q.len()
        && q.constraints().iter().enumerate().all(|(k, c)| {
            let got = answer.stratum(k);
            let want = if got.len() < c.frequency {
                data.tuples().iter().filter(|t| c.matches(t)).count()
            } else {
                c.frequency
            };
            got.len() == want && got.iter().all(|t| c.matches(t) && ids.insert(t.id))
        })
}

fn mssd_ok(q: &MssdQuery, answer: &MssdAnswer, data: &Dataset) -> bool {
    answer.len() == q.len()
        && q.queries()
            .iter()
            .zip(answer.answers())
            .all(|(q, a)| ssd_ok(q, a, data))
}

/// Outcome of one query.
enum Outcome {
    Correct,
    Wrong,
    Failed,
}

/// Answer one query with the workload's algorithm; only the call into
/// the sampling layer is timed.
fn answer(
    cluster: &Cluster,
    pop: &Population,
    workload: Workload,
    q: &MssdQuery,
    seed: u64,
) -> (Duration, Outcome) {
    let start = Instant::now();
    // Ok(whether the answer is correct), or Err for a query that failed
    let (took, checked) = match workload {
        Workload::Sqe => {
            let q = &q.queries()[0];
            let run = try_mr_sqe_on_splits(cluster, &pop.splits, q, seed);
            let took = start.elapsed();
            (
                took,
                run.map(|r| ssd_ok(q, &r.answer, &pop.data)).map_err(drop),
            )
        }
        Workload::Mqe | Workload::Cps => {
            let run = match workload {
                Workload::Cps => {
                    try_mr_cps_on_splits(cluster, &pop.splits, q, CpsConfig::mr_cps(), seed)
                        .map(|r| r.answer)
                        .map_err(drop)
                }
                _ => try_mr_mqe_on_splits(cluster, &pop.splits, q.queries(), None, seed)
                    .map(|r| r.answer)
                    .map_err(drop),
            };
            let took = start.elapsed();
            (took, run.map(|a| mssd_ok(q, &a, &pop.data)))
        }
    };
    let outcome = match checked {
        Ok(true) => Outcome::Correct,
        Ok(false) => Outcome::Wrong,
        Err(()) => Outcome::Failed,
    };
    (took, outcome)
}

/// Latencies and outcomes of the measured loop.
#[derive(Default)]
struct Loop {
    /// Latency of each query in ms, per pass over the pool.
    passes: Vec<Vec<f64>>,
    wrong: u64,
    failed: u64,
}

impl Loop {
    fn attempted(&self) -> usize {
        self.passes.iter().map(Vec::len).sum()
    }

    /// Each query's latency, its [`PASS_QUANTILE`] over the passes, in
    /// pool order. Every pass answers the same queries, so passes differ
    /// only by the host's speed at the time.
    fn query_latencies(&self) -> Vec<f64> {
        (0..self.passes[0].len())
            .map(|q| {
                let over_passes: Vec<f64> = self.passes.iter().map(|p| p[q]).collect();
                quantile(&over_passes, PASS_QUANTILE)
            })
            .collect()
    }
}

/// Answer every query of the pool in turn, pass after pass, until
/// `budget` has elapsed at the end of a pass (at least one pass).
fn run_loop(
    cluster: &Cluster,
    pop: &Population,
    workload: Workload,
    pool: &[MssdQuery],
    seed: u64,
    budget: Duration,
) -> Loop {
    let mut out = Loop::default();
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let mut pass = Vec::with_capacity(pool.len());
        for query in pool {
            let (took, outcome) = answer(cluster, pop, workload, query, mix(seed, i));
            pass.push(took.as_secs_f64() * 1e3);
            match outcome {
                Outcome::Correct => {}
                Outcome::Wrong => out.wrong += 1,
                Outcome::Failed => out.failed += 1,
            }
            i += 1;
        }
        out.passes.push(pass);
        if start.elapsed() >= budget {
            return out;
        }
    }
}

/// Linear-interpolated quantile of `values` (not required sorted).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Nanoseconds this thread has spent runnable but waiting for a CPU,
/// from the scheduler's statistics (`None` where they are not kept).
fn runqueue_wait_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().nth(1)?.parse().ok()
}

/// Accumulated wall seconds per span path, read from the `"host"` block
/// of the telemetry export (the registry has no accessor for them).
fn span_walls(telemetry_json: &str) -> Vec<(String, f64)> {
    let Some(at) = telemetry_json.find("\"span_wall_secs\"") else {
        return Vec::new();
    };
    let rest = &telemetry_json[at..];
    let (Some(open), Some(close)) = (rest.find('{'), rest.find('}')) else {
        return Vec::new();
    };
    rest[open + 1..close]
        .split(',')
        .filter_map(|entry| {
            let (key, value) = entry.rsplit_once(':')?;
            let key = key.trim().trim_matches('"').to_string();
            Some((key, value.trim().parse().ok()?))
        })
        .collect()
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Per-query means of the layers under the sampling call, from the
/// telemetry of `queries` traced queries that took `query_secs` in all.
fn layer_metrics(registry: &Registry, queries: usize, query_secs: f64) -> Vec<Metric> {
    let snap = registry.snapshot();
    let walls = span_walls(&snap.to_json());
    // summed over every span at the path: CPS nests several jobs under
    // its phases
    let wall = |suffix: &str| -> f64 {
        walls
            .iter()
            .filter(|(path, _)| path == suffix || path.ends_with(&format!("/{suffix}")))
            // fold from +0: an empty f64 sum is -0, printed as "-0"
            .fold(0.0, |total, (_, secs)| total + secs)
    };
    let job = wall("mr.job");
    let map = wall("mr.job/map");
    let shuffle = wall("mr.job/shuffle");
    let reduce = wall("mr.job/reduce");
    let solve = wall("cps.run/solve");
    let q = queries as f64;
    let ms = |secs: f64| secs * 1e3 / q;
    let count = |counter: &str| snap.counter(counter) as f64 / q;
    vec![
        // map tasks, including the combiner each runs on its own output
        metric("map_ms", "ms", ms(map)),
        // the combiner's share of map_ms, summed over the map tasks
        metric("combine_ms", "ms", ms(wall("mr.job/combine"))),
        metric("shuffle_ms", "ms", ms(shuffle)),
        metric("reduce_ms", "ms", ms(reduce)),
        // schedule simulation and job bookkeeping
        metric("mr_other_ms", "ms", ms(job - map - shuffle - reduce)),
        // CPS phases, 0 on sqe and mqe: the L(σ) job, formulating and
        // solving the programs (the simplex alone in lp_solve_ms), and
        // the residual rounds with their jobs
        metric("limits_ms", "ms", ms(wall("cps.run/limits"))),
        metric("solve_ms", "ms", ms(solve)),
        metric("lp_solve_ms", "ms", ms(wall("lp.solve"))),
        metric("residual_ms", "ms", ms(wall("cps.run/residual"))),
        // outside the jobs and the programs: SST, deficits, answer assembly
        metric("plan_ms", "ms", ms(query_secs - job - solve)),
        metric(
            "map_tuples_per_s",
            "1/s",
            snap.counter("mr.map.input_records") as f64 / map,
        ),
        metric("mr_jobs", "count", count("mr.jobs")),
        metric("map_input_records", "count", count("mr.map.input_records")),
        metric(
            "combine_output_pairs",
            "count",
            count("mr.combine.output_pairs"),
        ),
        metric("shuffle_bytes", "bytes", count("mr.shuffle.bytes")),
        metric("lp_pivots", "count", count("lp.pivots")),
        metric(
            "residual_selections",
            "count",
            count("cps.residual.selections"),
        ),
    ]
}

fn result_line(correct: bool, attempted: usize, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    // set before any thread exists; the engine reads it on every phase
    std::env::set_var("RAYON_NUM_THREADS", WORKER_THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut pop = None;
    for _ in 0..SETUP_REPS {
        // free the previous copy first: peak memory holds one population
        drop(pop.take());
        let (p, t) = set_up(args.seed);
        pop = Some(p);
        setups.push(t);
    }
    let pop = pop.expect("SETUP_REPS is positive");
    let pool = query_pool(args.workload, &pop.data, args.seed);

    // one untimed pass: the first queries after start-up run slower
    let warm = run_loop(
        &Cluster::new(MACHINES),
        &pop,
        args.workload,
        &pool,
        !args.seed,
        Duration::ZERO,
    );

    let registry = Registry::new();
    let cluster = if args.trace {
        Cluster::new(MACHINES).with_telemetry(registry.clone())
    } else {
        Cluster::new(MACHINES)
    };
    let budget = Duration::from_secs(args.seconds);
    let wait_before = runqueue_wait_ns();
    let run = run_loop(&cluster, &pop, args.workload, &pool, args.seed, budget);
    let waited_ns = runqueue_wait_ns().zip(wait_before).map(|(b, a)| b - a);

    let attempted = run.attempted();
    let latencies = run.query_latencies();
    let query_secs = run.passes.iter().flatten().sum::<f64>() / 1e3;
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let metrics = if args.trace {
        let mut m = vec![
            metric("popgen_ms", "ms", setup_median(|t| t.popgen) * 1e3),
            metric("splits_ms", "ms", setup_median(|t| t.splits) * 1e3),
        ];
        m.extend(layer_metrics(&registry, attempted, query_secs));
        m.push(metric("traced_latency_p50_ms", "ms", median(&latencies)));
        m
    } else {
        let Some(rss) = peak_rss_mb() else {
            eprintln!("peak RSS unavailable: /proc/self/status has no VmHWM");
            return ExitCode::FAILURE;
        };
        vec![
            metric("latency_p50_ms", "ms", median(&latencies)),
            metric("latency_p80_ms", "ms", quantile(&latencies, 0.8)),
            metric(
                "queries_per_s",
                "1/s",
                latencies.len() as f64 * 1e3 / latencies.iter().sum::<f64>(),
            ),
            metric("peak_rss_mb", "MB", rss),
            metric("setup_s", "s", setup_median(|t| t.popgen + t.splits)),
        ]
    };
    let wait_share = waited_ns.map_or("n/a".to_string(), |ns| {
        format!("{:.4}", ns as f64 / 1e9 / query_secs)
    });
    eprintln!(
        "perfbench: population={POPULATION} machines={MACHINES} splits={SPLITS} \
         pool={} (latency quantiles are over this many queries) passes={} \
         queries={attempted} runqueue_wait_share={wait_share} \
         worker_threads={WORKER_THREADS} host_cores={}",
        pool.len(),
        run.passes.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("metric {} is not a finite number", m.name);
        return ExitCode::FAILURE;
    }
    let correct = warm.wrong + warm.failed + run.wrong + run.failed == 0;
    println!("{}", result_line(correct, attempted, run.failed, &metrics));
    ExitCode::SUCCESS
}
