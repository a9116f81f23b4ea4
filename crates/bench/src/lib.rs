//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§6).
//!
//! The binaries in `src/bin/`:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1_dataset` | Table 1 — attribute distributions |
//! | `table2_cost_ratio` | Table 2 — cost(MR-CPS)/cost(MR-MQE) |
//! | `fig6_sharing` | Figure 6 — sharing-degree histogram |
//! | `fig7_running_times` | Figure 7 — running times vs. slaves |
//! | `fig8_lp_times` | Figure 8 — LP formulation/solve times |
//! | `optimality` | §6.2.2 — residuals and `C_LP ≤ C_IP ≤ C_A` |
//! | `robustness` | running times under injected cluster faults |
//! | `explain` | the MR-CPS plan EXPLAIN and sample-quality audit |
//! | `bench_suite` | every experiment as a `BENCH_<experiment>.json` artifact |
//! | `bench_compare` | noise-aware diff of two `BENCH_*.json` sets |
//!
//! Scale knobs come from environment variables so the full paper-scale
//! runs and quick smoke runs share one binary:
//!
//! * `STRATMR_POP` — population size (default 100 000)
//! * `STRATMR_RUNS` — repetitions for averaged statistics (default 20)
//! * `STRATMR_SCALES` — comma-separated sample sizes (default `100,1000,10000`)
//!
//! Every binary but `bench_suite` and `bench_compare` parses
//! [`CliArgs`] and so accepts `--telemetry <out.json>`: a
//! [`stratmr_telemetry::Registry`] is threaded through the simulated
//! clusters (and from there into the sampling jobs and LP/IP solvers)
//! and its final snapshot — counters, histograms and phase spans — is
//! written to the given path as JSON. `--trace <out.json>` additionally
//! collects a per-task trace of every MapReduce job and writes it in
//! Chrome trace-event JSON (loadable in Perfetto), printing a per-job
//! critical-path/skew summary on exit; see [`CliArgs`] and [`telemetry`].

#![warn(missing_docs)]

pub mod artifact;
pub mod compare;
pub mod env;
pub mod experiments;
pub mod explain;
pub mod meta;
pub mod report;
pub mod telemetry;

pub use artifact::{BenchArtifact, MetricSeries, QualityBlock, QualityStratum, StageTotals};
pub use env::{BenchConfig, BenchEnv, CliArgs};
pub use meta::{ArtifactMeta, SCHEMA_VERSION};
pub use report::{fmt_duration_s, Table};
pub use telemetry::{TelemetrySink, TraceFile};
