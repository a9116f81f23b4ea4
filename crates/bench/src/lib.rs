//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§6).
//!
//! The binaries in `src/bin/`:
//!
//! | binary | output |
//! |---|---|
//! | `bench_suite` | every experiment's report, `BENCH_<experiment>.json` artifact and record |
//! | `bench_compare` | noise-aware diff of two `BENCH_*.json` sets |
//! | `explain` | the MR-CPS plan EXPLAIN and sample-quality audit |
//!
//! `bench_suite <experiment>` runs one entry of [`experiments::ALL`]:
//!
//! | experiment | artifact |
//! |---|---|
//! | `table1_dataset` | Table 1 — attribute distributions |
//! | `table2_cost_ratio` | Table 2 — cost(MR-CPS)/cost(MR-MQE) |
//! | `fig6_sharing` | Figure 6 — sharing-degree histogram |
//! | `fig7_running_times` | Figure 7 — running times vs. slaves |
//! | `fig8_lp_times` | Figure 8 — LP formulation/solve times |
//! | `optimality` | §6.2.2 — residuals and `C_LP ≤ C_IP ≤ C_A` |
//! | `robustness` | running times under injected cluster faults |
//!
//! Scale knobs come from environment variables so the full paper-scale
//! runs and quick smoke runs share one binary:
//!
//! * `STRATMR_POP` — population size (default 100 000)
//! * `STRATMR_RUNS` — repetitions for averaged statistics (default 20)
//! * `STRATMR_SCALES` — comma-separated sample sizes (default `100,1000,10000`)
//! * `STRATMR_MACHINES` — machines holding the data (default 10)
//! * `STRATMR_FAULT_SEED` — seed of the robustness experiment's fault plan
//!
//! Every experiment runs with a [`stratmr_telemetry::Registry`] and a
//! [`stratmr_telemetry::TraceSink`] threaded through the simulated
//! clusters (and from there into the sampling jobs and LP/IP solvers).
//! With exactly one experiment selected, `--telemetry <out.json>`
//! writes the registry's final snapshot — counters, histograms and
//! phase spans — and `--trace <out.json>` writes the per-task trace of
//! every MapReduce job in Chrome trace-event JSON (loadable in
//! Perfetto), printing a per-job critical-path/skew summary; see
//! [`CliArgs`].

#![warn(missing_docs)]

pub mod artifact;
pub mod compare;
pub mod env;
pub mod experiments;
pub mod explain;
pub mod meta;
pub mod report;

pub use artifact::{BenchArtifact, MetricSeries, QualityBlock, QualityStratum, StageTotals};
pub use env::{write_file, BenchConfig, BenchEnv, CliArgs, Runner};
pub use meta::{ArtifactMeta, SCHEMA_VERSION};
pub use report::{fmt_duration_s, Table};
