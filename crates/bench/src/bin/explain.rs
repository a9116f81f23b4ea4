//! Plan EXPLAIN for the standard MSSD query group: strata universe,
//! solved programs with binding constraints and pivot/node counts, the
//! sharing graph with per-pair savings, per-survey cost attribution,
//! residual-round breakdown and the optimality gap — plus the
//! sample-quality audit of the same run.
//!
//! ```text
//! cargo run --release -p stratmr-bench --bin explain -- \
//!     [--exact] [--uniform] [--explain EXPLAIN_optimality.json]
//! ```
//!
//! By default the LP relaxation (MR-CPS) is explained; `--exact` runs
//! the exact IP (CPS), whose optimality gap is zero by construction.
//! `--uniform` explains a plan over the §6.2.1 uniform dataset. The
//! text report always prints; `--explain <path>` additionally writes
//! the `{meta, plan, quality}` JSON artifact (see
//! [`stratmr_bench::explain`]).

use stratmr_bench::env::DATA_SEED;
use stratmr_bench::{explain, write_file, ArtifactMeta, CliArgs, Runner};
use stratmr_sampling::{CpsConfig, SolverKind};

fn main() {
    let cli = CliArgs::parse(Runner::Explain);
    let solver = if cli.exact {
        CpsConfig {
            solver: SolverKind::Ip,
            ..CpsConfig::paper()
        }
    } else {
        CpsConfig::paper()
    };
    let env = cli.bench_env();
    let meta = ArtifactMeta::capture("explain", DATA_SEED, &env.config);
    let out = explain::run_explain(&env, solver, &meta);
    print!("{}", out.render_text());
    if let Some(path) = &cli.explain {
        write_file("explain", path, &out.json);
    }
}
