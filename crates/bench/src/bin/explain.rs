//! Plan EXPLAIN for the standard MSSD query group: strata universe,
//! solved programs with binding constraints and pivot/node counts, the
//! sharing graph with per-pair savings, per-survey cost attribution,
//! residual-round breakdown and the optimality gap — plus the
//! sample-quality audit of the same run.
//!
//! ```text
//! cargo run --release -p stratmr-bench --bin explain -- \
//!     [--exact] [--explain EXPLAIN_optimality.json]
//! ```
//!
//! By default the LP relaxation (MR-CPS) is explained; `--exact` runs
//! the exact IP (CPS), whose optimality gap is zero by construction.
//! The text report always prints; `--explain <path>` additionally
//! writes the `{meta, plan, quality}` JSON artifact (see
//! [`stratmr_bench::explain`]).

use stratmr_bench::env::DATA_SEED;
use stratmr_bench::{explain, ArtifactMeta, CliArgs};
use stratmr_sampling::{CpsConfig, SolverKind};

fn main() {
    let mut cli = CliArgs::parse();
    let solver = if std::env::args().any(|a| a == "--exact") {
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
    explain::finish(cli.explain.take(), &out);
}
