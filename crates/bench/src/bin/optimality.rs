//! **§6.2.2 optimality analysis**: how far is MR-CPS from the optimum?
//! See [`stratmr_bench::experiments::optimality`].
//!
//! ```text
//! cargo run --release -p stratmr-bench --bin optimality -- \
//!     --telemetry optimality_telemetry.json --trace optimality_trace.json \
//!     --explain EXPLAIN_optimality.json
//! ```
//!
//! `--explain` additionally writes the `{meta, plan, quality}` EXPLAIN
//! artifact for the standard MR-CPS plan (see
//! [`stratmr_bench::explain`]).

use stratmr_bench::{experiments, CliArgs};
use stratmr_sampling::CpsConfig;

fn main() {
    let mut cli = CliArgs::parse();
    let env = cli.bench_env();
    let out = experiments::optimality::run(&env, &cli.obs());
    print!("{}", out.text);
    cli.finish_explain(out.name, &env, CpsConfig::paper());
    cli.finish(&out, &env.config);
}
