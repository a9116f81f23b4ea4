//! **Table 2**: survey cost of MR-CPS as a percentage of MR-MQE's.
//! See [`stratmr_bench::experiments::table2`].
//!
//! ```text
//! cargo run --release -p stratmr-bench --bin table2_cost_ratio -- \
//!     [--uniform] [--telemetry t2_telemetry.json] [--trace t2_trace.json] \
//!     [--explain EXPLAIN_table2_cost_ratio.json]
//! ```
//! `--uniform` reruns on the §6.2.1 uniform synthetic dataset;
//! `--explain` writes the `{meta, plan, quality}` EXPLAIN artifact for
//! the standard MR-CPS plan (see [`stratmr_bench::explain`]).

use stratmr_bench::{experiments, CliArgs};
use stratmr_sampling::CpsConfig;

fn main() {
    let mut cli = CliArgs::parse();
    let env = cli.bench_env();
    let out = experiments::table2::run(&env, &cli.obs());
    print!("{}", out.text);
    cli.finish_explain(out.name, &env, CpsConfig::paper());
    cli.finish(&out, &env.config);
}
