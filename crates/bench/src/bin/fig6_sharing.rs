//! **Figure 6**: sharing degrees under MR-CPS vs. MR-MQE.
//! See [`stratmr_bench::experiments::fig6`].
//!
//! ```text
//! cargo run --release -p stratmr-bench --bin fig6_sharing -- \
//!     --telemetry fig6_telemetry.json --trace fig6_trace.json \
//!     --explain EXPLAIN_fig6_sharing.json
//! ```
//!
//! `--explain` writes the `{meta, plan, quality}` EXPLAIN artifact for
//! the standard MR-CPS plan (see [`stratmr_bench::explain`]).

use stratmr_bench::{experiments, CliArgs};
use stratmr_sampling::CpsConfig;

fn main() {
    let mut cli = CliArgs::parse();
    let env = cli.bench_env();
    let out = experiments::fig6::run(&env, &cli.obs());
    print!("{}", out.text);
    cli.finish_explain(out.name, &env, CpsConfig::paper());
    cli.finish(&out, &env.config);
}
