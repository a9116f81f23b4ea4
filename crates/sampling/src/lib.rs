//! The paper's core contribution: stratified sampling over distributed
//! populations using MapReduce, and cost-optimal multi-survey sampling.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`reservoir`] | Algorithm R, §4.1 |
//! | [`unified`] | Algorithm 1, the unified sampler, §4.2.2 |
//! | [`naive`] | the combiner-less baseline of Figure 1, §4.2.1 |
//! | [`sqe`] | **MR-SQE**, Figure 2, §4.2.2 |
//! | [`mqe`] | **MR-MQE**, §5.1 |
//! | [`sst`] | stratum selections σ and `σ(t)`, §5.2.2 |
//! | [`limits`] | the `L(σ)` counting job, Figure 4 |
//! | [`tally`] | the σ interner: `F(A_i, σ)` in place of Figure 5's SST, `L(σ)` and per-row selection ids |
//! | [`cps`] | **CPS** (Algorithm 2, IP) and **MR-CPS** (LP), §5.2 |
//! | [`stats`] | chi-square / hypergeometric verification helpers |
//!
//! # Answering a single stratified-sampling query
//!
//! ```
//! use stratmr_population::{AttrDef, Dataset, Individual, Placement, Schema};
//! use stratmr_query::{Formula, SsdQuery, StratumConstraint};
//! use stratmr_mapreduce::Cluster;
//! use stratmr_sampling::{to_input_splits, try_mr_sqe_on_splits};
//!
//! let schema = Schema::new(vec![AttrDef::numeric("age", 0, 99)]);
//! let age = schema.attr_id("age").unwrap();
//! let tuples = (0..1000u64)
//!     .map(|i| Individual::new(i, vec![(i % 100) as i64], 100))
//!     .collect();
//! let data = Dataset::new(schema, tuples).distribute(4, 8, Placement::RoundRobin);
//! let splits = to_input_splits(&data);
//!
//! let query = SsdQuery::new(vec![
//!     StratumConstraint::new(Formula::lt(age, 30), 5),
//!     StratumConstraint::new(Formula::ge(age, 30), 10),
//! ]);
//! let run = try_mr_sqe_on_splits(&Cluster::new(4), &splits, &query, 42)?;
//! assert!(run.answer.satisfies(&query));
//! # Ok::<(), stratmr_mapreduce::JobError>(())
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod cps;
pub mod estimate;
pub mod input;
pub mod limits;
pub mod mqe;
pub mod naive;
mod obs;
pub mod percent;
pub mod reservoir;
mod rows;
pub mod sqe;
pub mod srs;
pub mod sst;
pub mod stats;
pub mod stream;
pub mod tally;
pub mod unified;

pub use audit::{summarize_mean, EstimateSummary, QualityReport, StratumTrail, BIAS_GATE_Z};
pub use cps::{
    try_mr_cps_on_splits, CpsConfig, CpsError, CpsRun, CpsSchedule, CpsTimings, PlanExplain,
    SolverKind,
};
pub use estimate::{srs_mean, stratified_mean, stratified_proportion, stratified_total, Estimate};
pub use input::{to_input_splits, wire_bytes};
pub use limits::try_stratum_selection_limits;
pub use mqe::{try_mr_mqe_on_splits, MqeRun};
pub use naive::{naive_sqe_on_splits, NaiveSqeJob, SqeRun};
pub use percent::{
    mr_sqe_percent, resolve_percentages, PercentRun, PercentSsdQuery, PercentStratum,
};
pub use reservoir::{reservoir_sample, Reservoir};
pub use sqe::try_mr_sqe_on_splits;
pub use srs::mr_srs_on_splits;
pub use sst::StratumSelection;
pub use stream::{merge_streams, StreamingSampler};
pub use unified::{unified_sampler, IntermediateSample};
