//! # stratmr — Stratified Sampling over Social Networks Using MapReduce
//!
//! A from-scratch Rust reproduction of Levin & Kanza, SIGMOD 2014.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`population`] — schema/tuple model, Table 1 synthetic DBLP generator,
//!   Dagum/Burr/Power-Function distributions, distributed storage.
//! * [`query`] — propositional formulas, stratum constraints, SSD and MSSD
//!   queries, the survey cost model and the §6.1.2 query-group generator.
//! * [`mapreduce`] — an in-process MapReduce engine with combiners, hash
//!   shuffle and a simulated multi-node cluster cost model.
//! * [`lp`] — two-phase simplex and branch-and-bound integer programming.
//! * [`sampling`] — the paper's algorithms: Algorithm R, the unified
//!   sampler (Algorithm 1), MR-SQE, MR-MQE, the SST, CPS and MR-CPS.
//!
//! ## Quickstart
//!
//! ```
//! use stratmr::population::dblp::{DblpConfig, DblpGenerator};
//! use stratmr::population::Placement;
//! use stratmr::query::{Formula, SsdQuery, StratumConstraint};
//! use stratmr::mapreduce::Cluster;
//! use stratmr::sampling::{to_input_splits, try_mr_sqe_on_splits};
//!
//! // A population of 10k synthetic DBLP authors on a 10-machine cluster.
//! let gen = DblpGenerator::new(DblpConfig::default());
//! let data = gen.generate(10_000, 42);
//! let schema = data.schema().clone();
//! let splits = to_input_splits(&data.distribute(10, 40, Placement::RoundRobin));
//! let cluster = Cluster::new(10);
//!
//! // Survey 25 prolific and 50 casual authors.
//! let nop = schema.attr_id("nop").unwrap();
//! let query = SsdQuery::new(vec![
//!     StratumConstraint::new(Formula::ge(nop, 100), 25),
//!     StratumConstraint::new(Formula::lt(nop, 100), 50),
//! ]);
//!
//! let answer = try_mr_sqe_on_splits(&cluster, &splits, &query, 7)?.answer;
//! assert_eq!(answer.stratum(0).len(), 25);
//! assert_eq!(answer.stratum(1).len(), 50);
//! # Ok::<(), stratmr::mapreduce::JobError>(())
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use stratmr_lp as lp;
pub use stratmr_mapreduce as mapreduce;
pub use stratmr_population as population;
pub use stratmr_query as query;
pub use stratmr_sampling as sampling;
