//! An in-process MapReduce substrate for the SIGMOD'14 stratified-sampling
//! reproduction.
//!
//! The paper's algorithms are designed for Hadoop on a cluster of VMs.
//! This crate provides the same programming model — [`Job`]s and
//! [`CombineJob`]s over [`InputSplit`]s, hash shuffle, one reduce call
//! per key — executed in-process, with a deterministic [`CostConfig`]
//! cost model that simulates multi-machine makespans for the scalability
//! experiments (Figure 7). See DESIGN.md, substitution 1.
//!
//! # Example: counting with a combiner
//!
//! ```
//! use stratmr_mapreduce::{Cluster, CombineJob, Emitter, TaskCtx, make_splits};
//!
//! struct CountEven;
//! impl CombineJob for CountEven {
//!     type Input = i64;
//!     type Key = bool;        // is the number even?
//!     type MapOut = u64;
//!     type Acc = u64;
//!     type CombOut = u64;
//!     type ReduceOut = u64;
//!     fn map(&self, _c: &TaskCtx, r: &i64, out: &mut Emitter<bool, u64>) {
//!         out.emit(r % 2 == 0, 1);
//!     }
//!     fn start(&self, _c: &TaskCtx, _k: &bool) -> u64 { 0 }
//!     fn observe(&self, acc: &mut u64, v: u64) { *acc += v; }
//!     fn finish(&self, acc: u64) -> u64 { acc }
//!     fn reduce(&self, _c: &TaskCtx, _k: &bool, vs: Vec<u64>) -> u64 {
//!         vs.into_iter().sum()
//!     }
//! }
//!
//! let cluster = Cluster::new(4);
//! let splits = make_splits((0..100).collect(), 8, 4);
//! let out = cluster.try_run_with_combiner(&CountEven, &splits, 42).unwrap();
//! let evens = out.results.iter().find(|(k, _)| *k).unwrap().1;
//! assert_eq!(evens, 50);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod chaos;
pub mod cluster;
pub mod cost;
pub mod driver;
pub mod job;
mod sched;
pub mod split;

pub use chaos::{FaultMix, FaultPlan, NodeFault};
pub use cluster::{Cluster, JobError, JobOutput, JobStats};
pub use cost::{CostConfig, SimTime};
pub use driver::JobLog;
pub use job::{CombineJob, Emitter, Job, TaskCtx};
pub use split::{make_splits, InputSplit};
pub use stratmr_telemetry::{JobTrace, Registry, TraceEvent, TracePhase, TraceSink};
