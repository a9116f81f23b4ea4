//! The simulated cluster: executes jobs and accounts their cost.
//!
//! Execution is *real* — every map, combine and reduce function actually
//! runs, in parallel across worker threads when cores allow — while
//! *time* is simulated with the [`CostConfig`] model so scalability
//! experiments are reproducible on any host (see DESIGN.md,
//! substitution 1).
//!
//! Scheduling model (see the `sched` module internals and DESIGN.md,
//! "Fault model & recovery"):
//! * one map task per input split, preferring the split's home machine
//!   (data locality); tasks fall back to the earliest-available healthy
//!   machine when their home node is dead or blacklisted;
//! * intermediate keys are hash-partitioned into `reduce_tasks`
//!   partitions; reduce task `p` homes on machine `p % machines`;
//! * tasks on one machine run serially, machines run in parallel, and
//!   the phases (map+combine → shuffle → reduce) are barriers;
//! * under a [`FaultPlan`] the scheduler replays node crashes (killing
//!   in-flight attempts and re-executing lost map outputs), persistent
//!   slowness, flaky attempts, retry budgets with exponential backoff,
//!   node blacklisting and speculative execution — all deterministic in
//!   the job seed, and none of it able to change job *results*, because
//!   task outputs are computed before the schedule is replayed.
//!
//! Under an empty fault plan the schedule degenerates to the original
//! back-to-back model and the simulated makespan is
//! `job_overhead + max_machine(map work) + max_partition(shuffle) +
//!  max_machine(reduce work)`.

use crate::chaos::FaultPlan;
use crate::cost::{CostConfig, SimTime};
use crate::job::{mix_seed, CombineJob, Emitter, FxBuild, Job, NoCombiner, TaskCtx};
use crate::sched;
use crate::split::InputSplit;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;
use stratmr_telemetry::{Counter, Registry, TraceEvent, TracePhase, TraceSink};

/// Record/byte counters and timings of one executed job.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobStats {
    /// Input records consumed by the map phase.
    pub map_input_records: u64,
    /// Intermediate pairs emitted by the map phase.
    pub map_output_records: u64,
    /// `(key, value)` pairs leaving combiners (one per task×key).
    pub combine_output_pairs: u64,
    /// Bytes crossing the simulated network in the shuffle.
    pub shuffle_bytes: u64,
    /// Bytes of finished map-task side states returned to the caller
    /// ([`CombineJob::side_bytes`]), once per task; not part of the
    /// shuffle.
    pub side_bytes: u64,
    /// Values consumed by the reduce phase.
    pub reduce_input_values: u64,
    /// Number of distinct keys reduced.
    pub distinct_keys: u64,
    /// Map tasks executed (one per input split).
    pub map_tasks: u64,
    /// Reduce tasks executed (one per partition).
    pub reduce_tasks: u64,
    /// Map-task attempts that failed their roll and were retried.
    pub map_task_retries: u64,
    /// Reduce-task attempts that failed their roll and were retried.
    pub reduce_task_retries: u64,
    /// Map tasks re-executed because a node crash lost their outputs.
    pub map_task_reexecutions: u64,
    /// Speculative backup attempts launched (map + reduce).
    pub speculative_attempts: u64,
    /// Speculative backups that finished before their primary.
    pub speculation_wins: u64,
    /// Nodes that crashed during the job.
    pub nodes_crashed: u64,
    /// Nodes blacklisted for repeated attempt failures.
    pub nodes_blacklisted: u64,
    /// Unscaled µs of work that produced no surviving output: failed
    /// attempts, crash-killed attempts, speculative losers and map
    /// executions whose outputs were later lost.
    pub wasted_us: f64,
    /// Simulated time breakdown.
    pub sim: SimTime,
    /// Real wall-clock execution time in seconds (host-dependent;
    /// reported for reference only).
    pub wall_secs: f64,
}

/// Result of a job: per-key outputs, per-task side states and execution
/// statistics.
#[derive(Debug, Clone)]
pub struct JobOutput<K, O, S = ()> {
    /// One `(key, reduce output)` pair per distinct intermediate key,
    /// in deterministic (partition, first-arrival) order.
    pub results: Vec<(K, O)>,
    /// The finished side state of every map task, in split order.
    pub sides: Vec<S>,
    /// Execution statistics.
    pub stats: JobStats,
}

/// The output of a [`CombineJob`] run.
pub type OutputOf<J> =
    JobOutput<<J as CombineJob>::Key, <J as CombineJob>::ReduceOut, <J as CombineJob>::Side>;

/// Why a job could not complete. Returned by [`Cluster::try_run`] and
/// [`Cluster::try_run_with_combiner`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// A task failed more attempts than the retry budget allows
    /// ([`Cluster::with_retry_budget`]; an internal safety valve bounds
    /// even "unbounded" budgets so certainly-failing tasks terminate).
    RetriesExhausted {
        /// `"map"` or `"reduce"`.
        phase: &'static str,
        /// The task that ran out of attempts.
        task: usize,
        /// Failed attempts consumed.
        attempts: u32,
    },
    /// Every machine is dead or blacklisted — the task cannot be placed.
    NoHealthyMachines {
        /// `"map"` or `"reduce"`.
        phase: &'static str,
        /// The unplaceable task.
        task: usize,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::RetriesExhausted {
                phase,
                task,
                attempts,
            } => write!(
                f,
                "{phase} task {task} exhausted its retry budget after {attempts} failed attempts"
            ),
            JobError::NoHealthyMachines { phase, task } => write!(
                f,
                "{phase} task {task} cannot be placed: every machine is dead or blacklisted"
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// A simulated cluster of worker machines.
#[derive(Debug, Clone)]
pub struct Cluster {
    machines: usize,
    reduce_tasks: usize,
    costs: CostConfig,
    /// Node-level faults replayed by the scheduler (empty: healthy).
    fault_plan: FaultPlan,
    /// Max failed attempts per task before `RetriesExhausted`; `None`
    /// is unbounded (up to an internal safety valve).
    retry_budget: Option<u32>,
    /// Base delay before a retry; doubles with each failure.
    retry_backoff_us: f64,
    /// Blacklist a node after this many failed attempts on it.
    blacklist_after: Option<u32>,
    /// Launch speculative backups for successful attempts on machines
    /// at least this slow (effective slowness factor).
    speculation_threshold: Option<f64>,
    /// Optional metrics sink; clones of the cluster share it.
    telemetry: Option<Registry>,
    /// Optional per-task trace sink; clones of the cluster share it.
    trace: Option<TraceSink>,
    /// Name recorded on traced jobs (e.g. `sqe`, `cps/residual#0`).
    job_name: Option<String>,
}

impl Cluster {
    /// A cluster of `machines` identical workers with default costs and
    /// one reduce task per machine.
    pub fn new(machines: usize) -> Self {
        assert!(machines > 0, "cluster needs at least one machine");
        Self {
            machines,
            reduce_tasks: machines,
            costs: CostConfig::default(),
            fault_plan: FaultPlan::new(),
            retry_budget: None,
            retry_backoff_us: 0.0,
            blacklist_after: None,
            speculation_threshold: None,
            telemetry: None,
            trace: None,
            job_name: None,
        }
    }

    /// Override the cost model.
    pub fn with_costs(mut self, costs: CostConfig) -> Self {
        self.costs = costs;
        self
    }

    /// Override the number of reduce tasks.
    pub fn with_reduce_tasks(mut self, reduce_tasks: usize) -> Self {
        assert!(reduce_tasks > 0, "need at least one reduce task");
        self.reduce_tasks = reduce_tasks;
        self
    }

    /// Replay a node-level [`FaultPlan`] (crashes, slowness, flakiness)
    /// during every job run on this cluster. Faults change the schedule,
    /// the simulated times and the counters — never the results: a
    /// failed attempt is retried with the same task seed, exactly as
    /// Hadoop re-runs failed tasks. A node flaky with probability `1.0`
    /// fails every attempt; a task homed there ends in
    /// [`JobError::RetriesExhausted`] once the retry budget (or the
    /// internal safety valve) is consumed, unless blacklisting moves it.
    ///
    /// # Panics
    /// Panics if the plan names a machine the cluster does not have.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        if let Some(m) = plan.last_machine() {
            assert!(
                m < self.machines,
                "fault plan names machine {m}, but the cluster has {} machines",
                self.machines
            );
        }
        self.fault_plan = plan;
        self
    }

    /// Cap the failed attempts any single task may consume; the job
    /// fails with [`JobError::RetriesExhausted`] when a task exceeds it.
    /// Crash-killed and speculative attempts do not consume budget.
    ///
    /// # Panics
    /// Panics if `max_failures` is zero.
    pub fn with_retry_budget(mut self, max_failures: u32) -> Self {
        assert!(max_failures > 0, "retry budget must allow one attempt");
        self.retry_budget = Some(max_failures);
        self
    }

    /// Delay retries with exponential backoff: the `k`-th retry of a
    /// task waits `base_us × 2^(k-1)` simulated µs before restarting.
    ///
    /// # Panics
    /// Panics if `base_us` is negative.
    pub fn with_retry_backoff(mut self, base_us: f64) -> Self {
        assert!(base_us >= 0.0, "backoff must be non-negative");
        self.retry_backoff_us = base_us;
        self
    }

    /// Blacklist a node once `failures` attempts have failed on it; its
    /// pending and future tasks move to healthy machines (Hadoop's
    /// per-job tasktracker blacklist).
    ///
    /// # Panics
    /// Panics if `failures` is zero.
    pub fn with_blacklist_after(mut self, failures: u32) -> Self {
        assert!(failures > 0, "blacklist threshold must be positive");
        self.blacklist_after = Some(failures);
        self
    }

    /// Enable speculative execution: a successful attempt on a machine
    /// whose effective slowness factor is at least `threshold` races a
    /// backup attempt on the earliest-available other machine; the first
    /// finisher wins and the loser is killed.
    ///
    /// # Panics
    /// Panics unless `threshold ≥ 1.0`.
    pub fn with_speculation(mut self, threshold: f64) -> Self {
        assert!(threshold >= 1.0, "speculation threshold must be ≥ 1");
        self.speculation_threshold = Some(threshold);
        self
    }

    /// Attach a telemetry registry. Every job run on this cluster then
    /// emits per-phase spans (`mr.job/{map,combine,shuffle,reduce}`)
    /// and `mr.*` event counters that independently re-derive the
    /// [`JobStats`] accounting (see `tests/telemetry.rs` for the
    /// cross-check). Counters are cumulative across jobs.
    pub fn with_telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// The attached telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Registry> {
        self.telemetry.as_ref()
    }

    /// Attach a per-task trace sink. Every job run on this cluster then
    /// records a [`stratmr_telemetry::JobTrace`]: one [`TraceEvent`]
    /// per map/combine/shuffle-transfer/reduce attempt (including
    /// failed, crash-killed and speculative attempts) with simulated
    /// start times from the scheduler's replay, so the trace *is* the
    /// schedule. Events are assembled on the driver thread and
    /// batch-appended once per job — the parallel sections never touch
    /// the sink.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// The attached trace sink, if any.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// A handle to the same cluster (shared sinks) running jobs under
    /// `name`, overriding any previously set name. Used by drivers that
    /// run several logical jobs on one cluster (e.g. CPS phases).
    pub fn named(&self, name: &str) -> Self {
        let mut named = self.clone();
        named.job_name = Some(name.to_string());
        named
    }

    /// Like [`Cluster::named`], but keeps an already-set name, so an
    /// outer driver's more specific name wins over a library default.
    pub fn named_or(&self, default: &str) -> Self {
        if self.job_name.is_some() {
            self.clone()
        } else {
            self.named(default)
        }
    }

    /// Number of worker machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The active cost model.
    pub fn costs(&self) -> &CostConfig {
        &self.costs
    }

    /// Run a combiner-less job. A job that cannot complete under the
    /// configured fault model returns its [`JobError`].
    pub fn try_run<J: Job>(
        &self,
        job: &J,
        splits: &[InputSplit<J::Input>],
        seed: u64,
    ) -> Result<JobOutput<J::Key, J::ReduceOut>, JobError>
    where
        J::MapOut: Send + Sync,
        J::ReduceOut: Send,
    {
        self.try_run_with_combiner(&NoCombiner(job), splits, seed)
    }

    /// Run a job with a combiner. A job that cannot complete under the
    /// configured fault model returns its [`JobError`].
    pub fn try_run_with_combiner<J: CombineJob>(
        &self,
        job: &J,
        splits: &[InputSplit<J::Input>],
        seed: u64,
    ) -> Result<OutputOf<J>, JobError>
    where
        J::CombOut: Send + Sync,
        J::ReduceOut: Send,
    {
        let start = Instant::now();
        let costs = &self.costs;

        // telemetry handles are resolved once up front so the parallel
        // sections below only touch lock-free atomics
        let tel = self.telemetry.as_ref();
        let job_span = tel.map(|t| t.span("mr.job"));
        let job_path = job_span.as_ref().map(|s| s.path().to_string());
        if let Some(t) = tel {
            t.counter("mr.jobs").inc();
        }
        struct MapCounters {
            tasks: Counter,
            in_records: Counter,
            out_records: Counter,
            comb_pairs: Counter,
        }
        let map_counters = tel.map(|t| MapCounters {
            tasks: t.counter("mr.map.tasks"),
            in_records: t.counter("mr.map.input_records"),
            out_records: t.counter("mr.map.output_records"),
            comb_pairs: t.counter("mr.combine.output_pairs"),
        });

        // ---- map + combine phase: one task per split -------------------
        struct MapTaskOut<K, C, S> {
            machine: usize,
            combined: Vec<(K, C)>,
            side: S,
            in_records: u64,
            out_records: u64,
            scan_bytes: u64,
            side_bytes: u64,
            map_us: f64,
            /// The task's tail: the combiner fold plus the side upload.
            combine_us: f64,
            combine_wall_us: f64,
        }

        let map_span = tel.map(|t| t.span("map"));
        let mut tasks: Vec<MapTaskOut<J::Key, J::CombOut, J::Side>> = splits
            .par_iter()
            .enumerate()
            .map(|(position, split)| {
                let task_seed = mix_seed(seed, split.id as u64);
                let ctx = TaskCtx {
                    job_seed: seed,
                    task_id: split.id,
                    machine: split.home_machine,
                    seed: task_seed,
                };
                // the combiner folds each record's pairs as they are
                // emitted; per-key state is kept in first-emit order, so
                // group seeds (and thus whole runs) are deterministic
                let mut emitter = Emitter::new(J::Side::default());
                let mut index: HashMap<J::Key, usize, FxBuild> = HashMap::default();
                let mut slots: Vec<u32> = vec![u32::MAX; job.key_slots()];
                let mut groups: Vec<(J::Key, J::Acc)> = Vec::new();
                let mut scan_bytes = 0u64;
                let mut out_records = 0u64;
                for (row, record) in split.records.iter().enumerate() {
                    emitter.row = (position, row);
                    scan_bytes += job.input_bytes(record);
                    job.map(&ctx, record, &mut emitter);
                    for (k, v) in emitter.drain() {
                        out_records += 1;
                        let known = if slots.is_empty() {
                            index.get(&k).copied()
                        } else {
                            match slots[job.key_slot(&k)] {
                                u32::MAX => None,
                                g => {
                                    debug_assert!(
                                        groups[g as usize].0 == k,
                                        "two keys share a dense slot"
                                    );
                                    Some(g as usize)
                                }
                            }
                        };
                        let g = match known {
                            Some(g) => g,
                            None => {
                                let g = groups.len();
                                let cctx = TaskCtx {
                                    seed: mix_seed(task_seed, g as u64 + 1),
                                    ..ctx
                                };
                                let acc = job.start(&cctx, &k);
                                if slots.is_empty() {
                                    index.insert(k.clone(), g);
                                } else {
                                    slots[job.key_slot(&k)] = g as u32;
                                }
                                groups.push((k, acc));
                                g
                            }
                        };
                        job.observe(&mut groups[g].1, v);
                    }
                }
                let in_records = split.records.len() as u64;
                let side = emitter.into_side();
                let side_bytes = job.side_bytes(&side);

                let combine_clock = Instant::now();
                let combined: Vec<(J::Key, J::CombOut)> = groups
                    .into_iter()
                    .map(|(k, acc)| (k, job.finish(acc)))
                    .collect();
                let combine_wall_us = combine_clock.elapsed().as_secs_f64() * 1e6;

                let map_us = costs.task_overhead_us
                    + scan_bytes as f64 * costs.scan_us_per_byte
                    + in_records as f64 * costs.map_cpu_us_per_record;
                let fold_us = if job.has_combiner() {
                    out_records as f64 * costs.combine_cpu_us_per_record
                } else {
                    0.0
                };
                let combine_us = fold_us + side_bytes as f64 * costs.network_us_per_byte;
                if let Some(c) = &map_counters {
                    c.tasks.inc();
                    c.in_records.add(in_records);
                    c.out_records.add(out_records);
                    c.comb_pairs.add(combined.len() as u64);
                }
                MapTaskOut {
                    machine: split.home_machine,
                    combined,
                    side,
                    in_records,
                    out_records,
                    scan_bytes,
                    side_bytes,
                    map_us,
                    combine_us,
                    combine_wall_us,
                }
            })
            .collect();
        if let Some(s) = map_span {
            s.close();
        }

        let mut stats = JobStats {
            map_tasks: splits.len() as u64,
            reduce_tasks: self.reduce_tasks as u64,
            ..JobStats::default()
        };
        let mut combine_wall_us = 0.0f64;
        for t in &tasks {
            stats.map_input_records += t.in_records;
            stats.map_output_records += t.out_records;
            stats.combine_output_pairs += t.combined.len() as u64;
            stats.side_bytes += t.side_bytes;
            combine_wall_us += t.combine_wall_us;
        }
        // the combiner's fold runs inside the map loop and is timed with
        // the map; its per-task `finish` calls are reported, aggregated,
        // as a sibling phase of the job's map span
        if let (Some(t), Some(path)) = (tel, &job_path) {
            if job.has_combiner() {
                t.observe_span(&format!("{path}/combine"), combine_wall_us * 1e-6);
            }
        }

        // ---- replay the map schedule (outputs are already computed,
        // so faults can only move time around) ---------------------------
        let knobs = sched::Knobs {
            task_overhead_us: costs.task_overhead_us,
            retry_budget: self.retry_budget,
            retry_backoff_us: self.retry_backoff_us,
            blacklist_after: self.blacklist_after,
            speculation_threshold: self.speculation_threshold,
        };
        let mut machines =
            sched::MachineState::build(self.machines, &self.fault_plan, costs.job_overhead_us);
        let map_sched: Vec<sched::SchedTask> = tasks
            .iter()
            .map(|t| sched::SchedTask {
                body_us: t.map_us,
                tail_us: t.combine_us,
                home: t.machine,
            })
            .collect();
        let mut map_run = sched::PhaseRun::new(
            &knobs,
            &map_sched,
            "map",
            0,
            seed,
            costs.job_overhead_us,
            true,
        );
        map_run
            .drain(&mut machines)
            .map_err(|e| self.job_failed(e))?;

        // ---- shuffle: hash-partition combiner outputs ------------------
        let shuffle_span = tel.map(|t| t.span("shuffle"));
        let shuffle_bytes_counter = tel.map(|t| t.counter("mr.shuffle.bytes"));
        let mut partitions: Vec<Vec<(J::Key, J::CombOut)>> =
            (0..self.reduce_tasks).map(|_| Vec::new()).collect();
        let mut partition_bytes = vec![0u64; self.reduce_tasks];
        for task in &mut tasks {
            for (k, c) in task.combined.drain(..) {
                let p = partition_of(&k, self.reduce_tasks);
                let b = job.comb_bytes(&k, &c);
                partition_bytes[p] += b;
                stats.shuffle_bytes += b;
                if let Some(c) = &shuffle_bytes_counter {
                    c.add(b);
                }
                partitions[p].push((k, c));
            }
        }
        if let Some(s) = shuffle_span {
            s.close();
        }
        stats.sim.shuffle_us = stats.shuffle_bytes as f64 * costs.network_us_per_byte;
        let shuffle_makespan = partition_bytes
            .iter()
            .map(|&b| b as f64 * costs.network_us_per_byte)
            .fold(0.0f64, f64::max);

        // the map phase is a barrier: every shuffle transfer starts once
        // the last map task has finished. Nodes crashing before their
        // outputs cross the network lose them — re-execute the affected
        // map tasks until the barrier is stable.
        loop {
            let horizon = map_run.barrier() + shuffle_makespan;
            if !map_run
                .reexecute_lost(horizon, &mut machines)
                .map_err(|e| self.job_failed(e))?
            {
                break;
            }
        }
        let map_barrier_us = map_run.barrier();

        // ---- map accounting + trace from the scheduled attempts --------
        let map_retry_counter = tel.map(|t| t.counter("mr.map.task_retries"));
        let tracing = self.trace.is_some();
        let mut trace_events: Vec<TraceEvent> = Vec::new();
        stats.map_task_retries = map_run.retries;
        stats.map_task_reexecutions = map_run.reexecutions;
        if let Some(c) = &map_retry_counter {
            c.add(map_run.retries);
        }
        let mut last_success = vec![usize::MAX; tasks.len()];
        for (i, a) in map_run.attempts.iter().enumerate() {
            if a.outcome == sched::Outcome::Success {
                last_success[a.task] = i;
            }
        }
        for (i, a) in map_run.attempts.iter().enumerate() {
            let t = &tasks[a.task];
            if a.outcome == sched::Outcome::Success {
                stats.sim.map_us += t.map_us;
                stats.sim.combine_us += t.combine_us;
                if last_success[a.task] != i {
                    // a crash lost this execution's outputs later
                    stats.wasted_us += t.map_us + t.combine_us;
                }
            } else {
                stats.sim.map_us += a.nominal_us;
                stats.wasted_us += a.nominal_us;
            }
            if tracing {
                let speed = machines[a.machine].speed;
                if a.outcome == sched::Outcome::Success {
                    let body_dur = t.map_us * speed;
                    trace_events.push(TraceEvent {
                        phase: TracePhase::Map,
                        task: a.task as u64,
                        machine: a.machine as u64,
                        partition: None,
                        attempt: a.attempt,
                        failed: false,
                        speculative: a.speculative,
                        start_us: a.start_us,
                        dur_us: body_dur,
                        records: t.in_records,
                        bytes: t.scan_bytes,
                    });
                    if job.has_combiner() {
                        trace_events.push(TraceEvent {
                            phase: TracePhase::Combine,
                            task: a.task as u64,
                            machine: a.machine as u64,
                            partition: None,
                            attempt: a.attempt,
                            failed: false,
                            speculative: a.speculative,
                            start_us: a.start_us + body_dur,
                            // subtract so the combine ends exactly where
                            // the scheduled attempt does
                            dur_us: a.dur_us - body_dur,
                            records: t.out_records,
                            bytes: 0,
                        });
                    }
                } else {
                    trace_events.push(TraceEvent {
                        phase: TracePhase::Map,
                        task: a.task as u64,
                        machine: a.machine as u64,
                        partition: None,
                        attempt: a.attempt,
                        failed: true,
                        speculative: a.speculative,
                        start_us: a.start_us,
                        dur_us: a.dur_us,
                        records: 0,
                        bytes: 0,
                    });
                }
            }
        }
        if tracing {
            for (p, pairs) in partitions.iter().enumerate() {
                trace_events.push(TraceEvent {
                    phase: TracePhase::Shuffle,
                    task: p as u64,
                    machine: (p % self.machines) as u64,
                    partition: Some(p as u64),
                    attempt: 0,
                    failed: false,
                    speculative: false,
                    start_us: map_barrier_us,
                    dur_us: partition_bytes[p] as f64 * costs.network_us_per_byte,
                    records: pairs.len() as u64,
                    bytes: partition_bytes[p],
                });
            }
        }

        // ---- reduce phase: one task per partition ----------------------
        struct ReduceCounters {
            tasks: Counter,
            input_values: Counter,
            distinct_keys: Counter,
        }
        let reduce_counters = tel.map(|t| ReduceCounters {
            tasks: t.counter("mr.reduce.tasks"),
            input_values: t.counter("mr.reduce.input_values"),
            distinct_keys: t.counter("mr.distinct_keys"),
        });
        let reduce_span = tel.map(|t| t.span("reduce"));
        // (machine, per-key outputs, values consumed, simulated µs)
        type ReduceTaskOut<K, O> = (usize, Vec<(K, O)>, u64, f64);
        let reduce_outs: Vec<ReduceTaskOut<J::Key, J::ReduceOut>> = partitions
            .into_par_iter()
            .enumerate()
            .map(|(p, pairs)| {
                let machine = p % self.machines;
                // group by key, preserving arrival order
                let mut index: HashMap<J::Key, usize, FxBuild> = HashMap::default();
                let mut groups: Vec<(J::Key, Vec<J::CombOut>)> = Vec::new();
                let mut n_values = 0u64;
                for (k, c) in pairs {
                    n_values += 1;
                    match index.get(&k) {
                        Some(&g) => groups[g].1.push(c),
                        None => {
                            index.insert(k.clone(), groups.len());
                            groups.push((k, vec![c]));
                        }
                    }
                }
                let base_seed = mix_seed(seed, 0x5ED0_C000_0000_0000 | p as u64);
                let results: Vec<(J::Key, J::ReduceOut)> = groups
                    .into_iter()
                    .enumerate()
                    .map(|(gi, (k, cs))| {
                        let ctx = TaskCtx {
                            job_seed: seed,
                            task_id: p,
                            machine,
                            seed: mix_seed(base_seed, gi as u64),
                        };
                        let o = job.reduce(&ctx, &k, cs);
                        (k, o)
                    })
                    .collect();
                let us = costs.task_overhead_us + n_values as f64 * costs.reduce_cpu_us_per_record;
                if let Some(c) = &reduce_counters {
                    c.tasks.inc();
                    c.input_values.add(n_values);
                    c.distinct_keys.add(results.len() as u64);
                }
                (machine, results, n_values, us)
            })
            .collect();
        if let Some(s) = reduce_span {
            s.close();
        }

        // ---- replay the reduce schedule --------------------------------
        // the shuffle is a barrier too: reduce tasks start once the
        // largest partition has finished transferring. Reduce outputs are
        // durable (HDFS-style), so a later crash never re-runs them.
        let reduce_start = map_barrier_us + shuffle_makespan;
        let reduce_sched: Vec<sched::SchedTask> = reduce_outs
            .iter()
            .map(|(machine, _, _, us)| sched::SchedTask {
                body_us: *us,
                tail_us: 0.0,
                home: *machine,
            })
            .collect();
        let mut reduce_run = sched::PhaseRun::new(
            &knobs,
            &reduce_sched,
            "reduce",
            1,
            seed,
            reduce_start,
            false,
        );
        reduce_run
            .drain(&mut machines)
            .map_err(|e| self.job_failed(e))?;

        let reduce_retry_counter = tel.map(|t| t.counter("mr.reduce.task_retries"));
        stats.reduce_task_retries = reduce_run.retries;
        if let Some(c) = &reduce_retry_counter {
            c.add(reduce_run.retries);
        }
        for a in &reduce_run.attempts {
            let (_, _, n_values, us) = &reduce_outs[a.task];
            if a.outcome == sched::Outcome::Success {
                stats.sim.reduce_us += us;
            } else {
                stats.sim.reduce_us += a.nominal_us;
                stats.wasted_us += a.nominal_us;
            }
            if tracing {
                let failed = a.outcome != sched::Outcome::Success;
                trace_events.push(TraceEvent {
                    phase: TracePhase::Reduce,
                    task: a.task as u64,
                    machine: a.machine as u64,
                    partition: Some(a.task as u64),
                    attempt: a.attempt,
                    failed,
                    speculative: a.speculative,
                    start_us: a.start_us,
                    dur_us: a.dur_us,
                    records: if failed { 0 } else { *n_values },
                    bytes: if failed { 0 } else { partition_bytes[a.task] },
                });
            }
        }

        let sides = tasks.into_iter().map(|t| t.side).collect();
        let mut results = Vec::new();
        for (_, outs, n_values, _) in reduce_outs.into_iter() {
            stats.reduce_input_values += n_values;
            stats.distinct_keys += outs.len() as u64;
            results.extend(outs);
        }

        stats.sim.makespan_us = reduce_run.barrier();
        stats.speculative_attempts = map_run.spec_attempts + reduce_run.spec_attempts;
        stats.speculation_wins = map_run.spec_wins + reduce_run.spec_wins;
        stats.nodes_crashed = machines
            .iter()
            .filter(|s| s.dead || s.crash_at < stats.sim.makespan_us)
            .count() as u64;
        stats.nodes_blacklisted = machines.iter().filter(|s| s.blacklisted).count() as u64;
        stats.wall_secs = start.elapsed().as_secs_f64();

        if let Some(sink) = &self.trace {
            // sorted-stream determinism contract: (phase, machine,
            // task, attempt) — a total order because the key is unique
            // per event
            trace_events.sort_unstable_by_key(|e| (e.phase, e.machine, e.task, e.attempt));
            sink.record_job(
                self.job_name.as_deref().unwrap_or("job"),
                costs.job_overhead_us,
                stats.sim.makespan_us,
                self.machines as u64,
                trace_events,
            );
        }

        // per-job simulated-time distributions (integer µs, so the
        // aggregate is independent of thread interleaving)
        if let Some(t) = tel {
            t.record("mr.sim.map_us", stats.sim.map_us.round() as u64);
            t.record("mr.sim.combine_us", stats.sim.combine_us.round() as u64);
            t.record("mr.sim.shuffle_us", stats.sim.shuffle_us.round() as u64);
            t.record("mr.sim.reduce_us", stats.sim.reduce_us.round() as u64);
            t.record("mr.sim.makespan_us", stats.sim.makespan_us.round() as u64);
            // side and recovery counters exist only when non-zero, so
            // fault-free telemetry snapshots keep their legacy shape
            for (name, v) in [
                ("mr.side.bytes", stats.side_bytes),
                ("mr.map.task_reexecutions", stats.map_task_reexecutions),
                ("mr.spec.attempts", stats.speculative_attempts),
                ("mr.spec.wins", stats.speculation_wins),
                ("mr.nodes.crashed", stats.nodes_crashed),
                ("mr.nodes.blacklisted", stats.nodes_blacklisted),
            ] {
                if v > 0 {
                    t.counter(name).add(v);
                }
            }
        }

        Ok(JobOutput {
            results,
            sides,
            stats,
        })
    }

    /// Count a scheduling failure on the telemetry registry and pass the
    /// error through.
    fn job_failed(&self, e: JobError) -> JobError {
        if let Some(t) = &self.telemetry {
            t.counter("mr.jobs.failed").inc();
            if let JobError::RetriesExhausted { phase, .. } = &e {
                t.counter(&format!("mr.{phase}.retries_exhausted")).inc();
            }
        }
        e
    }
}

/// Deterministic hash partitioner (SipHash with the fixed default keys —
/// stable across runs and threads).
fn partition_of<K: Hash>(key: &K, parts: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % parts as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::make_splits;

    /// Classic word count, no combiner.
    struct WordCount;

    impl Job for WordCount {
        type Input = String;
        type Key = String;
        type MapOut = u64;
        type ReduceOut = u64;

        fn map(&self, _ctx: &TaskCtx, record: &String, out: &mut Emitter<String, u64>) {
            for w in record.split_whitespace() {
                out.emit(w.to_string(), 1);
            }
        }

        fn reduce(&self, _ctx: &TaskCtx, _key: &String, values: Vec<u64>) -> u64 {
            values.into_iter().sum()
        }

        fn pair_bytes(&self, key: &String, _v: &u64) -> u64 {
            key.len() as u64 + 8
        }
    }

    /// Word count with a summing combiner.
    struct WordCountCombined;

    impl CombineJob for WordCountCombined {
        type Input = String;
        type Key = String;
        type MapOut = u64;
        type Acc = u64;
        type CombOut = u64;
        type ReduceOut = u64;
        type Side = ();

        fn map(&self, _ctx: &TaskCtx, record: &String, out: &mut Emitter<String, u64>) {
            for w in record.split_whitespace() {
                out.emit(w.to_string(), 1);
            }
        }

        fn start(&self, _ctx: &TaskCtx, _key: &String) -> u64 {
            0
        }

        fn observe(&self, acc: &mut u64, value: u64) {
            *acc += value;
        }

        fn finish(&self, acc: u64) -> u64 {
            acc
        }

        fn reduce(&self, _ctx: &TaskCtx, _key: &String, values: Vec<u64>) -> u64 {
            values.into_iter().sum()
        }

        fn comb_bytes(&self, key: &String, _v: &u64) -> u64 {
            key.len() as u64 + 8
        }
    }

    fn corpus() -> Vec<String> {
        vec![
            "a b a".to_string(),
            "b c".to_string(),
            "a c c c".to_string(),
            "d".to_string(),
        ]
    }

    fn counts_of(results: &[(String, u64)]) -> HashMap<String, u64> {
        results.iter().cloned().collect()
    }

    #[test]
    fn word_count_without_combiner() {
        let cluster = Cluster::new(3).with_costs(CostConfig::zero_overhead());
        let splits = make_splits(corpus(), 4, 3);
        let out = cluster.try_run(&WordCount, &splits, 1).unwrap();
        let counts = counts_of(&out.results);
        assert_eq!(counts["a"], 3);
        assert_eq!(counts["b"], 2);
        assert_eq!(counts["c"], 4);
        assert_eq!(counts["d"], 1);
        assert_eq!(out.stats.map_input_records, 4);
        assert_eq!(out.stats.map_output_records, 10);
        assert_eq!(out.stats.distinct_keys, 4);
    }

    #[test]
    fn combiner_gives_same_answer_with_less_shuffle() {
        let costs = CostConfig::zero_overhead();
        let cluster = Cluster::new(2).with_costs(costs);
        let splits = make_splits(corpus(), 2, 2);
        let plain = cluster.try_run(&WordCount, &splits, 7).unwrap();
        let combined = cluster
            .try_run_with_combiner(&WordCountCombined, &splits, 7)
            .unwrap();
        assert_eq!(counts_of(&plain.results), counts_of(&combined.results));
        assert!(
            combined.stats.shuffle_bytes < plain.stats.shuffle_bytes,
            "combiner should reduce shuffle: {} vs {}",
            combined.stats.shuffle_bytes,
            plain.stats.shuffle_bytes
        );
        // each (task, key) yields exactly one combiner output
        assert!(combined.stats.combine_output_pairs <= plain.stats.map_output_records);
        // combiner CPU charged only when a combiner exists
        assert_eq!(plain.stats.sim.combine_us, 0.0);
        assert!(combined.stats.sim.combine_us > 0.0);
    }

    #[test]
    fn results_are_deterministic_given_seed() {
        let cluster = Cluster::new(4);
        let splits = make_splits(corpus(), 3, 4);
        let a = cluster.try_run(&WordCount, &splits, 99).unwrap();
        let b = cluster.try_run(&WordCount, &splits, 99).unwrap();
        assert_eq!(a.results, b.results);
        // simulated time is a function of record and byte counts only
        assert_eq!(a.stats.sim, b.stats.sim);
    }

    #[test]
    fn makespan_shrinks_with_more_machines() {
        // a scan-heavy job: 64 splits of large records
        struct Scan;
        impl Job for Scan {
            type Input = u64;
            type Key = u8;
            type MapOut = u64;
            type ReduceOut = u64;
            fn map(&self, _c: &TaskCtx, r: &u64, out: &mut Emitter<u8, u64>) {
                out.emit((*r % 4) as u8, *r);
            }
            fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<u64>) -> u64 {
                v.into_iter().sum()
            }
            fn input_bytes(&self, _r: &u64) -> u64 {
                100_000
            }
            fn pair_bytes(&self, _k: &u8, _v: &u64) -> u64 {
                16
            }
        }
        let records: Vec<u64> = (0..4096).collect();
        let mut prev = f64::INFINITY;
        for machines in [1usize, 5, 10] {
            let cluster = Cluster::new(machines);
            let splits = make_splits(records.clone(), 64, machines);
            let out = cluster.try_run(&Scan, &splits, 0).unwrap();
            let mk = out.stats.sim.makespan_us;
            assert!(
                mk < prev,
                "makespan should shrink with machines: {mk} !< {prev}"
            );
            prev = mk;
        }
    }

    #[test]
    fn scan_dominated_makespan_scales_nearly_linearly() {
        struct Scan;
        impl Job for Scan {
            type Input = u64;
            type Key = u8;
            type MapOut = u64;
            type ReduceOut = u64;
            fn map(&self, _c: &TaskCtx, r: &u64, out: &mut Emitter<u8, u64>) {
                out.emit(0, *r);
            }
            fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<u64>) -> u64 {
                v.len() as u64
            }
            fn input_bytes(&self, _r: &u64) -> u64 {
                1_000_000
            }
        }
        let records: Vec<u64> = (0..1000).collect();
        let zero = CostConfig {
            task_overhead_us: 0.0,
            job_overhead_us: 0.0,
            network_us_per_byte: 0.0,
            reduce_cpu_us_per_record: 0.0,
            ..CostConfig::default()
        };
        let run = |machines: usize| {
            let cluster = Cluster::new(machines).with_costs(zero);
            let splits = make_splits(records.clone(), machines * 4, machines);
            cluster
                .try_run(&Scan, &splits, 0)
                .unwrap()
                .stats
                .sim
                .makespan_us
        };
        let m1 = run(1);
        let m10 = run(10);
        let speedup = m1 / m10;
        assert!(
            (8.0..=10.5).contains(&speedup),
            "expected near-linear speedup, got {speedup}"
        );
    }

    #[test]
    fn reduce_partition_placement_is_stable() {
        // keys must land in the same partition regardless of machine count
        // changes? No — partition count changes partitioning. But two runs
        // with identical config must agree bit-for-bit.
        let cluster = Cluster::new(2).with_reduce_tasks(5);
        let splits = make_splits(corpus(), 2, 2);
        let a = cluster.try_run(&WordCount, &splits, 3).unwrap();
        let b = cluster.try_run(&WordCount, &splits, 3).unwrap();
        assert_eq!(a.results, b.results);
        assert_eq!(a.stats.shuffle_bytes, b.stats.shuffle_bytes);
    }

    /// `machines` machines whose every task attempt fails independently
    /// with probability `p`.
    fn flaky_cluster(machines: usize, p: f64) -> Cluster {
        let plan = (0..machines).fold(FaultPlan::new(), |plan, m| plan.flaky(m, p));
        Cluster::new(machines).with_fault_plan(plan)
    }

    /// A scan-heavy job shared by the fault-model tests below.
    struct Scan;
    impl Job for Scan {
        type Input = u64;
        type Key = u8;
        type MapOut = u64;
        type ReduceOut = u64;
        fn map(&self, _c: &TaskCtx, r: &u64, out: &mut Emitter<u8, u64>) {
            out.emit(0, *r);
        }
        fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<u64>) -> u64 {
            v.len() as u64
        }
        fn input_bytes(&self, _r: &u64) -> u64 {
            500_000
        }
    }

    #[test]
    fn straggler_dominates_makespan() {
        let records: Vec<u64> = (0..400).collect();
        let splits = make_splits(records, 8, 4);
        let uniform = Cluster::new(4)
            .try_run(&Scan, &splits, 0)
            .unwrap()
            .stats
            .sim
            .makespan_us;
        let straggling = Cluster::new(4)
            .with_fault_plan(FaultPlan::new().slow(3, 3.0))
            .try_run(&Scan, &splits, 0)
            .unwrap()
            .stats
            .sim
            .makespan_us;
        // one machine at 1/3 speed holds the whole job back (fixed job
        // overhead dampens the ratio below the full 3×)
        assert!(
            straggling > uniform * 1.5,
            "straggler ignored: {straggling} vs {uniform}"
        );
    }

    #[test]
    fn failures_change_time_but_not_results() {
        let splits = make_splits(corpus(), 4, 2);
        let clean = Cluster::new(2);
        // high failure rate so retries certainly occur
        let flaky = flaky_cluster(2, 0.4);
        let a = clean.try_run(&WordCount, &splits, 11).unwrap();
        let b = flaky.try_run(&WordCount, &splits, 11).unwrap();
        assert_eq!(
            counts_of(&a.results),
            counts_of(&b.results),
            "retries must not change results"
        );
        assert!(
            b.stats.map_task_retries + b.stats.reduce_task_retries > 0,
            "expected some retries at p = 0.4"
        );
        assert!(
            b.stats.sim.makespan_us > a.stats.sim.makespan_us,
            "retries must cost simulated time"
        );
        assert_eq!(a.stats.map_task_retries, 0);
    }

    #[test]
    fn failure_injection_is_deterministic() {
        let splits = make_splits(corpus(), 3, 2);
        let flaky = flaky_cluster(2, 0.3);
        let a = flaky.try_run(&WordCount, &splits, 5).unwrap();
        let b = flaky.try_run(&WordCount, &splits, 5).unwrap();
        assert_eq!(a.stats.map_task_retries, b.stats.map_task_retries);
        assert_eq!(
            a.stats.map_task_retries + a.stats.reduce_task_retries,
            b.stats.map_task_retries + b.stats.reduce_task_retries
        );
    }

    #[test]
    fn certain_failure_returns_typed_retry_exhaustion() {
        // prob = 1.0 is now legal: with a budget the job fails fast with
        // a typed error instead of silently capping at 16 attempts
        let splits = make_splits(corpus(), 2, 2);
        let cluster = flaky_cluster(2, 1.0).with_retry_budget(4);
        let err = cluster.try_run(&WordCount, &splits, 1).unwrap_err();
        assert_eq!(
            err,
            JobError::RetriesExhausted {
                phase: "map",
                task: 0,
                attempts: 4
            }
        );
        assert_eq!(
            err.to_string(),
            "map task 0 exhausted its retry budget after 4 failed attempts"
        );
    }

    #[test]
    fn certain_failure_without_budget_hits_the_safety_valve() {
        let splits = make_splits(corpus(), 1, 1);
        let cluster = flaky_cluster(1, 1.0);
        let err = cluster.try_run(&WordCount, &splits, 1).unwrap_err();
        assert!(
            matches!(
                err,
                JobError::RetriesExhausted {
                    phase: "map",
                    task: 0,
                    ..
                }
            ),
            "no silent cap: {err:?}"
        );
    }

    #[test]
    #[should_panic(expected = "prob must be in [0, 1]")]
    fn failure_prob_validated() {
        let _ = FaultPlan::new().flaky(0, 1.5);
    }

    #[test]
    #[should_panic(expected = "fault plan names machine 3, but the cluster has 3 machines")]
    fn fault_plan_machines_checked() {
        let _ = Cluster::new(3).with_fault_plan(FaultPlan::new().slow(3, 2.0));
    }

    #[test]
    fn crash_loses_map_outputs_and_reexecutes() {
        let records: Vec<u64> = (0..400).collect();
        let splits = make_splits(records, 8, 4);
        let healthy = Cluster::new(4).try_run(&Scan, &splits, 3).unwrap();
        // crash machine 0 shortly after the job starts: its finished map
        // outputs are lost and re-executed on the survivors
        let plan = FaultPlan::new().crash(0, 7_000_000.0);
        let crashed = Cluster::new(4)
            .with_fault_plan(plan)
            .try_run(&Scan, &splits, 3)
            .unwrap();
        assert_eq!(
            counts_of_u8(&healthy.results),
            counts_of_u8(&crashed.results),
            "crash recovery must not change results"
        );
        assert_eq!(crashed.stats.nodes_crashed, 1);
        assert!(
            crashed.stats.map_task_reexecutions > 0,
            "lost outputs must be re-executed: {:?}",
            crashed.stats
        );
        assert!(crashed.stats.wasted_us > 0.0);
        assert!(
            crashed.stats.sim.makespan_us > healthy.stats.sim.makespan_us,
            "recovery costs time"
        );
    }

    fn counts_of_u8(results: &[(u8, u64)]) -> HashMap<u8, u64> {
        results.iter().cloned().collect()
    }

    #[test]
    fn crash_of_every_machine_is_a_typed_error() {
        let splits = make_splits((0..40).collect::<Vec<u64>>(), 2, 2);
        let plan = FaultPlan::new().crash(0, 0.0).crash(1, 0.0);
        let err = Cluster::new(2)
            .with_fault_plan(plan)
            .try_run(&Scan, &splits, 1)
            .unwrap_err();
        assert!(matches!(err, JobError::NoHealthyMachines { .. }));
    }

    #[test]
    fn speculation_beats_a_straggling_node() {
        let records: Vec<u64> = (0..400).collect();
        let splits = make_splits(records, 8, 4);
        let plan = FaultPlan::new().slow(3, 8.0);
        let slow = Cluster::new(4)
            .with_fault_plan(plan.clone())
            .try_run(&Scan, &splits, 0)
            .unwrap();
        let speculating = Cluster::new(4)
            .with_fault_plan(plan)
            .with_speculation(2.0)
            .try_run(&Scan, &splits, 0)
            .unwrap();
        assert_eq!(
            counts_of_u8(&slow.results),
            counts_of_u8(&speculating.results)
        );
        assert!(speculating.stats.speculative_attempts > 0);
        assert!(speculating.stats.speculation_wins > 0);
        assert!(
            speculating.stats.sim.makespan_us < slow.stats.sim.makespan_us,
            "winning backups must shorten the job: {} !< {}",
            speculating.stats.sim.makespan_us,
            slow.stats.sim.makespan_us
        );
    }

    #[test]
    fn blacklisting_is_counted_and_preserves_results() {
        let splits = make_splits(corpus(), 4, 2);
        let plan = FaultPlan::new().flaky(0, 0.95);
        let out = Cluster::new(2)
            .with_fault_plan(plan)
            .with_blacklist_after(3)
            .try_run(&WordCount, &splits, 11)
            .unwrap();
        let clean = Cluster::new(2).try_run(&WordCount, &splits, 11).unwrap();
        assert_eq!(counts_of(&clean.results), counts_of(&out.results));
        assert_eq!(out.stats.nodes_blacklisted, 1);
    }

    #[test]
    fn an_always_flaky_node_wastes_work_the_job_survives() {
        let splits = make_splits(corpus(), 4, 2);
        let out = Cluster::new(2)
            .with_fault_plan(FaultPlan::new().flaky(1, 1.0))
            .with_blacklist_after(3)
            .try_run(&WordCount, &splits, 5)
            .unwrap();
        let clean = Cluster::new(2).try_run(&WordCount, &splits, 5).unwrap();
        assert_eq!(counts_of(&clean.results), counts_of(&out.results));
        assert!(
            out.stats.wasted_us > 0.0,
            "an always-flaky node must waste work: {:?}",
            out.stats
        );
        assert_eq!(clean.stats.wasted_us, 0.0);
    }

    #[test]
    fn backoff_extends_the_makespan_without_changing_retries() {
        let splits = make_splits(corpus(), 4, 2);
        let base = flaky_cluster(2, 0.4);
        let backed = flaky_cluster(2, 0.4).with_retry_backoff(500_000.0);
        let a = base.try_run(&WordCount, &splits, 11).unwrap();
        let b = backed.try_run(&WordCount, &splits, 11).unwrap();
        assert!(a.stats.map_task_retries + a.stats.reduce_task_retries > 0);
        assert_eq!(a.stats.map_task_retries, b.stats.map_task_retries);
        assert_eq!(a.stats.reduce_task_retries, b.stats.reduce_task_retries);
        assert!(b.stats.sim.makespan_us > a.stats.sim.makespan_us);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let cluster = Cluster::new(2);
        let splits: Vec<InputSplit<String>> = make_splits(vec![], 2, 2);
        let out = cluster.try_run(&WordCount, &splits, 0).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.stats.map_input_records, 0);
        assert_eq!(out.stats.distinct_keys, 0);
    }

    #[test]
    fn task_ctx_seeds_differ_across_groups() {
        use std::sync::Mutex;
        struct SeedSpy(Mutex<Vec<u64>>);
        impl Job for &SeedSpy {
            type Input = u64;
            type Key = u64;
            type MapOut = u64;
            type ReduceOut = ();
            fn map(&self, _c: &TaskCtx, r: &u64, out: &mut Emitter<u64, u64>) {
                out.emit(*r, *r);
            }
            fn reduce(&self, ctx: &TaskCtx, _k: &u64, _v: Vec<u64>) {
                self.0.lock().unwrap().push(ctx.seed);
            }
        }
        let spy = SeedSpy(Mutex::new(Vec::new()));
        let cluster = Cluster::new(1);
        let splits = make_splits((0..20).collect(), 2, 1);
        cluster.try_run(&&spy, &splits, 5).unwrap();
        let mut seeds = spy.0.into_inner().unwrap();
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "reduce seeds must be unique per key");
    }

    /// Combiner whose state records its `(task, seed)` and every value in
    /// arrival order, so the fold's seeds and value order are visible.
    struct SeedSpy;

    /// `(task id, group seed, values in arrival order)`.
    type Spied = (usize, u64, Vec<u64>);

    impl CombineJob for SeedSpy {
        type Input = Vec<(u8, u64)>;
        type Key = u8;
        type MapOut = u64;
        type Acc = Spied;
        type CombOut = Spied;
        type ReduceOut = Vec<Spied>;
        type Side = ();
        fn map(&self, _c: &TaskCtx, r: &Vec<(u8, u64)>, out: &mut Emitter<u8, u64>) {
            for &(k, v) in r {
                out.emit(k, v);
            }
        }
        fn start(&self, c: &TaskCtx, _k: &u8) -> Spied {
            (c.task_id, c.seed, Vec::new())
        }
        fn observe(&self, acc: &mut Spied, v: u64) {
            acc.2.push(v);
        }
        fn finish(&self, acc: Spied) -> Spied {
            acc
        }
        fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<Spied>) -> Vec<Spied> {
            v
        }
    }

    /// [`SeedSpy`] with a dense key index of 5 slots, given by the
    /// function.
    struct DenseSeedSpy(fn(&u8) -> usize);

    impl CombineJob for DenseSeedSpy {
        type Input = Vec<(u8, u64)>;
        type Key = u8;
        type MapOut = u64;
        type Acc = Spied;
        type CombOut = Spied;
        type ReduceOut = Vec<Spied>;
        type Side = ();
        fn map(&self, c: &TaskCtx, r: &Vec<(u8, u64)>, out: &mut Emitter<u8, u64>) {
            SeedSpy.map(c, r, out);
        }
        fn start(&self, c: &TaskCtx, k: &u8) -> Spied {
            SeedSpy.start(c, k)
        }
        fn observe(&self, acc: &mut Spied, v: u64) {
            SeedSpy.observe(acc, v);
        }
        fn finish(&self, acc: Spied) -> Spied {
            acc
        }
        fn reduce(&self, c: &TaskCtx, k: &u8, v: Vec<Spied>) -> Vec<Spied> {
            SeedSpy.reduce(c, k, v)
        }
        fn key_slots(&self) -> usize {
            5
        }
        fn key_slot(&self, key: &u8) -> usize {
            (self.0)(key)
        }
    }

    #[test]
    fn dense_key_slots_fold_exactly_as_the_hash_index() {
        let records: Vec<Vec<(u8, u64)>> = (0..60u64)
            .map(|i| {
                let k = (i * 3 % 5) as u8;
                vec![(k, i), ((k + 2) % 5, 100 + i), (k, 200 + i)]
            })
            .collect();
        let splits = make_splits(records, 6, 3);
        let cluster = Cluster::new(3);
        let hashed = cluster
            .try_run_with_combiner(&SeedSpy, &splits, 41)
            .unwrap();
        let dense = cluster
            .try_run_with_combiner(&DenseSeedSpy(|k| *k as usize), &splits, 41)
            .unwrap();
        // results carry every (task, group seed, values in order)
        assert_eq!(hashed.results, dense.results);
        let (a, b) = (&hashed.stats, &dense.stats);
        assert_eq!(
            (
                a.map_output_records,
                a.combine_output_pairs,
                a.shuffle_bytes
            ),
            (
                b.map_output_records,
                b.combine_output_pairs,
                b.shuffle_bytes
            )
        );
        assert_eq!(
            (a.reduce_input_values, a.distinct_keys),
            (b.reduce_input_values, b.distinct_keys)
        );
        assert_eq!(format!("{:?}", a.sim), format!("{:?}", b.sim));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two keys share a dense slot")]
    fn keys_sharing_a_dense_slot_fail_loudly() {
        let splits = make_splits(vec![vec![(1u8, 1u64), (2, 2)]], 1, 1);
        let _ = Cluster::new(1).try_run_with_combiner(&DenseSeedSpy(|_| 0), &splits, 1);
    }

    /// Counts records by residue; each map task's side state collects
    /// its records in scan order, worth `side_bytes_per_record` each.
    struct Collect {
        side_bytes_per_record: u64,
    }

    impl CombineJob for Collect {
        type Input = u64;
        type Key = u8;
        type MapOut = u64;
        type Acc = u64;
        type CombOut = u64;
        type ReduceOut = u64;
        type Side = Vec<u64>;
        fn map(&self, _c: &TaskCtx, r: &u64, out: &mut Emitter<u8, u64, Vec<u64>>) {
            out.side_mut().push(*r);
            out.emit((*r % 3) as u8, 1);
        }
        fn start(&self, _c: &TaskCtx, _k: &u8) -> u64 {
            0
        }
        fn observe(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }
        fn finish(&self, acc: u64) -> u64 {
            acc
        }
        fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<u64>) -> u64 {
            v.into_iter().sum()
        }
        fn input_bytes(&self, _r: &u64) -> u64 {
            500_000
        }
        fn side_bytes(&self, side: &Vec<u64>) -> u64 {
            self.side_bytes_per_record * side.len() as u64
        }
    }

    #[test]
    fn sides_come_back_in_split_order_at_any_thread_count() {
        let splits = make_splits((0..100).collect(), 7, 3);
        let job = Collect {
            side_bytes_per_record: 0,
        };
        let run = |threads: &str| {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let out = Cluster::new(3)
                .try_run_with_combiner(&job, &splits, 5)
                .unwrap();
            std::env::remove_var("RAYON_NUM_THREADS");
            out.sides
        };
        let one = run("1");
        let want: Vec<Vec<u64>> = splits.iter().map(|s| s.records.clone()).collect();
        assert_eq!(one, want);
        assert_eq!(run("4"), one);
    }

    /// Keys every record by itself and emits where the map loop says it
    /// sits, with and without a combiner.
    struct RowSpy;

    type Pos = (usize, usize);

    impl Job for RowSpy {
        type Input = u64;
        type Key = u64;
        type MapOut = Pos;
        type ReduceOut = Vec<Pos>;
        fn map(&self, _c: &TaskCtx, r: &u64, out: &mut Emitter<u64, Pos>) {
            out.emit(*r, out.row());
        }
        fn reduce(&self, _c: &TaskCtx, _k: &u64, v: Vec<Pos>) -> Vec<Pos> {
            v
        }
    }

    impl CombineJob for RowSpy {
        type Input = u64;
        type Key = u64;
        type MapOut = Pos;
        type Acc = Vec<Pos>;
        type CombOut = Vec<Pos>;
        type ReduceOut = Vec<Pos>;
        type Side = ();
        fn map(&self, c: &TaskCtx, r: &u64, out: &mut Emitter<u64, Pos>) {
            Job::map(self, c, r, out);
        }
        fn start(&self, _c: &TaskCtx, _k: &u64) -> Vec<Pos> {
            Vec::new()
        }
        fn observe(&self, acc: &mut Vec<Pos>, v: Pos) {
            acc.push(v);
        }
        fn finish(&self, acc: Vec<Pos>) -> Vec<Pos> {
            acc
        }
        fn reduce(&self, _c: &TaskCtx, _k: &u64, v: Vec<Vec<Pos>>) -> Vec<Pos> {
            v.concat()
        }
    }

    /// `Emitter::row` is the split's position in the input slice and the
    /// record's index in the split, not the split's id.
    #[test]
    fn row_accessor_reports_each_records_position() {
        let ids = [5, 3, 9, 0];
        let splits: Vec<InputSplit<u64>> = ids
            .iter()
            .enumerate()
            .map(|(p, &id)| {
                InputSplit::new(id, p % 2, (0..7).map(|r| 100 * p as u64 + r).collect())
            })
            .collect();
        let want = |k: u64| vec![(k as usize / 100, k as usize % 100)];
        let cluster = Cluster::new(2);
        let plain = cluster.try_run(&RowSpy, &splits, 3).unwrap();
        let combined = cluster.try_run_with_combiner(&RowSpy, &splits, 3).unwrap();
        for out in [plain, combined] {
            assert_eq!(out.results.len(), 28);
            for (k, rows) in out.results {
                assert_eq!(rows, want(k), "record {k}");
            }
        }
    }

    /// Side bytes cost network time in the producing task's tail: once
    /// per successful attempt, so again when a crash forces the task to
    /// re-execute. They never count as shuffle bytes.
    #[test]
    fn side_bytes_are_charged_to_every_successful_attempt() {
        let splits = make_splits((0..400).collect(), 8, 4);
        let costs = CostConfig::default();
        let run = |side_bytes_per_record, cluster: Cluster| {
            let job = Collect {
                side_bytes_per_record,
            };
            cluster
                .try_run_with_combiner(&job, &splits, 3)
                .unwrap()
                .stats
        };
        // every task scans 50 records, folds 50 values and, with sides,
        // sends 50 × 1000 side bytes
        let per_attempt = |side_bytes_per_record: u64| {
            50.0 * costs.combine_cpu_us_per_record
                + (50 * side_bytes_per_record) as f64 * costs.network_us_per_byte
        };
        let crash = || Cluster::new(4).with_fault_plan(FaultPlan::new().crash(0, 7_000_000.0));
        for cluster in [Cluster::new(4), crash()] {
            let plain = run(0, cluster.clone());
            let sided = run(1000, cluster);
            assert_eq!(plain.side_bytes, 0);
            assert_eq!(sided.side_bytes, 400_000, "once per task");
            assert_eq!(sided.shuffle_bytes, plain.shuffle_bytes);
            assert_eq!(sided.map_task_reexecutions, plain.map_task_reexecutions);
            let attempts = 8.0 + sided.map_task_reexecutions as f64;
            for (stats, bytes) in [(&plain, 0), (&sided, 1000)] {
                let want = attempts * per_attempt(bytes);
                assert!(
                    (stats.sim.combine_us - want).abs() < 1e-6,
                    "{} vs {want}",
                    stats.sim.combine_us
                );
            }
        }
        assert!(run(1000, crash()).map_task_reexecutions > 0);
    }

    #[test]
    fn side_bytes_counter_appears_only_when_non_zero() {
        let splits = make_splits((0..40).collect(), 4, 2);
        let registry = Registry::new();
        let cluster = Cluster::new(2).with_telemetry(registry.clone());
        let job = |side_bytes_per_record| Collect {
            side_bytes_per_record,
        };
        cluster.try_run_with_combiner(&job(0), &splits, 1).unwrap();
        let snap = registry.snapshot();
        assert!(snap.counter_names().all(|n| n != "mr.side.bytes"));
        let out = cluster.try_run_with_combiner(&job(3), &splits, 1).unwrap();
        assert_eq!(out.stats.side_bytes, 120);
        assert_eq!(registry.snapshot().counter("mr.side.bytes"), 120);
    }

    /// Group seeds follow first-emit order within each map task
    /// (`mix_seed(task_seed, g + 1)` for the task's `g`-th new key, also
    /// when one record emits several keys), and each key's values reach
    /// the fold in emit order.
    #[test]
    fn fold_seeds_follow_first_emit_order_and_values_emit_order() {
        let records: Vec<Vec<(u8, u64)>> = (0..40u64)
            .map(|i| {
                let k = (i * 7 % 5) as u8;
                vec![(k, i), ((k + 3) % 5, 100 + i), (k, 200 + i)]
            })
            .collect();
        let splits = make_splits(records, 4, 2);
        let seed = 77;
        let out = Cluster::new(2)
            .try_run_with_combiner(&SeedSpy, &splits, seed)
            .unwrap();

        let mut want: HashMap<(usize, u8), (u64, Vec<u64>)> = HashMap::new();
        for split in &splits {
            let task_seed = mix_seed(seed, split.id as u64);
            let mut first_seen: Vec<u8> = Vec::new();
            for &(k, v) in split.records.iter().flatten() {
                if !first_seen.contains(&k) {
                    first_seen.push(k);
                    let g = first_seen.len() as u64;
                    want.insert((split.id, k), (mix_seed(task_seed, g), Vec::new()));
                }
                want.get_mut(&(split.id, k)).expect("started").1.push(v);
            }
        }
        let mut got: HashMap<(usize, u8), (u64, Vec<u64>)> = HashMap::new();
        for (k, spied) in out.results {
            for (task, group_seed, values) in spied {
                assert!(got.insert((task, k), (group_seed, values)).is_none());
            }
        }
        assert_eq!(got, want);
        assert_eq!(out.stats.combine_output_pairs, want.len() as u64);
    }
}
