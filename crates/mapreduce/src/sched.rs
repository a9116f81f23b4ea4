//! The event-driven fault-tolerant phase scheduler (crate-internal).
//!
//! [`crate::Cluster`] executes the *work* of a phase in parallel up
//! front (map/combine/reduce functions are pure in `(input, seed)`), then
//! replays the phase through this scheduler on the driver thread to
//! decide *when and where* each attempt would have run on the simulated
//! machines. Because outputs are computed before scheduling, faults can
//! only ever change the timeline, the counters and the trace — never the
//! job's results. That is the determinism argument behind the chaos
//! harness (see DESIGN.md, "Fault model & recovery").
//!
//! Per attempt the scheduler models, in order:
//! * placement — a task prefers its home machine (data locality); when
//!   the home node is dead or blacklisted it falls back to the healthy
//!   machine that can start it earliest;
//! * failure injection — the attempt's deterministic roll against the
//!   node's flakiness; a failed attempt costs `task_overhead + work/2`, consumes one unit of
//!   the task's retry budget and backs off exponentially;
//! * crashes — an attempt overlapping its node's crash time is killed at
//!   the crash; the node is dead for the rest of the job and (in the map
//!   phase) its completed outputs are lost and re-executed elsewhere;
//! * speculation — a successful attempt on a node slower than the
//!   speculation threshold launches a backup on the earliest-available
//!   other node; whichever finishes first wins and the loser is killed.
//!
//! With no fault plan and the default knobs (unbounded budget, zero
//! backoff, no blacklist, no speculation) the schedule degenerates to
//! the original serial-per-machine model: tasks run back to back on
//! their home machines and retries reproduce the legacy roll sequence
//! bit for bit, so pre-existing goldens remain valid.

use crate::cluster::JobError;
use crate::job::mix_seed;
use std::collections::VecDeque;

/// Safety valve on per-task failed attempts when no explicit retry
/// budget is set: at any failure probability below 1 the chance of
/// hitting it is negligible (`0.99^10000 < 10^-43`), while a certainly
/// failing task still terminates with a typed error instead of looping.
pub(crate) const DEFAULT_ATTEMPT_CAP: u32 = 10_000;

/// One schedulable task: nominal work in µs, split into the main body
/// (map or reduce) and a combine tail (zero outside the map phase).
pub(crate) struct SchedTask {
    pub body_us: f64,
    pub tail_us: f64,
    pub home: usize,
}

impl SchedTask {
    fn work(&self) -> f64 {
        self.body_us + self.tail_us
    }
}

/// The cluster's fault-tolerance knobs, resolved once per job.
pub(crate) struct Knobs {
    pub task_overhead_us: f64,
    pub retry_budget: Option<u32>,
    pub retry_backoff_us: f64,
    pub blacklist_after: Option<u32>,
    pub speculation_threshold: Option<f64>,
}

/// Simulated state of one machine, carried across the job's phases.
pub(crate) struct MachineState {
    pub free_at: f64,
    pub crash_at: f64,
    pub dead: bool,
    pub blacklisted: bool,
    pub failures: u32,
    /// Slowness factor from the fault plan (1.0 = nominal).
    pub speed: f64,
    /// Per-attempt failure probability the roll is made against.
    pub fail_prob: f64,
}

impl MachineState {
    pub fn build(
        machines: usize,
        plan: &crate::chaos::FaultPlan,
        start_at: f64,
    ) -> Vec<MachineState> {
        (0..machines)
            .map(|m| {
                let f = plan.fault(m);
                MachineState {
                    free_at: start_at,
                    crash_at: f.crash_at_us.unwrap_or(f64::INFINITY),
                    dead: false,
                    blacklisted: false,
                    failures: 0,
                    speed: f.slowdown,
                    // `1 − (1 − p)`, not `p`: the roll threshold is
                    // `p × u32::MAX` truncated, and the two forms differ
                    // in the last bit for some `p` (0.2 among them).
                    // Recorded goldens, baselines and chaos artifacts
                    // were rolled against this form.
                    fail_prob: 1.0 - (1.0 - f.flaky_prob),
                }
            })
            .collect()
    }

    fn usable(&self) -> bool {
        !self.dead && !self.blacklisted
    }
}

/// How one attempt ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Produced the task's output (possibly later lost to a crash).
    Success,
    /// Failure-injection roll failed; the task retried.
    FailedRoll,
    /// Killed mid-flight by its node's crash.
    CrashKilled,
    /// Superseded by the other half of a speculative pair.
    SpecLoser,
}

/// One scheduled attempt, the scheduler's unit of trace/stats output.
pub(crate) struct Attempt {
    pub task: usize,
    pub machine: usize,
    pub attempt: u32,
    pub start_us: f64,
    /// Wall duration on the machine, µs (scaled by its speed; truncated
    /// for killed attempts).
    pub dur_us: f64,
    /// Unscaled µs of work the attempt consumed (what the `sim` phase
    /// totals are charged).
    pub nominal_us: f64,
    pub outcome: Outcome,
    pub speculative: bool,
}

struct Entry {
    task: usize,
    ready: f64,
}

/// The scheduling of one phase: feed it the tasks, drain the queue, and
/// read back attempts, completions and counters.
pub(crate) struct PhaseRun<'a> {
    knobs: &'a Knobs,
    tasks: &'a [SchedTask],
    phase: &'static str,
    phase_id: u64,
    job_seed: u64,
    phase_start: f64,
    lose_outputs_on_crash: bool,
    queue: VecDeque<Entry>,
    pub attempts: Vec<Attempt>,
    pub completed_on: Vec<Option<usize>>,
    next_attempt: Vec<u32>,
    fail_count: Vec<u32>,
    exec_round: Vec<u32>,
    pub retries: u64,
    pub reexecutions: u64,
    pub spec_attempts: u64,
    pub spec_wins: u64,
}

impl<'a> PhaseRun<'a> {
    pub fn new(
        knobs: &'a Knobs,
        tasks: &'a [SchedTask],
        phase: &'static str,
        phase_id: u64,
        job_seed: u64,
        phase_start: f64,
        lose_outputs_on_crash: bool,
    ) -> Self {
        let n = tasks.len();
        PhaseRun {
            knobs,
            tasks,
            phase,
            phase_id,
            job_seed,
            phase_start,
            lose_outputs_on_crash,
            queue: (0..n)
                .map(|task| Entry {
                    task,
                    ready: phase_start,
                })
                .collect(),
            attempts: Vec::with_capacity(n),
            completed_on: vec![None; n],
            next_attempt: vec![0; n],
            fail_count: vec![0; n],
            exec_round: vec![0; n],
            retries: 0,
            reexecutions: 0,
            spec_attempts: 0,
            spec_wins: 0,
        }
    }

    /// Run every queued task to completion (or a typed error).
    pub(crate) fn drain(&mut self, ms: &mut [MachineState]) -> Result<(), JobError> {
        while let Some(e) = self.queue.pop_front() {
            if self.completed_on[e.task].is_some() {
                continue;
            }
            self.run_task(e.task, e.ready, ms)?;
        }
        Ok(())
    }

    /// The phase barrier: when the last attempt ends (`phase_start` for
    /// an empty phase).
    pub fn barrier(&self) -> f64 {
        self.attempts
            .iter()
            .map(|a| a.start_us + a.dur_us)
            .fold(self.phase_start, f64::max)
    }

    /// Process crashes striking before `horizon` (the end of the window
    /// in which this phase's outputs are still needed): mark the nodes
    /// dead, drop their completed outputs and re-run the affected tasks.
    /// Returns whether anything was re-executed (callers loop until the
    /// barrier is stable).
    pub(crate) fn reexecute_lost(
        &mut self,
        horizon: f64,
        ms: &mut [MachineState],
    ) -> Result<bool, JobError> {
        for m in 0..ms.len() {
            if !ms[m].dead && ms[m].crash_at < horizon {
                self.process_crash(m, ms);
            }
        }
        if self.queue.is_empty() {
            return Ok(false);
        }
        self.drain(ms)?;
        Ok(true)
    }

    fn run_task(
        &mut self,
        t: usize,
        mut ready: f64,
        ms: &mut [MachineState],
    ) -> Result<(), JobError> {
        let work = self.tasks[t].work();
        let budget = self.knobs.retry_budget.unwrap_or(DEFAULT_ATTEMPT_CAP);
        loop {
            let m = self.pick_machine(t, ready, ms)?;
            let start = ms[m].free_at.max(ready);
            let att = self.next_attempt[t];
            self.next_attempt[t] += 1;
            let p = ms[m].fail_prob;
            let fails = self.roll_fails(t, self.fail_count[t], self.exec_round[t], p, false);
            let nominal = if fails {
                self.knobs.task_overhead_us + 0.5 * work
            } else {
                work
            };
            let dur = nominal * ms[m].speed;
            if start + dur > ms[m].crash_at {
                // killed mid-flight by the node's crash; the kill does
                // not consume retry budget
                let kill = ms[m].crash_at;
                let cut = (kill - start).max(0.0);
                self.attempts.push(Attempt {
                    task: t,
                    machine: m,
                    attempt: att,
                    start_us: start,
                    dur_us: cut,
                    nominal_us: cut / ms[m].speed,
                    outcome: Outcome::CrashKilled,
                    speculative: false,
                });
                self.process_crash(m, ms);
                ready = ready.max(kill);
                continue;
            }
            if fails {
                self.attempts.push(Attempt {
                    task: t,
                    machine: m,
                    attempt: att,
                    start_us: start,
                    dur_us: dur,
                    nominal_us: nominal,
                    outcome: Outcome::FailedRoll,
                    speculative: false,
                });
                ms[m].free_at = start + dur;
                self.fail_count[t] += 1;
                self.retries += 1;
                self.node_failure(m, ms);
                if self.fail_count[t] >= budget {
                    return Err(JobError::RetriesExhausted {
                        phase: self.phase,
                        task: t,
                        attempts: self.fail_count[t],
                    });
                }
                let backoff = self.knobs.retry_backoff_us
                    * 2f64.powi((self.fail_count[t] - 1).min(60) as i32);
                ready = start + dur + backoff;
                continue;
            }
            self.finish_success(t, m, att, start, dur, ready, ms);
            return Ok(());
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_success(
        &mut self,
        t: usize,
        m: usize,
        att: u32,
        start: f64,
        dur: f64,
        ready: f64,
        ms: &mut [MachineState],
    ) {
        let finish = start + dur;
        if let Some(thr) = self.knobs.speculation_threshold {
            if ms[m].speed >= thr {
                if let Some(b) = self.pick_backup(m, ready, ms) {
                    let bstart = ms[b].free_at.max(ready);
                    if bstart < finish {
                        return self.speculate(t, m, att, start, dur, b, bstart, ms);
                    }
                }
            }
        }
        self.attempts.push(Attempt {
            task: t,
            machine: m,
            attempt: att,
            start_us: start,
            dur_us: dur,
            nominal_us: self.tasks[t].work(),
            outcome: Outcome::Success,
            speculative: false,
        });
        ms[m].free_at = finish;
        self.completed_on[t] = Some(m);
    }

    /// Race a backup attempt on machine `b` against the successful
    /// primary on `m`; first finisher wins, the loser is killed.
    #[allow(clippy::too_many_arguments)]
    fn speculate(
        &mut self,
        t: usize,
        m: usize,
        att: u32,
        start: f64,
        dur: f64,
        b: usize,
        bstart: f64,
        ms: &mut [MachineState],
    ) {
        let work = self.tasks[t].work();
        let finish = start + dur;
        let b_att = self.next_attempt[t];
        self.next_attempt[t] += 1;
        self.spec_attempts += 1;
        let p = ms[b].fail_prob;
        let b_fails = self.roll_fails(t, self.fail_count[t], self.exec_round[t], p, true);
        let b_nominal = if b_fails {
            self.knobs.task_overhead_us + 0.5 * work
        } else {
            work
        };
        let b_end = bstart + b_nominal * ms[b].speed;
        let b_crashed = b_end > ms[b].crash_at;
        if !b_fails && !b_crashed && b_end < finish {
            // backup wins: it completes, the primary is killed at the
            // backup's finish
            self.spec_wins += 1;
            self.attempts.push(Attempt {
                task: t,
                machine: b,
                attempt: b_att,
                start_us: bstart,
                dur_us: b_end - bstart,
                nominal_us: work,
                outcome: Outcome::Success,
                speculative: true,
            });
            ms[b].free_at = b_end;
            let cut = (b_end - start).clamp(0.0, dur);
            self.attempts.push(Attempt {
                task: t,
                machine: m,
                attempt: att,
                start_us: start,
                dur_us: cut,
                nominal_us: cut / ms[m].speed,
                outcome: Outcome::SpecLoser,
                speculative: false,
            });
            ms[m].free_at = start + cut;
            self.completed_on[t] = Some(b);
            return;
        }
        // primary wins: the backup is killed (or burned out) by the
        // primary's finish
        self.attempts.push(Attempt {
            task: t,
            machine: m,
            attempt: att,
            start_us: start,
            dur_us: dur,
            nominal_us: work,
            outcome: Outcome::Success,
            speculative: false,
        });
        ms[m].free_at = finish;
        self.completed_on[t] = Some(m);
        let b_stop = b_end.min(ms[b].crash_at).min(finish).max(bstart);
        let outcome = if b_crashed && ms[b].crash_at <= finish {
            Outcome::CrashKilled
        } else if b_fails && b_end <= finish {
            Outcome::FailedRoll
        } else {
            Outcome::SpecLoser
        };
        self.attempts.push(Attempt {
            task: t,
            machine: b,
            attempt: b_att,
            start_us: bstart,
            dur_us: b_stop - bstart,
            nominal_us: (b_stop - bstart) / ms[b].speed,
            outcome,
            speculative: true,
        });
        ms[b].free_at = b_stop;
        if outcome == Outcome::FailedRoll {
            self.node_failure(b, ms);
        }
        if outcome == Outcome::CrashKilled {
            self.process_crash(b, ms);
        }
    }

    /// Home machine when usable, else the healthy machine that can start
    /// the task earliest. Crashes striking before the attempt could even
    /// start are processed here.
    fn pick_machine(
        &mut self,
        t: usize,
        ready: f64,
        ms: &mut [MachineState],
    ) -> Result<usize, JobError> {
        loop {
            let home = self.tasks[t].home % ms.len();
            let pick = if ms[home].usable() {
                Some(home)
            } else {
                let mut best: Option<(f64, usize)> = None;
                for (i, s) in ms.iter().enumerate() {
                    if !s.usable() {
                        continue;
                    }
                    let at = s.free_at.max(ready);
                    if best.map_or(true, |(ba, _)| at < ba) {
                        best = Some((at, i));
                    }
                }
                best.map(|(_, i)| i)
            };
            let Some(m) = pick else {
                return Err(JobError::NoHealthyMachines {
                    phase: self.phase,
                    task: t,
                });
            };
            if ms[m].crash_at <= ms[m].free_at.max(ready) {
                self.process_crash(m, ms);
                continue;
            }
            return Ok(m);
        }
    }

    /// The earliest-available usable machine other than `primary` that
    /// is still alive when the backup would start.
    fn pick_backup(&self, primary: usize, ready: f64, ms: &[MachineState]) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for (i, s) in ms.iter().enumerate() {
            if i == primary || !s.usable() {
                continue;
            }
            let at = s.free_at.max(ready);
            if s.crash_at <= at {
                continue;
            }
            if best.map_or(true, |(ba, _)| at < ba) {
                best = Some((at, i));
            }
        }
        best.map(|(_, i)| i)
    }

    fn node_failure(&mut self, m: usize, ms: &mut [MachineState]) {
        ms[m].failures += 1;
        if let Some(k) = self.knobs.blacklist_after {
            if !ms[m].blacklisted && ms[m].failures >= k {
                ms[m].blacklisted = true;
            }
        }
    }

    /// The node dies at its planned crash time: it never runs another
    /// attempt, and (in the map phase) tasks whose outputs it held are
    /// re-queued for execution elsewhere.
    fn process_crash(&mut self, m: usize, ms: &mut [MachineState]) {
        if ms[m].dead {
            return;
        }
        ms[m].dead = true;
        if !self.lose_outputs_on_crash {
            return;
        }
        let at = ms[m].crash_at;
        for t in 0..self.tasks.len() {
            if self.completed_on[t] == Some(m) {
                self.completed_on[t] = None;
                self.exec_round[t] += 1;
                self.reexecutions += 1;
                self.queue.push_back(Entry { task: t, ready: at });
            }
        }
    }

    /// Deterministic failure roll. For first-round, sub-256-attempt,
    /// non-speculative rolls the key reproduces the legacy
    /// `failed_attempts` sequence exactly (`(task << 8) | attempt`), so
    /// runs without fault plans match pre-scheduler goldens bit for bit;
    /// re-executions and speculative backups re-mix the key so they roll
    /// independently.
    fn roll_fails(&self, t: usize, fail_idx: u32, round: u32, p: f64, spec: bool) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let mut key = ((t as u64) << 8) | (fail_idx as u64 & 0xFF);
        if round > 0 || fail_idx >= 256 {
            key = mix_seed(key, 0x00EE_C000 + round as u64 + ((fail_idx as u64) << 32));
        }
        if spec {
            key = mix_seed(key, 0x5BEC);
        }
        let roll = mix_seed(mix_seed(self.job_seed, 0xFA11 ^ self.phase_id), key) & 0xFFFF_FFFF;
        roll < (p * u32::MAX as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;

    fn knobs() -> Knobs {
        Knobs {
            task_overhead_us: 10.0,
            retry_budget: None,
            retry_backoff_us: 0.0,
            blacklist_after: None,
            speculation_threshold: None,
        }
    }

    fn machines(n: usize) -> Vec<MachineState> {
        MachineState::build(n, &FaultPlan::new(), 0.0)
    }

    /// One machine whose every attempt fails with probability `p`.
    fn flaky_machine(p: f64) -> Vec<MachineState> {
        MachineState::build(1, &FaultPlan::new().flaky(0, p), 0.0)
    }

    fn tasks(works: &[f64]) -> Vec<SchedTask> {
        works
            .iter()
            .enumerate()
            .map(|(i, &w)| SchedTask {
                body_us: w,
                tail_us: 0.0,
                home: i,
            })
            .collect()
    }

    #[test]
    fn healthy_phase_runs_home_placed_back_to_back() {
        let k = knobs();
        let ts = tasks(&[100.0, 200.0]);
        let mut ms = machines(2);
        let mut run = PhaseRun::new(&k, &ts, "map", 0, 1, 0.0, true);
        run.drain(&mut ms).unwrap();
        assert_eq!(run.attempts.len(), 2);
        assert_eq!(run.completed_on, vec![Some(0), Some(1)]);
        assert_eq!(run.barrier(), 200.0);
        assert_eq!(run.retries, 0);
    }

    #[test]
    fn crash_reassigns_and_reexecutes_lost_outputs() {
        let k = knobs();
        let ts = tasks(&[100.0, 100.0]);
        let plan = FaultPlan::new().crash(0, 150.0);
        let mut ms = MachineState::build(2, &plan, 0.0);
        let mut run = PhaseRun::new(&k, &ts, "map", 0, 1, 0.0, true);
        run.drain(&mut ms).unwrap();
        // task 0 completed on machine 0 before the crash
        assert_eq!(run.completed_on[0], Some(0));
        // crash before the shuffle window closes loses the output
        let redone = run.reexecute_lost(400.0, &mut ms).unwrap();
        assert!(redone);
        assert_eq!(run.completed_on[0], Some(1), "re-executed on the survivor");
        assert_eq!(run.reexecutions, 1);
        assert!(ms[0].dead);
        assert!(run.barrier() > 200.0, "re-execution extends the barrier");
    }

    #[test]
    fn all_machines_dead_is_a_typed_error() {
        let k = knobs();
        let ts = tasks(&[100.0]);
        let plan = FaultPlan::new().crash(0, 0.0);
        let mut ms = MachineState::build(1, &plan, 0.0);
        let mut run = PhaseRun::new(&k, &ts, "map", 0, 1, 0.0, true);
        let err = run.drain(&mut ms).unwrap_err();
        assert!(matches!(err, JobError::NoHealthyMachines { task: 0, .. }));
    }

    #[test]
    fn certain_failure_exhausts_the_budget() {
        let k = Knobs {
            retry_budget: Some(3),
            ..knobs()
        };
        let ts = tasks(&[100.0]);
        let mut ms = flaky_machine(1.0);
        let mut run = PhaseRun::new(&k, &ts, "reduce", 1, 9, 0.0, false);
        let err = run.drain(&mut ms).unwrap_err();
        assert_eq!(
            err,
            JobError::RetriesExhausted {
                phase: "reduce",
                task: 0,
                attempts: 3
            }
        );
        assert_eq!(run.attempts.len(), 3);
        assert!(run
            .attempts
            .iter()
            .all(|a| a.outcome == Outcome::FailedRoll));
    }

    #[test]
    fn backoff_delays_the_retry() {
        let base = knobs();
        let with_backoff = Knobs {
            retry_backoff_us: 50.0,
            ..knobs()
        };
        // find a seed with at least one failure so backoff matters
        for seed in 0..64 {
            let ts = tasks(&[100.0]);
            let mut ms_a = flaky_machine(0.4);
            let mut a = PhaseRun::new(&base, &ts, "map", 0, seed, 0.0, true);
            a.drain(&mut ms_a).unwrap();
            if a.retries == 0 {
                continue;
            }
            let mut ms_b = flaky_machine(0.4);
            let mut b = PhaseRun::new(&with_backoff, &ts, "map", 0, seed, 0.0, true);
            b.drain(&mut ms_b).unwrap();
            assert_eq!(a.retries, b.retries, "backoff must not change rolls");
            assert!(
                b.barrier() > a.barrier(),
                "backoff must push the barrier: {} !> {}",
                b.barrier(),
                a.barrier()
            );
            return;
        }
        panic!("no failing seed found at p = 0.4");
    }

    #[test]
    fn blacklisting_moves_work_off_the_flaky_node() {
        let k = Knobs {
            blacklist_after: Some(2),
            ..knobs()
        };
        let plan = FaultPlan::new().flaky(0, 1.0);
        // every task homes on the flaky machine
        let ts: Vec<SchedTask> = (0..4)
            .map(|_| SchedTask {
                body_us: 100.0,
                tail_us: 0.0,
                home: 0,
            })
            .collect();
        let mut ms = MachineState::build(2, &plan, 0.0);
        let mut run = PhaseRun::new(&k, &ts, "map", 0, 3, 0.0, true);
        run.drain(&mut ms).unwrap();
        assert!(ms[0].blacklisted);
        assert!(
            run.completed_on.iter().all(|&m| m == Some(1)),
            "all work must finish on the healthy node: {:?}",
            run.completed_on
        );
    }

    #[test]
    fn speculation_wins_on_a_slow_node_and_preserves_completion() {
        let k = Knobs {
            speculation_threshold: Some(2.0),
            ..knobs()
        };
        let plan = FaultPlan::new().slow(0, 10.0);
        let ts = tasks(&[100.0, 100.0]);
        let mut ms = MachineState::build(2, &plan, 0.0);
        let mut run = PhaseRun::new(&k, &ts, "map", 0, 1, 0.0, true);
        run.drain(&mut ms).unwrap();
        assert_eq!(run.spec_attempts, 1);
        assert_eq!(run.spec_wins, 1);
        assert_eq!(run.completed_on[0], Some(1), "backup on the fast node won");
        let loser = run
            .attempts
            .iter()
            .find(|a| a.outcome == Outcome::SpecLoser)
            .expect("killed primary recorded");
        assert_eq!(loser.machine, 0);
        assert!(
            loser.dur_us < 1000.0,
            "primary killed early: {}",
            loser.dur_us
        );
    }
}
