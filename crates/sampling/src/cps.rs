//! CPS and MR-CPS — cost-optimal multi-survey stratified sampling (§5.2).
//!
//! The Constraint Program Selector (Algorithm 2) answers an MSSD query
//! while minimizing the total survey cost, without biasing any survey's
//! sample:
//!
//! 1. compute a representative (non-optimal) answer `A` with MR-MQE and
//!    derive the stratum-selection frequencies `F(A_i, σ)`: each answer's
//!    tuples go through the σ interner the scan uses (see
//!    [`crate::tally`]), which stands in for the paper's SST trie;
//! 2. compute the limits `L(σ)`. The fused schedule (the default)
//!    counts them inside step 1's scan, which already finds every
//!    tuple's selection `σ(t)`: each map task interns `σ(t)` into a side
//!    tally, and the run merges the tallies. The paper's schedule
//!    ([`CpsConfig::paper`]) runs the Figure 4 MapReduce job instead,
//!    which keeps the same side tallies; `L(σ)` is read from the merged
//!    tallies either way. Every row also leaves the scan with a dense
//!    selection id, which steps 4 and 5 look up instead of matching the
//!    stratum formulas again;
//! 3. solve the Figure 3 program for the optimal sharing counts
//!    `X_τ(σ)` — exactly (IP, Algorithm CPS) or via the LP relaxation
//!    with floor rounding (MR-CPS);
//! 4. run MR-SQE on the *combined query* `Q′` (one stratum per relevant
//!    selection, frequency `f(σ) = Σ_τ X_τ(σ)`) and distribute the
//!    sampled tuples, in a seeded uniformly random order, to the answers
//!    according to the `X_τ(σ)`;
//! 5. top up the rounding deficit with a *residual* MR-MQE phase that
//!    excludes already-selected individuals per query (§5.2.5.2).
//!
//! The Figure 3 program couples no two distinct selections σ, so it is
//! solved block-by-block (one small program per σ) by default; the joint
//! single-program formulation is available for cross-checking
//! (DESIGN.md, substitution 4).

use crate::limits::limits_tallied;
use crate::mqe::{mr_mqe_tallied, try_mr_mqe_on_splits};
use crate::obs::StratumCounters;
use crate::rows::{RowId, RowSampler, Strata};
use crate::sqe::SqeJob;
use crate::sst::StratumSelection;
use crate::tally::{SelectionTable, SigmaTally};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;
use stratmr_lp::{solve_ip, solve_lp, LpError, Problem, Relation, Solution};
use stratmr_mapreduce::{mix_seed, Cluster, Emitter, InputSplit, JobError, JobStats};
use stratmr_population::Individual;
use stratmr_query::{MssdAnswer, MssdQuery, SelectionMatcher, SsdAnswer, SurveySet};
use stratmr_telemetry::{json, Layout, Registry, Writer};

/// Why a CPS run failed: the constraint program was unsolvable, or one
/// of the MapReduce phases could not complete under the fault model.
#[derive(Debug, Clone, PartialEq)]
pub enum CpsError {
    /// The Figure 3 program could not be solved.
    Lp(LpError),
    /// A MapReduce phase failed (retry exhaustion / no healthy machines).
    Job(JobError),
    /// A selection's block of the Figure 3 program would need more than
    /// [`MAX_BLOCK_VARIABLES`] variables (`2^|I(σ)| − 1` survey sets).
    ProgramTooLarge {
        /// The selection, rendered as in the EXPLAIN.
        selection: String,
        /// Surveys that sampled the selection.
        surveys: usize,
    },
}

impl std::fmt::Display for CpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpsError::Lp(e) => write!(f, "constraint program failed: {e}"),
            CpsError::Job(e) => write!(f, "mapreduce phase failed: {e}"),
            CpsError::ProgramTooLarge { selection, surveys } => write!(
                f,
                "selection {selection} is sampled by {surveys} surveys: its program \
                 would exceed {MAX_BLOCK_VARIABLES} variables"
            ),
        }
    }
}

impl std::error::Error for CpsError {}

impl From<LpError> for CpsError {
    fn from(e: LpError) -> Self {
        CpsError::Lp(e)
    }
}

impl From<JobError> for CpsError {
    fn from(e: JobError) -> Self {
        CpsError::Job(e)
    }
}

/// Which solver backs step 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Linear relaxation + floor rounding + residual phase (MR-CPS).
    Lp,
    /// Exact integer program via branch and bound (Algorithm CPS).
    Ip,
}

/// Which MapReduce jobs a CPS run makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpsSchedule {
    /// Two jobs, plus residual rounds: the initial MR-MQE scan also
    /// tallies `L(σ)` and every row's selection.
    Fused,
    /// The paper's three: the initial MR-MQE, the Figure 4 `L(σ)` job
    /// and the combined MR-SQE, plus residual rounds. The reproduced
    /// experiments (Figure 7's "CPS ≈ 3× MQE" above all) use it.
    Paper,
}

/// Configuration of a CPS run.
#[derive(Debug, Clone, Copy)]
pub struct CpsConfig {
    /// LP relaxation (MR-CPS) or exact IP (CPS).
    pub solver: SolverKind,
    /// Solve one joint program over all selections instead of one block
    /// per σ. Mathematically identical; exists for verification and the
    /// ablation bench.
    pub joint_formulation: bool,
    /// Also capture a full [`PlanExplain`] — the strata universe, the
    /// solved programs, the sharing graph, cost attribution and the
    /// residual-round breakdown — into [`CpsRun::explain`]. Capturing
    /// changes no decision the pipeline makes: answers are byte-identical
    /// with and without it.
    pub explain: bool,
    /// The job schedule. Answers, costs and plans are identical under
    /// both; only the jobs run (and their statistics) differ.
    pub schedule: CpsSchedule,
}

impl Default for CpsConfig {
    fn default() -> Self {
        Self {
            solver: SolverKind::Lp,
            joint_formulation: false,
            explain: false,
            schedule: CpsSchedule::Fused,
        }
    }
}

/// Floor nudge `ε` compensating solver quantization: LP assignments are
/// rounded to `⌊X_τ(σ) + ε⌋` (the paper uses 1e-4).
const EPSILON: f64 = 1e-4;

/// Safety bound on residual top-up rounds (one round suffices
/// analytically; see the module docs).
const MAX_RESIDUAL_ROUNDS: usize = 4;

/// Tag that derives step 4's assignment seeds from the query seed (the
/// MapReduce phases use `seed + 1` … `seed + 4 + round`).
const ASSIGN_SEED_TAG: u64 = 0xA551_6000_0000_0000;

/// Largest program block one selection may ask for (16 sampling
/// surveys); beyond it a run fails with [`CpsError::ProgramTooLarge`].
pub const MAX_BLOCK_VARIABLES: usize = 1 << 16;

impl CpsConfig {
    /// MR-CPS: the paper's scalable LP-based variant, on the fused
    /// schedule.
    pub fn mr_cps() -> Self {
        Self::default()
    }

    /// MR-CPS on the paper's three-job schedule.
    pub fn paper() -> Self {
        Self {
            schedule: CpsSchedule::Paper,
            ..Self::default()
        }
    }

    /// CPS with the exact IP solver.
    pub fn exact() -> Self {
        Self {
            solver: SolverKind::Ip,
            ..Self::default()
        }
    }
}

/// Time spent formulating and solving the constraint program (Figure 8).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpsTimings {
    /// Seconds spent building the program(s).
    pub formulate_secs: f64,
    /// Seconds spent in the solver.
    pub solve_secs: f64,
}

/// Result of a CPS / MR-CPS run.
#[derive(Debug, Clone)]
pub struct CpsRun {
    /// The cost-optimized multi-survey answer `A*`.
    pub answer: MssdAnswer,
    /// Realized cost `C_A` of the answer under the query's cost model.
    pub cost: f64,
    /// Objective value of the solved program (`C_LP` or `C_IP`).
    pub solver_objective: f64,
    /// Individuals added by the residual phase (the §6.2.2 statistic —
    /// at most ~5.5% of the answer in the paper's runs).
    pub residual_selections: usize,
    /// Number of decision variables in the program.
    pub variables: usize,
    /// Number of constraints in the program.
    pub constraints: usize,
    /// Number of relevant stratum selections `|[[Q]]*|`.
    pub relevant_selections: usize,
    /// Constraint-program timings.
    pub timings: CpsTimings,
    /// Per-MapReduce-phase statistics, labeled.
    pub phase_stats: Vec<(String, JobStats)>,
    /// The plan EXPLAIN, present when [`CpsConfig::explain`] was set.
    pub explain: Option<PlanExplain>,
}

/// The solved allocation for one stratum selection.
struct SigmaPlan {
    /// Position of the selection among the relevant ones.
    r: usize,
    /// `(τ, ⌊X_τ(σ)⌋)` with positive counts, in ascending τ order.
    allocations: Vec<(SurveySet, u64)>,
    /// `f(σ) = Σ_τ ⌊X_τ(σ)⌋`.
    total: u64,
}

/// One relevant stratum selection σ in the EXPLAIN: its limit `L(σ)` and
/// the positive selection frequencies `F(A_i, σ)` per survey.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionExplain {
    /// Rendered selection, e.g. `⟨s1,0,·⟩`.
    pub selection: String,
    /// The limit `L(σ)` from the Figure 4 counting job.
    pub limit: u64,
    /// `(survey, F(A_i, σ))` pairs with positive frequency, ascending.
    pub frequencies: Vec<(usize, u64)>,
}

/// One decision variable `X_τ(σ)` of a solved program.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableExplain {
    /// The survey set τ, as ascending survey indexes.
    pub surveys: Vec<usize>,
    /// Objective coefficient `cost(τ)`.
    pub cost: f64,
    /// Solver value `X_τ(σ)` (fractional on the LP path).
    pub value: f64,
    /// The integral allocation after rounding (floor+ε on LP, round on
    /// IP) — what step 4 actually samples.
    pub allocation: u64,
}

/// One solved Figure 3 (sub)program: its variables, the constraints that
/// were binding at the optimum, and the search effort spent.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramExplain {
    /// The selection the block solves, or `"joint"` for the single-
    /// program formulation.
    pub selection: String,
    /// Optimal objective of this (sub)program.
    pub objective: f64,
    /// Objective of the (root) LP relaxation — equal to `objective` on
    /// the LP path, the branch-and-bound lower bound on IP.
    pub root_relaxation: f64,
    /// Simplex pivots spent (summed over relaxations on IP).
    pub pivots: u64,
    /// Branch-and-bound nodes expanded (0 on the LP path).
    pub nodes: u64,
    /// LP relaxations solved (1 on the LP path).
    pub lp_relaxations: u64,
    /// Indexes of constraints that hold with equality at the optimum.
    pub binding_constraints: Vec<usize>,
    /// Every decision variable with its value and rounded allocation.
    pub variables: Vec<VariableExplain>,
}

/// One edge of the sharing graph: how many sampled individuals serve
/// both surveys, and what the pairing saves against separate sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingEdge {
    /// The survey pair `(i, j)`, `i < j`.
    pub surveys: (usize, usize),
    /// Individuals in the answer whose survey set contains both.
    pub shared: u64,
    /// `cost({i, j})` under the query's cost model.
    pub pair_cost: f64,
    /// `cost({i}) + cost({j}) − cost({i, j})` — the per-individual
    /// saving realized by sharing (negative when sharing is penalized).
    pub savings: f64,
}

/// Cost attribution for one survey: each sampled individual's `cost(τ)`
/// split evenly across the surveys in its τ.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyCost {
    /// Survey index.
    pub survey: usize,
    /// Individuals in the survey's answer.
    pub individuals: usize,
    /// The survey's even-split share of the total cost.
    pub attributed_cost: f64,
}

/// One residual top-up round: the deficit entering the round and how
/// many selections it recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidualRoundExplain {
    /// Round index (0-based).
    pub round: usize,
    /// Total outstanding `(query, σ)` deficit entering the round.
    pub deficit: u64,
    /// Selections added by the round.
    pub added: u64,
}

/// The full EXPLAIN of a CPS / MR-CPS run: strata universe, solved
/// programs, sharing graph, cost attribution, residual breakdown and the
/// optimality gap. Rendered as deterministic sorted-key JSON
/// ([`PlanExplain::to_json`]) or an aligned text report
/// ([`PlanExplain::render_text`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExplain {
    /// `"lp"` (MR-CPS) or `"ip"` (exact CPS).
    pub solver: String,
    /// Whether the joint single-program formulation was used.
    pub joint: bool,
    /// The relevant selections with limits and frequencies.
    pub selections: Vec<SelectionExplain>,
    /// The solved (sub)programs, in selection order (one entry named
    /// `"joint"` under the joint formulation).
    pub programs: Vec<ProgramExplain>,
    /// Sharing graph over the realized answer (pairs with `shared > 0`).
    pub sharing: Vec<SharingEdge>,
    /// Per-survey cost attribution over the realized answer.
    pub survey_costs: Vec<SurveyCost>,
    /// Residual-round breakdown.
    pub residual_rounds: Vec<ResidualRoundExplain>,
    /// Individuals added by the residual phase.
    pub residual_selections: usize,
    /// Objective of the solved program(s) — `C_LP` or `C_IP`.
    pub solver_objective: f64,
    /// Realized cost `C_A` of the answer.
    pub realized_cost: f64,
    /// Decision variables across the program(s).
    pub variables: usize,
    /// Constraints across the program(s).
    pub constraints: usize,
}

impl PlanExplain {
    /// Relative optimality gap `max(0, (C_A − C_sol) / C_A)`.
    ///
    /// Non-negative by construction (`C_LP ≤ C_IP ≤ C_A`); exactly zero
    /// when the realized cost matches the solver objective to within
    /// 1e-9, which the exact IP configuration always achieves.
    pub fn optimality_gap(&self) -> f64 {
        let diff = self.realized_cost - self.solver_objective;
        if diff.abs() <= 1e-9 {
            return 0.0;
        }
        (diff / self.realized_cost.max(1e-9)).max(0.0)
    }

    /// Render as deterministic JSON: alphabetical keys at every level,
    /// fixed six-decimal floats (`null` when non-finite) — byte-identical
    /// across runs at a fixed seed.
    pub fn to_json(&self) -> String {
        json::document(json::INDENT, |w| self.write_fields(w))
    }

    /// Write the fields of [`PlanExplain::to_json`] into the open object
    /// of `w`.
    pub fn write_fields(&self, w: &mut Writer) {
        w.field("constraints", self.constraints)
            .field("joint", self.joint)
            .field("optimality_gap", self.optimality_gap());
        w.key("programs").array(Layout::Lines, |w| {
            for p in &self.programs {
                w.object(Layout::Inline, |w| {
                    w.key("binding_constraints")
                        .list(&p.binding_constraints)
                        .field("lp_relaxations", p.lp_relaxations)
                        .field("nodes", p.nodes)
                        .field("objective", p.objective)
                        .field("pivots", p.pivots)
                        .field("root_relaxation", p.root_relaxation)
                        .field("selection", &p.selection);
                    w.key("variables").array(Layout::Inline, |w| {
                        for v in &p.variables {
                            w.object(Layout::Inline, |w| {
                                w.field("allocation", v.allocation)
                                    .field("cost", v.cost)
                                    .key("surveys")
                                    .list(&v.surveys)
                                    .field("value", v.value);
                            });
                        }
                    });
                });
            }
        });
        w.field("realized_cost", self.realized_cost);
        w.key("residual_rounds").array(Layout::Inline, |w| {
            for r in &self.residual_rounds {
                w.object(Layout::Inline, |w| {
                    w.field("added", r.added)
                        .field("deficit", r.deficit)
                        .field("round", r.round);
                });
            }
        });
        w.field("residual_selections", self.residual_selections);
        w.key("selections").array(Layout::Lines, |w| {
            for s in &self.selections {
                w.object(Layout::Inline, |w| {
                    w.key("frequencies").array(Layout::Inline, |w| {
                        for &(q, f) in &s.frequencies {
                            w.list([q as u64, f]);
                        }
                    });
                    w.field("limit", s.limit).field("selection", &s.selection);
                });
            }
        });
        w.key("sharing").array(Layout::Lines, |w| {
            for e in &self.sharing {
                w.object(Layout::Inline, |w| {
                    w.field("pair_cost", e.pair_cost)
                        .field("savings", e.savings)
                        .field("shared", e.shared)
                        .key("surveys")
                        .list([e.surveys.0, e.surveys.1]);
                });
            }
        });
        w.field("solver", &self.solver)
            .field("solver_objective", self.solver_objective);
        w.key("survey_costs").array(Layout::Inline, |w| {
            for c in &self.survey_costs {
                w.object(Layout::Inline, |w| {
                    w.field("attributed_cost", c.attributed_cost)
                        .field("individuals", c.individuals)
                        .field("survey", c.survey);
                });
            }
        });
        w.field("variables", self.variables);
    }

    /// Render as an aligned text report (headline numbers, then one
    /// section per EXPLAIN dimension), mirroring the conventions of
    /// `Snapshot::render_text`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan explain ({} solver, {} formulation):",
            self.solver,
            if self.joint { "joint" } else { "blockwise" }
        );
        let _ = writeln!(out, "  solver objective  {:>12.4}", self.solver_objective);
        let _ = writeln!(out, "  realized cost     {:>12.4}", self.realized_cost);
        let _ = writeln!(
            out,
            "  optimality gap    {:>11.3}%",
            self.optimality_gap() * 100.0
        );
        let _ = writeln!(
            out,
            "  program size      {} variables, {} constraints over {} selections",
            self.variables,
            self.constraints,
            self.selections.len()
        );
        if !self.selections.is_empty() {
            out.push_str("selections:\n");
            let w = self
                .selections
                .iter()
                .map(|s| s.selection.chars().count())
                .max()
                .unwrap_or(0);
            for s in &self.selections {
                let freqs: Vec<String> = s
                    .frequencies
                    .iter()
                    .map(|&(q, f)| format!("q{q}={f}"))
                    .collect();
                let pad = w.saturating_sub(s.selection.chars().count());
                let _ = writeln!(
                    out,
                    "  {}{}  limit {:>6}  F: {}",
                    s.selection,
                    " ".repeat(pad),
                    s.limit,
                    freqs.join(" ")
                );
            }
        }
        if !self.programs.is_empty() {
            out.push_str("programs:\n");
            for p in &self.programs {
                let binding: Vec<String> =
                    p.binding_constraints.iter().map(usize::to_string).collect();
                let _ = writeln!(
                    out,
                    "  {}  objective {:.4}  relaxation {:.4}  pivots {}  nodes {}  binding [{}]",
                    p.selection,
                    p.objective,
                    p.root_relaxation,
                    p.pivots,
                    p.nodes,
                    binding.join(",")
                );
            }
        }
        if !self.sharing.is_empty() {
            out.push_str("sharing:\n");
            for e in &self.sharing {
                let _ = writeln!(
                    out,
                    "  surveys ({}, {})  shared {:>6}  pair_cost {:.4}  savings {:.4}",
                    e.surveys.0, e.surveys.1, e.shared, e.pair_cost, e.savings
                );
            }
        }
        if !self.survey_costs.is_empty() {
            out.push_str("survey costs:\n");
            for c in &self.survey_costs {
                let _ = writeln!(
                    out,
                    "  q{}  {:>6} individuals  attributed {:.4}",
                    c.survey, c.individuals, c.attributed_cost
                );
            }
        }
        if !self.residual_rounds.is_empty() {
            out.push_str("residual rounds:\n");
            for r in &self.residual_rounds {
                let _ = writeln!(
                    out,
                    "  #{}  deficit {:>6}  added {:>6}",
                    r.round, r.deficit, r.added
                );
            }
        }
        out
    }
}

/// Run CPS / MR-CPS on pre-built input splits. An unsolvable program
/// comes back as [`CpsError::Lp`], a MapReduce phase that cannot
/// complete under the fault model as [`CpsError::Job`].
pub fn try_mr_cps_on_splits(
    cluster: &Cluster,
    splits: &[InputSplit<Individual>],
    mssd: &MssdQuery,
    config: CpsConfig,
    seed: u64,
) -> Result<CpsRun, CpsError> {
    let queries = mssd.queries();
    let n = queries.len();
    let mut phase_stats = Vec::new();
    let tel = cluster.telemetry();
    let _run_span = tel.map(|t| t.span("cps.run"));
    if let Some(t) = tel {
        t.counter("cps.runs").inc();
    }

    // ---- step 1: representative first-phase answer (Line 1) ------------
    let (initial, fused_tallies) = {
        let _s = tel.map(|t| t.span("initial_mqe"));
        let cluster = cluster.named("cps/initial-mqe");
        match config.schedule {
            CpsSchedule::Fused => {
                let (run, tallies) =
                    mr_mqe_tallied(&cluster, splits, queries, seed.wrapping_add(1))?;
                (run, Some(tallies))
            }
            CpsSchedule::Paper => (
                try_mr_mqe_on_splits(&cluster, splits, queries, None, seed.wrapping_add(1))?,
                None,
            ),
        }
    };
    phase_stats.push(("initial MR-MQE".to_string(), initial.stats.clone()));

    // F(A_i, σ): each answer's tuples through the scan's σ interner
    // (§5.2.5.1)
    let matcher = SelectionMatcher::new(queries);
    let sampled: Vec<SigmaTally> = (0..n)
        .map(|i| SigmaTally::of_tuples(initial.answer.answer(i).iter(), &matcher))
        .collect();

    // [[Q]]* — the relevant selections, in `StratumSelection` order: the
    // program's block order, Q′'s stratum order and the EXPLAIN's
    let mut relevant: Vec<StratumSelection> = sampled
        .iter()
        .flat_map(SigmaTally::selections)
        .cloned()
        .collect();
    relevant.sort();
    relevant.dedup();
    let position = |sel: &StratumSelection| {
        relevant
            .binary_search(sel)
            .expect("sampled and deficit selections are relevant")
    };
    // freq[i][r] = F(A_i, relevant[r])
    let freq: Vec<Vec<u64>> = sampled
        .iter()
        .map(|tally| relevant.iter().map(|sel| tally.count(sel)).collect())
        .collect();

    // ---- step 2: limits L(σ) and the rows' selection ids ---------------
    // Both schedules' scans tally every row's σ(t), so L(σ) comes from
    // the merged tallies; the Figure 4 job's keyed counts equal them on
    // the relevant selections
    let (mut table, row_ids) = {
        let _s = tel.map(|t| t.span("limits"));
        let tallies = match fused_tallies {
            Some(tallies) => tallies,
            None => {
                let relevant_set: HashSet<StratumSelection> = relevant.iter().cloned().collect();
                let out = limits_tallied(
                    &cluster.named("cps/limits"),
                    splits,
                    queries,
                    Some(&relevant_set),
                    seed.wrapping_add(2),
                )?;
                phase_stats.push(("selection limits".to_string(), out.stats));
                out.sides
            }
        };
        SelectionTable::merge(tallies)
    };
    // the relevant selections' ids (a selection no row carries — which
    // the data cannot produce — gets an id with L(σ) = 0)
    let ids: Vec<u32> = relevant
        .iter()
        .map(|sel| table.intern(sel.clone()))
        .collect();
    let limits: Vec<u64> = ids.iter().map(|&id| table.count(id)).collect();

    // EXPLAIN: the strata universe — every relevant σ with its limit and
    // per-survey selection frequencies
    let selections_explain: Vec<SelectionExplain> = if config.explain {
        relevant
            .iter()
            .enumerate()
            .map(|(r, sel)| SelectionExplain {
                selection: sel.to_string(),
                limit: limits[r],
                frequencies: (0..n)
                    .filter(|&i| freq[i][r] > 0)
                    .map(|i| (i, freq[i][r]))
                    .collect(),
            })
            .collect()
    } else {
        Vec::new()
    };

    // ---- step 3: formulate & solve the Figure 3 program ----------------
    let mut timings = CpsTimings::default();
    let mut variables = 0usize;
    let mut constraints = 0usize;
    let mut solver_objective = 0.0f64;
    let mut programs: Vec<ProgramExplain> = Vec::new();
    let plans: Vec<SigmaPlan> = {
        let _s = tel.map(|t| t.span("solve"));
        let explain = config.explain.then_some(&mut programs);
        let program = Program {
            relevant: &relevant,
            freq: &freq,
            limits: &limits,
            mssd,
            config,
        };
        if config.joint_formulation {
            program.solve_joint(
                tel,
                &mut timings,
                &mut variables,
                &mut constraints,
                &mut solver_objective,
                explain,
            )?
        } else {
            program.solve_blockwise(
                tel,
                &mut timings,
                &mut variables,
                &mut constraints,
                &mut solver_objective,
                explain,
            )?
        }
    };
    if let Some(t) = tel {
        t.counter("cps.relevant_selections")
            .add(relevant.len() as u64);
        t.counter("cps.program.variables").add(variables as u64);
        t.counter("cps.program.constraints").add(constraints as u64);
    }

    // ---- step 4: combined query Q′ + distribution (Lines 4-15) ---------
    // Q′ has one stratum per relevant σ with a positive allocation; its
    // condition ϕ(σ) selects exactly the tuples with σ(t) = σ, so the
    // job matches a tuple by looking its row's selection id up — the
    // MapReduce program is MR-SQE on Q′, with the formula evaluation
    // strength-reduced to an index read.
    let active: Vec<&SigmaPlan> = plans.iter().filter(|p| p.total > 0).collect();
    // the Q′ stratum of each selection id
    let mut stratum_of_id = vec![None; table.len()];
    for (k, p) in active.iter().enumerate() {
        stratum_of_id[ids[p.r] as usize] = Some(k);
    }
    let stratum = |_: &Individual, row: RowId| {
        stratum_of_id[row_ids[row.split as usize][row.row as usize] as usize]
    };
    let freqs = active.iter().map(|p| p.total as usize).collect();
    let combined_job = RowSampler::new(
        splits,
        SqeJob::<_, RowId>::new(stratum, freqs, tel, "cps.combined"),
    );
    let combined = {
        let _s = tel.map(|t| t.span("combined_sqe"));
        combined_job.run(&cluster.named("cps/combined-sqe"), seed.wrapping_add(3))?
    };
    phase_stats.push(("combined MR-SQE".to_string(), combined.stats.clone()));
    let mut pools: Vec<Vec<RowId>> = vec![Vec::new(); active.len()];
    for (k, sample) in combined.results {
        pools[k] = sample;
    }

    let mut star: Vec<SsdAnswer> = queries.iter().map(|q| SsdAnswer::empty(q.len())).collect();
    // assigned[i][r]: how many tuples A*_i already holds for relevant[r]
    let mut assigned = vec![vec![0u64; relevant.len()]; n];
    let assign_seed = mix_seed(seed, ASSIGN_SEED_TAG);
    for (plan, pool) in active.iter().zip(&mut pools) {
        let sel = &relevant[plan.r];
        // The pool lists each split's picks after the previous split's,
        // so handing it out in order would tie an individual's survey set
        // τ to the split that holds it. A uniform permutation makes every
        // split of the allocation equally likely for every pick. Its seed
        // depends on the query seed and σ's position only, never on task
        // or thread order, so both schedules deal identical answers.
        let order_seed = mix_seed(assign_seed, plan.r as u64);
        pool.shuffle(&mut ChaCha8Rng::seed_from_u64(order_seed));
        for &(tau, count) in &plan.allocations {
            for _ in 0..count {
                let Some(id) = pool.pop() else { break };
                let t = combined_job.record(id);
                for i in tau.iter() {
                    let stratum = sel.stratum_of(i).expect("τ ⊆ I(σ)");
                    star[i].stratum_mut(stratum).push(t.clone());
                    assigned[i][plan.r] += 1;
                }
            }
        }
    }

    // ---- step 5: residual top-up (§5.2.5.2) -----------------------------
    // Semantically another MSSD (MR-MQE) phase over the residual
    // frequencies, keyed by (query, σ) with already-selected individuals
    // excluded per query; like the combined job, tuples are matched by
    // their row's selection id instead of re-evaluating ϕ(σ).
    let mut residual_selections = 0usize;
    let mut residual_rounds: Vec<ResidualRoundExplain> = Vec::new();
    for round in 0..MAX_RESIDUAL_ROUNDS {
        // deficits per (i, σ), and per selection id the surveys short of it
        let mut needed: HashMap<(usize, StratumSelection), usize> = HashMap::new();
        let mut short = vec![SurveySet::EMPTY; table.len()];
        for i in 0..n {
            for (r, sel) in relevant.iter().enumerate() {
                if freq[i][r] > assigned[i][r] {
                    needed.insert((i, sel.clone()), (freq[i][r] - assigned[i][r]) as usize);
                    let id = ids[r] as usize;
                    short[id] = short[id].with(i);
                }
            }
        }
        if needed.is_empty() {
            break;
        }
        // exclude already-selected individuals, per query
        let exclusions: Vec<HashSet<u64>> = star
            .iter()
            .map(|a| a.iter().map(|t| t.id).collect())
            .collect();
        let deficit: u64 = needed.values().map(|&v| v as u64).sum();
        let residual_counters = tel.map(|t| StratumCounters::aggregate(t, "cps.residual"));
        if let Some(c) = &residual_counters {
            c.request(0, deficit);
        }
        let residual_job = RowSampler::new(
            splits,
            ResidualMqeJob {
                row_ids: &row_ids,
                table: &table,
                short: &short,
                needed: &needed,
                exclusions: &exclusions,
                counters: residual_counters,
            },
        );
        let residual = {
            let _s = tel.map(|t| t.span("residual"));
            residual_job.run(
                &cluster.named(&format!("cps/residual#{round}")),
                seed.wrapping_add(4 + round as u64),
            )?
        };
        if let Some(t) = tel {
            t.counter("cps.residual.rounds").inc();
        }
        phase_stats.push((format!("residual MR-MQE #{round}"), residual.stats.clone()));
        let mut added_this_round = 0usize;
        for ((i, sel), tuples) in residual.results {
            let stratum = sel.stratum_of(i).expect("deficit implies i ∈ I(σ)");
            let r = position(&sel);
            for t in tuples {
                star[i].stratum_mut(stratum).push(t);
                assigned[i][r] += 1;
                added_this_round += 1;
            }
        }
        residual_selections += added_this_round;
        if config.explain {
            residual_rounds.push(ResidualRoundExplain {
                round,
                deficit,
                added: added_this_round as u64,
            });
        }
        if added_this_round == 0 {
            // pool dry (cannot happen when the limits are consistent);
            // avoid spinning
            break;
        }
    }

    if let Some(t) = tel {
        t.counter("cps.residual.selections")
            .add(residual_selections as u64);
    }
    let answer = MssdAnswer::new(star);
    let cost = answer.cost(mssd.costs());
    let explain = if config.explain {
        let costs = mssd.costs();
        // sharing graph + cost attribution from the realized answer,
        // walked in sorted-id order so f64 sums are byte-deterministic
        let sets = answer.survey_sets();
        let mut ids: Vec<u64> = sets.keys().copied().collect();
        ids.sort_unstable();
        let mut sharing = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let shared = ids
                    .iter()
                    .filter(|&&id| sets[&id].contains(i) && sets[&id].contains(j))
                    .count() as u64;
                if shared == 0 {
                    continue;
                }
                let pair = SurveySet::from_iter([i, j]);
                let apart =
                    costs.cost(SurveySet::singleton(i)) + costs.cost(SurveySet::singleton(j));
                sharing.push(SharingEdge {
                    surveys: (i, j),
                    shared,
                    pair_cost: costs.cost(pair),
                    savings: apart - costs.cost(pair),
                });
            }
        }
        let mut attributed = vec![0.0f64; n];
        for id in &ids {
            let tau = sets[id];
            let share = costs.cost(tau) / tau.len() as f64;
            for i in tau.iter() {
                attributed[i] += share;
            }
        }
        let survey_costs = (0..n)
            .map(|i| SurveyCost {
                survey: i,
                individuals: answer.answer(i).len(),
                attributed_cost: attributed[i],
            })
            .collect();
        Some(PlanExplain {
            solver: match config.solver {
                SolverKind::Lp => "lp",
                SolverKind::Ip => "ip",
            }
            .to_string(),
            joint: config.joint_formulation,
            selections: selections_explain,
            programs,
            sharing,
            survey_costs,
            residual_rounds,
            residual_selections,
            solver_objective,
            realized_cost: cost,
            variables,
            constraints,
        })
    } else {
        None
    };
    Ok(CpsRun {
        answer,
        cost,
        solver_objective,
        residual_selections,
        variables,
        constraints,
        relevant_selections: relevant.len(),
        timings,
        phase_stats,
        explain,
    })
}

/// The residual MR-MQE phase, keyed by `(query, σ)` with per-query
/// exclusion of already-selected individuals.
struct ResidualMqeJob<'a> {
    /// Selection id per split position and row.
    row_ids: &'a [Vec<u32>],
    table: &'a SelectionTable,
    /// Per selection id, the surveys with a deficit on it.
    short: &'a [SurveySet],
    needed: &'a HashMap<(usize, StratumSelection), usize>,
    exclusions: &'a [HashSet<u64>],
    /// Aggregate `cps.residual.*` counters — the key space is the
    /// dynamic `(query, σ)` deficits, so no per-stratum breakdown.
    counters: Option<StratumCounters>,
}

impl Strata for ResidualMqeJob<'_> {
    type Key = (usize, StratumSelection);
    type Side = ();
    type Pick = Individual;

    fn map(&self, t: &Individual, row: RowId, out: &mut Emitter<Self::Key, RowId>) {
        let id = self.row_ids[row.split as usize][row.row as usize];
        for i in self.short[id as usize].iter() {
            if self.exclusions[i].contains(&t.id) {
                continue;
            }
            if let Some(c) = &self.counters {
                c.candidate(0);
            }
            out.emit((i, self.table.selection(id).clone()), row);
        }
    }

    fn frequency(&self, key: &Self::Key) -> usize {
        self.needed[key]
    }

    fn reduced(&self, _key: &Self::Key, sampled: u64, seen: u64) {
        if let Some(c) = &self.counters {
            c.reduced(0, sampled, seen);
        }
    }
}

/// Enumerate the non-empty subsets of a survey set in ascending bitmask
/// order.
fn taus_of(active: SurveySet) -> Vec<SurveySet> {
    let mut taus: Vec<SurveySet> = active.nonempty_subsets().collect();
    taus.sort();
    taus
}

/// Floor with the paper's ε nudge.
fn floor_eps(x: f64) -> u64 {
    (x + EPSILON).floor().max(0.0) as u64
}

/// A solver value rounded to the allocation step 4 samples: floor+ε on
/// the LP path, round on IP.
fn round(solver: SolverKind, x: f64) -> u64 {
    match solver {
        SolverKind::Lp => floor_eps(x),
        SolverKind::Ip => x.round() as u64,
    }
}

/// Search effort behind one solved (sub)program, normalized across the
/// LP and IP backends for the plan EXPLAIN.
#[derive(Debug, Clone, Copy, Default)]
struct SolveEffort {
    pivots: u64,
    nodes: u64,
    lp_relaxations: u64,
    /// Objective of the (root) LP relaxation — equals the objective
    /// itself on the LP path, the branch-and-bound lower bound on IP.
    root_relaxation: f64,
}

/// One Figure 3 (sub)program solve, recording the solver's counters
/// when the cluster carries a telemetry registry (pivot, node and
/// relaxation counters land under `lp.*` / `ip.*`). Always returns
/// the search effort so EXPLAIN capture costs nothing extra.
fn solve_dispatch(
    problem: &Problem,
    solver: SolverKind,
    telemetry: Option<&Registry>,
) -> Result<(Solution, SolveEffort), LpError> {
    match solver {
        SolverKind::Lp => solve_lp(problem, telemetry).map(|(solution, stats)| {
            let effort = SolveEffort {
                pivots: stats.pivots(),
                nodes: 0,
                lp_relaxations: 1,
                root_relaxation: solution.objective,
            };
            (solution, effort)
        }),
        SolverKind::Ip => solve_ip(problem, telemetry).map(|(solution, stats)| {
            let effort = SolveEffort {
                pivots: stats.pivots,
                nodes: stats.nodes,
                lp_relaxations: stats.lp_relaxations,
                root_relaxation: stats.root_relaxation,
            };
            (solution, effort)
        }),
    }
}

/// The Figure 3 program over the relevant selections, indexed by their
/// position `r` in `relevant`.
struct Program<'a> {
    relevant: &'a [StratumSelection],
    /// `freq[i][r] = F(A_i, relevant[r])`.
    freq: &'a [Vec<u64>],
    /// `limits[r] = L(relevant[r])`.
    limits: &'a [u64],
    mssd: &'a MssdQuery,
    config: CpsConfig,
}

impl Program<'_> {
    /// The queries that actually sampled σ: `{i ∈ I(σ) : F(A_i, σ) > 0}`.
    ///
    /// For any `i` with `F(A_i, σ) = 0`, the equality constraint forces
    /// every `X_τ(σ)` with `i ∈ τ` to zero, so restricting the variables
    /// to subsets of this set leaves the optimum unchanged (the same
    /// reasoning the paper uses to prune redundant selections in
    /// §5.2.5.1, applied per variable).
    fn active_surveys(&self, r: usize) -> SurveySet {
        SurveySet::from_iter(
            self.relevant[r]
                .survey_indexes()
                .iter()
                .filter(|&i| self.freq[i][r] > 0),
        )
    }

    /// Add selection `r`'s block to `problem`: one variable per τ, the
    /// equivalence constraints `Σ_{τ∋i} X_τ = F(A_i, σ)` and the upper
    /// bound `Σ_τ X_τ ≤ L(σ)`. Refuses a block over
    /// [`MAX_BLOCK_VARIABLES`] before enumerating it.
    fn add_block(
        &self,
        problem: &mut Problem,
        r: usize,
    ) -> Result<(Vec<SurveySet>, Vec<usize>), CpsError> {
        let active = self.active_surveys(r);
        if (1u64 << active.len()) - 1 > MAX_BLOCK_VARIABLES as u64 {
            return Err(CpsError::ProgramTooLarge {
                selection: self.relevant[r].to_string(),
                surveys: active.len(),
            });
        }
        let taus = taus_of(active);
        let costs = self.mssd.costs();
        let vars: Vec<_> = taus
            .iter()
            .map(|&tau| problem.add_var(costs.cost(tau)))
            .collect();
        for i in active.iter() {
            let coeffs: Vec<_> = taus
                .iter()
                .zip(&vars)
                .filter(|(tau, _)| tau.contains(i))
                .map(|(_, &v)| (v, 1.0))
                .collect();
            problem.add_constraint(coeffs, Relation::Eq, self.freq[i][r] as f64);
        }
        problem.add_constraint(
            vars.iter().map(|&v| (v, 1.0)).collect(),
            Relation::Le,
            self.limits[r] as f64,
        );
        Ok((taus, vars))
    }

    /// Selection `r`'s integral allocation from a solved program.
    fn plan(&self, r: usize, taus: &[SurveySet], vars: &[usize], solution: &Solution) -> SigmaPlan {
        let allocations: Vec<(SurveySet, u64)> = taus
            .iter()
            .zip(vars)
            .map(|(&tau, &v)| (tau, round(self.config.solver, solution.values[v])))
            .filter(|&(_, c)| c > 0)
            .collect();
        let total = allocations.iter().map(|&(_, c)| c).sum();
        SigmaPlan {
            r,
            allocations,
            total,
        }
    }

    fn solve_blockwise(
        &self,
        telemetry: Option<&Registry>,
        timings: &mut CpsTimings,
        variables: &mut usize,
        constraints: &mut usize,
        objective: &mut f64,
        mut explain: Option<&mut Vec<ProgramExplain>>,
    ) -> Result<Vec<SigmaPlan>, CpsError> {
        let mut plans = Vec::with_capacity(self.relevant.len());
        for r in 0..self.relevant.len() {
            let t0 = Instant::now();
            let mut problem = Problem::new();
            let (taus, vars) = self.add_block(&mut problem, r)?;
            *variables += problem.n_vars();
            *constraints += problem.n_constraints();
            timings.formulate_secs += t0.elapsed().as_secs_f64();

            let t1 = Instant::now();
            let (solution, effort) = solve_dispatch(&problem, self.config.solver, telemetry)?;
            timings.solve_secs += t1.elapsed().as_secs_f64();
            *objective += solution.objective;

            if let Some(out) = explain.as_deref_mut() {
                out.push(program_explain(
                    self.relevant[r].to_string(),
                    &problem,
                    &solution,
                    effort,
                    &taus,
                    &vars,
                    self.mssd,
                    self.config,
                ));
            }
            plans.push(self.plan(r, &taus, &vars, &solution));
        }
        Ok(plans)
    }

    fn solve_joint(
        &self,
        telemetry: Option<&Registry>,
        timings: &mut CpsTimings,
        variables: &mut usize,
        constraints: &mut usize,
        objective: &mut f64,
        explain: Option<&mut Vec<ProgramExplain>>,
    ) -> Result<Vec<SigmaPlan>, CpsError> {
        let t0 = Instant::now();
        let mut problem = Problem::new();
        // var layout: per selection, its τ list
        let layout = (0..self.relevant.len())
            .map(|r| self.add_block(&mut problem, r))
            .collect::<Result<Vec<_>, _>>()?;
        *variables = problem.n_vars();
        *constraints = problem.n_constraints();
        timings.formulate_secs += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let (solution, effort) = solve_dispatch(&problem, self.config.solver, telemetry)?;
        timings.solve_secs += t1.elapsed().as_secs_f64();
        *objective = solution.objective;

        if let Some(out) = explain {
            let all_taus: Vec<SurveySet> =
                layout.iter().flat_map(|(t, _)| t.iter().copied()).collect();
            let all_vars: Vec<usize> = layout.iter().flat_map(|(_, v)| v.iter().copied()).collect();
            out.push(program_explain(
                "joint".to_string(),
                &problem,
                &solution,
                effort,
                &all_taus,
                &all_vars,
                self.mssd,
                self.config,
            ));
        }
        Ok(layout
            .iter()
            .enumerate()
            .map(|(r, (taus, vars))| self.plan(r, taus, vars, &solution))
            .collect())
    }
}

/// Assemble one [`ProgramExplain`] from a solved (sub)program.
#[allow(clippy::too_many_arguments)]
fn program_explain(
    selection: String,
    problem: &Problem,
    solution: &Solution,
    effort: SolveEffort,
    taus: &[SurveySet],
    vars: &[usize],
    mssd: &MssdQuery,
    config: CpsConfig,
) -> ProgramExplain {
    ProgramExplain {
        selection,
        objective: solution.objective,
        root_relaxation: effort.root_relaxation,
        pivots: effort.pivots,
        nodes: effort.nodes,
        lp_relaxations: effort.lp_relaxations,
        binding_constraints: problem.binding_constraints(&solution.values, 1e-6),
        variables: taus
            .iter()
            .zip(vars)
            .map(|(&tau, &v)| VariableExplain {
                surveys: tau.iter().collect(),
                cost: mssd.costs().cost(tau),
                value: solution.values[v],
                allocation: round(config.solver, solution.values[v]),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::to_input_splits;
    use stratmr_population::{AttrDef, AttrId, Dataset, Placement, Schema};
    use stratmr_query::{CostModel, Formula, SsdQuery, StratumConstraint};

    fn x() -> AttrId {
        AttrId(0)
    }

    /// Population: x uniform over 0..100, n individuals.
    fn dataset(n: usize) -> Dataset {
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 99)]);
        let tuples = (0..n as u64)
            .map(|i| Individual::new(i, vec![(i % 100) as i64], 100))
            .collect();
        Dataset::new(schema, tuples)
    }

    /// `config` with the joint formulation switched on.
    fn joint(config: CpsConfig) -> CpsConfig {
        CpsConfig {
            joint_formulation: true,
            ..config
        }
    }

    /// `config` with EXPLAIN capture switched on.
    fn explained(config: CpsConfig) -> CpsConfig {
        CpsConfig {
            explain: true,
            ..config
        }
    }

    /// Two overlapping surveys over the same attribute, sharing free.
    fn overlapping_mssd() -> MssdQuery {
        let q1 = SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x(), 50), 10),
            StratumConstraint::new(Formula::ge(x(), 50), 10),
        ]);
        let q2 = SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x(), 30), 6),
            StratumConstraint::new(Formula::between(x(), 30, 69), 8),
            StratumConstraint::new(Formula::ge(x(), 70), 6),
        ]);
        MssdQuery::new(vec![q1, q2], CostModel::paper_style(2, 4.0, &[], 10.0))
    }

    #[test]
    fn traced_cps_names_each_phase() {
        use stratmr_mapreduce::TraceSink;
        let splits = to_input_splits(&dataset(1000).distribute(3, 6, Placement::RoundRobin));
        let mssd = overlapping_mssd();
        let traced = |config| {
            let sink = TraceSink::new();
            let cluster = Cluster::new(3).with_trace(sink.clone());
            try_mr_cps_on_splits(&cluster, &splits, &mssd, config, 42).unwrap();
            // every job carries a non-empty event stream
            assert!(sink.jobs().iter().all(|j| !j.events.is_empty()));
            sink.jobs().into_iter().map(|j| j.name).collect::<Vec<_>>()
        };
        let paper = traced(CpsConfig::paper());
        assert_eq!(
            paper[..3],
            ["cps/initial-mqe", "cps/limits", "cps/combined-sqe"],
            "all: {paper:?}"
        );
        // residual rounds (if any) are numbered
        for (i, n) in paper.iter().enumerate().skip(3) {
            assert_eq!(n, &format!("cps/residual#{}", i - 3), "all: {paper:?}");
        }
        // the fused schedule drops exactly the L(σ) job
        let fused = traced(CpsConfig::mr_cps());
        let without_limits: Vec<String> = paper.into_iter().filter(|n| n != "cps/limits").collect();
        assert_eq!(fused, without_limits);
    }

    #[test]
    fn cps_answer_satisfies_all_queries() {
        let splits = to_input_splits(&dataset(2000).distribute(4, 8, Placement::RoundRobin));
        let cluster = Cluster::new(4);
        let mssd = overlapping_mssd();
        let run = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 42).unwrap();
        assert!(
            run.answer.satisfies(&mssd),
            "CPS answer must satisfy every SSD"
        );
    }

    #[test]
    fn cps_cost_beats_mqe_on_average() {
        let splits = to_input_splits(&dataset(2000).distribute(3, 6, Placement::RoundRobin));
        let cluster = Cluster::new(3);
        let mssd = overlapping_mssd();
        let runs = 15;
        let mut cps_total = 0.0;
        let mut mqe_total = 0.0;
        for s in 0..runs {
            let cps =
                try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), s).unwrap();
            cps_total += cps.cost;
            let mqe = try_mr_mqe_on_splits(&cluster, &splits, mssd.queries(), None, s).unwrap();
            mqe_total += mqe.answer.cost(mssd.costs());
        }
        assert!(
            cps_total < mqe_total,
            "CPS ({cps_total}) should be cheaper than MQE ({mqe_total})"
        );
    }

    #[test]
    fn lp_objective_bounds_realized_cost() {
        // C_LP ≤ C_IP ≤ C_A (§6.2.2)
        let splits = to_input_splits(&dataset(1500).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        let mssd = overlapping_mssd();
        let lp = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 7).unwrap();
        let ip = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::exact(), 7).unwrap();
        assert!(
            lp.solver_objective <= ip.solver_objective + 1e-6,
            "C_LP {} > C_IP {}",
            lp.solver_objective,
            ip.solver_objective
        );
        assert!(
            ip.solver_objective <= ip.cost + 1e-6,
            "C_IP {} > realized {}",
            ip.solver_objective,
            ip.cost
        );
    }

    #[test]
    fn exact_ip_has_no_residuals() {
        let splits = to_input_splits(&dataset(1500).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        let mssd = overlapping_mssd();
        let run = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::exact(), 11).unwrap();
        assert_eq!(
            run.residual_selections, 0,
            "integral solutions need no residual phase"
        );
        // with no rounding loss the realized answer matches the IP plan
        assert!(run.answer.satisfies(&mssd));
    }

    #[test]
    fn joint_and_blockwise_agree() {
        let splits = to_input_splits(&dataset(1200).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        let mssd = overlapping_mssd();
        let block = try_mr_cps_on_splits(
            &cluster,
            &splits,
            &mssd,
            CpsConfig {
                joint_formulation: false,
                ..CpsConfig::mr_cps()
            },
            5,
        )
        .unwrap();
        let joint = try_mr_cps_on_splits(
            &cluster,
            &splits,
            &mssd,
            CpsConfig {
                joint_formulation: true,
                ..CpsConfig::mr_cps()
            },
            5,
        )
        .unwrap();
        assert!(
            (block.solver_objective - joint.solver_objective).abs() < 1e-6,
            "block {} vs joint {}",
            block.solver_objective,
            joint.solver_objective
        );
        assert_eq!(block.variables, joint.variables);
        assert_eq!(block.constraints, joint.constraints);
    }

    #[test]
    fn sharing_is_high_when_free_and_low_when_penalized() {
        let splits = to_input_splits(&dataset(2000).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        // two *identical* surveys → everything can be shared
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x(), 100), 20)]);
        let free = MssdQuery::new(
            vec![q.clone(), q.clone()],
            CostModel::paper_style(2, 4.0, &[], 0.0),
        );
        let run = try_mr_cps_on_splits(&cluster, &splits, &free, CpsConfig::mr_cps(), 3).unwrap();
        let hist = run.answer.sharing_histogram(2);
        assert_eq!(hist[1], 20, "all individuals should serve both surveys");
        assert!(
            (run.cost - 80.0).abs() < 1e-9,
            "20 shared × $4 = $80, got {}",
            run.cost
        );

        // heavy penalty → sharing never pays off
        let penalized = MssdQuery::new(
            vec![q.clone(), q],
            CostModel::paper_style(2, 4.0, &[(0, 1)], 100.0),
        );
        let run2 =
            try_mr_cps_on_splits(&cluster, &splits, &penalized, CpsConfig::mr_cps(), 3).unwrap();
        let hist2 = run2.answer.sharing_histogram(2);
        assert_eq!(hist2[1], 0, "penalty should forbid sharing: {hist2:?}");
        assert!((run2.cost - 160.0).abs() < 1e-9);
    }

    #[test]
    fn example3_single_men_are_not_overrepresented() {
        // Example 3: survey A wants 6 men, survey B wants 12 singles.
        // Sharing uses single men — but only as many as a representative
        // sample contains, not "as many as possible".
        let schema = Schema::new(vec![
            AttrDef::categorical("gender", &["male", "female"]),
            AttrDef::categorical("status", &["single", "married"]),
        ]);
        let g = schema.attr_id("gender").unwrap();
        let st = schema.attr_id("status").unwrap();
        // population: 200 individuals, 50/50 gender, 50/50 status, independent
        let tuples: Vec<Individual> = (0..200u64)
            .map(|i| Individual::new(i, vec![(i % 2) as i64, ((i / 2) % 2) as i64], 10))
            .collect();
        let splits =
            to_input_splits(&Dataset::new(schema, tuples).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        let men = SsdQuery::new(vec![StratumConstraint::new(Formula::eq(g, 0), 6)]);
        let singles = SsdQuery::new(vec![StratumConstraint::new(Formula::eq(st, 0), 12)]);
        let mssd = MssdQuery::new(vec![men, singles], CostModel::paper_style(2, 1.0, &[], 0.0));
        // across runs, the fraction of single men in survey A must hover
        // around the population rate (1/2), not 100%
        let runs = 40;
        let mut single_men = 0usize;
        for s in 0..runs {
            let run =
                try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), s).unwrap();
            assert!(run.answer.satisfies(&mssd));
            single_men += run
                .answer
                .answer(0)
                .iter()
                .filter(|t| t.get(st) == 0)
                .count();
        }
        let frac = single_men as f64 / (runs * 6) as f64;
        assert!(
            (0.35..=0.65).contains(&frac),
            "single-men fraction {frac} is biased (expected ≈ 0.5)"
        );
    }

    /// A constructed instance whose LP optimum is a *fractional* vertex
    /// (`X_{12} = X_{13} = X_{23} = 1/2`), so floor rounding zeroes the
    /// whole plan and the residual phase must assemble the entire answer.
    #[test]
    fn fractional_lp_vertex_exercises_residual_phase() {
        // exactly 2 individuals → L(σ) = 2
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 0)]);
        let tuples = vec![
            Individual::new(0, vec![0], 10),
            Individual::new(1, vec![0], 10),
        ];
        let splits =
            to_input_splits(&Dataset::new(schema, tuples).distribute(2, 2, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        // three surveys, each sampling 1 individual from the one stratum
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::eq(x(), 0), 1)]);
        // pair sharing mildly penalized, triple sharing heavily:
        // LP optimum = three half-pairs (cost 9) beats {123} (10) and
        // {12}+{3} (10); singletons alone are infeasible (Σ = 3 > L = 2)
        let costs = CostModel::paper_style(3, 4.0, &[(0, 1), (0, 2), (1, 2)], 2.0)
            .with_override(SurveySet::from_iter([0, 1, 2]), 10.0);
        let mssd = MssdQuery::new(vec![q.clone(), q.clone(), q], costs);
        let run = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 3).unwrap();
        assert!(
            (run.solver_objective - 9.0).abs() < 1e-6,
            "expected the fractional optimum 9, got {}",
            run.solver_objective
        );
        assert_eq!(
            run.residual_selections, 3,
            "flooring a fully fractional plan leaves everything to residuals"
        );
        assert!(
            run.answer.satisfies(&mssd),
            "residual phase must complete the answer"
        );
        // realized integral cost can't beat the IP optimum (10)
        assert!(run.cost >= 10.0 - 1e-9, "realized {}", run.cost);
    }

    /// MR-CPS telemetry: per-round spans cover every phase, the LP is
    /// solved once per relevant selection (blockwise), and the residual
    /// counters agree with the run's own accounting.
    #[test]
    fn telemetry_covers_all_phases() {
        let registry = Registry::new();
        let splits = to_input_splits(&dataset(1500).distribute(3, 6, Placement::RoundRobin));
        let cluster = Cluster::new(3).with_telemetry(registry.clone());
        let mssd = overlapping_mssd();
        let run = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 17).unwrap();

        let snap = registry.snapshot();
        assert_eq!(snap.counter("cps.runs"), 1);
        for phase in ["initial_mqe", "limits", "solve", "combined_sqe"] {
            assert_eq!(snap.span_calls(&format!("cps.run/{phase}")), 1, "{phase}");
        }
        // blockwise: one LP solve per relevant selection, nested under
        // the solve span
        assert_eq!(snap.counter("lp.solves"), run.relevant_selections as u64);
        assert_eq!(
            snap.span_calls("cps.run/solve/lp.solve"),
            run.relevant_selections as u64
        );
        assert!(snap.counter("lp.pivots") > 0);
        assert_eq!(snap.counter("cps.program.variables"), run.variables as u64);
        assert_eq!(
            snap.counter("cps.program.constraints"),
            run.constraints as u64
        );
        // residual accounting matches the run's own
        let rounds = run
            .phase_stats
            .iter()
            .filter(|(l, _)| l.starts_with("residual"))
            .count() as u64;
        assert_eq!(snap.counter("cps.residual.rounds"), rounds);
        assert_eq!(
            snap.counter("cps.residual.selections"),
            run.residual_selections as u64
        );
        // every combined-query stratum keeps candidates = sampled + rejected
        let strata: Vec<String> = snap
            .counter_names()
            .filter(|n| n.starts_with("cps.combined.") && n.ends_with(".candidates"))
            .map(|n| n.trim_end_matches(".candidates").to_string())
            .collect();
        assert!(!strata.is_empty(), "combined job must emit counters");
        for s in strata {
            assert_eq!(
                snap.counter(&format!("{s}.candidates")),
                snap.counter(&format!("{s}.sampled")) + snap.counter(&format!("{s}.rejected")),
                "{s}"
            );
            // the requested frequency is part of the audit ledger, and a
            // reservoir never returns more than was requested
            assert!(
                snap.counter(&format!("{s}.requested")) >= snap.counter(&format!("{s}.sampled")),
                "{s}"
            );
        }
    }

    #[test]
    fn exact_solver_emits_ip_counters() {
        let registry = Registry::new();
        let splits = to_input_splits(&dataset(1000).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2).with_telemetry(registry.clone());
        let mssd = overlapping_mssd();
        let run = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::exact(), 19).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ip.solves"), run.relevant_selections as u64);
        assert!(snap.counter("ip.nodes") >= snap.counter("ip.solves"));
        assert!(snap.counter("ip.lp_relaxations") >= snap.counter("ip.solves"));
        assert_eq!(snap.counter("lp.solves"), 0, "LP path must stay untouched");
    }

    #[test]
    fn deterministic_given_seed() {
        let splits = to_input_splits(&dataset(1000).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        let mssd = overlapping_mssd();
        let a = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 9).unwrap();
        let b = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 9).unwrap();
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn empty_mssd_yields_empty_answer() {
        let splits = to_input_splits(&dataset(100).distribute(2, 2, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        let mssd = MssdQuery::new(vec![], CostModel::indifferent(vec![]));
        let run = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 1).unwrap();
        assert!(run.answer.is_empty());
        assert_eq!(run.cost, 0.0);
        assert_eq!(run.relevant_selections, 0);
    }

    #[test]
    fn explain_captures_sharing_and_cost_attribution() {
        let splits = to_input_splits(&dataset(2000).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        // two identical surveys with free sharing: every individual is
        // shared, so the graph has one fully-shared edge and the cost
        // splits evenly
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x(), 100), 20)]);
        let free = MssdQuery::new(vec![q.clone(), q], CostModel::paper_style(2, 4.0, &[], 0.0));
        let run = try_mr_cps_on_splits(&cluster, &splits, &free, explained(CpsConfig::mr_cps()), 3)
            .unwrap();
        let explain = run.explain.as_ref().unwrap();
        assert_eq!(explain.sharing.len(), 1);
        let edge = &explain.sharing[0];
        assert_eq!(edge.surveys, (0, 1));
        assert_eq!(edge.shared, 20);
        assert!((edge.pair_cost - 4.0).abs() < 1e-9);
        assert!((edge.savings - 4.0).abs() < 1e-9, "4 + 4 − 4 = 4");
        // even split: 20 shared individuals × $4 / 2 surveys = $40 each
        assert_eq!(explain.survey_costs.len(), 2);
        for c in &explain.survey_costs {
            assert_eq!(c.individuals, 20);
            assert!((c.attributed_cost - 40.0).abs() < 1e-9);
        }
        let attributed: f64 = explain.survey_costs.iter().map(|c| c.attributed_cost).sum();
        assert!((attributed - run.cost).abs() < 1e-9, "attribution is exact");
        assert_eq!(explain.selections.len(), run.relevant_selections);
        assert_eq!(explain.programs.len(), run.relevant_selections, "blockwise");
        assert_eq!(explain.realized_cost, run.cost);
        assert_eq!(explain.solver_objective, run.solver_objective);
    }

    #[test]
    fn explain_gap_is_zero_for_exact_and_nonnegative_for_lp() {
        let splits = to_input_splits(&dataset(1500).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        let mssd = overlapping_mssd();
        let explain =
            |config| try_mr_cps_on_splits(&cluster, &splits, &mssd, explained(config), 7).unwrap();
        let lp = explain(CpsConfig::mr_cps()).explain.unwrap();
        assert!(lp.optimality_gap() >= 0.0);
        assert!(lp.to_json().contains("\"solver\": \"lp\""));
        let run = explain(CpsConfig::exact());
        let ip = run.explain.as_ref().unwrap();
        assert_eq!(
            ip.optimality_gap(),
            0.0,
            "exact IP realizes its own objective (C_A {} vs C_IP {})",
            run.cost,
            ip.solver_objective
        );
        assert!(ip.to_json().contains("\"solver\": \"ip\""));
        // every block's root relaxation lower-bounds its integral optimum
        for p in &ip.programs {
            assert!(p.root_relaxation <= p.objective + 1e-9, "{}", p.selection);
            assert!(p.lp_relaxations >= 1);
            assert!(!p.binding_constraints.is_empty(), "equalities always bind");
        }
    }

    #[test]
    fn explain_residuals_cover_the_fractional_vertex() {
        // same instance as fractional_lp_vertex_exercises_residual_phase:
        // flooring the half-integral optimum leaves all 3 selections to
        // the residual phase, so the gap is strictly positive
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 0)]);
        let tuples = vec![
            Individual::new(0, vec![0], 10),
            Individual::new(1, vec![0], 10),
        ];
        let splits =
            to_input_splits(&Dataset::new(schema, tuples).distribute(2, 2, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::eq(x(), 0), 1)]);
        let costs = CostModel::paper_style(3, 4.0, &[(0, 1), (0, 2), (1, 2)], 2.0)
            .with_override(SurveySet::from_iter([0, 1, 2]), 10.0);
        let mssd = MssdQuery::new(vec![q.clone(), q.clone(), q], costs);
        let run = try_mr_cps_on_splits(&cluster, &splits, &mssd, explained(CpsConfig::mr_cps()), 3)
            .unwrap();
        let explain = run.explain.as_ref().unwrap();
        assert!(!explain.residual_rounds.is_empty());
        let added: u64 = explain.residual_rounds.iter().map(|r| r.added).sum();
        assert_eq!(added as usize, run.residual_selections);
        assert_eq!(explain.residual_rounds[0].deficit, 3);
        assert!(
            explain.optimality_gap() > 0.0,
            "rounding loss must show up as a positive gap: C_sol {} vs C_A {}",
            explain.solver_objective,
            explain.realized_cost
        );
        // the fractional LP values are visible in the program explain
        let frac = explain
            .programs
            .iter()
            .flat_map(|p| p.variables.iter())
            .filter(|v| v.value.fract().abs() > 1e-6)
            .count();
        assert!(frac > 0, "the LP vertex is fractional");
        let text = explain.render_text();
        assert!(text.contains("optimality gap"));
        assert!(text.contains("residual rounds:"));
    }

    #[test]
    fn explain_json_is_byte_deterministic() {
        let splits = to_input_splits(&dataset(1200).distribute(3, 6, Placement::RoundRobin));
        let cluster = Cluster::new(3);
        let mssd = overlapping_mssd();
        let run = |config| try_mr_cps_on_splits(&cluster, &splits, &mssd, config, 21).unwrap();
        let a = run(explained(CpsConfig::mr_cps())).explain.unwrap();
        let b = run(explained(CpsConfig::mr_cps())).explain.unwrap();
        assert_eq!(a.to_json(), b.to_json(), "fixed seed → identical bytes");
        assert_eq!(a.render_text(), b.render_text());
        // capture must not perturb the pipeline itself
        let plain = run(CpsConfig::mr_cps());
        assert!(plain.explain.is_none());
        assert_eq!(plain.cost, a.realized_cost);
        // joint formulation collapses the programs into one
        let joint_cfg = CpsConfig {
            joint_formulation: true,
            ..CpsConfig::mr_cps()
        };
        let j = run(explained(joint_cfg)).explain.unwrap();
        assert_eq!(j.programs.len(), 1);
        assert_eq!(j.programs[0].selection, "joint");
        assert_eq!(j.programs[0].variables.len(), j.variables);
    }

    #[test]
    fn phase_stats_are_labeled() {
        let splits = to_input_splits(&dataset(800).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        let mssd = overlapping_mssd();
        for (config, limits_job) in [(CpsConfig::paper(), true), (CpsConfig::mr_cps(), false)] {
            let run = try_mr_cps_on_splits(&cluster, &splits, &mssd, config, 2).unwrap();
            let labels: Vec<&str> = run.phase_stats.iter().map(|(l, _)| l.as_str()).collect();
            assert!(labels.contains(&"initial MR-MQE"));
            assert_eq!(labels.contains(&"selection limits"), limits_job);
            assert!(labels.contains(&"combined MR-SQE"));
        }
    }

    /// The fused scan charges its σ tally as side bytes, outside the
    /// shuffle, and scans the data one time fewer.
    #[test]
    fn fused_scan_reports_side_bytes_and_one_scan_less() {
        let splits = to_input_splits(&dataset(800).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        let mssd = overlapping_mssd();
        let run = |config| try_mr_cps_on_splits(&cluster, &splits, &mssd, config, 4).unwrap();
        let (paper, fused) = (run(CpsConfig::paper()), run(CpsConfig::mr_cps()));
        assert_eq!(paper.answer, fused.answer);
        let scanned =
            |r: &CpsRun| -> u64 { r.phase_stats.iter().map(|(_, s)| s.map_input_records).sum() };
        assert_eq!(scanned(&paper) - scanned(&fused), 800);
        let (p0, f0) = (&paper.phase_stats[0].1, &fused.phase_stats[0].1);
        assert_eq!(p0.side_bytes, 0);
        assert!(f0.side_bytes > 0);
        assert_eq!(p0.shuffle_bytes, f0.shuffle_bytes);
        assert!(
            f0.sim.combine_us > p0.sim.combine_us,
            "side bytes cost tail time"
        );
        // the paper's L(σ) job carries a tally too, but charges nothing
        assert_eq!(paper.phase_stats[1].1.side_bytes, 0);
    }

    /// A selection sampled by 17 surveys would need 2^17 − 1 variables:
    /// a typed error, returned before the block is enumerated.
    #[test]
    fn oversized_selection_blocks_are_refused() {
        let splits = to_input_splits(&dataset(200).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x(), 100), 2)]);
        let mssd = MssdQuery::new(vec![q; 17], CostModel::paper_style(17, 1.0, &[], 0.0));
        for config in [
            CpsConfig::mr_cps(),
            CpsConfig::exact(),
            joint(CpsConfig::mr_cps()),
        ] {
            let err = try_mr_cps_on_splits(&cluster, &splits, &mssd, config, 1).unwrap_err();
            assert_eq!(
                err,
                CpsError::ProgramTooLarge {
                    selection: StratumSelection::from_choices(&[Some(0); 17]).to_string(),
                    surveys: 17
                }
            );
            assert!(err.to_string().contains("17 surveys"), "{err}");
        }
    }
}
