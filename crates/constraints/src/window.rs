//! Checkability: windowed constraint checking over bounded history.
//!
//! Section 3 defines a constraint to be *checkable* if "its validity in
//! the maintained partial model, together with the assumption that the
//! database has been valid in the history, implies its validity in the
//! complete model". The paper argues per example: static constraints are
//! checkable with the current state alone; the skill-retention constraint
//! is checkable with two states because `⊆` is transitive; the
//! salary/department constraint with three states because `<` is
//! transitive; its `≠` variant only with complete history; never-rehire
//! not at all (without encoding).
//!
//! This module provides both halves of that story:
//!
//! * [`History`] + [`Checker`] — enforce a constraint while maintaining
//!   only the last `k` states (the *partial model*).
//!   [`Checker::check_window`] is the one place a formula meets a
//!   window — the commit path, [`Checker::check_now`] and
//!   [`Checker::replay`] all arrive there over borrowed states — and
//!   it dispatches: a constraint [`lower`](crate::lower) could bring
//!   into Definition 4's form runs as fluent formulas on the engine's
//!   planner, compiled once at the first check; any other takes
//!   [`Checker::check_model`], where `model_of` (the one routine that
//!   turns a window of states into its partial model) builds the
//!   evolution graph and the finite-model checker decides the
//!   s-formula in it. The model route is also the differential oracle
//!   the lowered one is held to;
//! * [`checkability`] — a conservative analysis combining the syntactic
//!   class with caller-supplied domain [`Hints`] (the paper's
//!   transitivity arguments are domain facts, not syntax);
//! * [`find_window_unsoundness`] — a semantic falsifier: search a given
//!   history for a point where every window check passed yet the full
//!   model violates the constraint, demonstrating that window `k` is too
//!   small. Soundness of a *claimed* window is thereby refutable.

use crate::classify::{classify, ConstraintClass};
use crate::lower::{lower, Lowered};
use crate::readset::{read_set, ReadSet};
use std::sync::OnceLock;
use txlog_base::obs::{Hist, Metrics};
use txlog_base::{TxError, TxResult};
use txlog_engine::plan::Prepared;
use txlog_engine::{Engine, Env, EvalOptions, LazyTables, Model};
use txlog_logic::{FFormula, FTerm, SFormula};
use txlog_relational::{DbState, EvolutionGraph, RelDecl, Schema, TxLabel};

/// How much history a database system must maintain to enforce a
/// constraint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Window {
    /// The last `k` states suffice (k ≥ 1; 1 = current state only).
    States(usize),
    /// Only the complete history suffices.
    Complete,
    /// Not checkable by state-window maintenance at all (e.g. requires
    /// proving the existence of future transactions, as in Example 4's
    /// invertibility constraint).
    NotCheckable(String),
}

/// Domain facts the checkability analysis may rely on — the paper's
/// transitivity arguments made explicit.
#[derive(Clone, Copy, Default, Debug)]
pub struct Hints {
    /// The binary relation the constraint enforces between the two ends
    /// of a transaction is transitive (e.g. `⊆` for skill retention,
    /// `≤`/`<` for ages). Makes a transaction constraint checkable with a
    /// two-state window.
    pub step_relation_transitive: bool,
    /// The constraint constrains intermediate states too (Example 3's
    /// salary constraint: a decrease must pass through a department
    /// switch), raising the window to three states.
    pub constrains_intermediates: bool,
    /// The constraint's step relation is *not* closed under composition
    /// (Example 3's `≠`-salary variant): only the complete history works.
    pub step_relation_not_composable: bool,
    /// The constraint quantifies over future/hypothetical transactions
    /// (Example 4's invertibility, project termination): no amount of
    /// history maintenance checks it.
    pub refers_to_future: bool,
}

/// Conservative checkability analysis (Section 3's informal notion).
///
/// ```
/// use txlog_constraints::{checkability, Hints, Window};
/// use txlog_logic::{parse_sformula, ParseCtx};
///
/// let ctx = ParseCtx::with_relations(&["EMP"]);
/// let static_ic = parse_sformula(
///     "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000",
///     &ctx,
/// ).unwrap();
/// assert_eq!(checkability(&static_ic, Hints::default()), Window::States(1));
///
/// let tx_ic = parse_sformula(
///     "forall s: state, t: tx, e: 2tup .
///        (s:e in s:EMP & (s;t):e in (s;t):EMP)
///          -> salary(s:e) <= salary((s;t):e)",
///     &ctx,
/// ).unwrap();
/// let transitive = Hints { step_relation_transitive: true, ..Hints::default() };
/// assert_eq!(checkability(&tx_ic, transitive), Window::States(2));
/// ```
pub fn checkability(f: &SFormula, hints: Hints) -> Window {
    if hints.refers_to_future {
        return Window::NotCheckable(
            "constraint quantifies over future transactions; checking would \
             require proving their existence at every step"
                .into(),
        );
    }
    match classify(f) {
        ConstraintClass::Static => Window::States(1),
        ConstraintClass::Transaction => {
            if hints.step_relation_not_composable {
                Window::Complete
            } else if hints.constrains_intermediates {
                Window::States(3)
            } else if hints.step_relation_transitive {
                Window::States(2)
            } else {
                // without a transitivity argument, soundness of any fixed
                // window cannot be concluded
                Window::Complete
            }
        }
        ConstraintClass::Dynamic => Window::NotCheckable(
            "general dynamic constraint: relates states across unboundedly \
             many transitions; consider a history encoding"
                .into(),
        ),
    }
}

/// The *partial model* of a window: `states` oldest first, `labels[i]`
/// naming the transaction that produced `states[i + 1]`. The only code
/// that turns states and labels into an evolution graph.
fn model_of<L: AsRef<str>>(schema: &Schema, states: &[DbState], labels: &[L]) -> TxResult<Model> {
    let (s, l) = (states.len(), labels.len());
    if l + 1 != s {
        return Err(TxError::eval(format!(
            "a window of {s} state(s) has one label per transition, not {l}"
        )));
    }
    let mut graph = EvolutionGraph::new();
    let mut prev = graph.add_state(states[0].clone());
    for (i, (state, label)) in states[1..].iter().zip(labels).enumerate() {
        let label = label.as_ref();
        let id = graph.add_state(state.clone());
        let arc = graph.add_arc(prev, TxLabel::new(label), id);
        // A no-op step (content-deduped to its own pre-state) records
        // an identity-like arc under its label if it can. Otherwise a
        // repeated label leading to two different successors (an
        // up/down cycle stepped with the same label twice) means the
        // window has no deterministic evolution graph: a reportable
        // property of the input, not a panic.
        if prev != id {
            arc.map_err(|e| {
                TxError::eval(format!(
                    "window step {} ({label}) cannot be modeled: {e}",
                    i + 1
                ))
            })?;
        }
        prev = id;
    }
    // No Λ self-loops here: history models record *proper* executed
    // transactions. Including the null transaction would trivially
    // falsify ≠-style constraints (salary(s:e) ≠ salary(s;Λ:e) is
    // never true), which is plainly not the paper's reading.
    graph.transitive_close();
    Ok(Model::new(schema.clone(), graph))
}

/// A recorded linear history of database states connected by transactions.
#[derive(Clone)]
pub struct History {
    schema: Schema,
    states: Vec<DbState>,
    labels: Vec<String>,
    /// The engine tables of `schema`, built by the first step.
    tables: LazyTables,
}

impl History {
    /// Start a history at an initial state.
    pub fn new(schema: Schema, initial: DbState) -> History {
        History {
            schema,
            states: vec![initial],
            labels: Vec::new(),
            tables: LazyTables::default(),
        }
    }

    /// An engine over the history's schema, reporting into `metrics`.
    pub(crate) fn engine(&self, metrics: Metrics) -> TxResult<Engine<'_>> {
        self.tables
            .engine(&self.schema, EvalOptions::default(), metrics)
    }

    /// Execute `tx` at the latest state and append the result.
    pub fn step(&mut self, label: &str, tx: &FTerm, env: &Env) -> TxResult<&DbState> {
        let engine = self.engine(Metrics::current())?;
        let exec = engine.execute_traced(self.latest(), tx, env)?;
        let (next, delta) = (exec.state, exec.delta);
        engine
            .metrics()
            .observe(Hist::DeltaTuples, delta.tuple_changes() as u64);
        self.states.push(next);
        self.labels.push(label.to_string());
        Ok(self.latest())
    }

    /// Append a pre-computed state (for synthetic histories).
    pub fn push_state(&mut self, label: &str, state: DbState) {
        self.states.push(state);
        self.labels.push(label.to_string());
    }

    /// The latest state.
    pub fn latest(&self) -> &DbState {
        self.states.last().expect("history is never empty")
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True iff only the initial state is present.
    pub fn is_empty(&self) -> bool {
        self.states.len() <= 1
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All states, oldest first.
    pub fn states(&self) -> &[DbState] {
        &self.states
    }

    /// Transaction labels, in step order: `labels()[i]` is the transaction
    /// that produced `states()[i + 1]`.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Build a model from the suffix window of the last `k` states (or
    /// fewer, early in the history): the *partial model* a database
    /// system with window `k` maintains.
    pub fn window_model(&self, k: usize) -> TxResult<Model> {
        let start = self.states.len().saturating_sub(k.max(1));
        model_of(&self.schema, &self.states[start..], &self.labels[start..])
    }

    /// Build the complete model of the history.
    pub fn full_model(&self) -> TxResult<Model> {
        model_of(&self.schema, &self.states, &self.labels)
    }
}

/// One declared constraint with the static analyses enforcement needs:
/// how many consecutive states a check must see (the paper's Section 3
/// window), the [`ReadSet`] its verdict can depend on, and — where
/// [`lower`](crate::lower) finds one — its form as fluent formulas the
/// engine's planner runs. The same value checks a recorded [`History`],
/// backs an [`IncrementalChecker`](crate::IncrementalChecker), and
/// validates commits as a
/// [`CommitConstraint`](txlog_engine::CommitConstraint). It keeps no
/// state between checks but what compiling the constraint once yields.
#[derive(Clone)]
pub struct Checker {
    name: String,
    formula: SFormula,
    /// States a check sees; `usize::MAX` for the complete history.
    pub(crate) window: usize,
    readset: ReadSet,
    /// The constraint in Definition 4's form, if it has one.
    lowered: Option<Lowered<FFormula>>,
    /// `lowered`, planned for the schema of the first check.
    compiled: OnceLock<Compiled>,
    /// Where checks report; the process-global recorder if `None`.
    metrics: Option<Metrics>,
}

/// A lowered constraint made ready for one schema: the engine tables
/// and every quantifier plan, built once.
#[derive(Clone)]
struct Compiled {
    /// The schema compiled for, to recognise it at the next check.
    decls: Vec<RelDecl>,
    tables: LazyTables,
    /// `None` when the schema or a plan was rejected: the model route
    /// reports it.
    program: Option<Lowered<Prepared>>,
}

impl Compiled {
    fn new(lowered: &Lowered<FFormula>, schema: &Schema, metrics: &Metrics) -> Compiled {
        let tables = LazyTables::default();
        let program = tables
            .engine(schema, EvalOptions::default(), metrics.clone())
            .and_then(|engine| lowered.prepare(&engine))
            .ok();
        Compiled {
            decls: schema.decls().to_vec(),
            tables,
            program,
        }
    }
}

/// Outcome of checking a whole history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoryOutcome {
    /// Window verdicts per step (index i = after state i+1 was appended).
    pub per_step: Vec<bool>,
    /// Verdict on the complete model.
    pub global: bool,
}

impl Checker {
    /// A checker for `formula` maintaining `window` states, named
    /// `name` in commit errors and [`VerifiedRegistry`] lookups.
    ///
    /// [`VerifiedRegistry`]: crate::VerifiedRegistry
    pub fn new(name: impl Into<String>, formula: SFormula, window: Window) -> TxResult<Checker> {
        let window = match window {
            Window::States(k) if k >= 1 => k,
            Window::States(_) => {
                return Err(TxError::eval("window must maintain at least one state"))
            }
            Window::Complete => usize::MAX,
            Window::NotCheckable(reason) => {
                return Err(TxError::eval(format!(
                    "constraint is not checkable: {reason}"
                )))
            }
        };
        Ok(Checker {
            name: name.into(),
            readset: read_set(&formula),
            lowered: lower(&formula, window),
            compiled: OnceLock::new(),
            metrics: None,
            formula,
            window,
        })
    }

    /// Report checks into `metrics` instead of the process-global
    /// recorder.
    pub fn with_metrics(mut self, metrics: Metrics) -> Checker {
        self.metrics = Some(metrics);
        self
    }

    /// Whether checks run the constraint's lowered form on the planner
    /// rather than deciding the s-formula in a model.
    pub fn is_lowered(&self) -> bool {
        self.lowered.is_some()
    }

    /// The constraint's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relations the verdict can depend on: what commit-time
    /// skipping and verdict reuse are keyed on.
    pub fn read_set(&self) -> &ReadSet {
        &self.readset
    }

    /// Decide the constraint over one window: `states` oldest first,
    /// `labels[i]` the transaction that produced `states[i + 1]`. Every
    /// other entry point ends here. A lowered constraint runs on the
    /// planner; the rest — and any window the lowered form does not
    /// cover: malformed, or with a repeated state among three or more,
    /// which a model merges into one node — go to
    /// [`check_model`](Checker::check_model).
    pub fn check_window<L: AsRef<str>>(
        &self,
        schema: &Schema,
        states: &[DbState],
        labels: &[L],
    ) -> TxResult<bool> {
        let Some(lowered) = &self.lowered else {
            return self.check_model(schema, states, labels);
        };
        if labels.len() + 1 != states.len() || !lowered.covers(states) {
            return self.check_model(schema, states, labels);
        }
        let metrics = self.metrics.clone().unwrap_or_else(Metrics::current);
        let kept = self
            .compiled
            .get_or_init(|| Compiled::new(lowered, schema, &metrics));
        // a caller presenting another schema gets a fresh compilation,
        // not the kept tables
        let other;
        let compiled = if kept.decls == schema.decls() {
            kept
        } else {
            other = Compiled::new(lowered, schema, &metrics);
            &other
        };
        match &compiled.program {
            Some(program) => {
                let engine = compiled
                    .tables
                    .engine(schema, EvalOptions::default(), metrics)?;
                program.holds(&engine, states)
            }
            None => self.check_model(schema, states, labels),
        }
    }

    /// Decide the s-formula in the partial model of one window, as
    /// Definition 2 reads it: the route of every constraint that is
    /// not lowered, and the oracle the lowered route must agree with.
    pub fn check_model<L: AsRef<str>>(
        &self,
        schema: &Schema,
        states: &[DbState],
        labels: &[L],
    ) -> TxResult<bool> {
        let model = model_of(schema, states, labels)?;
        match &self.metrics {
            Some(metrics) => model.with_metrics(metrics.clone()),
            None => model,
        }
        .check(&self.formula)
    }

    /// Check the window ending at `history`'s state number `end`.
    fn check_prefix(&self, history: &History, end: usize) -> TxResult<bool> {
        let _span = Metrics::current().span("window_check");
        let start = end.saturating_sub(self.window);
        let (states, labels) = (&history.states[start..end], &history.labels[start..end - 1]);
        self.check_window(&history.schema, states, labels)
    }

    /// Check the window model at the history's current end.
    pub fn check_now(&self, history: &History) -> TxResult<bool> {
        self.check_prefix(history, history.len())
    }

    /// Replay an entire history: window verdicts after every step plus
    /// the global verdict on the complete model.
    pub fn replay(&self, history: &History) -> TxResult<HistoryOutcome> {
        let per_step = (1..=history.len())
            .map(|end| self.check_prefix(history, end))
            .collect::<TxResult<_>>()?;
        let global = self.check_window(&history.schema, &history.states, &history.labels)?;
        Ok(HistoryOutcome { per_step, global })
    }
}

/// Search a history for evidence that window `k` is unsound for this
/// constraint: every windowed check passes but the complete model fails.
/// Returns `Some(step_count)` — the history length demonstrating the gap —
/// or `None` if the window verdicts agree with the global verdict.
pub fn find_window_unsoundness(
    constraint: &SFormula,
    k: usize,
    history: &History,
) -> TxResult<Option<usize>> {
    let checker = Checker::new("candidate-window", constraint.clone(), Window::States(k))?;
    let outcome = checker.replay(history)?;
    if outcome.per_step.iter().all(|&ok| ok) && !outcome.global {
        Ok(Some(history.len()))
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txlog_base::Atom;
    use txlog_logic::{parse_fterm, parse_sformula, ParseCtx};

    fn schema() -> Schema {
        Schema::new()
            .relation("EMP", &["e-name", "salary"])
            .unwrap()
            .relation("SKILL", &["s-emp", "s-no"])
            .unwrap()
    }

    fn ctx() -> ParseCtx {
        ParseCtx::with_relations(&["EMP", "SKILL"])
    }

    fn start() -> (Schema, DbState) {
        let schema = schema();
        let db = schema.initial_state();
        let emp = schema.rel_id("EMP").unwrap();
        let (db, _) = db
            .insert_fields(emp, &[Atom::str("ann"), Atom::nat(500)])
            .unwrap();
        (schema, db)
    }

    #[test]
    fn static_constraint_window_one() {
        let f = parse_sformula(
            "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000",
            &ctx(),
        )
        .unwrap();
        assert_eq!(checkability(&f, Hints::default()), Window::States(1));
    }

    #[test]
    fn transaction_constraint_needs_hints() {
        let f = parse_sformula(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP)
                 -> salary(s:e) <= salary((s;t):e)",
            &ctx(),
        )
        .unwrap();
        // ≤ is transitive → two states suffice
        let hints = Hints {
            step_relation_transitive: true,
            ..Hints::default()
        };
        assert_eq!(checkability(&f, hints), Window::States(2));
        // without the transitivity fact the analysis stays conservative
        assert_eq!(checkability(&f, Hints::default()), Window::Complete);
        // the ≠ variant composes to equality: complete history
        let hints = Hints {
            step_relation_not_composable: true,
            ..Hints::default()
        };
        assert_eq!(checkability(&f, hints), Window::Complete);
    }

    #[test]
    fn future_references_not_checkable() {
        let f = parse_sformula(
            "forall s: state, t1: tx . exists t2: tx . s = (s;t1);t2",
            &ctx(),
        )
        .unwrap();
        let hints = Hints {
            refers_to_future: true,
            ..Hints::default()
        };
        assert!(matches!(checkability(&f, hints), Window::NotCheckable(_)));
    }

    #[test]
    fn windowed_checker_enforces_monotone_salary() {
        let (schema, db) = start();
        let f = parse_sformula(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP)
                 -> salary(s:e) <= salary((s;t):e)",
            &ctx(),
        )
        .unwrap();
        let mut history = History::new(schema, db);
        let raise = parse_fterm(
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 100) end",
            &ctx(),
            &[],
        )
        .unwrap();
        history.step("raise", &raise, &Env::new()).unwrap();
        history.step("raise", &raise, &Env::new()).unwrap();
        let checker = Checker::new("c", f, Window::States(2)).unwrap();
        let outcome = checker.replay(&history).unwrap();
        assert!(outcome.per_step.iter().all(|&b| b));
        assert!(outcome.global);
    }

    #[test]
    fn windowed_checker_catches_violation_in_window() {
        let (schema, db) = start();
        let f = parse_sformula(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP)
                 -> salary(s:e) <= salary((s;t):e)",
            &ctx(),
        )
        .unwrap();
        let mut history = History::new(schema, db);
        let cut = parse_fterm(
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) - 100) end",
            &ctx(),
            &[],
        )
        .unwrap();
        history.step("cut", &cut, &Env::new()).unwrap();
        let checker = Checker::new("c", f, Window::States(2)).unwrap();
        let outcome = checker.replay(&history).unwrap();
        assert!(!outcome.per_step[1]);
        assert!(!outcome.global);
    }

    #[test]
    fn too_small_window_is_demonstrably_unsound() {
        // salary must never return to an earlier value (a ≠-style
        // constraint): with window 2 each step looks fine, but the full
        // history exposes a violation when the value cycles back.
        let (schema, db) = start();
        let f = parse_sformula(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP)
                 -> salary(s:e) != salary((s;t):e)",
            &ctx(),
        )
        .unwrap();
        let mut history = History::new(schema, db);
        let up = parse_fterm(
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 100) end",
            &ctx(),
            &[],
        )
        .unwrap();
        let down = parse_fterm(
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) - 100) end",
            &ctx(),
            &[],
        )
        .unwrap();
        history.step("up", &up, &Env::new()).unwrap();
        history.step("down", &down, &Env::new()).unwrap();
        // window 2 passes each step (each adjacent pair differs) but the
        // full model contains the composed arc s0 → s2 with equal salary.
        let gap = find_window_unsoundness(&f, 2, &history).unwrap();
        assert_eq!(gap, Some(3));
    }

    #[test]
    fn complete_window_checker_equals_global() {
        let (schema, db) = start();
        let f = parse_sformula(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP)
                 -> salary(s:e) != salary((s;t):e)",
            &ctx(),
        )
        .unwrap();
        let mut history = History::new(schema, db);
        let up = parse_fterm(
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 100) end",
            &ctx(),
            &[],
        )
        .unwrap();
        let down = parse_fterm(
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) - 100) end",
            &ctx(),
            &[],
        )
        .unwrap();
        history.step("up", &up, &Env::new()).unwrap();
        history.step("down", &down, &Env::new()).unwrap();
        let checker = Checker::new("c", f, Window::Complete).unwrap();
        let outcome = checker.replay(&history).unwrap();
        assert!(!outcome.per_step[2]);
        assert!(!outcome.global);
    }

    #[test]
    fn not_checkable_rejected_by_checker() {
        let f = SFormula::True;
        assert!(Checker::new("c", f, Window::NotCheckable("reason".into())).is_err());
    }
}
