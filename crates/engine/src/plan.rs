//! Interpreting compiled quantifier plans against database states.
//!
//! The planner in `txlog_logic::plan` is purely syntactic; this module
//! is its runtime half: `Engine::for_each_assignment` enumerates the
//! satisfying candidate bindings of a quantifier prefix either naively
//! (the oracle semantics) or through a compiled
//! [`QuantPlan`] — index probes,
//! membership scans, and residual filters.
//!
//! Two invariants keep the planned path observationally equivalent to
//! the naive one wherever the naive one is defined:
//!
//! * **Order preservation** — every source enumerates tuples in the same
//!   ascending identity order a full scan would, and filters/probes only
//!   *drop* candidates, so the surviving sequence is a subsequence of
//!   the naive enumeration. `foreach` match order and quantifier
//!   short-circuiting are therefore unchanged.
//! * **Error tolerance** — a probe key or filter that fails to evaluate
//!   never discards a candidate (the full condition, re-evaluated by the
//!   caller's visitor, decides); a filter may only skip a binding on a
//!   definite `false`, which under the plan's [`GuardMode`] proves the
//!   binding irrelevant. Planned evaluation may thus be *more defined*
//!   than naive evaluation (it can skip bindings whose condition would
//!   error), but whenever the naive path returns `Ok`, the planned path
//!   returns the same `Ok`.
//!
//! Planning is syntactic, so a formula evaluated many times can be
//! planned once: [`Engine::prepare`] returns a [`Prepared`] — the
//! formula plus the plan of every enumeration in it — and
//! [`Engine::eval_prepared`] / [`Engine::for_each_prepared`] interpret
//! those plans instead of compiling them again per evaluation.

use crate::env::{Binding, Env};
use crate::exec::{active_atoms, collect_fformula_atoms, Engine, PlanMode};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;
use txlog_base::obs::{Counter, Hist};
use txlog_base::{Atom, TxError, TxResult};
use txlog_logic::plan::{plan_quantifiers, DomainSource, GuardMode, PlanStep, QuantPlan};
use txlog_logic::{FFormula, FTerm, Var};
use txlog_relational::{DbState, TupleVal};

/// Every tuple value of arity `n` in the state, in (relation, identity)
/// order — the active-domain fallback shared by the planner runtime, the
/// naive enumerator, and the model checker.
pub(crate) fn active_tuples(db: &DbState, n: usize) -> Vec<TupleVal> {
    let mut out = Vec::new();
    for (_, rel) in db.relations() {
        if rel.arity() == n {
            out.extend(rel.iter_vals());
        }
    }
    out
}

/// Sorted, deduplicated atom domain: the states' active atoms plus
/// `seed` (a formula's own constants). Shared by the engine's atom
/// fallback (one state) and the model checker (all graph states).
pub(crate) fn atom_domain<'a>(
    states: impl IntoIterator<Item = &'a DbState>,
    mut seed: Vec<Atom>,
) -> Vec<Atom> {
    for db in states {
        seed.extend(active_atoms(db));
    }
    seed.sort();
    seed.dedup();
    seed
}

/// If `v` is usable as an index-probe key — an atom, or the 1-tuple the
/// engine's semantic equality coerces to one — return the atom.
fn atom_key(v: &Value) -> Option<Atom> {
    match v {
        Value::Atom(a) => Some(*a),
        Value::Tuple(t) if t.arity() == 1 => Some(t.fields[0]),
        _ => None,
    }
}

/// A per-enumeration candidate budget (the quantifier/set-former
/// counterpart of the `foreach` iteration guard).
struct Budget {
    left: usize,
    max: usize,
}

impl Budget {
    fn new(max: usize) -> Budget {
        Budget { left: max, max }
    }

    fn take(&mut self, v: Var) -> TxResult<()> {
        if self.left == 0 {
            return Err(TxError::InfiniteDomain(format!(
                "quantifier/set-former enumeration over {v} exceeded {} candidate bindings",
                self.max
            )));
        }
        self.left -= 1;
        Ok(())
    }
}

/// Compiled plans, keyed by the address of the condition node each one
/// enumerates under. Addresses are compared, never dereferenced.
pub(crate) type PlanTable = HashMap<usize, QuantPlan>;

fn node_key(cond: &FFormula) -> usize {
    cond as *const FFormula as usize
}

/// An f-formula planned once: the formula plus the [`QuantPlan`] of
/// every enumeration evaluating it will run — each quantifier and
/// set-former node, the formulas inside those plans, and optionally a
/// universal prefix over the whole formula — built by
/// [`Engine::prepare`]. Clones share one tree and one table.
///
/// Plans are keyed by node address inside this value's own heap tree,
/// which is never moved, mutated or handed out, and is alive whenever
/// it is being evaluated — so no other live node can share an address
/// with one of its nodes, and a hit is always the plan of that node.
#[derive(Clone)]
pub struct Prepared(Arc<PreparedInner>);

struct PreparedInner {
    formula: Box<FFormula>,
    /// The universal prefix [`Engine::for_each_prepared`] enumerates.
    vars: Vec<Var>,
    plans: PlanTable,
}

/// Plans every enumeration under a formula the way the evaluator will
/// ask for it: same variables, same condition node, same [`GuardMode`].
struct Planner<'e> {
    engine: &'e Engine<'e>,
    plans: PlanTable,
}

impl Planner<'_> {
    fn formula(&mut self, p: &FFormula) -> TxResult<()> {
        match p {
            FFormula::True | FFormula::False => Ok(()),
            FFormula::Cmp(_, a, b) | FFormula::Member(a, b) | FFormula::Subset(a, b) => {
                self.term(a)?;
                self.term(b)
            }
            FFormula::Not(q) => self.formula(q),
            FFormula::And(a, b)
            | FFormula::Or(a, b)
            | FFormula::Implies(a, b)
            | FFormula::Iff(a, b) => {
                self.formula(a)?;
                self.formula(b)
            }
            FFormula::Exists(v, body) => self.node(&[*v], body, GuardMode::Positive),
            FFormula::Forall(v, body) => self.node(&[*v], body, GuardMode::Guarded),
            FFormula::UserPred(_, ts) => ts.iter().try_for_each(|t| self.term(t)),
        }
    }

    fn term(&mut self, t: &FTerm) -> TxResult<()> {
        match t {
            FTerm::Attr(_, t) | FTerm::Select(t, _) | FTerm::IdOf(t) => self.term(t),
            FTerm::TupleCons(ts) | FTerm::App(_, ts) | FTerm::UserApp(_, ts) => {
                ts.iter().try_for_each(|t| self.term(t))
            }
            FTerm::SetFormer { head, vars, cond } => {
                self.term(head)?;
                self.node(vars, cond, GuardMode::Positive)
            }
            // variables and constants; transactions are not evaluated
            // in object position
            _ => Ok(()),
        }
    }

    /// Plan the enumeration of `vars` under `cond`, then everything
    /// that enumeration evaluates: `cond` itself and the plan's own
    /// prefilters, filters and probe keys.
    fn node(&mut self, vars: &[Var], cond: &FFormula, mode: GuardMode) -> TxResult<()> {
        let sig = &self.engine.tables.sig;
        let plan = plan_quantifiers(sig, vars, cond, mode);
        self.engine.metrics.bump(Counter::PlansCompiled);
        for step in &plan.steps {
            if let DomainSource::Scan(rel) | DomainSource::IndexProbe { rel, .. } = &step.source {
                // the check `bounding_relation` would fail at every
                // evaluation, made once
                let (n, arity) = (tup_arity(step.var), sig.rel_arity(*rel)?);
                if n != arity {
                    return Err(TxError::sort(format!(
                        "variable {} has arity {n} but relation {rel} has arity {arity}",
                        step.var
                    )));
                }
            }
            if let DomainSource::IndexProbe { key, .. } = &step.source {
                self.term(key)?;
            }
            step.filters.iter().try_for_each(|f| self.formula(f))?;
        }
        plan.prefilters.iter().try_for_each(|f| self.formula(f))?;
        self.formula(cond)?;
        self.plans.insert(node_key(cond), plan);
        Ok(())
    }
}

impl Engine<'_> {
    /// Plan `formula` once for repeated evaluation: every quantifier and
    /// set-former in it, plus — when `vars` is not empty — the universal
    /// prefix `∀ vars` over the whole formula, for
    /// [`for_each_prepared`](Engine::for_each_prepared). Fails where
    /// every evaluation would: a variable bounded by a relation of
    /// another arity, or by one the schema does not declare.
    pub fn prepare(&self, vars: &[Var], formula: FFormula) -> TxResult<Prepared> {
        // boxed first: the plans are keyed into the tree where it lies
        let formula = Box::new(formula);
        let mut planner = Planner {
            engine: self,
            plans: PlanTable::new(),
        };
        if vars.is_empty() {
            planner.formula(&formula)?;
        } else {
            planner.node(vars, &formula, GuardMode::Guarded)?;
        }
        Ok(Prepared(Arc::new(PreparedInner {
            formula,
            vars: vars.to_vec(),
            plans: planner.plans,
        })))
    }

    /// This engine, taking the plans of `p`'s nodes from `p`.
    fn with_plans<'p>(&'p self, p: &'p Prepared) -> Engine<'p> {
        Engine {
            schema: self.schema,
            opts: self.opts,
            tables: Arc::clone(&self.tables),
            metrics: self.metrics.clone(),
            plans: Some(&p.0.plans),
        }
    }

    /// [`eval_truth`](Engine::eval_truth) of a prepared formula: same
    /// answer, no plan compiled.
    pub fn eval_prepared(&self, db: &DbState, p: &Prepared, env: &Env) -> TxResult<bool> {
        self.with_plans(p).eval_truth(db, &p.0.formula, env)
    }

    /// Enumerate the assignments of the prefix `p` was prepared with
    /// that can falsify `∀ vars. formula` at `db`: exactly the
    /// enumeration a `forall` over those variables runs, with the
    /// verdict left to `visit` (`Ok(false)` stops the enumeration).
    /// Assignments the plan proves vacuous — an antecedent conjunct of
    /// the formula is definitely false — are never visited.
    pub fn for_each_prepared(
        &self,
        db: &DbState,
        p: &Prepared,
        env: &Env,
        visit: &mut dyn FnMut(&Env) -> TxResult<bool>,
    ) -> TxResult<()> {
        let (vars, cond) = (&p.0.vars, &p.0.formula);
        self.with_plans(p)
            .for_each_assignment(db, vars, cond, env, GuardMode::Guarded, visit)
    }

    /// Enumerate the candidate assignments of `vars` under `cond`,
    /// calling `visit` for each extension of `env` in deterministic
    /// order. `visit` returns `Ok(true)` to continue and `Ok(false)` to
    /// stop the whole enumeration (quantifier short-circuit).
    ///
    /// With [`PlanMode::Naive`] this is the definitional bounded-domain
    /// cross product; with [`PlanMode::Indexed`] the condition's
    /// [`txlog_logic::plan::QuantPlan`] under `mode` — taken from the
    /// [`Prepared`] being evaluated, else compiled here — is
    /// interpreted. Candidates the plan skips are exactly ones whose
    /// condition is definitely `false` in a position `mode` proves
    /// irrelevant, so visitors re-checking the full condition see the
    /// same satisfying assignments either way.
    pub(crate) fn for_each_assignment(
        &self,
        db: &DbState,
        vars: &[Var],
        cond: &FFormula,
        env: &Env,
        mode: GuardMode,
        visit: &mut dyn FnMut(&Env) -> TxResult<bool>,
    ) -> TxResult<()> {
        let mut budget = Budget::new(self.opts.max_iterations);
        let out = match self.opts.planner {
            PlanMode::Naive => {
                self.metrics.bump(Counter::NaiveSteps);
                self.naive_walk(db, vars, cond, env, &mut budget, visit)
                    .map(|_| ())
            }
            PlanMode::Indexed => {
                let compiled;
                let plan = match self.plans.and_then(|t| t.get(&node_key(cond))) {
                    Some(prepared) => prepared,
                    None => {
                        compiled = plan_quantifiers(&self.tables.sig, vars, cond, mode);
                        self.metrics.bump(Counter::PlansCompiled);
                        &compiled
                    }
                };
                let mut cut = false;
                for pf in &plan.prefilters {
                    // A definitely-false plan-variable-free conjunct
                    // empties (∃) or vacuously satisfies (∀) the whole
                    // enumeration; evaluation failures are tolerated.
                    if let Ok(false) = self.eval_truth(db, pf, env) {
                        self.metrics.bump(Counter::PrefilterCuts);
                        cut = true;
                        break;
                    }
                }
                if cut {
                    Ok(())
                } else {
                    self.plan_walk(db, &plan.steps, cond, env, &mut budget, visit)
                        .map(|_| ())
                }
            }
        };
        self.metrics
            .observe(Hist::EnumBudget, (budget.max - budget.left) as u64);
        out
    }

    /// Naive nested-loop enumeration (the oracle). Returns `false` when
    /// the visitor stopped early.
    fn naive_walk(
        &self,
        db: &DbState,
        vars: &[Var],
        cond: &FFormula,
        env: &Env,
        budget: &mut Budget,
        visit: &mut dyn FnMut(&Env) -> TxResult<bool>,
    ) -> TxResult<bool> {
        let Some((&v, rest)) = vars.split_first() else {
            self.metrics.bump(Counter::AssignmentsEmitted);
            return visit(env);
        };
        let domain = self.domain_of(db, v, cond)?;
        self.metrics.add(Counter::NaiveRows, domain.len() as u64);
        for b in domain {
            budget.take(v)?;
            let env2 = env.bind(v, b);
            if !self.naive_walk(db, rest, cond, &env2, budget, visit)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Interpret the compiled steps. Returns `false` when the visitor
    /// stopped early.
    fn plan_walk(
        &self,
        db: &DbState,
        steps: &[PlanStep],
        cond: &FFormula,
        env: &Env,
        budget: &mut Budget,
        visit: &mut dyn FnMut(&Env) -> TxResult<bool>,
    ) -> TxResult<bool> {
        let Some((step, rest)) = steps.split_first() else {
            self.metrics.bump(Counter::AssignmentsEmitted);
            return visit(env);
        };
        let v = step.var;
        'candidates: for b in self.step_candidates(db, step, cond, env)? {
            budget.take(v)?;
            let env2 = env.bind(v, b);
            for f in &step.filters {
                // Only a definite false skips; an error leaves the
                // decision to the full condition.
                if let Ok(false) = self.eval_truth(db, f, &env2) {
                    self.metrics.bump(Counter::FilterDrops);
                    continue 'candidates;
                }
            }
            if !self.plan_walk(db, rest, cond, &env2, budget, visit)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The candidate bindings one plan step enumerates at `db` under the
    /// bindings accumulated so far.
    fn step_candidates(
        &self,
        db: &DbState,
        step: &PlanStep,
        cond: &FFormula,
        env: &Env,
    ) -> TxResult<Vec<Binding>> {
        let v = step.var;
        let m = &self.metrics;
        match &step.source {
            DomainSource::Scan(rel) => {
                m.bump(Counter::ScanSteps);
                Ok(match self.bounding_relation(db, v, tup_arity(v), *rel)? {
                    Some(r) => {
                        let out: Vec<Binding> = r.iter_vals().map(Binding::FluentTuple).collect();
                        m.add(Counter::ScanRows, out.len() as u64);
                        out
                    }
                    None => Vec::new(),
                })
            }
            DomainSource::IndexProbe { rel, col, key } => {
                let Some(r) = self.bounding_relation(db, v, tup_arity(v), *rel)? else {
                    return Ok(Vec::new());
                };
                match self.eval_obj(db, key, env) {
                    // A non-denoting key makes the equality conjunct
                    // false at every candidate: empty.
                    Err(e) if e.is_undefined() => {
                        m.bump(Counter::ProbeSteps);
                        Ok(Vec::new())
                    }
                    // Any other failure: fall back to the full scan and
                    // let the condition surface the error.
                    Err(_) => {
                        m.bump(Counter::ProbeFallbackScans);
                        let out: Vec<Binding> = r.iter_vals().map(Binding::FluentTuple).collect();
                        m.add(Counter::ScanRows, out.len() as u64);
                        Ok(out)
                    }
                    Ok(val) => match atom_key(&val) {
                        Some(k) => {
                            m.bump(Counter::ProbeSteps);
                            if !r.index_built() {
                                m.bump(Counter::IndexBuilds);
                            }
                            let ids = r.probe(*col, &k);
                            let mut out = Vec::with_capacity(ids.len());
                            for &id in ids.iter() {
                                // Dead ids in the index would silently
                                // corrupt results; surface them as a
                                // typed error naming the relation.
                                let fields = r.get(id).ok_or_else(|| {
                                    TxError::eval(format!(
                                        "index probe on relation {rel} (column {col}) \
                                         returned dead tuple id {id}"
                                    ))
                                })?;
                                out.push(Binding::FluentTuple(TupleVal::identified(
                                    id,
                                    std::sync::Arc::clone(fields),
                                )));
                            }
                            m.add(Counter::ProbeRows, out.len() as u64);
                            Ok(out)
                        }
                        // A set/state-valued key cannot equal a column
                        // atom under semantic equality, but scanning is
                        // the conservative choice either way.
                        None => {
                            m.bump(Counter::ProbeFallbackScans);
                            let out: Vec<Binding> =
                                r.iter_vals().map(Binding::FluentTuple).collect();
                            m.add(Counter::ScanRows, out.len() as u64);
                            Ok(out)
                        }
                    },
                }
            }
            DomainSource::ActiveTuples(n) => {
                m.bump(Counter::ActiveSteps);
                let out: Vec<Binding> = active_tuples(db, *n)
                    .into_iter()
                    .map(Binding::FluentTuple)
                    .collect();
                m.add(Counter::ActiveRows, out.len() as u64);
                Ok(out)
            }
            DomainSource::Atoms => {
                m.bump(Counter::AtomSteps);
                let mut seed = Vec::new();
                collect_fformula_atoms(cond, &mut seed);
                let out: Vec<Binding> = atom_domain([db], seed)
                    .into_iter()
                    .map(Binding::FluentAtom)
                    .collect();
                m.add(Counter::AtomRows, out.len() as u64);
                Ok(out)
            }
            DomainSource::Unenumerable(sort) => Err(TxError::sort(format!(
                "cannot enumerate domain of sort {sort} (variable {v})"
            ))),
        }
    }
}

/// The tuple arity of a plan variable. Scan/probe sources only arise for
/// tuple-sorted variables, so this cannot fail for well-formed plans.
fn tup_arity(v: Var) -> usize {
    match v.sort {
        txlog_logic::Sort::Obj(txlog_logic::ObjSort::Tup(n)) => n,
        _ => 0,
    }
}
