//! Interpreting compiled quantifier plans against database states.
//!
//! The planner in `txlog_logic::plan` is purely syntactic; this module
//! is its runtime half: `Engine::for_each_assignment` enumerates the
//! satisfying candidate bindings of a quantifier prefix either naively
//! (the oracle semantics) or through a compiled
//! [`QuantPlan`](txlog_logic::plan::QuantPlan) — index probes,
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

use crate::env::{Binding, Env};
use crate::exec::{active_atoms, collect_fformula_atoms, Engine, PlanMode};
use crate::value::Value;
use txlog_base::obs::{Counter, Hist};
use txlog_base::{Atom, TxError, TxResult};
use txlog_logic::plan::{plan_quantifiers, DomainSource, GuardMode, PlanStep};
use txlog_logic::{FFormula, Var};
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

impl Engine<'_> {
    /// Enumerate the candidate assignments of `vars` under `cond`,
    /// calling `visit` for each extension of `env` in deterministic
    /// order. `visit` returns `Ok(true)` to continue and `Ok(false)` to
    /// stop the whole enumeration (quantifier short-circuit).
    ///
    /// With [`PlanMode::Naive`] this is the definitional bounded-domain
    /// cross product; with [`PlanMode::Indexed`] the condition is
    /// compiled to a [`txlog_logic::plan::QuantPlan`] under `mode` and
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
                let plan = plan_quantifiers(&self.tables.sig, vars, cond, mode);
                self.metrics.bump(Counter::PlansCompiled);
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
