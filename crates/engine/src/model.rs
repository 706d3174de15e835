//! Finite-model evaluation of s-formulas over evolution graphs.
//!
//! Definition 2 makes a relational database a *model* of the situational
//! transaction theory: a set of states connected by transactions. A
//! [`Model`] is a finite such structure — an [`EvolutionGraph`] plus its
//! schema — and [`Model::check`] decides a closed s-formula in it:
//!
//! * situational **state** variables range over the graph's nodes;
//! * fluent **state** variables (transactions, the `t` of `s ; t`) range
//!   over the graph's arc labels, and `s ; t` denotes the target of the
//!   `t`-arc from `s` (undefined if there is none) — so `∃t. s;t = s₂`
//!   says exactly "s₂ is reachable from s by a recorded transaction";
//! * fluent **tuple** variables range over tuple identities, re-resolved
//!   at each state (`s:e` and `s;t:e` see the same employee's possibly
//!   different attribute values);
//! * situational **tuple** variables range over tuple values, restricted
//!   by membership conjuncts where possible;
//! * atom variables range over the active domain plus the formula's own
//!   constants.
//!
//! Non-denoting terms make their atoms false (negative free logic), which
//! gives the paper's reading of transaction constraints: a constraint
//! `… → s;t :: φ` is vacuously satisfied at arcs that do not exist.

use crate::env::{Binding, Env};
use crate::exec::{cmp_values, Engine, EvalOptions, LazyTables};
use crate::value::{SetVal, StateVal, Value};
use txlog_base::obs::{Counter, Metrics};
use txlog_base::{Atom, TxError, TxResult};
use txlog_logic::{FTerm, ObjSort, SFormula, STerm, Sort, Var, VarClass};
use txlog_relational::{DbState, EvolutionGraph, Schema, TupleVal, TxLabel};

/// A finite model: an evolution graph over a schema.
pub struct Model {
    /// Read-only once wrapped: `tables` is derived from it.
    schema: Schema,
    /// The graph of states and transaction arcs.
    pub graph: EvolutionGraph,
    opts: EvalOptions,
    metrics: Metrics,
    tables: LazyTables,
}

impl Model {
    /// Wrap a graph as a model.
    pub fn new(schema: Schema, graph: EvolutionGraph) -> Model {
        Model {
            schema,
            graph,
            opts: EvalOptions::default(),
            metrics: Metrics::current(),
            tables: LazyTables::default(),
        }
    }

    /// The schema (relation declarations).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Set evaluation options (forwarded to the fluent evaluator).
    pub fn with_options(mut self, opts: EvalOptions) -> Model {
        self.opts = opts;
        self
    }

    /// Set the observability sink (forwarded to the fluent evaluator).
    pub fn with_metrics(mut self, metrics: Metrics) -> Model {
        self.metrics = metrics;
        self
    }

    /// The fluent evaluator over this model's schema, options and
    /// metrics. The first call validates the schema and builds the
    /// engine's tables; the model keeps them, so every later call —
    /// one per formula leaf evaluated — is O(1).
    pub fn engine(&self) -> TxResult<Engine<'_>> {
        self.tables
            .engine(&self.schema, self.opts, self.metrics.clone())
    }

    /// Decide a closed s-formula in this model.
    pub fn check(&self, f: &SFormula) -> TxResult<bool> {
        self.metrics.bump(Counter::ModelChecks);
        let _span = self.metrics.span("model_check");
        self.eval_sformula(f, &Env::new())
    }

    /// Decide an s-formula under an environment for its free variables.
    pub fn eval_sformula(&self, f: &SFormula, env: &Env) -> TxResult<bool> {
        match f {
            SFormula::True => Ok(true),
            SFormula::False => Ok(false),
            SFormula::Holds(w, p) => match self.eval_sterm_opt(w, env)? {
                Some(v) => {
                    let sv = v.into_state()?;
                    self.engine()?.eval_truth(&sv.db, p, env)
                }
                None => Ok(false),
            },
            SFormula::Cmp(op, a, b) => {
                let a = self.eval_sterm_opt(a, env)?;
                let b = self.eval_sterm_opt(b, env)?;
                match (a, b) {
                    (Some(a), Some(b)) => cmp_values(*op, &a, &b),
                    _ => Ok(false),
                }
            }
            SFormula::Member(t, set) => {
                let t = self.eval_sterm_opt(t, env)?;
                let set = self.eval_sterm_opt(set, env)?;
                match (t, set) {
                    (Some(t), Some(set)) => Ok(set.into_set()?.contains(&t.into_tuple()?)),
                    _ => Ok(false),
                }
            }
            SFormula::Subset(a, b) => {
                let a = self.eval_sterm_opt(a, env)?;
                let b = self.eval_sterm_opt(b, env)?;
                match (a, b) {
                    (Some(a), Some(b)) => a.into_set()?.subset(&b.into_set()?),
                    _ => Ok(false),
                }
            }
            SFormula::Not(q) => Ok(!self.eval_sformula(q, env)?),
            SFormula::And(a, b) => Ok(self.eval_sformula(a, env)? && self.eval_sformula(b, env)?),
            SFormula::Or(a, b) => Ok(self.eval_sformula(a, env)? || self.eval_sformula(b, env)?),
            SFormula::Implies(a, b) => {
                Ok(!self.eval_sformula(a, env)? || self.eval_sformula(b, env)?)
            }
            SFormula::Iff(a, b) => Ok(self.eval_sformula(a, env)? == self.eval_sformula(b, env)?),
            SFormula::Forall(v, body) => {
                for b in self.quantifier_domain(*v, body, env)? {
                    let env2 = env.bind(*v, b);
                    if !self.eval_sformula(body, &env2)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            SFormula::Exists(v, body) => {
                for b in self.quantifier_domain(*v, body, env)? {
                    let env2 = env.bind(*v, b);
                    if self.eval_sformula(body, &env2)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            SFormula::UserPred(name, _) => Err(TxError::eval(format!(
                "user predicate {name}' has no evaluation rule registered"
            ))),
        }
    }

    /// As [`Model::eval_sformula`], but also returns the witness binding
    /// that falsified the outermost universal (for counterexample reports).
    pub fn check_with_witness(&self, f: &SFormula) -> TxResult<Result<(), String>> {
        match f {
            SFormula::Forall(v, body) => {
                for b in self.quantifier_domain(*v, body, &Env::new())? {
                    let env2 = Env::new().bind(*v, b.clone());
                    if !self.eval_sformula(body, &env2)? {
                        return Ok(Err(format!("{v} ↦ {b}")));
                    }
                }
                Ok(Ok(()))
            }
            other => {
                if self.check(other)? {
                    Ok(Ok(()))
                } else {
                    Ok(Err("formula is false (no binding to report)".into()))
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // s-term evaluation
    // ------------------------------------------------------------------

    /// Evaluate an s-term, `None` for non-denoting.
    pub fn eval_sterm_opt(&self, t: &STerm, env: &Env) -> TxResult<Option<Value>> {
        match self.eval_sterm(t, env) {
            Ok(v) => Ok(Some(v)),
            Err(e) if e.is_undefined() => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Evaluate an s-term to a value.
    pub fn eval_sterm(&self, t: &STerm, env: &Env) -> TxResult<Value> {
        match t {
            STerm::Var(v) => match env.get(v) {
                Some(Binding::Val(val)) => Ok(val.clone()),
                Some(Binding::FluentAtom(a)) => Ok(Value::Atom(*a)),
                Some(other) => Err(TxError::sort(format!(
                    "variable {v} bound to {other} used in s-term position"
                ))),
                None => Err(TxError::eval(format!("unbound variable {v}"))),
            },
            STerm::Nat(n) => Ok(Value::Atom(Atom::Nat(*n))),
            STerm::Str(s) => Ok(Value::Atom(Atom::Str(*s))),
            STerm::EvalObj(w, e) => {
                let sv = self.eval_sterm(w, env)?.into_state()?;
                self.engine()?.eval_obj(&sv.db, e, env)
            }
            STerm::EvalState(w, e) => {
                let sv = self.eval_sterm(w, env)?.into_state()?;
                let out = self.eval_state_fluent(sv, e, env)?;
                Ok(Value::State(out))
            }
            STerm::Attr(name, inner) => {
                let tuple = self.eval_sterm(inner, env)?.into_tuple()?;
                let (arity, ix) = self.engine()?.attr(*name)?;
                if tuple.arity() != arity {
                    return Err(TxError::sort(format!(
                        "attribute {name} belongs to {arity}-ary tuples, got arity {}",
                        tuple.arity()
                    )));
                }
                Ok(Value::Atom(tuple.select(ix)?))
            }
            STerm::Select(inner, i) => {
                let tuple = self.eval_sterm(inner, env)?.into_tuple()?;
                Ok(Value::Atom(tuple.select(*i)?))
            }
            STerm::TupleCons(parts) => {
                let mut fields = Vec::with_capacity(parts.len());
                for p in parts {
                    fields.push(self.eval_sterm(p, env)?.into_atom()?);
                }
                Ok(Value::Tuple(TupleVal::anonymous(fields)))
            }
            STerm::App(op, args) => {
                use txlog_logic::Op;
                // Mirror the fluent evaluator: malformed applications
                // surface as typed sort errors, not index panics.
                let arg = |i: usize| -> TxResult<&STerm> {
                    args.get(i).ok_or_else(|| {
                        TxError::sort(format!(
                            "operator {op} applied to {} argument(s); argument {} is missing",
                            args.len(),
                            i + 1
                        ))
                    })
                };
                match op {
                    Op::Add | Op::Monus | Op::Mul | Op::Max | Op::Min => {
                        let a = self.eval_sterm(arg(0)?, env)?.into_atom()?;
                        let b = self.eval_sterm(arg(1)?, env)?.into_atom()?;
                        let r = match op {
                            Op::Add => a.add(b)?,
                            Op::Monus => a.monus(b)?,
                            Op::Mul => a.mul(b)?,
                            Op::Max => a.max(b)?,
                            Op::Min => a.min(b)?,
                            _ => unreachable!(),
                        };
                        Ok(Value::Atom(r))
                    }
                    Op::Sum => {
                        let s = self.eval_sterm(arg(0)?, env)?.into_set()?;
                        Ok(Value::Atom(s.sum()?))
                    }
                    Op::Size => {
                        let s = self.eval_sterm(arg(0)?, env)?.into_set()?;
                        Ok(Value::Atom(Atom::Nat(s.len() as u64)))
                    }
                    Op::Union | Op::Inter | Op::Diff | Op::Product => {
                        let a = self.eval_sterm(arg(0)?, env)?.into_set()?;
                        let b = self.eval_sterm(arg(1)?, env)?.into_set()?;
                        let r = match op {
                            Op::Union => a.union(&b)?,
                            Op::Inter => a.inter(&b)?,
                            Op::Diff => a.diff(&b)?,
                            Op::Product => a.product(&b)?,
                            _ => unreachable!(),
                        };
                        Ok(Value::Set(r))
                    }
                }
            }
            STerm::SetFormer { head, vars, cond } => {
                let mut members = Vec::new();
                self.enumerate_s(vars, cond, env, &mut |env| {
                    if self.eval_sformula(cond, env)? {
                        members.push(self.eval_sterm(head, env)?.into_tuple()?);
                    }
                    Ok(())
                })?;
                let arity = match members.first() {
                    Some(m) => m.arity(),
                    // An empty comprehension's arity comes from the
                    // head's sort, never from a guess.
                    None => match txlog_logic::sort_of_sterm(&self.engine()?.tables.sig, head) {
                        Ok(Sort::Obj(ObjSort::Atom)) => 1,
                        Ok(Sort::Obj(ObjSort::Tup(n))) => n,
                        Ok(other) => {
                            return Err(TxError::sort(format!(
                                "set-former head has sort {other}, not a tuple or atom"
                            )))
                        }
                        Err(e) => return Err(e),
                    },
                };
                Ok(Value::Set(SetVal::from_members(arity, members)?))
            }
            STerm::IdOf(inner) => match self.eval_sterm(inner, env)? {
                Value::Tuple(t) => {
                    t.id.map(Value::TupleId)
                        .ok_or_else(|| TxError::undefined("id of an anonymous tuple"))
                }
                Value::Set(s) => s
                    .rel_id
                    .map(Value::RelId)
                    .ok_or_else(|| TxError::undefined("id of a computed set")),
                other => Err(TxError::sort(format!("id of {other}"))),
            },
            STerm::UserApp(name, _) => Err(TxError::eval(format!(
                "user s-function {name}' has no evaluation rule registered"
            ))),
        }
    }

    /// Evaluate a state-sorted fluent at a state value — the denotation
    /// of `w ; e`.
    fn eval_state_fluent(&self, sv: StateVal, e: &FTerm, env: &Env) -> TxResult<StateVal> {
        match e {
            FTerm::Identity => Ok(sv),
            FTerm::Seq(a, b) => {
                let mid = self.eval_state_fluent(sv, a, env)?;
                self.eval_state_fluent(mid, b, env)
            }
            FTerm::Cond(p, a, b) => {
                if self.engine()?.eval_truth(&sv.db, p, env)? {
                    self.eval_state_fluent(sv, a, env)
                } else {
                    self.eval_state_fluent(sv, b, env)
                }
            }
            FTerm::Var(v) => match env.get(v) {
                Some(Binding::Label(label)) => {
                    let node = sv.node.ok_or_else(|| {
                        TxError::undefined(format!(
                            "transaction variable {v}: source state is not a graph node"
                        ))
                    })?;
                    match self.graph.successor(node, *label) {
                        Some(dst) => Ok(StateVal::node(dst, self.graph.state(dst).clone())),
                        None => Err(TxError::undefined(format!(
                            "no {label}-transition from {node}"
                        ))),
                    }
                }
                Some(Binding::Program(p)) => {
                    let p = p.clone();
                    let db = self.engine()?.execute(&sv.db, &p, env)?;
                    Ok(self.locate(db))
                }
                Some(other) => Err(TxError::sort(format!(
                    "variable {v} bound to {other} used as a transaction"
                ))),
                None => Err(TxError::eval(format!("unbound transaction variable {v}"))),
            },
            // A concrete transaction: execute it; re-attach to a node if
            // the resulting contents already exist in the graph.
            concrete => {
                let db = self.engine()?.execute(&sv.db, concrete, env)?;
                Ok(self.locate(db))
            }
        }
    }

    /// Attach a computed state to a graph node when its contents match one.
    fn locate(&self, db: DbState) -> StateVal {
        for id in self.graph.state_ids() {
            if self.graph.state(id).content_eq(&db) {
                return StateVal::node(id, db);
            }
        }
        StateVal::detached(db)
    }

    // ------------------------------------------------------------------
    // quantifier domains
    // ------------------------------------------------------------------

    fn enumerate_s(
        &self,
        vars: &[Var],
        cond: &SFormula,
        env: &Env,
        visit: &mut dyn FnMut(&Env) -> TxResult<()>,
    ) -> TxResult<()> {
        match vars.split_first() {
            None => visit(env),
            Some((&v, rest)) => {
                for b in self.quantifier_domain(v, cond, env)? {
                    let env2 = env.bind(v, b);
                    self.enumerate_s(rest, cond, &env2, visit)?;
                }
                Ok(())
            }
        }
    }

    /// The finite domain of a quantified variable.
    pub fn quantifier_domain(&self, v: Var, body: &SFormula, env: &Env) -> TxResult<Vec<Binding>> {
        match (v.sort, v.class) {
            (Sort::State, VarClass::Situational) => Ok(self
                .graph
                .state_ids()
                .map(|id| {
                    Binding::Val(Value::State(StateVal::node(
                        id,
                        self.graph.state(id).clone(),
                    )))
                })
                .collect()),
            (Sort::State, VarClass::Fluent) => Ok(self
                .graph
                .labels()
                .into_iter()
                .map(Binding::Label)
                .collect()),
            (Sort::Obj(ObjSort::Tup(n)), VarClass::Fluent) => {
                // tuple identities of arity n anywhere in the model,
                // enumerated per state by the engine's shared helper
                let mut out = Vec::new();
                let mut seen = std::collections::HashSet::new();
                for id in self.graph.state_ids() {
                    for tv in crate::plan::active_tuples(self.graph.state(id), n) {
                        if let Some(tid) = tv.id {
                            if seen.insert(tid) {
                                out.push(Binding::FluentTuple(tv));
                            }
                        }
                    }
                }
                self.domain_budget(v, out.len())?;
                Ok(out)
            }
            (Sort::Obj(ObjSort::Tup(n)), VarClass::Situational) => {
                // Prefer a restricting membership conjunct e' ∈ <set-expr>
                if let Some(set_expr) = find_smembership(body, v) {
                    if let Some(set) = self.eval_sterm_opt(set_expr, env)? {
                        let set = set.into_set()?;
                        return Ok(set
                            .members()
                            .iter()
                            .cloned()
                            .map(|t| Binding::Val(Value::Tuple(t)))
                            .collect());
                    }
                    return Ok(Vec::new());
                }
                // fall back to every arity-n tuple value in any state,
                // via the engine's shared per-state enumeration
                let mut out = Vec::new();
                let mut seen = std::collections::HashSet::new();
                for id in self.graph.state_ids() {
                    for tv in crate::plan::active_tuples(self.graph.state(id), n) {
                        if seen.insert((tv.id, tv.fields.clone())) {
                            out.push(Binding::Val(Value::Tuple(tv)));
                        }
                    }
                }
                self.domain_budget(v, out.len())?;
                Ok(out)
            }
            (Sort::ATOM, _) => {
                let mut seed = Vec::new();
                collect_sformula_atoms(body, &mut seed);
                let states = self.graph.state_ids().map(|id| self.graph.state(id));
                let atoms = crate::plan::atom_domain(states, seed);
                self.domain_budget(v, atoms.len())?;
                Ok(atoms
                    .into_iter()
                    .map(|a| match v.class {
                        VarClass::Fluent => Binding::FluentAtom(a),
                        VarClass::Situational => Binding::Val(Value::Atom(a)),
                    })
                    .collect())
            }
            (sort, class) => Err(TxError::sort(format!(
                "cannot enumerate domain of {class:?} variable {v} of sort {sort}"
            ))),
        }
    }

    /// The model checker's counterpart of the engine's enumeration
    /// budget: a quantifier domain larger than `max_iterations` is
    /// treated as not finitely enumerable.
    fn domain_budget(&self, v: Var, size: usize) -> TxResult<()> {
        if size > self.opts.max_iterations {
            return Err(TxError::InfiniteDomain(format!(
                "s-formula quantifier domain for {v} exceeded {} bindings",
                self.opts.max_iterations
            )));
        }
        Ok(())
    }
}

/// Find a membership conjunct `v ∈ S` restricting situational variable
/// `v`, searching positive conjuncts and implication antecedents. The
/// set it names *is* the variable's domain in a [`Model`]; public so a
/// translation of s-formulas can check it names the same one.
pub fn find_smembership(p: &SFormula, v: Var) -> Option<&STerm> {
    match p {
        SFormula::Member(STerm::Var(x), set) if *x == v => Some(set),
        SFormula::And(a, b) => find_smembership(a, v).or_else(|| find_smembership(b, v)),
        SFormula::Implies(a, _) => find_smembership(a, v),
        SFormula::Forall(x, q) | SFormula::Exists(x, q) if *x != v => find_smembership(q, v),
        _ => None,
    }
}

fn collect_sformula_atoms(p: &SFormula, out: &mut Vec<Atom>) {
    fn term(t: &STerm, out: &mut Vec<Atom>) {
        match t {
            STerm::Nat(n) => out.push(Atom::Nat(*n)),
            STerm::Str(s) => out.push(Atom::Str(*s)),
            STerm::EvalObj(w, _) | STerm::EvalState(w, _) => term(w, out),
            STerm::Attr(_, t) | STerm::Select(t, _) | STerm::IdOf(t) => term(t, out),
            STerm::TupleCons(ts) | STerm::App(_, ts) | STerm::UserApp(_, ts) => {
                for t in ts {
                    term(t, out);
                }
            }
            STerm::SetFormer { head, cond, .. } => {
                term(head, out);
                collect_sformula_atoms(cond, out);
            }
            STerm::Var(_) => {}
        }
    }
    match p {
        SFormula::True | SFormula::False => {}
        SFormula::Holds(w, _) => term(w, out),
        SFormula::Cmp(_, a, b) | SFormula::Member(a, b) | SFormula::Subset(a, b) => {
            term(a, out);
            term(b, out);
        }
        SFormula::Not(q) => collect_sformula_atoms(q, out),
        SFormula::And(a, b)
        | SFormula::Or(a, b)
        | SFormula::Implies(a, b)
        | SFormula::Iff(a, b) => {
            collect_sformula_atoms(a, out);
            collect_sformula_atoms(b, out);
        }
        SFormula::Forall(_, q) | SFormula::Exists(_, q) => collect_sformula_atoms(q, out),
        SFormula::UserPred(_, ts) => {
            for t in ts {
                term(t, out);
            }
        }
    }
}

/// Incrementally build an evolution graph by executing transactions.
pub struct ModelBuilder {
    schema: Schema,
    graph: EvolutionGraph,
    opts: EvalOptions,
    tables: LazyTables,
}

impl ModelBuilder {
    /// Start building over a schema.
    pub fn new(schema: Schema) -> ModelBuilder {
        ModelBuilder {
            schema,
            graph: EvolutionGraph::new(),
            opts: EvalOptions::default(),
            tables: LazyTables::default(),
        }
    }

    /// Set evaluation options for transaction execution.
    pub fn with_options(mut self, opts: EvalOptions) -> ModelBuilder {
        self.opts = opts;
        self
    }

    /// Add (or find) a state.
    pub fn add_state(&mut self, db: DbState) -> txlog_base::StateId {
        self.graph.add_state(db)
    }

    /// Execute `tx` (under `env`) at node `src`, record the resulting
    /// state and a `label`-arc, and return the destination node.
    pub fn apply(
        &mut self,
        src: txlog_base::StateId,
        label: &str,
        tx: &FTerm,
        env: &Env,
    ) -> TxResult<txlog_base::StateId> {
        let engine = self
            .tables
            .engine(&self.schema, self.opts, Metrics::current())?;
        let next = engine.execute(self.graph.state(src), tx, env)?;
        let dst = self.graph.add_state(next);
        self.graph.add_arc(src, TxLabel::new(label), dst)?;
        Ok(dst)
    }

    /// Add the `Λ` self-loops (reflexivity).
    pub fn reflexive_close(&mut self) {
        self.graph.reflexive_close();
    }

    /// Add composed witness arcs (transitivity on reachability).
    pub fn transitive_close(&mut self) {
        self.graph.transitive_close();
    }

    /// Finish, yielding the model (which inherits the engine tables,
    /// if an [`apply`](ModelBuilder::apply) built them).
    pub fn finish(self) -> Model {
        Model {
            tables: self.tables,
            ..Model::new(self.schema, self.graph).with_options(self.opts)
        }
    }

    /// Access the graph under construction.
    pub fn graph(&self) -> &EvolutionGraph {
        &self.graph
    }

    /// Mutable access to the graph under construction, for callers that
    /// need hand-built arcs (e.g. synthetic Kripke structures).
    pub fn graph_mut(&mut self) -> &mut EvolutionGraph {
        &mut self.graph
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }
}
