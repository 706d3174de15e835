//! The fluent evaluator: executable semantics of f-expressions.
//!
//! This module realizes the situational functions operationally:
//! evaluating an object-sorted f-term at a state is `w : e`, a fluent
//! formula is `w :: p`, and executing a state-sorted f-term (a
//! transaction) is `w ; e`. The linkage axioms of Section 2 hold by
//! construction:
//!
//! * `composition-linkage` — [`Engine::execute`] of `a ;; b` threads the
//!   intermediate state;
//! * `condition-linkage` — `if p then a else b` evaluates `p` at the
//!   *current* state and runs one branch;
//! * `iteration-linkage` — `foreach x | p do s` enumerates `{x | w::p}`
//!   **at the initial state** `w` and composes `s[x₁/x] ;; … ;; s[xₙ/x]`,
//!   with each composition step seeing the state its predecessors built.
//!   The result is undefined when the satisfying set cannot be enumerated
//!   or when the result depends on the enumeration order; enabling
//!   [`EvalOptions::check_order_independence`] detects the latter by
//!   executing the reversed enumeration and comparing final states (a
//!   sound rejector: a mismatch proves order dependence).
//!
//! Partiality follows the paper: expressions that fail to denote (a dead
//! tuple, a missing relation) evaluate to [`TxError::Undefined`]; atomic
//! formulas over non-denoting terms are **false** (negative free logic),
//! so `¬(deleted-tuple ∈ R)` comes out true, which is exactly what the
//! `delete-action` axiom demands.

use crate::env::{Binding, Env};
use crate::plan::PlanTable;
use crate::value::{SetVal, Value};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use txlog_base::obs::{Counter, Hist, Metrics};
use txlog_base::{Atom, Symbol, TxError, TxResult};
use txlog_logic::plan::{find_membership_rel, GuardMode};
use txlog_logic::{CmpOp, FFormula, FTerm, ObjSort, Op, Signature, Sort, Var, VarClass};
use txlog_relational::{DbState, Delta, Relation, Schema, TupleVal};

/// How quantifier, set-former, and `foreach` domains are enumerated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlanMode {
    /// Compile conditions to indexed query plans (membership scans,
    /// hash-index probes, residual filters). The default.
    #[default]
    Indexed,
    /// Naive nested-loop enumeration over the bounded domains — the
    /// reference semantics, kept as the differential-testing oracle.
    Naive,
}

/// Evaluation options.
#[derive(Clone, Copy)]
pub struct EvalOptions {
    /// Execute `foreach` bodies under both the canonical and the reversed
    /// enumeration and fail with [`TxError::OrderDependent`] if the final
    /// states differ. Doubles the cost of iterations.
    pub check_order_independence: bool,
    /// Upper bound on the number of iterations a single `foreach` may
    /// perform, and on the number of candidate bindings a single
    /// quantifier or set-former enumeration may visit — a guard against
    /// accidentally unbounded domains.
    pub max_iterations: usize,
    /// Domain-enumeration strategy (indexed plans vs. the naive oracle).
    pub planner: PlanMode,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            check_order_independence: false,
            max_iterations: 1_000_000,
            planner: PlanMode::Indexed,
        }
    }
}

/// Fluent constructor for [`Engine`] — the one way to configure one.
///
/// Obtained from [`Engine::builder`]; finish with
/// [`build`](EngineBuilder::build), which validates the schema:
///
/// ```ignore
/// let engine = Engine::builder(&schema)
///     .options(EvalOptions { planner: PlanMode::Indexed, ..Default::default() })
///     .metrics(metrics.clone())
///     .build()?;
/// ```
#[must_use = "an EngineBuilder does nothing until .build()"]
pub struct EngineBuilder<'a> {
    schema: &'a Schema,
    opts: EvalOptions,
    metrics: Option<Metrics>,
}

impl<'a> EngineBuilder<'a> {
    /// Replace the evaluation options (default: [`EvalOptions::default`]).
    pub fn options(mut self, opts: EvalOptions) -> EngineBuilder<'a> {
        self.opts = opts;
        self
    }

    /// Thread an explicit observability sink. Engines built without one
    /// inherit the process-global recorder ([`Metrics::current`]), which
    /// is disabled unless a binary installs one.
    pub fn metrics(mut self, metrics: Metrics) -> EngineBuilder<'a> {
        self.metrics = Some(metrics);
        self
    }

    /// Validate the schema and build the engine. Errors if the schema
    /// violates the global attribute-name uniqueness the paper's `l(t)`
    /// sugar presumes.
    pub fn build(self) -> TxResult<Engine<'a>> {
        let metrics = self.metrics.unwrap_or_else(Metrics::current);
        metrics.bump(Counter::EngineBuilds);
        let mut attrs = HashMap::new();
        let mut owners: HashMap<Symbol, Symbol> = HashMap::new();
        let mut sig = Signature::new();
        for d in self.schema.decls() {
            for (i, &a) in d.attrs.iter().enumerate() {
                if let Some(prev) = owners.insert(a, d.name) {
                    return Err(TxError::schema(format!(
                        "attribute {a} is declared by both {prev} and {}; attribute \
                         names must be globally unique for the l(t) sugar to denote",
                        d.name
                    )));
                }
                attrs.insert(a, (d.arity(), i + 1));
            }
            let attr_names: Vec<&str> = d.attrs.iter().map(|a| a.as_str()).collect();
            sig = sig.relation(d.name.as_str(), &attr_names);
        }
        let tables = Arc::new(SchemaTables { attrs, sig });
        Ok(Engine::view(self.schema, tables, self.opts, metrics))
    }
}

/// What an [`Engine`] derives from its [`Schema`]. A pure function of
/// the schema, so [`EngineBuilder::build`] computes it once and every
/// further engine over the same schema is an O(1) [`Engine::view`] of it.
pub(crate) struct SchemaTables {
    /// attribute name → (relation arity, 1-based index); names must be
    /// globally unique, as the paper's `l(t)` sugar presumes.
    attrs: HashMap<Symbol, (usize, usize)>,
    /// The schema as a sort-checking signature, reused by the planner
    /// and for deriving empty set-former arities.
    pub(crate) sig: Signature,
}

/// The engine tables of one schema, built on first use and kept: the
/// handle an owner of a schema holds so that its engines are O(1)
/// views, not rebuilds. For owners whose constructor is infallible
/// ([`Model`](crate::Model), [`ModelBuilder`](crate::ModelBuilder), a
/// constraint checker's `History` and `Checker`): an invalid schema
/// fails every evaluation with the error [`EngineBuilder::build`] gave
/// the first. Clones share the tables.
#[derive(Clone, Default)]
pub struct LazyTables(OnceLock<TxResult<Arc<SchemaTables>>>);

impl LazyTables {
    /// An engine over `schema` — which must be the same schema on every
    /// call — building the tables (one `engine_builds`, reported into
    /// `metrics`) if this is the first.
    pub fn engine<'a>(
        &self,
        schema: &'a Schema,
        opts: EvalOptions,
        metrics: Metrics,
    ) -> TxResult<Engine<'a>> {
        let built = self.0.get_or_init(|| {
            let engine = Engine::builder(schema).metrics(metrics.clone()).build()?;
            Ok(engine.tables)
        });
        let tables = Arc::clone(built.as_ref().map_err(TxError::clone)?);
        Ok(Engine::view(schema, tables, opts, metrics))
    }
}

/// The result of [`Engine::execute_traced`]: the successor state plus
/// the extensional record of how it differs from the initial state.
#[derive(Clone, Debug)]
pub struct Execution {
    /// The successor state (`w ; e`).
    pub state: DbState,
    /// The delta of the run; always equals `initial.diff(&state)`.
    pub delta: Delta,
}

/// The evaluator. Borrow a schema, evaluate many expressions.
pub struct Engine<'a> {
    pub(crate) schema: &'a Schema,
    pub(crate) opts: EvalOptions,
    pub(crate) tables: Arc<SchemaTables>,
    /// Observability sink; disabled (one branch per event) unless a
    /// recorder was installed globally or threaded in explicitly.
    pub(crate) metrics: Metrics,
    /// Quantifier plans compiled ahead of time for the formula being
    /// evaluated ([`Prepared`](crate::plan::Prepared)); `None` plans
    /// each enumeration as it is met.
    pub(crate) plans: Option<&'a PlanTable>,
}

impl<'a> Engine<'a> {
    /// Start configuring an engine over a schema. The builder is the
    /// only constructor; [`build`](EngineBuilder::build) validates the
    /// schema (globally unique attribute names).
    pub fn builder(schema: &'a Schema) -> EngineBuilder<'a> {
        EngineBuilder {
            schema,
            opts: EvalOptions::default(),
            metrics: None,
        }
    }

    /// An engine over tables some [`EngineBuilder::build`] of the same
    /// schema already validated and computed.
    pub(crate) fn view(
        schema: &'a Schema,
        tables: Arc<SchemaTables>,
        opts: EvalOptions,
        metrics: Metrics,
    ) -> Engine<'a> {
        Engine {
            schema,
            opts,
            tables,
            metrics,
            plans: None,
        }
    }

    /// The observability sink this engine reports into.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The schema this engine evaluates against.
    pub fn schema(&self) -> &Schema {
        self.schema
    }

    pub(crate) fn attr(&self, name: Symbol) -> TxResult<(usize, usize)> {
        self.tables.attrs.get(&name).copied().ok_or_else(|| {
            TxError::schema(format!("unknown attribute {name} (not in any relation)"))
        })
    }

    // ------------------------------------------------------------------
    // w : e — object evaluation
    // ------------------------------------------------------------------

    /// Evaluate an object-sorted f-term at a state (`w : e`).
    pub fn eval_obj(&self, db: &DbState, t: &FTerm, env: &Env) -> TxResult<Value> {
        match t {
            FTerm::Var(v) => self.eval_var(db, *v, env),
            FTerm::Nat(n) => Ok(Value::Atom(Atom::Nat(*n))),
            FTerm::Str(s) => Ok(Value::Atom(Atom::Str(*s))),
            FTerm::Rel(name) => {
                let decl = self
                    .schema
                    .by_name(*name)
                    .ok_or_else(|| TxError::schema(format!("unknown relation {name}")))?;
                match db.relation(decl.id) {
                    Some(rel) => Ok(Value::Set(SetVal::from_relation(rel))),
                    None => Err(TxError::undefined(format!(
                        "relation {name} does not exist in this state"
                    ))),
                }
            }
            FTerm::Attr(name, inner) => {
                let tuple = self.eval_obj(db, inner, env)?.into_tuple()?;
                let (arity, ix) = self.attr(*name)?;
                if tuple.arity() != arity {
                    return Err(TxError::sort(format!(
                        "attribute {name} belongs to {arity}-ary tuples, got arity {}",
                        tuple.arity()
                    )));
                }
                Ok(Value::Atom(tuple.select(ix)?))
            }
            FTerm::Select(inner, i) => {
                let tuple = self.eval_obj(db, inner, env)?.into_tuple()?;
                Ok(Value::Atom(tuple.select(*i)?))
            }
            FTerm::TupleCons(parts) => {
                let mut fields = Vec::with_capacity(parts.len());
                for p in parts {
                    fields.push(self.eval_obj(db, p, env)?.into_atom()?);
                }
                Ok(Value::Tuple(TupleVal::anonymous(fields)))
            }
            FTerm::App(op, args) => self.eval_op(db, *op, args, env),
            FTerm::SetFormer { head, vars, cond } => self.eval_setformer(db, head, vars, cond, env),
            FTerm::IdOf(inner) => match self.eval_obj(db, inner, env)? {
                Value::Tuple(t) => {
                    t.id.map(Value::TupleId)
                        .ok_or_else(|| TxError::undefined("id of an anonymous tuple"))
                }
                Value::Set(s) => s
                    .rel_id
                    .map(Value::RelId)
                    .ok_or_else(|| TxError::undefined("id of a computed set")),
                other => Err(TxError::sort(format!("id of non-identified value {other}"))),
            },
            FTerm::UserApp(name, _) => Err(TxError::eval(format!(
                "user function {name} has no evaluation rule registered"
            ))),
            _ => Err(TxError::sort(format!(
                "state-sorted term in object position: {t}"
            ))),
        }
    }

    fn eval_var(&self, db: &DbState, v: Var, env: &Env) -> TxResult<Value> {
        match env.get(&v) {
            Some(Binding::FluentTuple(tv)) => match tv.id {
                Some(id) => match db.find_tuple(id) {
                    Some((_, current)) => Ok(Value::Tuple(current)),
                    None => Err(TxError::undefined(format!(
                        "tuple {id} (variable {v}) does not exist in this state"
                    ))),
                },
                None => Ok(Value::Tuple(tv.clone())),
            },
            Some(Binding::FluentAtom(a)) => Ok(Value::Atom(*a)),
            Some(Binding::Val(val)) => Ok(val.clone()),
            Some(Binding::Label(_)) | Some(Binding::Program(_)) => Err(TxError::sort(format!(
                "transaction variable {v} used in object position"
            ))),
            None => Err(TxError::eval(format!("unbound variable {v}"))),
        }
    }

    fn eval_op(&self, db: &DbState, op: Op, args: &[FTerm], env: &Env) -> TxResult<Value> {
        // Malformed applications (programmatically-built terms with the
        // wrong argument count) must surface as typed sort errors, not
        // slice-index panics.
        let arg = |i: usize| -> TxResult<&FTerm> {
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
                let a = self.eval_obj(db, arg(0)?, env)?.into_atom()?;
                let b = self.eval_obj(db, arg(1)?, env)?.into_atom()?;
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
                let s = self.eval_obj(db, arg(0)?, env)?.into_set()?;
                Ok(Value::Atom(s.sum()?))
            }
            Op::Size => {
                let s = self.eval_obj(db, arg(0)?, env)?.into_set()?;
                Ok(Value::Atom(Atom::Nat(s.len() as u64)))
            }
            Op::Union | Op::Inter | Op::Diff | Op::Product => {
                let a = self.eval_obj(db, arg(0)?, env)?.into_set()?;
                let b = self.eval_obj(db, arg(1)?, env)?.into_set()?;
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

    fn eval_setformer(
        &self,
        db: &DbState,
        head: &FTerm,
        vars: &[Var],
        cond: &FFormula,
        env: &Env,
    ) -> TxResult<Value> {
        let mut members = Vec::new();
        self.for_each_assignment(db, vars, cond, env, GuardMode::Positive, &mut |env| {
            if self.eval_truth(db, cond, env)? {
                let v = self.eval_obj(db, head, env)?;
                members.push(v.into_tuple()?);
            }
            Ok(true)
        })?;
        let arity = match members.first() {
            // A non-empty comprehension's arity is its members'.
            Some(m) => m.arity(),
            // An empty one must derive it from the head's *sort* — a
            // guess would silently type the set wrong.
            None => match txlog_logic::sort_of_fterm(&self.tables.sig, head) {
                Ok(Sort::Obj(ObjSort::Atom)) => 1,
                Ok(Sort::Obj(ObjSort::Tup(n))) => n,
                Ok(other) => {
                    return Err(TxError::sort(format!(
                        "set-former head {head} has sort {other}, not a tuple or atom"
                    )))
                }
                Err(e) => return Err(e),
            },
        };
        Ok(Value::Set(SetVal::from_members(arity, members)?))
    }

    /// The relation a `v ∈ R` conjunct bounds `v` to, resolved and
    /// arity-checked against `v`'s sort; `None` when the relation is
    /// absent from the state (an empty domain, not an error). Shared by
    /// the naive enumerator and the plan interpreter so both report the
    /// identical schema/sort errors.
    pub(crate) fn bounding_relation<'d>(
        &self,
        db: &'d DbState,
        v: Var,
        n: usize,
        rel: Symbol,
    ) -> TxResult<Option<&'d Relation>> {
        let decl = self
            .schema
            .by_name(rel)
            .ok_or_else(|| TxError::schema(format!("unknown relation {rel}")))?;
        if decl.arity() != n {
            return Err(TxError::sort(format!(
                "variable {v} has arity {n} but relation {rel} has arity {}",
                decl.arity()
            )));
        }
        Ok(db.relation(decl.id))
    }

    /// The finite domain a bound fluent variable ranges over at `db` —
    /// the naive (oracle) enumeration, definitional for the bounded
    /// quantification semantics.
    pub(crate) fn domain_of(
        &self,
        db: &DbState,
        v: Var,
        cond: &FFormula,
    ) -> TxResult<Vec<Binding>> {
        match v.sort {
            Sort::Obj(ObjSort::Tup(n)) => {
                // Prefer a restricting membership conjunct.
                if let Some(rel) = find_membership_rel(cond, v) {
                    return Ok(match self.bounding_relation(db, v, n, rel)? {
                        Some(r) => r.iter_vals().map(Binding::FluentTuple).collect(),
                        None => Vec::new(),
                    });
                }
                // Fall back to every arity-n tuple in the state.
                Ok(crate::plan::active_tuples(db, n)
                    .into_iter()
                    .map(Binding::FluentTuple)
                    .collect())
            }
            Sort::Obj(ObjSort::Atom) => {
                let mut seed = Vec::new();
                collect_fformula_atoms(cond, &mut seed);
                Ok(crate::plan::atom_domain([db], seed)
                    .into_iter()
                    .map(Binding::FluentAtom)
                    .collect())
            }
            other => Err(TxError::sort(format!(
                "cannot enumerate domain of sort {other} (variable {v})"
            ))),
        }
    }

    // ------------------------------------------------------------------
    // w :: p — truth evaluation
    // ------------------------------------------------------------------

    /// Evaluate a fluent formula at a state (`w :: p`). Atoms over
    /// non-denoting terms are false.
    pub fn eval_truth(&self, db: &DbState, p: &FFormula, env: &Env) -> TxResult<bool> {
        match p {
            FFormula::True => Ok(true),
            FFormula::False => Ok(false),
            FFormula::Cmp(op, a, b) => {
                let a = self.eval_obj_opt(db, a, env)?;
                let b = self.eval_obj_opt(db, b, env)?;
                match (a, b) {
                    (Some(a), Some(b)) => cmp_values(*op, &a, &b),
                    _ => Ok(false),
                }
            }
            FFormula::Member(t, set) => {
                let t = self.eval_obj_opt(db, t, env)?;
                let set = self.eval_obj_opt(db, set, env)?;
                match (t, set) {
                    (Some(t), Some(set)) => Ok(set.into_set()?.contains(&t.into_tuple()?)),
                    _ => Ok(false),
                }
            }
            FFormula::Subset(a, b) => {
                let a = self.eval_obj_opt(db, a, env)?;
                let b = self.eval_obj_opt(db, b, env)?;
                match (a, b) {
                    (Some(a), Some(b)) => a.into_set()?.subset(&b.into_set()?),
                    _ => Ok(false),
                }
            }
            FFormula::Not(q) => Ok(!self.eval_truth(db, q, env)?),
            FFormula::And(a, b) => Ok(self.eval_truth(db, a, env)? && self.eval_truth(db, b, env)?),
            FFormula::Or(a, b) => Ok(self.eval_truth(db, a, env)? || self.eval_truth(db, b, env)?),
            FFormula::Implies(a, b) => {
                Ok(!self.eval_truth(db, a, env)? || self.eval_truth(db, b, env)?)
            }
            FFormula::Iff(a, b) => Ok(self.eval_truth(db, a, env)? == self.eval_truth(db, b, env)?),
            FFormula::Exists(v, body) => {
                let mut found = false;
                self.for_each_assignment(
                    db,
                    std::slice::from_ref(v),
                    body,
                    env,
                    GuardMode::Positive,
                    &mut |env2| {
                        if self.eval_truth(db, body, env2)? {
                            found = true;
                            return Ok(false); // witness found: stop
                        }
                        Ok(true)
                    },
                )?;
                Ok(found)
            }
            FFormula::Forall(v, body) => {
                let mut holds = true;
                self.for_each_assignment(
                    db,
                    std::slice::from_ref(v),
                    body,
                    env,
                    GuardMode::Guarded,
                    &mut |env2| {
                        if !self.eval_truth(db, body, env2)? {
                            holds = false;
                            return Ok(false); // counterexample: stop
                        }
                        Ok(true)
                    },
                )?;
                Ok(holds)
            }
            FFormula::UserPred(name, _) => Err(TxError::eval(format!(
                "user predicate {name} has no evaluation rule registered"
            ))),
        }
    }

    /// Evaluate, mapping [`TxError::Undefined`] to `None`.
    pub fn eval_obj_opt(&self, db: &DbState, t: &FTerm, env: &Env) -> TxResult<Option<Value>> {
        match self.eval_obj(db, t, env) {
            Ok(v) => Ok(Some(v)),
            Err(e) if e.is_undefined() => Ok(None),
            Err(e) => Err(e),
        }
    }

    // ------------------------------------------------------------------
    // w ; e — execution
    // ------------------------------------------------------------------

    /// Execute a transaction at a state (`w ; e`), yielding the successor
    /// state. Object-sorted terms are rejected: they are queries, not
    /// transactions (Definition 3).
    ///
    /// This is a thin wrapper over [`Engine::execute_traced`] that drops
    /// the recorded delta: there is exactly one execution path, and it is
    /// delta-native.
    pub fn execute(&self, db: &DbState, t: &FTerm, env: &Env) -> TxResult<DbState> {
        self.exec_node(db, t, env).map(|(next, _)| next)
    }

    /// Execute a transaction and record the [`Delta`] of the run — the
    /// extensional content of the arc `w ; e` adds to the evolution
    /// graph. This is **the primary entry point**: the [`Execution`] it
    /// returns carries both the successor state and the delta that the
    /// incremental checker and the commit pipeline consume;
    /// [`Engine::execute`] is the delta-dropping convenience.
    ///
    /// Internally there is exactly one executor (the sole match over
    /// state-sorted [`FTerm`]s): each primitive step uses its `*_traced`
    /// counterpart on [`DbState`] (O(change) accumulation, not O(state)
    /// differencing), `;;` composes the step deltas through
    /// [`Delta::compose`], `if` traces the branch taken, and `foreach`
    /// composes one delta per iteration. The delta always equals
    /// `db.diff(&execution.state)`.
    pub fn execute_traced(&self, db: &DbState, t: &FTerm, env: &Env) -> TxResult<Execution> {
        self.exec_node(db, t, env)
            .map(|(state, delta)| Execution { state, delta })
    }

    fn exec_node(&self, db: &DbState, t: &FTerm, env: &Env) -> TxResult<(DbState, Delta)> {
        self.metrics.bump(Counter::ExecSteps);
        match t {
            FTerm::Identity => Ok((db.clone(), Delta::empty())),
            FTerm::Seq(a, b) => {
                self.metrics.bump(Counter::ExecSeq);
                let (mid, d1) = self.exec_node(db, a, env)?;
                let (end, d2) = self.exec_node(&mid, b, env)?;
                Ok((end, d1.compose(&d2)))
            }
            FTerm::Cond(p, a, b) => {
                self.metrics.bump(Counter::ExecCond);
                if self.eval_truth(db, p, env)? {
                    self.exec_node(db, a, env)
                } else {
                    self.exec_node(db, b, env)
                }
            }
            FTerm::Foreach(v, p, body) => {
                self.metrics.bump(Counter::ExecForeach);
                self.execute_foreach_traced(db, *v, p, body, env)
            }
            FTerm::Insert(tup, rel) => {
                self.metrics.bump(Counter::ExecInsert);
                let decl = self.rel_decl(*rel)?;
                let tv = self.eval_obj(db, tup, env)?.into_tuple()?;
                if tv.arity() != decl.arity() {
                    return Err(TxError::sort(format!(
                        "insert of {}-ary tuple into {}-ary relation {rel}",
                        tv.arity(),
                        decl.arity()
                    )));
                }
                let (next, _, delta) = db.insert_traced(decl.id, &tv)?;
                Ok((next, delta))
            }
            FTerm::Delete(tup, rel) => {
                self.metrics.bump(Counter::ExecDelete);
                let decl = self.rel_decl(*rel)?;
                match self.eval_obj_opt(db, tup, env)? {
                    Some(v) => db.delete_traced(decl.id, &v.into_tuple()?),
                    None => Ok((db.clone(), Delta::empty())),
                }
            }
            FTerm::Modify(tup, i, val) => {
                self.metrics.bump(Counter::ExecModify);
                let tv = self.eval_obj(db, tup, env)?.into_tuple()?;
                let v = self.eval_obj(db, val, env)?.into_atom()?;
                db.modify_traced(&tv, *i, v)
            }
            FTerm::ModifyAttr(tup, attr, val) => {
                self.metrics.bump(Counter::ExecModify);
                let tv = self.eval_obj(db, tup, env)?.into_tuple()?;
                let (arity, ix) = self.attr(*attr)?;
                if tv.arity() != arity {
                    return Err(TxError::sort(format!(
                        "attribute {attr} belongs to {arity}-ary tuples, got arity {}",
                        tv.arity()
                    )));
                }
                let v = self.eval_obj(db, val, env)?.into_atom()?;
                db.modify_traced(&tv, ix, v)
            }
            FTerm::Assign(rel, set) => {
                self.metrics.bump(Counter::ExecAssign);
                let decl = self.rel_decl(*rel)?;
                let sv = self.eval_obj(db, set, env)?.into_set()?;
                if sv.arity != decl.arity() {
                    return Err(TxError::sort(format!(
                        "assign of {}-ary set to {}-ary relation {rel}",
                        sv.arity,
                        decl.arity()
                    )));
                }
                db.assign_traced(decl.id, decl.arity(), sv.members())
            }
            FTerm::Var(v) => match env.get(v) {
                Some(Binding::Program(p)) => {
                    let p = p.clone();
                    self.exec_node(db, &p, env)
                }
                Some(Binding::Label(l)) => Err(TxError::not_executable(format!(
                    "transaction variable {v} is bound to graph label {l}; \
                     labels are only meaningful during model checking"
                ))),
                Some(_) => Err(TxError::sort(format!(
                    "variable {v} is not bound to a transaction"
                ))),
                None => Err(TxError::eval(format!("unbound transaction variable {v}"))),
            },
            other => Err(TxError::not_executable(format!(
                "object-sorted term used as a transaction: {other}"
            ))),
        }
    }

    fn execute_foreach_traced(
        &self,
        db: &DbState,
        v: Var,
        p: &FFormula,
        body: &FTerm,
        env: &Env,
    ) -> TxResult<(DbState, Delta)> {
        // Iteration-linkage: matches fixed at the initial state, bodies
        // composed sequentially, with the per-iteration deltas composed
        // alongside. A foreach over an empty satisfying set composes
        // zero deltas — the Λ delta.
        let mut matches: Vec<Binding> = Vec::new();
        self.for_each_assignment(
            db,
            std::slice::from_ref(&v),
            p,
            env,
            GuardMode::Positive,
            &mut |env2| {
                if self.eval_truth(db, p, env2)? {
                    let b = env2.get(&v).cloned().ok_or_else(|| {
                        TxError::eval(format!(
                            "foreach variable {v} was not bound by its own enumeration"
                        ))
                    })?;
                    matches.push(b);
                    if matches.len() > self.opts.max_iterations {
                        return Err(TxError::InfiniteDomain(format!(
                            "foreach over {v} exceeded {} iterations",
                            self.opts.max_iterations
                        )));
                    }
                }
                Ok(true)
            },
        )?;
        self.metrics
            .observe(Hist::ForeachMatches, matches.len() as u64);
        self.metrics
            .add(Counter::ForeachIterations, matches.len() as u64);
        let mut cur = db.clone();
        let mut delta = Delta::empty();
        for b in &matches {
            let env2 = env.bind(v, b.clone());
            let (next, d) = self.exec_node(&cur, body, &env2)?;
            cur = next;
            delta = delta.compose(&d);
        }
        if self.opts.check_order_independence && matches.len() > 1 {
            let mut back = db.clone();
            for b in matches.iter().rev() {
                let env2 = env.bind(v, b.clone());
                back = self.exec_node(&back, body, &env2)?.0;
            }
            if !cur.content_eq(&back) {
                return Err(TxError::OrderDependent(format!(
                    "foreach over {v} yields different states under different \
                     enumeration orders"
                )));
            }
        }
        Ok((cur, delta))
    }

    fn rel_decl(&self, name: Symbol) -> TxResult<&txlog_relational::RelDecl> {
        self.schema
            .by_name(name)
            .ok_or_else(|| TxError::schema(format!("unknown relation {name}")))
    }
}

/// Compare two values under a comparison operator. Order comparisons
/// require atoms; equality is semantic at any sort.
pub fn cmp_values(op: CmpOp, a: &Value, b: &Value) -> TxResult<bool> {
    match op {
        CmpOp::Eq => Ok(a.sem_eq(b)),
        CmpOp::Ne => Ok(!a.sem_eq(b)),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let x = a.clone().into_atom()?;
            let y = b.clone().into_atom()?;
            match op {
                CmpOp::Lt => x.lt(y),
                CmpOp::Le => x.le(y),
                CmpOp::Gt => y.lt(x),
                CmpOp::Ge => y.le(x),
                _ => unreachable!(),
            }
        }
    }
}

/// All atoms occurring in any relation of the state, in enumeration order.
pub fn active_atoms(db: &DbState) -> Vec<Atom> {
    let mut out = Vec::new();
    for (_, rel) in db.relations() {
        for t in rel.iter() {
            out.extend_from_slice(t.fields());
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Collect numeric/symbolic constants mentioned in a formula (used to seed
/// atom-sorted quantifier domains).
pub(crate) fn collect_fformula_atoms(p: &FFormula, out: &mut Vec<Atom>) {
    fn term(t: &FTerm, out: &mut Vec<Atom>) {
        match t {
            FTerm::Nat(n) => out.push(Atom::Nat(*n)),
            FTerm::Str(s) => out.push(Atom::Str(*s)),
            FTerm::Attr(_, t) | FTerm::Select(t, _) | FTerm::IdOf(t) => term(t, out),
            FTerm::TupleCons(ts) | FTerm::App(_, ts) | FTerm::UserApp(_, ts) => {
                for t in ts {
                    term(t, out);
                }
            }
            FTerm::SetFormer { head, cond, .. } => {
                term(head, out);
                collect_fformula_atoms(cond, out);
            }
            _ => {}
        }
    }
    match p {
        FFormula::Cmp(_, a, b) | FFormula::Member(a, b) | FFormula::Subset(a, b) => {
            term(a, out);
            term(b, out);
        }
        FFormula::Not(q) => collect_fformula_atoms(q, out),
        FFormula::And(a, b)
        | FFormula::Or(a, b)
        | FFormula::Implies(a, b)
        | FFormula::Iff(a, b) => {
            collect_fformula_atoms(a, out);
            collect_fformula_atoms(b, out);
        }
        FFormula::Exists(_, q) | FFormula::Forall(_, q) => collect_fformula_atoms(q, out),
        FFormula::UserPred(_, ts) => {
            for t in ts {
                term(t, out);
            }
        }
        FFormula::True | FFormula::False => {}
    }
}

/// Check that an f-term is a well-formed database program over `schema`
/// with parameters `params` (Definition 3): every free variable is a
/// parameter, every relation and attribute is declared. Returns whether
/// the program is a transaction (state sort) or a query.
pub fn check_program(schema: &Schema, t: &FTerm, params: &[Var]) -> TxResult<ProgramKind> {
    let free = txlog_logic::subst::fterm_free_vars(t);
    for v in &free {
        if !params.contains(v) {
            return Err(TxError::not_executable(format!(
                "free variable {v} is not a declared parameter"
            )));
        }
        if v.class == VarClass::Situational && v.sort != Sort::ATOM {
            return Err(TxError::not_executable(format!(
                "situational parameter {v} cannot appear in a program"
            )));
        }
    }
    check_names(schema, t)?;
    Ok(if t.is_transaction_shaped() {
        ProgramKind::Transaction
    } else {
        ProgramKind::Query
    })
}

/// Definition 3's dichotomy of database programs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProgramKind {
    /// An f-term of state sort.
    Transaction,
    /// An f-term of object sort.
    Query,
}

fn check_names(schema: &Schema, t: &FTerm) -> TxResult<()> {
    let check_rel = |name: Symbol| -> TxResult<()> {
        schema
            .by_name(name)
            .map(|_| ())
            .ok_or_else(|| TxError::schema(format!("unknown relation {name}")))
    };
    match t {
        FTerm::Rel(r) => check_rel(*r),
        FTerm::Attr(_, inner) | FTerm::Select(inner, _) | FTerm::IdOf(inner) => {
            check_names(schema, inner)
        }
        FTerm::TupleCons(ts) | FTerm::App(_, ts) | FTerm::UserApp(_, ts) => {
            ts.iter().try_for_each(|t| check_names(schema, t))
        }
        FTerm::SetFormer { head, cond, .. } => {
            check_names(schema, head)?;
            check_formula_names(schema, cond)
        }
        FTerm::Seq(a, b) => {
            check_names(schema, a)?;
            check_names(schema, b)
        }
        FTerm::Cond(p, a, b) => {
            check_formula_names(schema, p)?;
            check_names(schema, a)?;
            check_names(schema, b)
        }
        FTerm::Foreach(_, p, body) => {
            check_formula_names(schema, p)?;
            check_names(schema, body)
        }
        FTerm::Insert(tup, r) | FTerm::Delete(tup, r) => {
            check_rel(*r)?;
            check_names(schema, tup)
        }
        FTerm::Modify(tup, _, v) | FTerm::ModifyAttr(tup, _, v) => {
            check_names(schema, tup)?;
            check_names(schema, v)
        }
        FTerm::Assign(r, set) => {
            check_rel(*r)?;
            check_names(schema, set)
        }
        FTerm::Var(_) | FTerm::Nat(_) | FTerm::Str(_) | FTerm::Identity => Ok(()),
    }
}

fn check_formula_names(schema: &Schema, p: &FFormula) -> TxResult<()> {
    match p {
        FFormula::True | FFormula::False => Ok(()),
        FFormula::Cmp(_, a, b) | FFormula::Member(a, b) | FFormula::Subset(a, b) => {
            check_names(schema, a)?;
            check_names(schema, b)
        }
        FFormula::Not(q) => check_formula_names(schema, q),
        FFormula::And(a, b)
        | FFormula::Or(a, b)
        | FFormula::Implies(a, b)
        | FFormula::Iff(a, b) => {
            check_formula_names(schema, a)?;
            check_formula_names(schema, b)
        }
        FFormula::Exists(_, q) | FFormula::Forall(_, q) => check_formula_names(schema, q),
        FFormula::UserPred(_, ts) => ts.iter().try_for_each(|t| check_names(schema, t)),
    }
}
