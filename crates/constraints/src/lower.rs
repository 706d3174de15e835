//! Lowering declared constraints onto the planner.
//!
//! Definition 4 calls a constraint *static* when it is equivalent to
//! `(∀s) s :: q` for a fluent formula `q`, and the transaction subclass
//! relates a state `s` to its successor `s;t`. Both say the s-formula
//! is, underneath, fluent formulas read at one or two states — and
//! fluent formulas are what [`Engine`] evaluates through compiled
//! quantifier plans. `lower`, run by
//! [`Checker::new`](crate::Checker::new), recovers that form, once, by
//! reading the linkage axioms of Section 2 right-to-left at a fixed
//! state term `w` (`s`, or `s;t`):
//!
//! | situational (in the constraint) | fluent (in `q`) | axiom |
//! |---|---|---|
//! | `w:e` | `e` | object-linkage |
//! | `l'(a')`, `select'(a', i)`, `tuple'(…)`, `op'(…)`, `id'(a')` over lowered arguments | `l(a)`, `select(a, i)`, … | object-linkage |
//! | `w::p` | `p` | predicate-linkage |
//! | `a' = b'`, `a' ∈ b'`, `a' ⊆ b'`, `<`, … over lowered sides | the same atom over `a`, `b` | predicate-linkage |
//! | `{ h' \| x̄' . c' }` | `{ h \| x̄ . c }` | setformer-linkage |
//! | `∀x'. φ`, `∃x'. φ` with `x'` ranging over `w:R` | `∀x. q`, `∃x. q` with `x` bounded by `R` | predicate-linkage |
//!
//! Connectives map to themselves; a situational tuple variable `x'`
//! becomes the fluent variable `x` of the same name and sort. The
//! rewrite is partial on purpose: whatever it cannot prove equivalent
//! to the finite-model reading ([`Model`](txlog_engine::Model), which
//! stays the oracle behind
//! [`Checker::check_model`](crate::Checker::check_model)) it refuses,
//! and the constraint keeps the model route. It refuses
//!
//! * every quantifier whose domain in a model is not one stored
//!   relation at `w` found by *both* membership searches — the model's
//!   ([`find_smembership`]) and the engine's ([`find_membership_rel`]):
//!   atom variables (a model's atom domain spans the whole window),
//!   unguarded tuple variables, fluent variables quantified inside the
//!   matrix, nested state or transaction quantifiers;
//! * terms at any other state (`s;concrete-program`, deeper
//!   transitions), bare state terms (state equality), user functions
//!   and predicates;
//! * an embedded fluent with a free variable a lowered binder would
//!   capture.
//!
//! A **static** constraint `∀s. φ` lowers to `q` with `φ ≡ s :: q`, and
//! a window satisfies it iff `q` holds at each of its states.
//!
//! A **transaction** constraint `∀s ∀t ∀x̄. (A₁ ∧ … ∧ Aₙ) → C`, `x̄`
//! fluent tuple variables, lowers to a two-position program. Every
//! conjunct and the consequent become a literal: a fluent formula read
//! at `Pre` (`s`) or at `Post` (`s;t`), or an atom whose two sides are
//! read at different positions. Three facts make running it on the
//! window's `(pre, post)` pairs equal to the model's verdict:
//!
//! * *No-successor instances are vacuous.* In a model `s;t` fails to
//!   denote unless `s` has a `t`-arc, and an atom over a non-denoting
//!   term is false. So if some `Aᵢ` is a *positive* atom that needs
//!   `s;t` to denote, every instance without an arc has a false
//!   antecedent, and only related pairs matter. Without such a
//!   conjunct (`¬((s;t):p ∈ …)` as the only mention, say) the
//!   constraint is refused.
//! * *Unguarded tuples are vacuous.* A model ranges `x̄` over every
//!   tuple identity in the window. If at one position every variable
//!   has a conjunct `x ∈ R`, identities outside those relations there
//!   falsify the antecedent, so enumerating `x̄` by the engine's
//!   guarded plan over the conjuncts local to that position visits
//!   every instance that can fail. (The guards the plan's own scans
//!   enforce are then true by construction and are not re-evaluated.)
//! * *Pairs.* [`model_of`](crate::window) relates `states[i]` to
//!   `states[j]` for every `i < j` — consecutive arcs, transitively
//!   closed — *provided no two window states are content-equal*; equal
//!   states are one graph node, which relates further pairs. A window
//!   of one or two states cannot differ (a no-op step relates the node
//!   to itself, and so does the pair of equal states); a longer one
//!   with a repeated state is handed to the model route at check time.
//!
//! The surviving conjuncts are evaluated per assignment in their
//! written order, stopping at the first false one, exactly as the
//! model evaluates the conjunction — so on every instance both routes
//! visit, they compute the same thing. The routes enumerate instances
//! in different orders, so with ill-sorted data they may report a
//! violation differently (one `Ok(false)`, the other the evaluation
//! error it met first); neither ever accepts a window the other
//! rejects.

use std::collections::HashSet;
use txlog_base::obs::Counter;
use txlog_base::{Symbol, TxResult};
use txlog_engine::exec::cmp_values;
use txlog_engine::model::find_smembership;
use txlog_engine::plan::Prepared;
use txlog_engine::{Engine, Env};
use txlog_logic::plan::find_membership_rel;
use txlog_logic::subst::{free_vars_fformula, free_vars_fterm};
use txlog_logic::{CmpOp, FFormula, FTerm, ObjSort, SFormula, STerm, Sort, Var, VarClass};
use txlog_relational::DbState;

use crate::classify::{classify, ConstraintClass};

/// Which end of a transition part of a transaction constraint reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Pos {
    /// The state `s`.
    Pre,
    /// Its successor `s;t`.
    Post,
}

/// A constraint in Definition 4's form, over formulas `F`: plain
/// [`FFormula`]s as [`lower`] returns it, [`Prepared`] ones once a
/// schema is known ([`Lowered::prepare`]).
#[derive(Clone)]
pub(crate) enum Lowered<F> {
    /// `∀s. s :: q`.
    Static(F),
    /// `∀s ∀t ∀x̄. (A₁ ∧ … ∧ Aₙ) → C` as a two-position program.
    Transaction(TxProgram<F>),
}

#[derive(Clone)]
pub(crate) struct TxProgram<F> {
    /// The fluent tuple variables `x̄`, in prefix order.
    vars: Vec<Var>,
    /// Where `x̄` is enumerated: a position at which each variable has
    /// a membership conjunct.
    at: Pos,
    /// `(conjuncts local to `at`) → false`, prepared over the prefix
    /// `x̄`: its guarded enumeration is the instances worth visiting.
    guard: F,
    /// The antecedent conjuncts, in written order, minus the
    /// memberships `guard`'s scans enforce.
    when: Vec<Lit<F>>,
    /// The consequent.
    then: Lit<F>,
}

/// One conjunct or consequent of a transaction constraint.
#[derive(Clone)]
enum Lit<F> {
    /// A fluent formula read at one position.
    At(Pos, F),
    /// An atom whose sides are read each at its own position.
    Atom(AtomOp, (Pos, FTerm), (Pos, FTerm)),
}

#[derive(Clone, Copy)]
enum AtomOp {
    Cmp(CmpOp),
    Member,
    Subset,
}

/// Lower `f`, checked over `window` states, or `None` to keep the model
/// route. See the module docs for the accepted shapes.
pub(crate) fn lower(f: &SFormula, window: usize) -> Option<Lowered<FFormula>> {
    if window == usize::MAX {
        return None; // Window::Complete
    }
    match classify(f) {
        ConstraintClass::Static => match f {
            SFormula::Forall(s, body) if is_state(*s) => {
                At::new(&STerm::Var(*s)).formula(body).map(Lowered::Static)
            }
            _ => None,
        },
        ConstraintClass::Transaction => lower_transaction(f).map(Lowered::Transaction),
        ConstraintClass::Dynamic => None,
    }
}

fn is_state(v: Var) -> bool {
    v.sort == Sort::State && v.class == VarClass::Situational
}

fn is_fluent_tuple(v: Var) -> bool {
    matches!(v.sort, Sort::Obj(ObjSort::Tup(_))) && v.class == VarClass::Fluent
}

fn lower_transaction(f: &SFormula) -> Option<TxProgram<FFormula>> {
    let (prefix, matrix) = f.strip_foralls();
    let (mut states, mut txs, mut vars) = (Vec::new(), Vec::new(), Vec::new());
    for &v in &prefix {
        if is_state(v) {
            states.push(v);
        } else if v.sort == Sort::State {
            txs.push(v);
        } else if is_fluent_tuple(v) {
            vars.push(v);
        } else {
            return None;
        }
    }
    let (&[s], &[t], SFormula::Implies(antecedent, consequent)) = (&states[..], &txs[..], matrix)
    else {
        return None;
    };
    let pre = STerm::Var(s);
    let post = pre.clone().eval_state(FTerm::Var(t));
    let mut conjuncts = Vec::new();
    and_leaves(antecedent, &mut conjuncts);
    if !conjuncts.iter().any(|c| needs_successor(c, &post)) {
        return None;
    }
    let lit = |f: &SFormula| Lit::lower(f, &pre, &post);
    let when = conjuncts.into_iter().map(lit).collect::<Option<Vec<_>>>()?;
    let then = lit(consequent)?;
    let (at, guard, enforced) = [Pos::Pre, Pos::Post]
        .into_iter()
        .find_map(|at| guard_at(at, &vars, &when))?;
    let unenforced = |(i, l)| (!enforced.contains(&i)).then_some(l);
    Some(TxProgram {
        vars,
        at,
        guard: FFormula::Implies(Box::new(guard), Box::new(FFormula::False)),
        when: when
            .into_iter()
            .enumerate()
            .filter_map(unenforced)
            .collect(),
        then,
    })
}

/// The conjuncts of `when` local to `at`, conjoined, if each of `vars`
/// has a membership `x ∈ R` among them that is also the relation the
/// engine will bound `x` by — with the indices of those memberships,
/// which an enumeration under the conjunction enforces by construction.
fn guard_at(at: Pos, vars: &[Var], when: &[Lit<FFormula>]) -> Option<(Pos, FFormula, Vec<usize>)> {
    let local = |l: &Lit<FFormula>| match l {
        Lit::At(pos, q) if *pos == at => Some(q.clone()),
        _ => None,
    };
    let guard = FFormula::and_all(when.iter().filter_map(local));
    let mut enforced = Vec::new();
    for &v in vars {
        let (i, rel) = when.iter().enumerate().find_map(|(i, l)| match l {
            Lit::At(pos, FFormula::Member(FTerm::Var(x), FTerm::Rel(r)))
                if *pos == at && *x == v =>
            {
                Some((i, *r))
            }
            _ => None,
        })?;
        if find_membership_rel(&guard, v) != Some(rel) {
            return None;
        }
        enforced.push(i);
    }
    Some((at, guard, enforced))
}

fn and_leaves<'f>(f: &'f SFormula, out: &mut Vec<&'f SFormula>) {
    match f {
        SFormula::And(a, b) => {
            and_leaves(a, out);
            and_leaves(b, out);
        }
        leaf => out.push(leaf),
    }
}

/// Is `f` an atom that is false whenever `post` fails to denote?
fn needs_successor(f: &SFormula, post: &STerm) -> bool {
    // undefinedness propagates to the atom through every constructor
    // but a set-former, whose condition merely comes out false
    fn strict(t: &STerm, post: &STerm) -> bool {
        match t {
            STerm::EvalObj(w, _) => **w == *post,
            STerm::Attr(_, t) | STerm::Select(t, _) | STerm::IdOf(t) => strict(t, post),
            STerm::TupleCons(ts) | STerm::App(_, ts) => ts.iter().any(|t| strict(t, post)),
            _ => false,
        }
    }
    match f {
        SFormula::Cmp(_, a, b) | SFormula::Member(a, b) | SFormula::Subset(a, b) => {
            strict(a, post) || strict(b, post)
        }
        SFormula::Holds(w, _) => w == post,
        _ => false,
    }
}

impl Lit<FFormula> {
    fn lower(f: &SFormula, pre: &STerm, post: &STerm) -> Option<Lit<FFormula>> {
        let positions = [(Pos::Pre, pre), (Pos::Post, post)];
        let whole = positions
            .iter()
            .find_map(|&(pos, w)| Some(Lit::At(pos, At::new(w).formula(f)?)));
        if whole.is_some() {
            return whole;
        }
        let side = |t: &STerm| {
            positions
                .iter()
                .find_map(|&(pos, w)| Some((pos, At::new(w).term(t)?)))
        };
        let (op, a, b) = match f {
            SFormula::Cmp(op, a, b) => (AtomOp::Cmp(*op), a, b),
            SFormula::Member(a, b) => (AtomOp::Member, a, b),
            SFormula::Subset(a, b) => (AtomOp::Subset, a, b),
            _ => return None,
        };
        Some(Lit::Atom(op, side(a)?, side(b)?))
    }
}

/// The right-to-left reading of the linkage axioms at one state term.
struct At<'w> {
    /// The state term `w` every part of the input must be read at.
    here: &'w STerm,
    /// The fluent images of the situational binders in scope.
    bound: Vec<Var>,
}

fn fluent(v: Var) -> Var {
    Var {
        class: VarClass::Fluent,
        ..v
    }
}

impl<'w> At<'w> {
    fn new(here: &'w STerm) -> At<'w> {
        At {
            here,
            bound: Vec::new(),
        }
    }

    /// The `q` with `f ≡ here :: q`.
    fn formula(&mut self, f: &SFormula) -> Option<FFormula> {
        let both = |at: &mut At, a: &SFormula, b: &SFormula| {
            Some((Box::new(at.formula(a)?), Box::new(at.formula(b)?)))
        };
        Some(match f {
            SFormula::True => FFormula::True,
            SFormula::False => FFormula::False,
            SFormula::Holds(w, p) if w == self.here => self.embed(p, free_vars_fformula)?,
            SFormula::Holds(..) | SFormula::UserPred(..) => return None,
            SFormula::Cmp(op, a, b) => FFormula::Cmp(*op, self.term(a)?, self.term(b)?),
            SFormula::Member(a, b) => FFormula::Member(self.term(a)?, self.term(b)?),
            SFormula::Subset(a, b) => FFormula::Subset(self.term(a)?, self.term(b)?),
            SFormula::Not(q) => FFormula::Not(Box::new(self.formula(q)?)),
            SFormula::And(a, b) => both(self, a, b).map(|(a, b)| FFormula::And(a, b))?,
            SFormula::Or(a, b) => both(self, a, b).map(|(a, b)| FFormula::Or(a, b))?,
            SFormula::Implies(a, b) => both(self, a, b).map(|(a, b)| FFormula::Implies(a, b))?,
            SFormula::Iff(a, b) => both(self, a, b).map(|(a, b)| FFormula::Iff(a, b))?,
            SFormula::Forall(v, body) | SFormula::Exists(v, body) => {
                let rels = self.bind(std::slice::from_ref(v), body)?;
                let q = self.formula(body);
                self.bound.pop();
                let (q, x) = (q?, fluent(*v));
                if find_membership_rel(&q, x) != Some(rels[0]) {
                    return None;
                }
                match f {
                    SFormula::Forall(..) => FFormula::Forall(x, Box::new(q)),
                    _ => FFormula::Exists(x, Box::new(q)),
                }
            }
        })
    }

    /// The `e` with `t = here : e`.
    fn term(&mut self, t: &STerm) -> Option<FTerm> {
        let all = |at: &mut At, ts: &[STerm]| -> Option<Vec<FTerm>> {
            ts.iter().map(|t| at.term(t)).collect()
        };
        Some(match t {
            STerm::Var(v) if self.bound.contains(&fluent(*v)) && v.is_situational() => {
                FTerm::Var(fluent(*v))
            }
            STerm::Nat(n) => FTerm::Nat(*n),
            STerm::Str(s) => FTerm::Str(*s),
            STerm::EvalObj(w, e) if **w == *self.here => self.embed(&**e, free_vars_fterm)?,
            // a free or state variable, a term at another state, a
            // state in object position, a function without a fluent
            // counterpart
            STerm::Var(_) | STerm::EvalObj(..) | STerm::EvalState(..) | STerm::UserApp(..) => {
                return None
            }
            STerm::Attr(l, t) => FTerm::Attr(*l, Box::new(self.term(t)?)),
            STerm::Select(t, i) => FTerm::Select(Box::new(self.term(t)?), *i),
            STerm::IdOf(t) => FTerm::IdOf(Box::new(self.term(t)?)),
            STerm::TupleCons(ts) => FTerm::TupleCons(all(self, ts)?),
            STerm::App(op, ts) => FTerm::App(*op, all(self, ts)?),
            STerm::SetFormer { head, vars, cond } => {
                let rels = self.bind(vars, cond)?;
                let lowered = self.formula(cond).zip(self.term(head));
                self.bound.truncate(self.bound.len() - vars.len());
                let (cond, head) = lowered?;
                let vars: Vec<Var> = vars.iter().copied().map(fluent).collect();
                let bounded = |(x, r): (&Var, &Symbol)| find_membership_rel(&cond, *x) == Some(*r);
                if !vars.iter().zip(&rels).all(bounded) {
                    return None;
                }
                FTerm::SetFormer {
                    head: Box::new(head),
                    vars,
                    cond: Box::new(cond),
                }
            }
        })
    }

    /// An f-expression found under `here`, unless a lowered binder in
    /// scope would capture one of its free variables.
    fn embed<E: Clone>(&self, e: &E, free_vars: fn(&E, &mut HashSet<Var>)) -> Option<E> {
        let mut free = HashSet::new();
        free_vars(e, &mut free);
        self.bound
            .iter()
            .all(|x| !free.contains(x))
            .then(|| e.clone())
    }

    /// Bring situational binders into scope, returning the stored
    /// relation at `here` each one ranges over in a model of `body` —
    /// or `None` if its domain there is anything else.
    fn bind(&mut self, vars: &[Var], body: &SFormula) -> Option<Vec<Symbol>> {
        let rels = vars
            .iter()
            .map(|&v| {
                let tuple = matches!(v.sort, Sort::Obj(ObjSort::Tup(_))) && v.is_situational();
                match find_smembership(body, v)? {
                    STerm::EvalObj(w, e) if tuple && **w == *self.here => match **e {
                        FTerm::Rel(r) => Some(r),
                        _ => None,
                    },
                    _ => None,
                }
            })
            .collect::<Option<Vec<Symbol>>>()?;
        self.bound.extend(vars.iter().copied().map(fluent));
        Some(rels)
    }
}

impl<F> Lowered<F> {
    /// Whether deciding `states` by [`holds`](Lowered::holds) is
    /// deciding them in their model: always for a static constraint;
    /// for a transaction constraint, unless a state repeats among three
    /// or more (the model merges the repeats into one node, and its
    /// closure then relates more than the pairs `holds` visits).
    pub(crate) fn covers(&self, states: &[DbState]) -> bool {
        let repeats = |(i, s): (usize, &DbState)| states[..i].iter().any(|r| r.content_eq(s));
        matches!(self, Lowered::Static(_))
            || states.len() <= 2
            || !states.iter().enumerate().any(repeats)
    }
}

impl Lowered<FFormula> {
    /// Plan every formula against `engine`'s schema, once.
    pub(crate) fn prepare(&self, engine: &Engine<'_>) -> TxResult<Lowered<Prepared>> {
        let plain = |q: &FFormula| engine.prepare(&[], q.clone());
        let lit = |l: &Lit<FFormula>| {
            Ok(match l {
                Lit::At(pos, q) => Lit::At(*pos, plain(q)?),
                Lit::Atom(op, a, b) => Lit::Atom(*op, a.clone(), b.clone()),
            })
        };
        Ok(match self {
            Lowered::Static(q) => Lowered::Static(plain(q)?),
            Lowered::Transaction(p) => Lowered::Transaction(TxProgram {
                vars: p.vars.clone(),
                at: p.at,
                guard: engine.prepare(&p.vars, p.guard.clone())?,
                when: p.when.iter().map(lit).collect::<TxResult<_>>()?,
                then: lit(&p.then)?,
            }),
        })
    }
}

impl Lowered<Prepared> {
    /// Decide the constraint over a window it [`covers`](Lowered::covers),
    /// oldest state first.
    pub(crate) fn holds(&self, engine: &Engine<'_>, states: &[DbState]) -> TxResult<bool> {
        engine.metrics().bump(Counter::LoweredChecks);
        let env = Env::new();
        match self {
            Lowered::Static(q) => {
                for state in states {
                    if !engine.eval_prepared(state, q, &env)? {
                        return Ok(false);
                    }
                }
            }
            Lowered::Transaction(program) => {
                for (j, post) in states.iter().enumerate() {
                    for pre in &states[..j] {
                        if !program.holds(engine, pre, post, &env)? {
                            return Ok(false);
                        }
                    }
                }
            }
        }
        Ok(true)
    }
}

impl TxProgram<Prepared> {
    /// Does every instance of the constraint hold on this transition?
    fn holds(
        &self,
        engine: &Engine<'_>,
        pre: &DbState,
        post: &DbState,
        env: &Env,
    ) -> TxResult<bool> {
        let at = |pos| match pos {
            Pos::Pre => pre,
            Pos::Post => post,
        };
        let eval = |lit: &Lit<Prepared>, env: &Env| match lit {
            Lit::At(pos, q) => engine.eval_prepared(at(*pos), q, env),
            // as `Model::eval_sformula` decides the same atom
            Lit::Atom(op, (pa, a), (pb, b)) => {
                let a = engine.eval_obj_opt(at(*pa), a, env)?;
                let b = engine.eval_obj_opt(at(*pb), b, env)?;
                match (op, a, b) {
                    (AtomOp::Cmp(op), Some(a), Some(b)) => cmp_values(*op, &a, &b),
                    (AtomOp::Member, Some(a), Some(b)) => {
                        Ok(b.into_set()?.contains(&a.into_tuple()?))
                    }
                    (AtomOp::Subset, Some(a), Some(b)) => a.into_set()?.subset(&b.into_set()?),
                    _ => Ok(false),
                }
            }
        };
        let mut holds = true;
        engine.for_each_prepared(at(self.at), &self.guard, env, &mut |env| {
            for conjunct in &self.when {
                if !eval(conjunct, env)? {
                    return Ok(true); // vacuous instance: next
                }
            }
            holds = eval(&self.then, env)?;
            Ok(holds) // a violation ends the enumeration
        })?;
        Ok(holds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txlog_base::obs::Metrics;
    use txlog_base::Atom;
    use txlog_logic::{parse_sformula, ParseCtx};
    use txlog_relational::Schema;

    use crate::window::{Checker, Window};

    fn parse(src: &str) -> SFormula {
        let ctx = ParseCtx::with_relations(&["EMP", "SKILL", "LOG"]);
        parse_sformula(src, &ctx).unwrap_or_else(|e| panic!("{e}\n{src}"))
    }

    fn lowers(src: &str) -> bool {
        lower(&parse(src), 2).is_some()
    }

    #[test]
    fn a_static_constraint_lowers_to_its_fluent_body() {
        let Some(Lowered::Static(q)) = lower(
            &parse(
                "forall s: state, e': 2tup . e' in s:EMP ->
                   (exists k': 2tup . k' in s:SKILL & s-emp(k') = e-name(e'))
                   & sum({ salary(x') | x': 2tup . x' in s:EMP }) <= 100
                   & s::(forall y: 2tup . y in EMP -> salary(y) <= 9)",
            ),
            1,
        ) else {
            panic!("static constraint must lower");
        };
        assert_eq!(
            q.to_string(),
            "forall e: 2tup . (e in EMP -> (((exists k: 2tup . (k in SKILL & s-emp(k) = e-name(e))) \
             & sum({ salary(x) | x: 2tup . x in EMP }) <= 100) \
             & (forall y: 2tup . (y in EMP -> salary(y) <= 9))))"
        );
    }

    #[test]
    fn a_transaction_constraint_lowers_to_a_two_position_program() {
        let Some(Lowered::Transaction(p)) = lower(
            &parse(
                "forall s: state, t: tx, e: 2tup, k: 2tup .
                   (s:e in s:EMP & (s;t):e in (s;t):EMP & s:k in s:SKILL &
                    s-emp(s:k) = e-name(s:e) & salary(s:e) < salary((s;t):e))
                     -> (s;t):k in (s;t):SKILL",
            ),
            2,
        ) else {
            panic!("transaction constraint must lower");
        };
        assert_eq!(p.at, Pos::Pre, "both variables are guarded at s");
        assert_eq!(
            p.guard.to_string(),
            "(((e in EMP & k in SKILL) & s-emp(k) = e-name(e)) -> false)"
        );
        // the two memberships the scans enforce are gone; the rest
        // keeps its written order
        let shapes: Vec<String> = p
            .when
            .iter()
            .chain([&p.then])
            .map(|l| match l {
                Lit::At(pos, q) => format!("{pos:?}: {q}"),
                Lit::Atom(_, (pa, a), (pb, b)) => format!("{pa:?}: {a} ~ {pb:?}: {b}"),
            })
            .collect();
        assert_eq!(
            shapes,
            [
                "Post: e in EMP",
                "Pre: s-emp(k) = e-name(e)",
                "Pre: salary(e) ~ Post: salary(e)",
                "Post: k in SKILL",
            ]
        );
    }

    #[test]
    fn variables_guarded_only_after_the_transition_are_enumerated_there() {
        let Some(Lowered::Transaction(p)) = lower(
            &parse(
                "forall s: state, t: tx, e: 2tup .
                   ((s;t):e in (s;t):EMP & !(s:e in s:EMP)) -> salary((s;t):e) >= 1",
            ),
            2,
        ) else {
            panic!("must lower");
        };
        assert_eq!(p.at, Pos::Post);
    }

    #[test]
    fn rejects_the_dynamic_class() {
        // two unrelated state variables (Example 2's flawed form)
        assert!(!lowers(
            "forall s1: state, s2: state, e: 2tup .
               (s1:e in s1:EMP & s2:e in s2:EMP) -> salary(s1:e) <= salary(s2:e)"
        ));
        // a two-step transition (Example 4)
        assert!(!lowers(
            "forall s: state, t1: tx, e: 2tup . (s:e in s:EMP & !((s;t1):e in (s;t1):EMP))
               -> !(exists t2: tx . ((s;t1);t2):e in ((s;t1);t2):EMP)"
        ));
    }

    #[test]
    fn rejects_the_complete_window() {
        let f = parse("forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 3");
        assert!(lower(&f, 3).is_some());
        assert!(lower(&f, usize::MAX).is_none());
        assert!(!Checker::new("c", f, Window::Complete).unwrap().is_lowered());
    }

    #[test]
    fn rejects_several_transaction_variables() {
        assert!(!lowers(
            "forall s: state, t: tx, u: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP & (s;u):e in (s;u):EMP)
                 -> salary((s;t):e) <= salary((s;u):e)"
        ));
    }

    #[test]
    fn rejects_a_concrete_program_as_the_transition() {
        assert!(!lowers(
            "forall s: state, e: 2tup . s:e in s:EMP -> !((s;delete(e, EMP))::(e in EMP))"
        ));
    }

    #[test]
    fn rejects_user_predicates_and_functions() {
        let s = Var::state("s");
        let p = SFormula::UserPred(Symbol::new("audited"), vec![]);
        assert!(lower(&SFormula::forall(s, p), 1).is_none());
        let f = STerm::UserApp(Symbol::new("bonus"), vec![]);
        let atom = SFormula::le(f, STerm::nat(3));
        assert!(lower(&SFormula::forall(s, atom), 1).is_none());
    }

    #[test]
    fn rejects_state_equality() {
        assert!(!lowers(
            "forall s: state, t: tx, e: 2tup . (s:e in s:EMP & (s;t):e in (s;t):EMP) -> s = s;t"
        ));
    }

    #[test]
    fn rejects_an_antecedent_that_survives_a_missing_successor() {
        // the only mention of s;t is negated: with no t-arc from s the
        // antecedent is true, and the instance is not vacuous
        assert!(!lowers(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & !((s;t):e in (s;t):EMP)) -> salary(s:e) <= 3"
        ));
        // a set-former over s;t is empty, not undefined, without it
        assert!(!lowers(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & size({ x' | x': 2tup . x' in (s;t):EMP }) <= 3)
                 -> salary(s:e) <= 3"
        ));
        // and a matrix that is no implication has no antecedent at all
        assert!(!lowers(
            "forall s: state, t: tx, e: 2tup . salary(s:e) <= salary((s;t):e)"
        ));
    }

    #[test]
    fn rejects_a_variable_without_a_membership_guard_at_one_position() {
        // k is never bounded
        assert!(!lowers(
            "forall s: state, t: tx, e: 2tup, k: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP) -> salary(s:e) <= salary((s;t):k)"
        ));
        // e is bounded before, k only after: no single position has both
        assert!(!lowers(
            "forall s: state, t: tx, e: 2tup, k: 2tup .
               (s:e in s:EMP & (s;t):k in (s;t):SKILL) -> salary(s:e) <= 3"
        ));
        // a situational variable in the prefix is a value, not an identity
        assert!(!lowers(
            "forall s: state, t: tx, e': 2tup .
               (e' in s:EMP & e' in (s;t):EMP) -> salary(e') <= 3"
        ));
    }

    #[test]
    fn rejects_a_conjunct_that_reads_both_states_below_an_atom() {
        // Example 3's reference connection: a quantifier over s;t with
        // a term at s inside it
        assert!(!lowers(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP &
                (exists k': 2tup . k' in (s;t):SKILL & s-emp(k') = e-name(s:e)))
                 -> (s;t):e in (s;t):EMP"
        ));
    }

    #[test]
    fn rejects_quantifiers_whose_model_domain_is_not_one_relation_here() {
        // an atom variable ranges over the whole window's atoms
        assert!(!lowers(
            "forall s: state, n': atom . !(exists e': 2tup . e' in s:EMP & salary(e') = n')"
        ));
        // an unguarded tuple variable ranges over every window state
        assert!(!lowers("forall s: state, e': 2tup . salary(e') <= 3"));
        // the model finds e' ∈ s:EMP through the inner quantifier; the
        // engine's search stops at it
        assert!(!lowers(
            "forall s: state, e': 2tup . forall k': 2tup .
               (e' in s:EMP & k' in s:SKILL) -> s-emp(k') != e-name(e')"
        ));
        // a fluent variable quantified inside the matrix ranges over
        // every identity in the window
        assert!(!lowers(
            "forall s: state, e: 2tup . s:e in s:EMP -> salary(s:e) <= 3"
        ));
        // a domain that is a computed set
        assert!(!lowers(
            "forall s: state, e': 2tup .
               e' in { x' | x': 2tup . x' in s:EMP & salary(x') <= 3 } -> salary(e') <= 3"
        ));
    }

    #[test]
    fn rejects_a_binder_that_would_capture_a_fluent_variable() {
        // k' lowers to k, which the embedded fluent already uses freely
        let s = Var::state("s");
        let (k_s, k_f) = (Var::tup_s("k", 2), Var::tup_f("k", 2));
        let here = |e: FTerm| STerm::var(s).eval_obj(e);
        let body = SFormula::member(STerm::var(k_s), here(FTerm::rel("SKILL"))).implies(
            SFormula::member(here(FTerm::var(k_f)), here(FTerm::rel("SKILL"))),
        );
        let f = SFormula::forall(s, SFormula::forall(k_s, body));
        assert!(lower(&f, 1).is_none());
    }

    fn schema() -> Schema {
        Schema::new()
            .relation("EMP", &["e-name", "salary"])
            .unwrap()
    }

    /// Ann alone, at the given salary (the same tuple in every state).
    fn ann(salary: u64) -> DbState {
        let schema = schema();
        let fields = [Atom::str("ann"), Atom::nat(salary)];
        let emp = schema.rel_id("EMP").unwrap();
        schema
            .initial_state()
            .insert_fields(emp, &fields)
            .unwrap()
            .0
    }

    /// How many windows a checker decided by (lowered, model) route.
    fn routes(m: &Metrics) -> (u64, u64) {
        (m.get(Counter::LoweredChecks), m.get(Counter::ModelChecks))
    }

    /// Why a negated mention of `s;t` is not enough: the last state of
    /// a window has no successor, its antecedent holds all the same,
    /// and the model judges the consequent there.
    #[test]
    fn a_missing_successor_is_an_instance_the_model_judges() {
        let f = parse(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & !((s;t):e in (s;t):EMP)) -> salary(s:e) <= 3",
        );
        let chk = Checker::new("c", f, Window::States(2)).unwrap();
        assert!(!chk.is_lowered());
        // ann survives the one transition, so the related pair is
        // vacuous — but at the second state, which has no successor,
        // she earns 5
        assert!(!chk
            .check_window(&schema(), &[ann(1), ann(5)], &["a"])
            .unwrap());
    }

    /// A window relates every earlier state to every later one, not
    /// just neighbours: a step relation that does not compose is
    /// violated by the composed pair alone.
    #[test]
    fn composed_pairs_are_checked() {
        let at_most_one_up = parse(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP) -> salary((s;t):e) <= salary(s:e) + 1",
        );
        let m = Metrics::enabled();
        let chk = Checker::new("c", at_most_one_up, Window::States(3))
            .unwrap()
            .with_metrics(m.clone());
        let climb = [ann(1), ann(2), ann(3)];
        assert!(chk.check_window(&schema(), &climb[..2], &["a"]).unwrap());
        assert!(chk.check_window(&schema(), &climb[1..], &["b"]).unwrap());
        assert!(!chk.check_window(&schema(), &climb, &["a", "b"]).unwrap());
        assert_eq!(routes(&m), (3, 0));
        assert!(!chk.check_model(&schema(), &climb, &["a", "b"]).unwrap());
    }

    /// A window with a repeated state among three or more is one the
    /// model relates differently — the repeat is one graph node, and
    /// the closure runs through it — so the checker hands it over, and
    /// takes every other window itself.
    #[test]
    fn repeated_states_in_long_windows_take_the_model_route() {
        let f = parse(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP & salary(s:e) >= 2)
                 -> salary(s:e) != salary((s;t):e)",
        );
        let m = Metrics::enabled();
        let chk = Checker::new("c", f.clone(), Window::States(3))
            .unwrap()
            .with_metrics(m.clone());
        let schema = schema();

        let distinct = [ann(1), ann(2), ann(3)];
        assert!(chk.check_window(&schema, &distinct, &["a", "b"]).unwrap());
        assert_eq!(routes(&m), (1, 0));
        // 1 → 2 → 1 is two nodes and a cycle: the model also relates
        // the state where ann earns 2 to itself, which no pair of
        // window positions does
        let cycle = [ann(1), ann(2), ann(1)];
        assert!(!chk.check_window(&schema, &cycle, &["a", "b"]).unwrap());
        assert_eq!(routes(&m), (1, 1));
        let engine = Engine::builder(&schema).build().unwrap();
        let program = lower(&f, 3).unwrap().prepare(&engine).unwrap();
        assert!(program.holds(&engine, &cycle).unwrap(), "the pairs alone");
        // a repeat in a two-state window is the same pair either way
        let twice = [ann(2), ann(2)];
        assert!(!chk.check_window(&schema, &twice, &["a"]).unwrap());
        assert!(!chk.check_model(&schema, &twice, &["a"]).unwrap());
        assert_eq!(routes(&m), (2, 2));
        // a malformed window is the model route's to report
        assert!(chk.check_window(&schema, &distinct, &["a"]).is_err());
        assert_eq!(routes(&m), (2, 2));
    }
}
