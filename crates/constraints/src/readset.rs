//! Read-set dependency analysis: which relations can a constraint's
//! verdict depend on?
//!
//! Incremental checking (the [`incremental`] module) caches verdicts and
//! reuses them when the history window "looks the same" to the constraint.
//! Soundness of that reuse needs an over-approximation of the relations a
//! constraint *reads*: if two windows agree on the read-set projection of
//! every state (and on the window's shape — see the cache-key discussion
//! in `incremental`), the verdicts agree.
//!
//! The analysis mirrors the evaluators' quantifier-domain rules
//! ([`Model::quantifier_domain`] at the situational level, the engine's
//! `domain_of` at the fluent level) and stays conservative wherever a
//! domain is drawn from the whole active state:
//!
//! * a relation f-constant `R` reads `R`;
//! * atom-sorted quantifiers read **everything** (their domain is the
//!   active atom set of every relation);
//! * tuple-sorted quantifiers read everything **unless** the evaluator
//!   restricts or effectively restricts them to a relation:
//!   - at the fluent level, a membership conjunct `x ∈ R` restricts the
//!     domain itself (the engine's `find_membership_rel`);
//!   - situational tuple variables are restricted by a membership
//!     conjunct `e' ∈ S` (the model's `find_smembership`), so they read
//!     whatever the set expression `S` reads;
//!   - fluent tuple variables at the situational level range over *all*
//!     tuple identities of their arity, so we additionally require a
//!     *vacuity guard*: a membership atom `w:v ∈ w':R`, first in
//!     evaluation order, that makes the body trivially true (for `∀`) or
//!     false (for `∃`) for bindings outside `R` — then only `R`'s
//!     contents can influence the verdict;
//! * `w ; e` with a concrete (non-variable) transaction reads everything:
//!   the executed result is re-attached to the evolution graph by
//!   *full-content* comparison;
//! * user predicates and functions read everything (no registered rule —
//!   stay conservative rather than reason about their errors).
//!
//! [`incremental`]: crate::incremental
//! [`Model::quantifier_domain`]: txlog_engine::Model::quantifier_domain

use std::collections::BTreeSet;
use std::fmt;
use txlog_base::Symbol;
use txlog_engine::model::find_smembership;
use txlog_logic::plan::find_membership_rel;
use txlog_logic::{FFormula, FTerm, ObjSort, SFormula, STerm, Sort, Var, VarClass};
use txlog_relational::{Delta, Schema};

/// An over-approximation of the relations a constraint reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadSet {
    /// The verdict may depend on any relation.
    All,
    /// The verdict depends only on the named relations.
    Rels(BTreeSet<Symbol>),
}

impl ReadSet {
    /// The empty read-set (a closed formula reading no relation).
    pub fn none() -> ReadSet {
        ReadSet::Rels(BTreeSet::new())
    }

    /// The universal read-set.
    pub fn all() -> ReadSet {
        ReadSet::All
    }

    /// A read-set over the named relations.
    pub fn of(names: &[&str]) -> ReadSet {
        ReadSet::Rels(names.iter().map(|n| Symbol::new(n)).collect())
    }

    /// True iff this is the universal read-set.
    pub fn is_all(&self) -> bool {
        matches!(self, ReadSet::All)
    }

    /// Does the set include relation `name`?
    pub fn reads(&self, name: Symbol) -> bool {
        match self {
            ReadSet::All => true,
            ReadSet::Rels(rels) => rels.contains(&name),
        }
    }

    /// The named relations, or `None` for the universal set.
    pub fn names(&self) -> Option<&BTreeSet<Symbol>> {
        match self {
            ReadSet::All => None,
            ReadSet::Rels(rels) => Some(rels),
        }
    }

    /// Union with another read-set.
    pub fn union(self, other: ReadSet) -> ReadSet {
        match (self, other) {
            (ReadSet::All, _) | (_, ReadSet::All) => ReadSet::All,
            (ReadSet::Rels(mut a), ReadSet::Rels(b)) => {
                a.extend(b);
                ReadSet::Rels(a)
            }
        }
    }

    /// Does `delta` touch any relation in this read-set? Relations the
    /// schema does not name are treated as touched (conservative).
    pub fn overlaps(&self, schema: &Schema, delta: &Delta) -> bool {
        delta.overlaps(schema, self.names())
    }
}

impl fmt::Display for ReadSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadSet::All => write!(f, "⊤"),
            ReadSet::Rels(rels) => {
                write!(f, "{{")?;
                for (i, r) in rels.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{r}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Compute the read-set of an s-formula (a constraint).
pub fn read_set(f: &SFormula) -> ReadSet {
    let mut acc = Acc::default();
    walk_sformula(f, &mut acc);
    acc.finish()
}

#[derive(Default)]
struct Acc {
    all: bool,
    rels: BTreeSet<Symbol>,
}

impl Acc {
    fn add(&mut self, r: Symbol) {
        if !self.all {
            self.rels.insert(r);
        }
    }

    fn poison(&mut self) {
        self.all = true;
        self.rels.clear();
    }

    fn finish(self) -> ReadSet {
        if self.all {
            ReadSet::All
        } else {
            ReadSet::Rels(self.rels)
        }
    }
}

// ---------------------------------------------------------------------
// situational level
// ---------------------------------------------------------------------

fn walk_sformula(f: &SFormula, acc: &mut Acc) {
    match f {
        SFormula::True | SFormula::False => {}
        SFormula::Holds(w, p) => {
            walk_sterm(w, acc);
            walk_fformula(p, acc);
        }
        SFormula::Cmp(_, a, b) | SFormula::Member(a, b) | SFormula::Subset(a, b) => {
            walk_sterm(a, acc);
            walk_sterm(b, acc);
        }
        SFormula::Not(q) => walk_sformula(q, acc),
        SFormula::And(a, b)
        | SFormula::Or(a, b)
        | SFormula::Implies(a, b)
        | SFormula::Iff(a, b) => {
            walk_sformula(a, acc);
            walk_sformula(b, acc);
        }
        SFormula::Forall(v, body) => walk_squantifier(*v, body, true, acc),
        SFormula::Exists(v, body) => walk_squantifier(*v, body, false, acc),
        SFormula::UserPred(..) => acc.poison(),
    }
}

/// A quantifier at the situational level. `universal` selects the vacuous
/// truth value an out-of-domain binding must produce (`∀` → true,
/// `∃` → false).
fn walk_squantifier(v: Var, body: &SFormula, universal: bool, acc: &mut Acc) {
    match (v.sort, v.class) {
        // State-sorted domains are structural: graph nodes / arc labels.
        // The incremental cache key captures both (dedup pattern, label
        // sequence), so they contribute no relation reads.
        (Sort::State, _) => walk_sformula(body, acc),
        // Situational tuple variables: the model restricts the domain to
        // a membership conjunct's set expression when one exists.
        (Sort::Obj(ObjSort::Tup(_)), VarClass::Situational) => match find_smembership(body, v) {
            Some(set) => {
                walk_sterm(set, acc);
                walk_sformula(body, acc);
            }
            None => acc.poison(),
        },
        // Fluent tuple variables range over every tuple identity of their
        // arity in the whole window; only a vacuity guard keeps the
        // out-of-relation part of that domain from mattering.
        (Sort::Obj(ObjSort::Tup(_)), VarClass::Fluent) => {
            let mut guards = Vec::new();
            if vacuity_guard(body, v, universal, &mut guards) {
                for r in guards {
                    acc.add(r);
                }
                walk_sformula(body, acc);
            } else {
                acc.poison();
            }
        }
        // Atom-sorted domains are the active atoms of every relation.
        (Sort::Obj(ObjSort::Atom), _) => acc.poison(),
        _ => acc.poison(),
    }
}

fn walk_sterm(t: &STerm, acc: &mut Acc) {
    match t {
        STerm::Var(_) | STerm::Nat(_) | STerm::Str(_) => {}
        STerm::EvalObj(w, e) => {
            walk_sterm(w, acc);
            walk_fterm(e, acc);
        }
        STerm::EvalState(w, e) => {
            walk_sterm(w, acc);
            walk_state_fluent(e, acc);
        }
        STerm::Attr(_, inner) | STerm::Select(inner, _) | STerm::IdOf(inner) => {
            walk_sterm(inner, acc)
        }
        STerm::TupleCons(ts) | STerm::App(_, ts) => {
            for t in ts {
                walk_sterm(t, acc);
            }
        }
        STerm::SetFormer { head, vars, cond } => {
            // `enumerate_s` binds each var by `quantifier_domain(v, cond)`;
            // a member is collected when `cond` holds, so out-of-domain
            // bindings must make `cond` *false* (the ∃ polarity).
            for &v in vars {
                walk_squantifier_domain_only(v, cond, acc);
            }
            walk_sterm(head, acc);
            walk_sformula(cond, acc);
        }
        STerm::UserApp(..) => acc.poison(),
    }
}

/// Domain contribution of a set-former binder (body walked by the caller).
fn walk_squantifier_domain_only(v: Var, cond: &SFormula, acc: &mut Acc) {
    match (v.sort, v.class) {
        (Sort::State, _) => {}
        (Sort::Obj(ObjSort::Tup(_)), VarClass::Situational) => match find_smembership(cond, v) {
            Some(set) => walk_sterm(set, acc),
            None => acc.poison(),
        },
        (Sort::Obj(ObjSort::Tup(_)), VarClass::Fluent) => {
            let mut guards = Vec::new();
            if vacuity_guard(cond, v, false, &mut guards) {
                for r in guards {
                    acc.add(r);
                }
            } else {
                acc.poison();
            }
        }
        _ => acc.poison(),
    }
}

/// A state-sorted fluent under `w ; e`. Label-bound transaction variables
/// and `Λ` are structural; a concrete transaction is *executed* and the
/// result re-attached to the graph by full-content comparison, so it can
/// depend on any relation.
fn walk_state_fluent(e: &FTerm, acc: &mut Acc) {
    match e {
        FTerm::Identity => {}
        FTerm::Var(v) if v.sort == Sort::State => {}
        FTerm::Seq(a, b) => {
            walk_state_fluent(a, acc);
            walk_state_fluent(b, acc);
        }
        FTerm::Cond(p, a, b) => {
            walk_fformula(p, acc);
            walk_state_fluent(a, acc);
            walk_state_fluent(b, acc);
        }
        _ => acc.poison(),
    }
}

// ---------------------------------------------------------------------
// vacuity guards for fluent tuple variables
// ---------------------------------------------------------------------

/// Establish that for bindings of `v` whose identity lies outside the
/// collected guard relations, `p` evaluates to `need` — *without error and
/// without evaluating any other `v`-dependent term first*. The guard atom
/// `w:v ∈ w':R` itself is error-free for such bindings: resolving `v`
/// either finds a foreign tuple (whose identity is not in `R`, so
/// membership is false — membership of identified values requires the
/// identity to match) or nothing (non-denoting, hence false).
fn vacuity_guard(p: &SFormula, v: Var, need: bool, out: &mut Vec<Symbol>) -> bool {
    match (p, need) {
        (SFormula::True, true) | (SFormula::False, false) => true,
        (SFormula::Member(elem, set), false) => match (elem, set) {
            (STerm::EvalObj(w1, e1), STerm::EvalObj(w2, e2)) => {
                if let (FTerm::Var(x), FTerm::Rel(r)) = (e1.as_ref(), e2.as_ref()) {
                    if *x == v && !sterm_mentions(w1, v) && !sterm_mentions(w2, v) {
                        out.push(*r);
                        return true;
                    }
                }
                false
            }
            _ => false,
        },
        (SFormula::Not(q), _) => vacuity_guard(q, v, !need, out),
        // `a & b` is false as soon as `a` is (short-circuit), or — when
        // `a` does not mention `v` — as soon as `b` is.
        (SFormula::And(a, b), false) => {
            vacuity_guard(a, v, false, out)
                || (!sformula_mentions(a, v) && vacuity_guard(b, v, false, out))
        }
        // `a & b` is true only if both conjuncts are vacuously true.
        (SFormula::And(a, b), true) => {
            vacuity_guard(a, v, true, out) && vacuity_guard(b, v, true, out)
        }
        (SFormula::Or(a, b), true) => {
            vacuity_guard(a, v, true, out)
                || (!sformula_mentions(a, v) && vacuity_guard(b, v, true, out))
        }
        (SFormula::Or(a, b), false) => {
            vacuity_guard(a, v, false, out) && vacuity_guard(b, v, false, out)
        }
        // `a → b` is true when the antecedent is vacuously false…
        (SFormula::Implies(a, b), true) => {
            vacuity_guard(a, v, false, out)
                || (!sformula_mentions(a, v) && vacuity_guard(b, v, true, out))
        }
        // …and false only when `a` is true and `b` false.
        (SFormula::Implies(a, b), false) => {
            vacuity_guard(a, v, true, out) && vacuity_guard(b, v, false, out)
        }
        // An inner `∀` is vacuously true (even over an empty domain) when
        // its body is; dually `∃` and false.
        (SFormula::Forall(x, q), true) if *x != v => vacuity_guard(q, v, true, out),
        (SFormula::Exists(x, q), false) if *x != v => vacuity_guard(q, v, false, out),
        _ => false,
    }
}

// ---------------------------------------------------------------------
// mention tests (shadowing counts as a mention — conservative)
// ---------------------------------------------------------------------

fn sformula_mentions(p: &SFormula, v: Var) -> bool {
    match p {
        SFormula::True | SFormula::False => false,
        SFormula::Holds(w, q) => sterm_mentions(w, v) || fformula_mentions(q, v),
        SFormula::Cmp(_, a, b) | SFormula::Member(a, b) | SFormula::Subset(a, b) => {
            sterm_mentions(a, v) || sterm_mentions(b, v)
        }
        SFormula::Not(q) => sformula_mentions(q, v),
        SFormula::And(a, b)
        | SFormula::Or(a, b)
        | SFormula::Implies(a, b)
        | SFormula::Iff(a, b) => sformula_mentions(a, v) || sformula_mentions(b, v),
        SFormula::Forall(x, q) | SFormula::Exists(x, q) => *x == v || sformula_mentions(q, v),
        SFormula::UserPred(_, ts) => ts.iter().any(|t| sterm_mentions(t, v)),
    }
}

fn sterm_mentions(t: &STerm, v: Var) -> bool {
    match t {
        STerm::Var(x) => *x == v,
        STerm::Nat(_) | STerm::Str(_) => false,
        STerm::EvalObj(w, e) | STerm::EvalState(w, e) => {
            sterm_mentions(w, v) || fterm_mentions(e, v)
        }
        STerm::Attr(_, inner) | STerm::Select(inner, _) | STerm::IdOf(inner) => {
            sterm_mentions(inner, v)
        }
        STerm::TupleCons(ts) | STerm::App(_, ts) | STerm::UserApp(_, ts) => {
            ts.iter().any(|t| sterm_mentions(t, v))
        }
        STerm::SetFormer { head, vars, cond } => {
            vars.contains(&v) || sterm_mentions(head, v) || sformula_mentions(cond, v)
        }
    }
}

fn fformula_mentions(p: &FFormula, v: Var) -> bool {
    match p {
        FFormula::True | FFormula::False => false,
        FFormula::Cmp(_, a, b) | FFormula::Member(a, b) | FFormula::Subset(a, b) => {
            fterm_mentions(a, v) || fterm_mentions(b, v)
        }
        FFormula::Not(q) => fformula_mentions(q, v),
        FFormula::And(a, b)
        | FFormula::Or(a, b)
        | FFormula::Implies(a, b)
        | FFormula::Iff(a, b) => fformula_mentions(a, v) || fformula_mentions(b, v),
        FFormula::Exists(x, q) | FFormula::Forall(x, q) => *x == v || fformula_mentions(q, v),
        FFormula::UserPred(_, ts) => ts.iter().any(|t| fterm_mentions(t, v)),
    }
}

fn fterm_mentions(t: &FTerm, v: Var) -> bool {
    match t {
        FTerm::Var(x) => *x == v,
        FTerm::Nat(_) | FTerm::Str(_) | FTerm::Rel(_) | FTerm::Identity => false,
        FTerm::Attr(_, inner)
        | FTerm::Select(inner, _)
        | FTerm::IdOf(inner)
        | FTerm::Insert(inner, _)
        | FTerm::Delete(inner, _) => fterm_mentions(inner, v),
        FTerm::TupleCons(ts) | FTerm::App(_, ts) | FTerm::UserApp(_, ts) => {
            ts.iter().any(|t| fterm_mentions(t, v))
        }
        FTerm::SetFormer { head, vars, cond } => {
            vars.contains(&v) || fterm_mentions(head, v) || fformula_mentions(cond, v)
        }
        FTerm::Seq(a, b) => fterm_mentions(a, v) || fterm_mentions(b, v),
        FTerm::Cond(p, a, b) => {
            fformula_mentions(p, v) || fterm_mentions(a, v) || fterm_mentions(b, v)
        }
        FTerm::Foreach(x, p, body) => *x == v || fformula_mentions(p, v) || fterm_mentions(body, v),
        FTerm::Modify(t, _, val) | FTerm::ModifyAttr(t, _, val) => {
            fterm_mentions(t, v) || fterm_mentions(val, v)
        }
        FTerm::Assign(_, set) => fterm_mentions(set, v),
    }
}

// ---------------------------------------------------------------------
// fluent level (one state; the engine's `eval_truth` / `eval_obj`)
// ---------------------------------------------------------------------

fn walk_fformula(p: &FFormula, acc: &mut Acc) {
    match p {
        FFormula::True | FFormula::False => {}
        FFormula::Cmp(_, a, b) | FFormula::Member(a, b) | FFormula::Subset(a, b) => {
            walk_fterm(a, acc);
            walk_fterm(b, acc);
        }
        FFormula::Not(q) => walk_fformula(q, acc),
        FFormula::And(a, b)
        | FFormula::Or(a, b)
        | FFormula::Implies(a, b)
        | FFormula::Iff(a, b) => {
            walk_fformula(a, acc);
            walk_fformula(b, acc);
        }
        FFormula::Exists(v, body) | FFormula::Forall(v, body) => {
            walk_fquantifier(*v, body, acc);
        }
        FFormula::UserPred(..) => acc.poison(),
    }
}

/// A quantifier inside a fluent formula: the engine's `domain_of` either
/// restricts a tuple variable to a membership conjunct's relation or
/// enumerates the whole state.
fn walk_fquantifier(v: Var, body: &FFormula, acc: &mut Acc) {
    match v.sort {
        Sort::Obj(ObjSort::Tup(_)) => match find_membership_rel(body, v) {
            Some(r) => {
                acc.add(r);
                walk_fformula(body, acc);
            }
            None => acc.poison(),
        },
        _ => acc.poison(),
    }
}

fn walk_fterm(t: &FTerm, acc: &mut Acc) {
    match t {
        FTerm::Var(_) | FTerm::Nat(_) | FTerm::Str(_) => {}
        FTerm::Rel(r) => acc.add(*r),
        FTerm::Attr(_, inner) | FTerm::Select(inner, _) | FTerm::IdOf(inner) => {
            walk_fterm(inner, acc)
        }
        FTerm::TupleCons(ts) | FTerm::App(_, ts) => {
            for t in ts {
                walk_fterm(t, acc);
            }
        }
        FTerm::SetFormer { head, vars, cond } => {
            for &v in vars {
                match v.sort {
                    Sort::Obj(ObjSort::Tup(_)) => match find_membership_rel(cond, v) {
                        Some(r) => acc.add(r),
                        None => acc.poison(),
                    },
                    _ => acc.poison(),
                }
            }
            walk_fterm(head, acc);
            walk_fformula(cond, acc);
        }
        FTerm::UserApp(..) => acc.poison(),
        // State-sorted fluents in object position do not evaluate; stay
        // conservative if one slips through.
        FTerm::Identity
        | FTerm::Seq(..)
        | FTerm::Cond(..)
        | FTerm::Foreach(..)
        | FTerm::Insert(..)
        | FTerm::Delete(..)
        | FTerm::Modify(..)
        | FTerm::ModifyAttr(..)
        | FTerm::Assign(..) => acc.poison(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txlog_logic::{parse_sformula, ParseCtx};

    fn ctx() -> ParseCtx {
        ParseCtx::with_relations(&["EMP", "SKILL", "LOG"])
    }

    fn rs(src: &str) -> ReadSet {
        read_set(&parse_sformula(src, &ctx()).unwrap())
    }

    #[test]
    fn static_constraint_reads_its_relation() {
        let r = rs("forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000");
        assert_eq!(r, ReadSet::of(&["EMP"]));
    }

    #[test]
    fn transaction_constraint_guarded_by_membership() {
        let r = rs("forall s: state, t: tx, e: 2tup .
              (s:e in s:EMP & (s;t):e in (s;t):EMP)
                -> salary(s:e) <= salary((s;t):e)");
        assert_eq!(r, ReadSet::of(&["EMP"]));
    }

    #[test]
    fn exists_guard_is_a_conjunct() {
        let r = rs("forall s: state . exists e: 2tup . s:e in s:EMP & salary(s:e) > 0");
        assert_eq!(r, ReadSet::of(&["EMP"]));
    }

    #[test]
    fn unguarded_fluent_tuple_var_reads_everything() {
        // ∃ with the guard only inside an implication antecedent is not
        // vacuously false outside EMP.
        let r = rs("forall s: state . exists e: 2tup . s:e in s:EMP -> salary(s:e) > 0");
        assert!(r.is_all());
    }

    #[test]
    fn fluent_membership_restriction_inside_holds() {
        let r = rs("forall s: state . s :: (forall e: 2tup . e in EMP -> salary(e) <= 99)");
        assert_eq!(r, ReadSet::of(&["EMP"]));
    }

    #[test]
    fn atom_quantifier_reads_everything() {
        let r = rs("forall s: state . s :: (forall a: atom . a = a)");
        assert!(r.is_all());
    }

    #[test]
    fn multiple_relations_union() {
        let r = rs("forall s: state, e': 2tup .
              e' in s:EMP -> exists k': 2tup . k' in s:SKILL & e-name(e') = s-emp(k')");
        assert_eq!(r, ReadSet::of(&["EMP", "SKILL"]));
    }

    #[test]
    fn concrete_transaction_reads_everything() {
        // `s ; insert(...)` executes and re-attaches by full content.
        let r = rs(
            "forall s: state . (s;insert(tuple('x'), LOG)):LOG = (s;insert(tuple('x'), LOG)):LOG",
        );
        assert!(r.is_all());
    }

    #[test]
    fn transaction_variable_is_structural() {
        let r = rs("forall s: state, t: tx . s;t :: (forall e: 2tup . e in LOG -> true)");
        assert_eq!(r, ReadSet::of(&["LOG"]));
    }

    #[test]
    fn closed_formula_reads_nothing() {
        assert_eq!(rs("1 <= 2"), ReadSet::none());
    }

    #[test]
    fn overlap_respects_schema_names() {
        use txlog_base::Atom;
        use txlog_relational::TupleVal;
        let schema = Schema::new()
            .relation("EMP", &["e-name", "salary"])
            .unwrap()
            .relation("LOG", &["l-name"])
            .unwrap();
        let db = schema.initial_state();
        let log = schema.rel_id("LOG").unwrap();
        let (_, _, delta) = db
            .insert_traced(log, &TupleVal::anonymous(vec![Atom::str("x")]))
            .unwrap();
        let emp_only = ReadSet::of(&["EMP"]);
        assert!(!emp_only.overlaps(&schema, &delta));
        assert!(ReadSet::of(&["LOG"]).overlaps(&schema, &delta));
        assert!(ReadSet::all().overlaps(&schema, &delta));
        assert!(!ReadSet::all().overlaps(&schema, &Delta::empty()));
    }
}
