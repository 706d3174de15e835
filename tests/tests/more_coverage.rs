//! Additional cross-crate coverage: temporal atoms with free variables,
//! tableau resolution over `Holds` atoms, synthetic histories, and the
//! complexity measure's monotonicity.

use proptest::prelude::*;
use txlog::base::Atom;
use txlog::constraints::{Checker, Complexity, History, Window};
use txlog::engine::{Binding, Env, ModelBuilder};
use txlog::logic::{parse_sformula, FFormula, FTerm, ParseCtx, Var};
use txlog::prover::{entails, Limits, Tableau};
use txlog::relational::{Schema, TupleVal, TxLabel};
use txlog::temporal::{holds_env, TFormula};

fn schema() -> Schema {
    Schema::new().relation("R", &["a"]).expect("schema builds")
}

/// Temporal atoms may carry free object variables, resolved through the
/// environment at every state along the evaluation.
#[test]
fn temporal_atoms_with_environment() {
    let schema = schema();
    let rid = schema.rel_id("R").expect("R exists");
    let mut b = ModelBuilder::new(schema);
    let db0 = b.schema().initial_state();
    let (db1, _) = db0.insert_fields(rid, &[Atom::nat(7)]).expect("insert");
    let n0 = b.add_state(db0);
    let n1 = b.add_state(db1);
    b.graph_mut()
        .add_arc(n0, TxLabel::new("put7"), n1)
        .expect("arc is fresh");
    b.graph_mut().reflexive_close();
    b.graph_mut().transitive_close();
    let model = b.finish();

    let v = Var::atom_f("v");
    let f = TFormula::Atom(FFormula::member(
        FTerm::TupleCons(vec![FTerm::var(v)]),
        FTerm::rel("R"),
    ))
    .eventually();
    let env7 = Env::new().bind(v, Binding::FluentAtom(Atom::nat(7)));
    let env8 = Env::new().bind(v, Binding::FluentAtom(Atom::nat(8)));
    assert!(holds_env(&model, n0, &f, &env7).expect("evaluates"));
    assert!(!holds_env(&model, n0, &f, &env8).expect("evaluates"));
}

/// Resolution over `Holds` atoms: `∀w. w::(p)` plus `∀w. w::(p) → w::(q)`
/// derives `∀w. w::(q)`.
#[test]
fn tableau_resolves_holds_atoms() {
    let ctx = ParseCtx::with_relations(&["R"]);
    let a1 = parse_sformula("forall w: state . w::(tuple(1) in R)", &ctx).expect("parses");
    let a2 = parse_sformula(
        "forall w: state . w::(tuple(1) in R) -> w::(tuple(2) in R)",
        &ctx,
    )
    .expect("parses");
    let goal = parse_sformula("forall w: state . w::(tuple(2) in R)", &ctx).expect("parses");
    let proof = entails(&[a1, a2], &goal).expect("proof closes");
    assert!(proof.steps >= 1);
}

/// Distinct embedded fluent formulas do not unify — `Holds` is rigid in
/// its formula argument.
#[test]
fn holds_is_rigid_in_its_formula() {
    let ctx = ParseCtx::with_relations(&["R"]);
    let a = parse_sformula("forall w: state . w::(tuple(1) in R)", &ctx).expect("parses");
    let goal = parse_sformula("forall w: state . w::(tuple(2) in R)", &ctx).expect("parses");
    let mut tab = Tableau::new(Limits {
        max_steps: 100,
        max_rows: 50,
    });
    tab.assert(&a).expect("normalizes");
    tab.goal(&goal).expect("normalizes");
    assert!(
        tab.prove().is_err(),
        "distinct fluent formulas must not unify"
    );
}

/// Synthetic histories via `push_state` behave like executed ones.
#[test]
fn synthetic_history_checks() {
    let schema = schema();
    let rid = schema.rel_id("R").expect("R exists");
    let db0 = schema.initial_state();
    let (db1, _) = db0.insert_fields(rid, &[Atom::nat(1)]).expect("insert");
    let (db2, _) = db1.insert_fields(rid, &[Atom::nat(2)]).expect("insert");
    let mut h = History::new(schema, db0);
    h.push_state("grow-1", db1);
    h.push_state("grow-2", db2);
    assert_eq!(h.len(), 3);
    let ctx = ParseCtx::with_relations(&["R"]);
    // growth constraint holds along the synthetic history, guarded on
    // the transition existing (frontier states have no successors)
    let c = parse_sformula(
        "forall s: state, t: tx, x': 1tup .
           ((exists u: state . s;t = u) & x' in s:R) -> x' in (s;t):R",
        &ctx,
    )
    .expect("parses");
    let checker = Checker::new("c", c, Window::Complete).expect("window accepted");
    let out = checker.replay(&h).expect("replay evaluates");
    assert!(out.global, "{out:?}");
}

/// Deleting a tuple value by anonymous match also respects history
/// replay through `History::step` with env-bound parameters.
#[test]
fn history_step_with_env_params() {
    let schema = schema();
    let rid = schema.rel_id("R").expect("R exists");
    let db0 = schema.initial_state();
    let (db1, id) = db0.insert_fields(rid, &[Atom::nat(5)]).expect("insert");
    let mut h = History::new(schema, db1.clone());
    let x = Var::tup_f("x", 1);
    let tx = FTerm::delete(FTerm::var(x), "R");
    let env = Env::new().bind_tuple(x, TupleVal::identified(id, vec![Atom::nat(5)]));
    h.step("drop-x", &tx, &env).expect("step executes");
    assert!(h.latest().relation(rid).expect("R in state").is_empty());
}

proptest! {
    /// The complexity join is monotone in both arguments.
    #[test]
    fn complexity_join_is_monotone(a in 1usize..6, b in 1usize..6, c in 1usize..6) {
        let ca = Complexity::Bounded(a);
        let cb = Complexity::Bounded(b);
        let cc = Complexity::Bounded(c);
        // join is idempotent, commutative, associative, monotone
        prop_assert_eq!(ca.join(ca), ca);
        prop_assert_eq!(ca.join(cb), cb.join(ca));
        prop_assert_eq!(ca.join(cb).join(cc), ca.join(cb.join(cc)));
        prop_assert!(ca.join(cb) >= ca);
        prop_assert!(ca.join(Complexity::Unenforceable) == Complexity::Unenforceable);
    }
}

/// `Atom` enumeration order and arithmetic interact sanely with symbol
/// atoms in sets (regression guard for the set normalizer).
#[test]
fn mixed_atoms_in_sets() {
    use txlog::engine::SetVal;
    let s = SetVal::from_members(
        1,
        vec![
            TupleVal::anonymous(vec![Atom::str("b")]),
            TupleVal::anonymous(vec![Atom::nat(1)]),
            TupleVal::anonymous(vec![Atom::str("a")]),
        ],
    )
    .expect("arity consistent");
    assert_eq!(s.len(), 3);
    // sum over symbolic members is a sort error, not a panic
    assert!(s.sum().is_err());
}
