//! Differential properties for the plan layer and the delta-native core.
//!
//! Two oracles, kept deliberately naive:
//!
//! * [`PlanMode::Naive`] — the definitional bounded-domain cross product.
//!   The planned (indexed) evaluator must agree with it wherever the
//!   naive evaluator is defined: naive `Ok(v)` implies planned `Ok(v)`.
//!   (The planned path may be *more* defined — it can skip bindings
//!   whose condition would error in a provably irrelevant position — so
//!   nothing is required when the naive path errors.)
//! * `execute_traced` — `execute` is a thin wrapper over the traced
//!   executor, and the states they produce must be identical.
//!
//! And one identity: a formula prepared once (`Engine::prepare`)
//! evaluates exactly as it does unprepared — the plans are the same
//! plans, only compiled earlier.

use proptest::prelude::*;
use txlog::base::Atom;
use txlog::engine::{Engine, Env, EvalOptions, PlanMode};
use txlog::logic::{FFormula, FTerm, Var};
use txlog::prelude::{Counter, Metrics};
use txlog::relational::{DbState, Schema};

fn schema() -> Schema {
    Schema::new()
        .relation("R", &["a"])
        .expect("schema builds")
        .relation("S", &["b", "c"])
        .expect("schema builds")
}

fn db_strategy() -> impl Strategy<Value = DbState> {
    (
        prop::collection::vec(0u64..6, 0..8),
        prop::collection::vec((0u64..6, 0u64..6), 0..10),
    )
        .prop_map(|(rs, ss)| {
            let schema = schema();
            let rid = schema.rel_id("R").expect("R exists");
            let sid = schema.rel_id("S").expect("S exists");
            let mut db = schema.initial_state();
            for n in rs {
                db = db.insert_fields(rid, &[Atom::nat(n)]).expect("insert").0;
            }
            for (b, c) in ss {
                db = db
                    .insert_fields(sid, &[Atom::nat(b), Atom::nat(c)])
                    .expect("insert")
                    .0;
            }
            db
        })
}

/// Quantified formulas exercising every plan shape: membership scans,
/// bound-key and join-key index probes, guarded (∀) narrowing, residual
/// filters, active-domain fallbacks, and keys that fail to evaluate.
fn formula_strategy() -> impl Strategy<Value = FFormula> {
    let x = Var::tup_f("x", 1);
    let y = Var::tup_f("y", 2);
    prop_oneof![
        // exists y ∈ S with a constant probe key
        (0u64..6).prop_map(move |k| FFormula::exists(
            y,
            FFormula::member(FTerm::var(y), FTerm::rel("S"))
                .and(FFormula::eq(FTerm::attr("b", FTerm::var(y)), FTerm::nat(k))),
        )),
        // the same with the equality mirrored (key = column)
        (0u64..6).prop_map(move |k| FFormula::exists(
            y,
            FFormula::member(FTerm::var(y), FTerm::rel("S"))
                .and(FFormula::eq(FTerm::nat(k), FTerm::attr("b", FTerm::var(y)))),
        )),
        // forall y ∈ S with a guarded probe and a consequent comparison
        (0u64..6, 0u64..6).prop_map(move |(k, m)| FFormula::forall(
            y,
            FFormula::member(FTerm::var(y), FTerm::rel("S"))
                .and(FFormula::eq(FTerm::attr("b", FTerm::var(y)), FTerm::nat(k)))
                .implies(FFormula::le(FTerm::attr("c", FTerm::var(y)), FTerm::nat(m))),
        )),
        // join: exists x ∈ R . exists y ∈ S . b(y) = select(x, 1)
        Just(FFormula::exists(
            x,
            FFormula::member(FTerm::var(x), FTerm::rel("R")).and(FFormula::exists(
                y,
                FFormula::member(FTerm::var(y), FTerm::rel("S")).and(FFormula::eq(
                    FTerm::attr("b", FTerm::var(y)),
                    FTerm::Select(Box::new(FTerm::var(x)), 1),
                )),
            )),
        )),
        // referential shape: forall x ∈ R → exists matching y ∈ S
        Just(FFormula::forall(
            x,
            FFormula::member(FTerm::var(x), FTerm::rel("R")).implies(FFormula::exists(
                y,
                FFormula::member(FTerm::var(y), FTerm::rel("S")).and(FFormula::eq(
                    FTerm::attr("b", FTerm::var(y)),
                    FTerm::Select(Box::new(FTerm::var(x)), 1),
                )),
            )),
        )),
        // residual filter, no probe: self-keyed equality b(y) = c(y)
        Just(FFormula::exists(
            y,
            FFormula::member(FTerm::var(y), FTerm::rel("S")).and(FFormula::eq(
                FTerm::attr("b", FTerm::var(y)),
                FTerm::attr("c", FTerm::var(y)),
            )),
        )),
        // unrestricted variable: active-tuples fallback with a filter
        (0u64..6).prop_map(move |k| FFormula::exists(
            x,
            FFormula::eq(FTerm::Select(Box::new(FTerm::var(x)), 1), FTerm::nat(k)),
        )),
        // a probe key that never denotes: `a` selects from 1-tuples, so
        // a(y) on a 2-tuple errs — planned must not decide differently
        // from naive wherever naive is defined
        Just(FFormula::exists(
            y,
            FFormula::member(FTerm::var(y), FTerm::rel("S")).and(FFormula::eq(
                FTerm::attr("b", FTerm::var(y)),
                FTerm::attr("a", FTerm::var(y)),
            )),
        )),
    ]
}

fn tx_strategy() -> impl Strategy<Value = FTerm> {
    let y = Var::tup_f("y", 2);
    let step = prop_oneof![
        Just(FTerm::Identity),
        (0u64..6).prop_map(|n| FTerm::insert(FTerm::TupleCons(vec![FTerm::Nat(n)]), "R")),
        (0u64..6).prop_map(|n| FTerm::delete(FTerm::TupleCons(vec![FTerm::Nat(n)]), "R")),
        (0u64..6, 0u64..6).prop_map(|(b, c)| FTerm::insert(
            FTerm::TupleCons(vec![FTerm::Nat(b), FTerm::Nat(c)]),
            "S"
        )),
        // foreach with a probeable condition: all S-rows keyed k get c+1
        (0u64..6).prop_map(move |k| FTerm::foreach(
            y,
            FFormula::member(FTerm::var(y), FTerm::rel("S"))
                .and(FFormula::eq(FTerm::attr("b", FTerm::var(y)), FTerm::nat(k))),
            FTerm::modify_attr(
                FTerm::var(y),
                "c",
                FTerm::attr("c", FTerm::var(y)).add(FTerm::nat(1))
            ),
        )),
        // conditional on a quantified formula
        (0u64..6).prop_map(move |k| FTerm::cond(
            FFormula::exists(
                y,
                FFormula::member(FTerm::var(y), FTerm::rel("S"))
                    .and(FFormula::eq(FTerm::attr("b", FTerm::var(y)), FTerm::nat(k))),
            ),
            FTerm::insert(FTerm::TupleCons(vec![FTerm::Nat(k)]), "R"),
            FTerm::delete(FTerm::TupleCons(vec![FTerm::Nat(k)]), "R"),
        )),
    ];
    prop::collection::vec(step, 1..5).prop_map(FTerm::seq_all)
}

fn engine_with(schema: &Schema, planner: PlanMode) -> Engine<'_> {
    Engine::builder(schema)
        .options(EvalOptions {
            planner,
            ..Default::default()
        })
        .build()
        .expect("schema has globally unique attributes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Wherever the naive bounded-domain evaluator is defined, the
    /// planned evaluator returns the same truth value.
    #[test]
    fn planned_truth_agrees_with_naive(db in db_strategy(), p in formula_strategy()) {
        let schema = schema();
        let naive = engine_with(&schema, PlanMode::Naive);
        let planned = engine_with(&schema, PlanMode::Indexed);
        let env = Env::new();
        if let Ok(want) = naive.eval_truth(&db, &p, &env) {
            let got = planned.eval_truth(&db, &p, &env);
            prop_assert!(got.as_ref() == Ok(&want),
                "naive said Ok({want}) but planned said {got:?} for {p:?}");
        }
    }

    /// Preparing a formula changes when its plans are compiled, not what
    /// they are: same answer or same error, and no plan compiled while
    /// evaluating. A universal prefix enumerates what `forall` would.
    #[test]
    fn prepared_evaluation_is_unprepared_evaluation(db in db_strategy(), p in formula_strategy()) {
        let schema = schema();
        let m = Metrics::enabled();
        let engine = Engine::builder(&schema).metrics(m.clone()).build().expect("schema builds");
        let env = Env::new();
        let want = engine.eval_truth(&db, &p, &env);
        let prepared = engine.prepare(&[], p.clone()).expect("the pool is well-sorted");
        m.reset();
        let got = engine.eval_prepared(&db, &prepared, &env);
        prop_assert_eq!(m.get(Counter::PlansCompiled), 0);
        match (&got, &want) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            _ => prop_assert!(false, "prepared {got:?} vs unprepared {want:?} for {p:?}"),
        }
        if let FFormula::Forall(v, body) = &p {
            let prefix = engine.prepare(&[*v], (**body).clone()).expect("well-sorted");
            let mut holds = true;
            let walked = engine.for_each_prepared(&db, &prefix, &env, &mut |env| {
                holds = engine.eval_truth(&db, body, env)?;
                Ok(holds)
            });
            prop_assert_eq!(walked.map(|()| holds), want);
        }
    }

    /// Set-former enumeration is plan-independent: the planned set equals
    /// the naive set (same members, same construction order).
    #[test]
    fn planned_setformer_agrees_with_naive(db in db_strategy(), k in 0u64..6) {
        let schema = schema();
        let naive = engine_with(&schema, PlanMode::Naive);
        let planned = engine_with(&schema, PlanMode::Indexed);
        let env = Env::new();
        let y = Var::tup_f("y", 2);
        let set = FTerm::SetFormer {
            head: Box::new(FTerm::var(y)),
            vars: vec![y],
            cond: Box::new(
                FFormula::member(FTerm::var(y), FTerm::rel("S"))
                    .and(FFormula::eq(FTerm::attr("b", FTerm::var(y)), FTerm::nat(k))),
            ),
        };
        if let Ok(want) = naive.eval_obj(&db, &set, &env) {
            let got = planned.eval_obj(&db, &set, &env).expect("planned evaluates");
            prop_assert_eq!(got, want);
        }
    }

    /// Transactions behave identically under both plan modes (`foreach`
    /// match order included — states must agree tuple for tuple).
    #[test]
    fn planned_execution_agrees_with_naive(db in db_strategy(), tx in tx_strategy()) {
        let schema = schema();
        let naive = engine_with(&schema, PlanMode::Naive);
        let planned = engine_with(&schema, PlanMode::Indexed);
        let env = Env::new();
        if let Ok(want) = naive.execute(&db, &tx, &env) {
            let got = planned.execute(&db, &tx, &env).expect("planned executes");
            prop_assert!(got.content_eq(&want));
        }
    }

    /// `execute` is the traced executor minus the trace: same state, and
    /// applying the reported delta to the input state reproduces it.
    #[test]
    fn execute_is_traced_without_the_delta(db in db_strategy(), tx in tx_strategy()) {
        let schema = schema();
        let engine = Engine::builder(&schema).build().expect("schema builds");
        let env = Env::new();
        let plain = engine.execute(&db, &tx, &env);
        let traced = engine.execute_traced(&db, &tx, &env);
        match (plain, traced) {
            (Ok(s), Ok(exec)) => {
                prop_assert!(s.content_eq(&exec.state), "execute and execute_traced disagree");
                let replayed = exec.delta.apply(&db).expect("delta replays");
                prop_assert!(
                    replayed.content_eq(&exec.state),
                    "delta does not reproduce the state"
                );
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "one path failed: plain={a:?} traced={b:?}"),
        }
    }
}

/// `prepare` makes, once, the sort check every enumeration would
/// repeat: a variable bounded by a relation of another arity, or by
/// one the schema does not declare, is refused up front.
#[test]
fn preparing_refuses_ill_sorted_enumerations() {
    let schema = schema();
    let engine = Engine::builder(&schema).build().expect("schema builds");
    let y = Var::tup_f("y", 2);
    for rel in ["R", "NOWHERE"] {
        let p = FFormula::exists(y, FFormula::member(FTerm::var(y), FTerm::rel(rel)));
        assert!(engine.prepare(&[], p.clone()).is_err(), "{p:?}");
        let db = schema.initial_state();
        assert!(engine.eval_truth(&db, &p, &Env::new()).is_err(), "{p:?}");
    }
}
