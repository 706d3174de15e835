//! Execution-semantics tests: the `foreach` enumeration discipline
//! (iteration-linkage), quantifier domains, and error taxonomy.

use txlog_base::{Atom, TxError};
use txlog_engine::{Engine, Env, EvalOptions, Model};
use txlog_logic::{parse_fformula, parse_fterm, parse_sformula, ParseCtx};
use txlog_relational::{EvolutionGraph, Schema};

fn schema() -> Schema {
    Schema::new()
        .relation("Q", &["v"])
        .expect("schema builds")
        .relation("OUT", &["w"])
        .expect("schema builds")
}

fn ctx() -> ParseCtx {
    ParseCtx::with_relations(&["Q", "OUT"])
}

fn with_q(ns: &[u64]) -> (Schema, txlog_relational::DbState) {
    let schema = schema();
    let qid = schema.rel_id("Q").expect("Q exists");
    let mut db = schema.initial_state();
    for &n in ns {
        db = db.insert_fields(qid, &[Atom::nat(n)]).expect("insert").0;
    }
    (schema, db)
}

/// iteration-linkage: the satisfying set is fixed **at the initial
/// state**. A body that inserts new satisfying tuples must not iterate
/// over them (no runaway).
#[test]
fn foreach_enumeration_is_fixed_at_entry() {
    let (schema, db) = with_q(&[1, 2]);
    let engine = Engine::builder(&schema).build().unwrap();
    // each iteration inserts a new Q-tuple that would itself satisfy the
    // condition if enumeration were re-evaluated
    let tx = parse_fterm(
        "foreach x: 1tup | x in Q do insert(tuple(select(x, 1) + 10), Q) end",
        &ctx(),
        &[],
    )
    .expect("parses");
    let out = engine.execute(&db, &tx, &Env::new()).expect("terminates");
    let qid = schema.rel_id("Q").expect("Q exists");
    // exactly two new tuples: 11 and 12 — not 21, 22, …
    assert_eq!(out.relation(qid).expect("Q in state").len(), 4);
    assert!(out.relation(qid).unwrap().contains_fields(&[Atom::nat(11)]));
    assert!(out.relation(qid).unwrap().contains_fields(&[Atom::nat(12)]));
    assert!(!out.relation(qid).unwrap().contains_fields(&[Atom::nat(21)]));
}

/// …but each iteration *does* see its predecessors' effects (the
/// composition `s[x₁/x] ;; s[x₂/x]` is sequential).
#[test]
fn foreach_bodies_compose_sequentially() {
    let (schema, db) = with_q(&[1, 2, 3]);
    let engine = Engine::builder(&schema).build().unwrap();
    // each iteration records the current size of OUT, which its
    // predecessors have been growing
    let tx = parse_fterm(
        "foreach x: 1tup | x in Q do insert(tuple(size(OUT)), OUT) end",
        &ctx(),
        &[],
    )
    .expect("parses");
    let out = engine.execute(&db, &tx, &Env::new()).expect("executes");
    let oid = schema.rel_id("OUT").expect("OUT exists");
    let rel = out.relation(oid).expect("OUT in state");
    // sizes seen: 0, then 1, then 2
    for n in 0..3u64 {
        assert!(rel.contains_fields(&[Atom::nat(n)]), "missing {n} in {rel}");
    }
}

/// The deletion that removes its own domain is still well-defined: the
/// enumeration snapshot makes it a plain clear-out.
#[test]
fn foreach_can_consume_its_domain() {
    let (schema, db) = with_q(&[5, 6, 7]);
    let opts = EvalOptions {
        check_order_independence: true,
        ..Default::default()
    };
    let engine = Engine::builder(&schema).options(opts).build().unwrap();
    let tx =
        parse_fterm("foreach x: 1tup | x in Q do delete(x, Q) end", &ctx(), &[]).expect("parses");
    let out = engine.execute(&db, &tx, &Env::new()).expect("executes");
    assert!(out
        .relation(schema.rel_id("Q").unwrap())
        .unwrap()
        .is_empty());
}

/// Atom-sorted quantification ranges over the active domain plus formula
/// constants.
#[test]
fn atom_quantifier_domain() {
    let (schema, db) = with_q(&[4, 9]);
    let engine = Engine::builder(&schema).build().unwrap();
    let env = Env::new();
    // ∃v. tuple(v) ∈ Q ∧ v > 5 — needs the active atoms as the domain
    let p = parse_fformula("exists v: atom . tuple(v) in Q & v > 5", &ctx(), &[]).expect("parses");
    assert!(engine.eval_truth(&db, &p, &env).expect("evaluates"));
    // a constant below every stored atom comes from the formula itself
    let p = parse_fformula("exists v: atom . v = 2", &ctx(), &[]).expect("parses");
    assert!(engine.eval_truth(&db, &p, &env).expect("evaluates"));
}

/// Executing an object-sorted term is the executability error, not a
/// panic or a silent no-op.
#[test]
fn query_in_transaction_position_is_rejected() {
    let (schema, db) = with_q(&[1]);
    let engine = Engine::builder(&schema).build().unwrap();
    let q = parse_fterm("size(Q)", &ctx(), &[]).expect("parses");
    let err = engine.execute(&db, &q, &Env::new()).unwrap_err();
    assert!(matches!(err, TxError::NotExecutable(_)), "{err}");
}

/// Inserting a tuple of the wrong arity is a sort error at runtime.
#[test]
fn arity_mismatch_at_runtime() {
    let (schema, db) = with_q(&[1]);
    let engine = Engine::builder(&schema).build().unwrap();
    let tx = parse_fterm("insert(tuple(1, 2), Q)", &ctx(), &[]).expect("parses");
    let err = engine.execute(&db, &tx, &Env::new()).unwrap_err();
    assert!(matches!(err, TxError::Sort(_)), "{err}");
}

/// Unknown relations fail with a schema error.
#[test]
fn unknown_relation_at_runtime() {
    let (schema, db) = with_q(&[1]);
    let engine = Engine::builder(&schema).build().unwrap();
    let ctx2 = ParseCtx::with_relations(&["Q", "OUT", "GHOST"]);
    let tx = parse_fterm("insert(tuple(1), GHOST)", &ctx2, &[]).expect("parses");
    let err = engine.execute(&db, &tx, &Env::new()).unwrap_err();
    assert!(matches!(err, TxError::Schema(_)), "{err}");
}

/// Nested set formers with two bound variables.
#[test]
fn setformer_with_two_binders() {
    let (schema, db) = with_q(&[1, 2]);
    let engine = Engine::builder(&schema).build().unwrap();
    let q = parse_fterm(
        "{ tuple(select(x, 1), select(y, 1)) | x: 1tup, y: 1tup . x in Q & y in Q }",
        &ctx(),
        &[],
    )
    .expect("parses");
    let out = engine
        .eval_obj(&db, &q, &Env::new())
        .expect("evaluates")
        .into_set()
        .expect("a set");
    assert_eq!(out.arity, 2);
    assert_eq!(out.len(), 4); // {1,2} × {1,2}
}

/// The same attribute name in two relations is rejected at engine
/// construction: the paper's `l(t)` sugar needs `l` to pick a unique
/// column, so first-wins resolution would silently misread one relation.
#[test]
fn duplicate_attribute_across_relations_is_rejected() {
    let schema = Schema::new()
        .relation("A", &["name", "x"])
        .expect("schema builds")
        .relation("B", &["name", "y"])
        .expect("schema builds");
    let Err(err) = Engine::builder(&schema).build() else {
        panic!("duplicate attribute accepted");
    };
    assert!(matches!(err, TxError::Schema(_)), "{err}");
    assert!(err.to_string().contains("name"), "{err}");
    // a model wraps any schema; every evaluation that needs the engine
    // then fails the way its one build did
    let mut graph = EvolutionGraph::new();
    graph.add_state(schema.initial_state());
    let model = Model::new(schema, graph);
    let ctx = ParseCtx::with_relations(&["A", "B"]);
    let f = parse_sformula("forall s: state . s :: (exists a: 2tup . a in A)", &ctx).unwrap();
    for _ in 0..2 {
        assert_eq!(model.check(&f).unwrap_err(), err);
    }
}

/// The `max_iterations` budget bounds quantifier/set-former enumeration,
/// not just `foreach`, and names the enumeration in its error.
#[test]
fn quantifier_enumeration_respects_budget() {
    let (schema, db) = with_q(&[1, 2, 3, 4, 5]);
    let engine = Engine::builder(&schema)
        .options(EvalOptions {
            max_iterations: 3,
            ..Default::default()
        })
        .build()
        .unwrap();
    let p = parse_fformula("forall x: 1tup . x in Q -> select(x, 1) >= 1", &ctx(), &[])
        .expect("parses");
    let err = engine.eval_truth(&db, &p, &Env::new()).unwrap_err();
    assert!(matches!(err, TxError::InfiniteDomain(_)), "{err}");
    assert!(err.to_string().contains("candidate bindings"), "{err}");
}

/// An empty set-former's arity comes from sort-checking its head, not
/// from a guess: `{ tuple(1, 2) | … }` over an empty domain is a 2-set.
#[test]
fn empty_setformer_arity_from_head_sort() {
    let (schema, db) = with_q(&[]);
    let engine = Engine::builder(&schema).build().unwrap();
    let q = parse_fterm(
        "{ tuple(select(x, 1), select(x, 1)) | x: 1tup . x in Q }",
        &ctx(),
        &[],
    )
    .expect("parses");
    let out = engine
        .eval_obj(&db, &q, &Env::new())
        .expect("evaluates")
        .into_set()
        .expect("a set");
    assert_eq!(out.len(), 0);
    assert_eq!(out.arity, 2);
}
