//! Operational semantics for the situational transaction logic.
//!
//! Two evaluators and a session layer:
//!
//! * [`Engine`] ([`exec`]) — the *program* semantics: evaluate f-terms
//!   (queries) and execute f-terms of state sort (transactions) against a
//!   single [`DbState`]. Programs only ever see the current state, which
//!   is the paper's executability discipline; the situational functions
//!   `w:e`, `w::p`, `w;e` are methods on this evaluator.
//! * [`Model`] ([`model`]) — the *logic* semantics: decide s-formulas in a
//!   finite model (an evolution graph), with quantifier domains as
//!   described in the module docs. [`ModelBuilder`] grows a graph by
//!   executing transactions.
//! * [`Database`] ([`db`]) — snapshot-isolated concurrent access: readers
//!   share `Arc` snapshots of an immutable committed head, and
//!   [`Session`]s commit transactions through an optimistic pipeline
//!   (execute at snapshot, detect conflicts by delta/footprint
//!   intersection, forward or retry, validate the affected constraints).
//!
//! [`DbState`]: txlog_relational::DbState

#![warn(missing_docs)]

pub mod db;
pub mod env;
pub mod events;
pub mod exec;
pub mod explain;
mod group;
pub mod model;
pub mod plan;
pub mod sim;
pub mod value;
pub mod wal;

pub use db::{
    Commit, CommitConstraint, CommitError, CommitTicket, Database, DatabaseBuilder, Footprint,
    IsolationLevel, Prepared, RetryPolicy, Session, SessionOptions,
};
pub use env::{Binding, Env};
pub use events::{EventCallback, EventNotification, SubId};
pub use exec::{
    check_program, Engine, EngineBuilder, EvalOptions, Execution, LazyTables, PlanMode, ProgramKind,
};
pub use explain::{Explain, ExplainNode, ExplainStep, SourceKind};
pub use model::{Model, ModelBuilder};
pub use value::{SetVal, StateVal, Value};
pub use wal::{Durability, FileStore, LogStore, MemStore, RecoveryReport, WalError};

#[cfg(test)]
mod tests {
    use super::*;
    use txlog_base::Atom;
    use txlog_logic::{parse_fterm, parse_sformula, FTerm, ParseCtx, Var};
    use txlog_relational::Schema;

    fn schema() -> Schema {
        Schema::new()
            .relation("EMP", &["e-name", "salary"])
            .unwrap()
            .relation("LOG", &["l-name"])
            .unwrap()
    }

    fn ctx() -> ParseCtx {
        ParseCtx::with_relations(&["EMP", "LOG"])
    }

    fn populated(schema: &Schema) -> txlog_relational::DbState {
        let db = schema.initial_state();
        let emp = schema.rel_id("EMP").unwrap();
        let (db, _) = db
            .insert_fields(emp, &[Atom::str("ann"), Atom::nat(500)])
            .unwrap();
        let (db, _) = db
            .insert_fields(emp, &[Atom::str("bob"), Atom::nat(400)])
            .unwrap();
        db
    }

    #[test]
    fn execute_insert_and_query() {
        let schema = schema();
        let engine = Engine::builder(&schema).build().unwrap();
        let db = populated(&schema);
        let tx = parse_fterm("insert(tuple('carol', 300), EMP)", &ctx(), &[]).unwrap();
        let db2 = engine.execute(&db, &tx, &Env::new()).unwrap();
        assert_eq!(
            db2.relation(schema.rel_id("EMP").unwrap()).unwrap().len(),
            3
        );
        // original untouched
        assert_eq!(db.relation(schema.rel_id("EMP").unwrap()).unwrap().len(), 2);
    }

    #[test]
    fn foreach_gives_everyone_a_raise() {
        let schema = schema();
        let engine = Engine::builder(&schema).build().unwrap();
        let db = populated(&schema);
        let tx = parse_fterm(
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end",
            &ctx(),
            &[],
        )
        .unwrap();
        let db2 = engine.execute(&db, &tx, &Env::new()).unwrap();
        let emp = schema.rel_id("EMP").unwrap();
        let salaries: Vec<u64> = db2
            .relation(emp)
            .unwrap()
            .iter()
            .map(|t| t.fields()[1].as_nat().unwrap())
            .collect();
        assert_eq!(salaries, vec![510, 410]);
    }

    #[test]
    fn conditional_executes_one_branch() {
        let schema = schema();
        let engine = Engine::builder(&schema).build().unwrap();
        let db = populated(&schema);
        let tx = parse_fterm(
            "if exists e: 2tup . e in EMP & salary(e) > 450
             then insert(tuple('rich'), LOG)
             else insert(tuple('poor'), LOG)",
            &ctx(),
            &[],
        )
        .unwrap();
        let db2 = engine.execute(&db, &tx, &Env::new()).unwrap();
        let log = schema.rel_id("LOG").unwrap();
        assert!(db2
            .relation(log)
            .unwrap()
            .contains_fields(&[Atom::str("rich")]));
    }

    #[test]
    fn model_checks_static_constraint() {
        let schema = schema();
        let db = populated(&schema);
        let mut b = ModelBuilder::new(schema);
        b.add_state(db);
        let model = b.finish();
        let ok = parse_sformula(
            "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000",
            &ctx(),
        )
        .unwrap();
        assert!(model.check(&ok).unwrap());
        let bad = parse_sformula(
            "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 450",
            &ctx(),
        )
        .unwrap();
        assert!(!model.check(&bad).unwrap());
    }

    #[test]
    fn transaction_variables_range_over_arcs() {
        let schema = schema();
        let db = populated(&schema);
        let raise = parse_fterm(
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end",
            &ctx(),
            &[],
        )
        .unwrap();
        let mut b = ModelBuilder::new(schema);
        let s0 = b.add_state(db);
        let _s1 = b.apply(s0, "raise", &raise, &Env::new()).unwrap();
        let model = b.finish();
        // Salaries never decrease across any recorded transaction.
        let f = parse_sformula(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP)
                 -> salary(s:e) <= salary((s;t):e)",
            &ctx(),
        )
        .unwrap();
        // NOTE: salary(s:e) uses attribute selection on an s-term.
        assert!(model.check(&f).unwrap());
    }

    /// The structural property `engine_builds` pins: an owner of a
    /// schema validates it and builds the engine tables once, however
    /// many formula leaves or statements it then evaluates.
    #[test]
    fn engines_are_built_once_per_model_and_database() {
        use txlog_base::obs::{Counter, Metrics};
        use txlog_relational::{EvolutionGraph, TxLabel};
        let schema = schema();
        let emp = schema.rel_id("EMP").unwrap();
        let mut db = schema.initial_state();
        for i in 0..8 {
            let fields = [Atom::str(&format!("emp-{i}")), Atom::nat(100 + i)];
            db = db.insert_fields(emp, &fields).unwrap().0;
        }
        let raise = parse_fterm(
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end",
            &ctx(),
            &[],
        )
        .unwrap();
        let engine = Engine::builder(&schema).build().unwrap();
        let raised = engine.execute(&db, &raise, &Env::new()).unwrap();
        let mut graph = EvolutionGraph::new();
        let (s0, s1) = (graph.add_state(db), graph.add_state(raised));
        graph.add_arc(s0, TxLabel::new("raise"), s1).unwrap();
        let monotone = parse_sformula(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP)
                 -> salary(s:e) <= salary((s;t):e)",
            &ctx(),
        )
        .unwrap();

        let m = Metrics::enabled();
        let model = Model::new(schema.clone(), graph).with_metrics(m.clone());
        assert_eq!(m.get(Counter::EngineBuilds), 0, "Model::new builds nothing");
        assert!(model.check(&monotone).unwrap());
        assert_eq!(m.get(Counter::EngineBuilds), 1, "one build for every leaf");
        assert!(model.check(&monotone).unwrap());
        assert_eq!(m.get(Counter::EngineBuilds), 1, "and the model keeps it");

        let m = Metrics::enabled();
        let db = Database::builder(schema)
            .metrics(m.clone())
            .build()
            .unwrap();
        assert_eq!(
            m.get(Counter::EngineBuilds),
            1,
            "assembly validates the schema"
        );
        for _ in 0..100 {
            db.engine().unwrap();
        }
        db.session().commit("raise", &raise, &Env::new()).unwrap();
        assert_eq!(m.get(Counter::EngineBuilds), 1, "engines are views of it");
    }

    #[test]
    fn program_check_rejects_unknown_relation() {
        let schema = schema();
        let tx = FTerm::insert(FTerm::TupleCons(vec![FTerm::nat(1)]), "NOPE");
        assert!(check_program(&schema, &tx, &[]).is_err());
    }

    #[test]
    fn program_check_classifies() {
        let schema = schema();
        let q = FTerm::rel("EMP");
        assert_eq!(check_program(&schema, &q, &[]).unwrap(), ProgramKind::Query);
        let t = FTerm::insert(
            FTerm::TupleCons(vec![FTerm::str("x"), FTerm::nat(1)]),
            "EMP",
        );
        assert_eq!(
            check_program(&schema, &t, &[]).unwrap(),
            ProgramKind::Transaction
        );
    }

    #[test]
    fn free_nonparameter_rejected() {
        let schema = schema();
        let e = Var::tup_f("e", 2);
        let t = FTerm::delete(FTerm::var(e), "EMP");
        assert!(check_program(&schema, &t, &[]).is_err());
        assert!(check_program(&schema, &t, &[e]).is_ok());
    }
}
