//! # txlog — A Transaction Logic for Database Specification
//!
//! A complete, executable implementation of Qian & Waldinger's
//! situational transaction logic (SIGMOD 1988): a many-sorted classical
//! first-order logic in which database states and state transitions are
//! explicit objects, so that integrity constraints *and* transactions
//! are uniformly specifiable as expressions of one language.
//!
//! ## Layout
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`base`] | `txlog-base` | symbols, atoms, identifiers, errors |
//! | [`relational`] | `txlog-relational` | tuples, relations, persistent states, evolution graphs |
//! | [`logic`] | `txlog-logic` | sorts, f-/s-expressions, axioms, parser |
//! | [`engine`] | `txlog-engine` | fluent evaluator (`w:e`, `w::p`, `w;e`) and finite-model checker |
//! | [`events`] | `txlog-events` | complex-event patterns and incremental automata over commit deltas |
//! | [`constraints`] | `txlog-constraints` | classification, checkability windows, history encoding |
//! | [`temporal`] | `txlog-temporal` | first-order temporal logic and the δ embedding |
//! | [`prover`] | `txlog-prover` | regression, deductive tableau, transaction verification |
//! | [`synthesis`] | `txlog-synthesis` | declarative specs → procedural transactions |
//! | [`empdb`] | `txlog-empdb` | the paper's employee database, constraints, transactions |
//! | [`server`] | `txlog-server` | wire-protocol server and client over `std::net` |
//!
//! ## Quickstart
//!
//! ```
//! use txlog::prelude::*;
//!
//! // a schema and a database state
//! let schema = Schema::new().relation("EMP", &["e-name", "salary"]).unwrap();
//! let db = schema.initial_state();
//!
//! // a transaction, in the paper's notation
//! let ctx = ParseCtx::with_relations(&["EMP"]);
//! let hire = parse_fterm("insert(tuple('ann', 500), EMP)", &ctx, &[]).unwrap();
//!
//! // execute it: w ; e
//! let engine = Engine::builder(&schema).build().unwrap();
//! let db2 = engine.execute(&db, &hire, &Env::new()).unwrap();
//! assert_eq!(db2.total_tuples(), 1);
//!
//! // an integrity constraint, model-checked over the evolution graph
//! let ic = parse_sformula(
//!     "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000",
//!     &ctx,
//! ).unwrap();
//! let mut b = ModelBuilder::new(schema);
//! let s0 = b.add_state(db2);
//! assert!(b.finish().check(&ic).unwrap());
//! let _ = s0;
//! ```

#![warn(missing_docs)]

pub use txlog_base as base;
pub use txlog_constraints as constraints;
pub use txlog_empdb as empdb;
pub use txlog_engine as engine;
pub use txlog_events as events;
pub use txlog_logic as logic;
pub use txlog_prover as prover;
pub use txlog_relational as relational;
pub use txlog_server as server;
pub use txlog_synthesis as synthesis;
pub use txlog_temporal as temporal;

/// One-stop imports for typical use.
pub mod prelude {
    pub use txlog_base::obs::{Counter, Hist, HistValue, Metrics, Snapshot, SpanValue};
    pub use txlog_base::{Atom, RelId, StateId, Symbol, TupleId, TxError, TxResult};
    pub use txlog_constraints::{
        checkability, classify, read_set, Checker, ConstraintClass, Hints, History,
        IncrementalChecker, NeverReinsertEncoding, ReactiveEncoding, ReadSet, Window,
    };
    pub use txlog_engine::{
        check_program, Binding, Commit, CommitConstraint, CommitError, Database, DatabaseBuilder,
        Durability, Engine, EngineBuilder, Env, EvalOptions, EventCallback, EventNotification,
        Execution, Explain, FileStore, Footprint, IsolationLevel, LogStore, MemStore, Model,
        ModelBuilder, ProgramKind, RecoveryReport, RetryPolicy, Session, SessionOptions, SetVal,
        SourceKind, StateVal, SubId, Value, WalError,
    };
    pub use txlog_events::{EventKind, Materialize, PTerm, Pattern, PatternDef, PatternError};
    pub use txlog_logic::{
        parse_fformula, parse_fterm, parse_sformula, parse_sformula_with_params, CmpOp, FFormula,
        FTerm, ObjSort, Op, ParseCtx, SFormula, STerm, Sort, Var, VarClass,
    };
    pub use txlog_prover::{
        entails, regress, simplify_sformula, verify_preserves, Limits, Tableau, Verdict,
        VerifyOptions,
    };
    pub use txlog_relational::{
        CodecError, DbState, Delta, EvolutionGraph, RelDecl, RelDelta, Relation, Schema, Tuple,
        TupleChange, TupleVal, TxLabel,
    };
    pub use txlog_server::{
        Client, ClientError, ErrorCode, Notification, NotificationEvent, RemoteCommit, Server,
        ServerConfig, ServerInfo, WireError,
    };
    pub use txlog_synthesis::{synthesize, verify_synthesis, Synthesized};
    pub use txlog_temporal::{delta, holds, TFormula};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_whole_pipeline() {
        // parse → execute → model-check → classify → verify, end to end
        let schema = txlog_empdb::employee_schema();
        let ctx = txlog_empdb::parse_ctx();
        let hire = txlog_empdb::transactions::hire("zoe", "dept-0", 500, 30, "S", "proj-0", 100);
        let (_, db) = txlog_empdb::populate(txlog_empdb::Sizes::small(), 1).unwrap();
        let engine = Engine::builder(&schema).build().unwrap();
        let db2 = engine.execute(&db, &hire, &Env::new()).unwrap();

        let ic = parse_sformula(
            "forall s: state, e': 5tup . e' in s:EMP -> salary(e') <= 100000",
            &ctx,
        )
        .unwrap();
        assert_eq!(classify(&ic), ConstraintClass::Static);
        let mut b = ModelBuilder::new(schema);
        b.add_state(db2);
        assert!(b.finish().check(&ic).unwrap());
    }
}
