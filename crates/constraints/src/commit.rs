//! Bridging declared s-formula constraints into the session layer.
//!
//! [`Database`](txlog_engine::Database) validates commits through the
//! engine-side [`CommitConstraint`] trait, which knows nothing about
//! s-formulas. [`Checker`] implements it: the session layer hands over
//! a borrowed window of consecutive states, [`Checker::check_window`]
//! decides the constraint over it exactly as it does for a recorded
//! [`History`](crate::History) — as fluent formulas on the engine's
//! planner where [`lower`](crate::lower) applies, which it does to
//! every constraint of the paper's Section 4 a session can register,
//! and in the window's model otherwise — and [`Checker::read_set`] is
//! intersected with each commit's [`Delta`] to skip checks that cannot
//! change the verdict. The trait hands the schema over per check, so a
//! checker compiles its plans at the first one (the base check of
//! [`Database::add_constraint`](txlog_engine::Database::add_constraint))
//! and keeps them.

use crate::window::{checkability, Checker, Hints, Window};
use txlog_base::{TxError, TxResult};
use txlog_engine::{CommitConstraint, IsolationLevel};
use txlog_logic::SFormula;
use txlog_relational::{DbState, Delta, Schema};

impl Checker {
    /// Package `formula` for [`Database::add_constraint`], with the
    /// window [`checkability`] derives under `hints`. A session window
    /// is bounded by construction, so [`Window::Complete`] is rejected
    /// along with [`Window::NotCheckable`]: enforcing an unbounded
    /// constraint there would be silently unsound.
    ///
    /// [`Database::add_constraint`]: txlog_engine::Database::add_constraint
    ///
    /// ```
    /// use txlog_constraints::{Checker, Hints};
    /// use txlog_engine::Database;
    /// use txlog_logic::{parse_sformula, ParseCtx};
    /// use txlog_relational::Schema;
    ///
    /// let schema = Schema::new().relation("EMP", &["e-name", "salary"]).unwrap();
    /// let ctx = ParseCtx::with_relations(&["EMP"]);
    /// let cap = parse_sformula(
    ///     "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000",
    ///     &ctx,
    /// )
    /// .unwrap();
    /// let c = Checker::for_session("salary-cap", cap, Hints::default()).unwrap();
    /// let mut db = Database::new(schema).unwrap();
    /// db.add_constraint(Box::new(c)).unwrap();
    /// ```
    pub fn for_session(
        name: impl Into<String>,
        formula: SFormula,
        hints: Hints,
    ) -> TxResult<Checker> {
        let name = name.into();
        match checkability(&formula, hints) {
            Window::Complete => Err(TxError::eval(format!(
                "constraint {name:?} needs the complete history; \
                 sessions retain a bounded window (encode it first, \
                 e.g. NeverReinsertEncoding)"
            ))),
            window => Checker::new(name, formula, window),
        }
    }

    /// The weakest [`IsolationLevel`] at which sessions can soundly run
    /// while this constraint is registered.
    ///
    /// A window-1 (static) constraint judges only the candidate state,
    /// so even read-committed's statement-boundary re-pinning cannot
    /// change its verdict. A window of two or more states judges a
    /// *transition*, which requires the pre-state the session was
    /// pinned to when the transaction executed — exactly what
    /// read-committed gives up. [`Database::session_with`] enforces
    /// this by escalating read-committed requests to snapshot whenever
    /// such a constraint is registered.
    ///
    /// [`Database::session_with`]: txlog_engine::Database::session_with
    pub fn min_isolation(&self) -> IsolationLevel {
        if self.window >= 2 {
            IsolationLevel::Snapshot
        } else {
            IsolationLevel::ReadCommitted
        }
    }
}

impl CommitConstraint for Checker {
    fn name(&self) -> &str {
        Checker::name(self)
    }

    fn window_states(&self) -> usize {
        self.window
    }

    fn affected_by(&self, schema: &Schema, delta: &Delta) -> bool {
        self.read_set().overlaps(schema, delta)
    }

    fn check(&self, schema: &Schema, states: &[DbState], labels: &[&str]) -> TxResult<bool> {
        self.check_window(schema, states, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txlog_base::Atom;
    use txlog_engine::{CommitError, Database};
    use txlog_logic::{parse_fterm, parse_sformula, ParseCtx};

    fn schema() -> Schema {
        Schema::new()
            .relation("EMP", &["e-name", "salary"])
            .unwrap()
    }

    fn ctx() -> ParseCtx {
        ParseCtx::with_relations(&["EMP"])
    }

    #[test]
    fn static_constraint_gets_window_one() {
        let cap = parse_sformula(
            "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000",
            &ctx(),
        )
        .unwrap();
        let c = Checker::for_session("cap", cap, Hints::default()).unwrap();
        assert_eq!(c.window_states(), 1);
        assert_eq!(
            c.min_isolation(),
            IsolationLevel::ReadCommitted,
            "a static constraint is safe under statement-level snapshots"
        );
    }

    #[test]
    fn transition_constraint_gets_window_two() {
        let mono = parse_sformula(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP)
                 -> salary(s:e) <= salary((s;t):e)",
            &ctx(),
        )
        .unwrap();
        // without the transitivity argument no bounded window is sound
        assert!(Checker::for_session("mono", mono.clone(), Hints::default()).is_err());
        let transitive = Hints {
            step_relation_transitive: true,
            ..Hints::default()
        };
        let c = Checker::for_session("mono", mono, transitive).unwrap();
        assert_eq!(c.window_states(), 2);
        assert_eq!(
            c.min_isolation(),
            IsolationLevel::Snapshot,
            "a transition constraint needs a stable pre-state"
        );
    }

    #[test]
    fn session_constraint_enforces_through_commits() {
        let cap = parse_sformula(
            "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000",
            &ctx(),
        )
        .unwrap();
        let c = Checker::for_session("cap", cap, Hints::default()).unwrap();
        let schema = schema();
        let emp = schema.rel_id("EMP").unwrap();
        let (initial, _) = schema
            .initial_state()
            .insert_fields(emp, &[Atom::str("ann"), Atom::nat(500)])
            .unwrap();
        let mut db = Database::with_initial(schema, initial).unwrap();
        db.add_constraint(Box::new(c)).unwrap();

        let ok = parse_fterm("insert(tuple('bob', 900), EMP)", &ctx(), &[]).unwrap();
        db.session()
            .commit("hire bob", &ok, &txlog_engine::Env::new())
            .unwrap();

        let bad = parse_fterm("insert(tuple('eve', 2000), EMP)", &ctx(), &[]).unwrap();
        let err = db
            .session()
            .commit("hire eve", &bad, &txlog_engine::Env::new())
            .unwrap_err();
        assert!(
            matches!(&err, CommitError::ConstraintViolation { constraint } if constraint == "cap"),
            "{err}"
        );
        // the violating commit was not installed
        assert_eq!(db.head_version(), 1);
    }

    #[test]
    fn unbounded_constraint_is_rejected_up_front() {
        // a constraint on future transactions (Example 4's shape) is
        // not checkable by any state window
        let cap = parse_sformula(
            "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000",
            &ctx(),
        )
        .unwrap();
        let future = Hints {
            refers_to_future: true,
            ..Hints::default()
        };
        assert!(Checker::for_session("future", cap, future).is_err());
    }
}
