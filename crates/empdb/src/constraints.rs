//! Every integrity constraint from the paper's Section 4, Examples 1–4.
//!
//! Each constructor returns the closed s-formula in our concrete syntax,
//! with a doc comment citing the example it comes from and the paper's
//! checkability claim. Where the SIGMOD scan is ambiguous (OCR noise) the
//! formalization choice is documented inline.

use crate::schema::{employee_schema, parse_ctx};
use txlog_base::TxResult;
use txlog_constraints::{Checker, Hints, IncrementalChecker, ReactiveEncoding, Window};
use txlog_events::PatternDef;
use txlog_logic::{parse_sformula, SFormula};
use txlog_relational::DbState;

fn parse(src: &str) -> SFormula {
    parse_sformula(src, &parse_ctx())
        .unwrap_or_else(|e| panic!("builtin constraint failed to parse: {e}\n{src}"))
}

// ---------------------------------------------------------------------
// Example 1 — static constraints (window 1)
// ---------------------------------------------------------------------

/// Example 1(1): every employee works for at least one project.
pub fn ic1_employee_has_project() -> SFormula {
    parse(
        "forall s: state, e': 5tup .
           e' in s:EMP ->
             exists a': 3tup . a' in s:ALLOC & a-emp(a') = e-name(e')",
    )
}

/// Example 1(2): every allocation references a valid project.
pub fn ic1_alloc_references_project() -> SFormula {
    parse(
        "forall s: state, a': 3tup .
           a' in s:ALLOC ->
             exists p': 2tup . p' in s:PROJ & a-proj(a') = p-name(p')",
    )
}

/// Example 1(3): no employee is allocated over 100% of their time.
pub fn ic1_alloc_within_100() -> SFormula {
    parse(
        "forall s: state, e': 5tup .
           e' in s:EMP ->
             sum({ perc(a') | a': 3tup .
                   a' in s:ALLOC & a-emp(a') = e-name(e') }) <= 100",
    )
}

/// All three Example 1 constraints.
pub fn example1_all() -> Vec<(&'static str, SFormula)> {
    vec![
        ("employee-has-project", ic1_employee_has_project()),
        ("alloc-references-project", ic1_alloc_references_project()),
        ("alloc-within-100", ic1_alloc_within_100()),
    ]
}

// ---------------------------------------------------------------------
// Example 2 — marital status (transaction constraint, window 2 given
// employees are never rehired)
// ---------------------------------------------------------------------

/// Example 2, the **flawed** state-pair formulation: "if an employee in
/// s₁ is not single and is younger than himself in s₂, then he cannot be
/// single in s₂". The paper rejects it because it constrains pairs of
/// states that need not be reachable from one another.
pub fn ic2_marital_state_pair() -> SFormula {
    parse(
        "forall s1: state, s2: state, e: 5tup .
           (s1:e in s1:EMP & s2:e in s2:EMP &
            age(s1:e) < age(s2:e) & m-status(s1:e) != 'S')
             -> m-status(s2:e) != 'S'",
    )
}

/// Example 2, the **correct** transaction-constraint formulation: the
/// same property restricted to pairs connected by a transaction.
pub fn ic2_marital_transaction() -> SFormula {
    parse(
        "forall s: state, t: tx, e: 5tup .
           (s:e in s:EMP & (s;t):e in (s;t):EMP &
            age(s:e) < age((s;t):e) & m-status(s:e) != 'S')
             -> m-status((s;t):e) != 'S'",
    )
}

/// The paper's checkability argument for Example 2: "not single" is
/// preserved forward along transactions (once married, never single
/// again given no rehire), a transitive step relation → two states.
pub fn ic2_hints() -> Hints {
    Hints {
        step_relation_transitive: true,
        ..Hints::default()
    }
}

// ---------------------------------------------------------------------
// Example 3 — transaction constraints with varying windows
// ---------------------------------------------------------------------

/// Example 3: an employee retains a skill as soon as he obtains it.
/// Checkable with two states because `⊆` is transitive.
pub fn ic3_skill_retention() -> SFormula {
    parse(
        "forall s: state, t: tx, e: 5tup, k: 2tup .
           (s:e in s:EMP & (s;t):e in (s;t):EMP &
            s:k in s:SKILL & s-emp(s:k) = e-name(s:e))
             -> (s;t):k in (s;t):SKILL",
    )
}

/// Hints for [`ic3_skill_retention`].
pub fn ic3_skill_hints() -> Hints {
    Hints {
        step_relation_transitive: true,
        ..Hints::default()
    }
}

/// Example 3: an employee's salary cannot decrease unless he switches
/// departments. Constrains intermediate transitions too (a decrease must
/// pass through a department switch), so the paper says three states.
pub fn ic3_salary_needs_dept_switch() -> SFormula {
    parse(
        "forall s: state, t: tx, e: 5tup .
           (s:e in s:EMP & (s;t):e in (s;t):EMP &
            salary((s;t):e) < salary(s:e))
             -> e-dept(s:e) != e-dept((s;t):e)",
    )
}

/// Hints for [`ic3_salary_needs_dept_switch`].
pub fn ic3_salary_hints() -> Hints {
    Hints {
        step_relation_transitive: true,
        constrains_intermediates: true,
        ..Hints::default()
    }
}

/// Example 3 variant: the salary of an employee is never the same as
/// before (`<` replaced by `≠`). Checkable only with a complete history:
/// a value may cycle back through intermediate values, invisible to any
/// bounded window.
pub fn ic3_salary_never_same() -> SFormula {
    parse(
        "forall s: state, t: tx, e: 5tup .
           (s:e in s:EMP & (s;t):e in (s;t):EMP)
             -> salary(s:e) != salary((s;t):e)",
    )
}

/// Hints for [`ic3_salary_never_same`].
pub fn ic3_never_same_hints() -> Hints {
    Hints {
        step_relation_not_composable: true,
        ..Hints::default()
    }
}

/// Example 3, Structural Model *reference connection*: a department is
/// not deleted while employees refer to it. Formalized as: if a
/// department has referring employees both before and after a
/// transaction, the department itself survives that transaction. (The
/// before-and-after guard keeps the constraint closed under composition,
/// hence checkable with two states, matching the paper's claim; the
/// paper's own display is a pre-condition on the specific transaction
/// `delete₃(d, DEPT)` — see [`ic3_dept_delete_precondition`].)
pub fn ic3_dept_reference_connection() -> SFormula {
    parse(
        "forall s: state, t: tx, d: 3tup .
           (s:d in s:DEPT &
            (exists e': 5tup . e' in s:EMP & e-dept(e') = d-name(s:d)) &
            (exists f': 5tup . f' in (s;t):EMP & e-dept(f') = d-name(s:d)))
             -> (s;t):d in (s;t):DEPT",
    )
}

/// The paper's literal display for the reference connection: a
/// pre-condition on the *specific transaction* `delete₃(d, DEPT)` — the
/// kind of formula temporal logic cannot express at all. Reading: if `d`
/// has no referring employees, deleting it genuinely removes it.
pub fn ic3_dept_delete_precondition() -> SFormula {
    parse(
        "forall s: state, d: 3tup .
           (s::(d in DEPT) &
            !(exists e': 5tup . e' in s:EMP & e-dept(e') = d-name(s:d)))
             -> !((s;delete(d, DEPT))::(d in DEPT))",
    )
}

/// Example 3, Structural Model *association connection*: after any
/// transaction, no allocation refers to a project that is gone — the
/// paper notes this is subsumed by Example 1's referential constraint,
/// i.e. dynamically the association connection is equivalent to a static
/// referential constraint. Formalized directly from the paper's display:
/// if a project is gone after `t`, no allocation references its name.
pub fn ic3_assoc_connection() -> SFormula {
    parse(
        "forall s: state, t: tx, p: 2tup .
           (s:p in s:PROJ & !((s;t):p in (s;t):PROJ))
             -> !(exists a': 3tup .
                    a' in (s;t):ALLOC & a-proj(a') = p-name(s:p))",
    )
}

// ---------------------------------------------------------------------
// Example 4 — constraints beyond the transaction subclass
// ---------------------------------------------------------------------

/// Example 4: once an employee is fired, he is never hired again. Not
/// checkable without complete history; the FIRE encoding (see
/// `txlog_constraints::NeverReinsertEncoding`) makes it static.
pub fn ic4_never_rehire() -> SFormula {
    parse(
        "forall s: state, t1: tx, e: 5tup .
           (s:e in s:EMP & !((s;t1):e in (s;t1):EMP))
             -> !(exists t2: tx . ((s;t1);t2):e in ((s;t1);t2):EMP)",
    )
}

/// The static constraint the FIRE encoding substitutes for
/// [`ic4_never_rehire`] (the paper's `(∀s)(∀e'). e' ∈ s:FIRE →
/// e' ∉ s:EMP`, keyed on `e-name`).
pub fn ic4_fire_static() -> SFormula {
    parse(
        "forall s: state, x': 1tup .
           x' in s:FIRE ->
             !(exists e': 5tup . e' in s:EMP & e-name(e') = select(x', 1))",
    )
}

// ---------------------------------------------------------------------
// Example 4, reactive: the FIRE encoding without transaction rewriting
// ---------------------------------------------------------------------

/// The reactive form of Example 4's encoding: `EMP` deletions compiled
/// to an event pattern whose matches the engine materializes (keyed on
/// `e-name`) into the system relation `FIRED`. Unlike the manual
/// [`NeverReinsertEncoding`](txlog_constraints::NeverReinsertEncoding)
/// path, [`fire`](crate::transactions::fire) needs no audit bookkeeping
/// and no rewriting — the commit stream maintains the history relation.
pub fn fired_encoding() -> ReactiveEncoding {
    ReactiveEncoding::define(&employee_schema(), "EMP", "e-name", "FIRED")
        .expect("EMP/e-name are declared by the static schema")
}

/// The `fired` pattern registration for
/// [`DatabaseBuilder::event_pattern`](txlog_engine::DatabaseBuilder::event_pattern):
/// `delete(EMP, FIRED-key, _, _, _, _)` materialized into `FIRED`.
pub fn fired_pattern() -> PatternDef {
    fired_encoding().pattern_def()
}

/// The never-rehire constraint over the auto-maintained relation
/// (window 1, static), packaged for commit-time validation. Register it
/// together with [`fired_pattern`]; see
/// [`ic4_never_rehire`] for the dynamic original.
pub fn ic4_fired_session() -> TxResult<Checker> {
    fired_encoding().session_constraint("never-rehire")
}

/// Example 4: every transaction is invertible unless it modifies the age
/// of an employee. Not checkable: each check would require *proving the
/// existence* of an inverse transaction.
pub fn ic4_invertible_unless_age() -> SFormula {
    parse(
        "forall s: state, t1: tx .
           (forall e: 5tup .
              (s:e in s:EMP & (s;t1):e in (s;t1):EMP &
               age(s:e) = age((s;t1):e)))
             -> exists t2: tx . s = (s;t1);t2",
    )
}

/// Example 4: no project lasts forever. Not checkable for the same
/// reason (requires a future transaction to exist).
pub fn ic4_no_project_forever() -> SFormula {
    parse(
        "forall s: state, p: 2tup .
           s:p in s:PROJ ->
             exists t: tx . !((s;t):p in (s;t):PROJ)",
    )
}

/// Hints marking Example 4's future-referencing constraints.
pub fn ic4_future_hints() -> Hints {
    Hints {
        refers_to_future: true,
        ..Hints::default()
    }
}

// ---------------------------------------------------------------------
// Incremental enforcement
// ---------------------------------------------------------------------

/// [`IncrementalChecker`]s enforcing every Example 1 constraint from
/// `initial` on, each with the single-state window a static constraint
/// needs. Verdicts are cached per window key, so transactions whose
/// delta is disjoint from a constraint's read-set (see
/// [`txlog_constraints::read_set`]) do not pay for rechecking it.
pub fn example1_incremental(initial: DbState) -> TxResult<Vec<(&'static str, IncrementalChecker)>> {
    example1_all()
        .into_iter()
        .map(|(name, ic)| {
            IncrementalChecker::new(
                crate::schema::employee_schema(),
                initial.clone(),
                ic,
                Window::States(1),
            )
            .map(|chk| (name, chk))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Session enforcement
// ---------------------------------------------------------------------

/// The paper's constraints packaged for commit-time validation by the
/// concurrent session layer ([`txlog_engine::Database`]): every
/// Example 1 static constraint (window 1) plus Example 3's skill
/// retention (window 2, sound by transitivity of `⊆`). Register each
/// with [`Database::add_constraint`](txlog_engine::Database::add_constraint).
pub fn session_constraints() -> TxResult<Vec<Checker>> {
    let mut out = Vec::new();
    for (name, ic) in example1_all() {
        out.push(Checker::for_session(name, ic, Hints::default())?);
    }
    out.push(Checker::for_session(
        "skill-retention",
        ic3_skill_retention(),
        ic3_skill_hints(),
    )?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use txlog_constraints::{checkability, classify, ConstraintClass, Window};

    #[test]
    fn all_constraints_parse() {
        // constructors panic on parse failure; touching each is the test
        let _ = example1_all();
        let _ = ic2_marital_state_pair();
        let _ = ic2_marital_transaction();
        let _ = ic3_skill_retention();
        let _ = ic3_salary_needs_dept_switch();
        let _ = ic3_salary_never_same();
        let _ = ic3_dept_reference_connection();
        let _ = ic3_dept_delete_precondition();
        let _ = ic3_assoc_connection();
        let _ = ic4_never_rehire();
        let _ = ic4_fire_static();
        let _ = ic4_invertible_unless_age();
        let _ = ic4_no_project_forever();
    }

    #[test]
    fn classification_matches_paper() {
        for (_, f) in example1_all() {
            assert_eq!(classify(&f), ConstraintClass::Static);
        }
        assert_eq!(
            classify(&ic2_marital_state_pair()),
            ConstraintClass::Dynamic
        );
        assert_eq!(
            classify(&ic2_marital_transaction()),
            ConstraintClass::Transaction
        );
        assert_eq!(
            classify(&ic3_skill_retention()),
            ConstraintClass::Transaction
        );
        assert_eq!(
            classify(&ic3_salary_needs_dept_switch()),
            ConstraintClass::Transaction
        );
        assert_eq!(classify(&ic4_never_rehire()), ConstraintClass::Dynamic);
        assert_eq!(classify(&ic4_fire_static()), ConstraintClass::Static);
    }

    #[test]
    fn checkability_windows_match_paper() {
        // Example 1: window 1
        for (_, f) in example1_all() {
            assert_eq!(checkability(&f, Hints::default()), Window::States(1));
        }
        // Example 2: window 2
        assert_eq!(
            checkability(&ic2_marital_transaction(), ic2_hints()),
            Window::States(2)
        );
        // Example 3: skills window 2, salary window 3, ≠ complete
        assert_eq!(
            checkability(&ic3_skill_retention(), ic3_skill_hints()),
            Window::States(2)
        );
        assert_eq!(
            checkability(&ic3_salary_needs_dept_switch(), ic3_salary_hints()),
            Window::States(3)
        );
        assert_eq!(
            checkability(&ic3_salary_never_same(), ic3_never_same_hints()),
            Window::Complete
        );
        // Example 4: not checkable (before encoding); static after
        assert!(matches!(
            checkability(&ic4_never_rehire(), Hints::default()),
            Window::NotCheckable(_)
        ));
        assert!(matches!(
            checkability(&ic4_invertible_unless_age(), ic4_future_hints()),
            Window::NotCheckable(_)
        ));
        assert_eq!(
            checkability(&ic4_fire_static(), Hints::default()),
            Window::States(1)
        );
    }

    #[test]
    fn reactive_fired_relation_enforces_never_rehire() {
        use crate::transactions::{fire, hire, rehire};
        use txlog_engine::{CommitError, Database, Env};

        let mut db = Database::builder(crate::schema::employee_schema())
            .event_pattern(fired_pattern())
            .unwrap()
            .build()
            .unwrap();
        db.add_constraint(Box::new(ic4_fired_session().unwrap()))
            .unwrap();
        let mut s = db.session();
        s.commit(
            "hire",
            &hire("ann", "cs", 500, 30, "S", "alpha", 50),
            &Env::new(),
        )
        .unwrap();
        // the paper's fire(): plain deletes, no audit bookkeeping
        s.commit("fire", &fire("ann"), &Env::new()).unwrap();
        let fired = db.schema().rel_id("FIRED").unwrap();
        assert!(db
            .snapshot()
            .relation(fired)
            .unwrap()
            .contains_fields(&[txlog_base::Atom::str("ann")]));
        // rehiring ann violates the substituted static constraint
        s.refresh();
        let err = s
            .commit(
                "rehire",
                &rehire("ann", "cs", 500, 30, "alpha", 50),
                &Env::new(),
            )
            .unwrap_err();
        assert!(
            matches!(&err, CommitError::ConstraintViolation { constraint }
                     if constraint == "never-rehire"),
            "{err}"
        );
        // a different employee hires fine
        s.refresh();
        s.commit(
            "hire2",
            &hire("bob", "cs", 400, 25, "S", "alpha", 25),
            &Env::new(),
        )
        .unwrap();
    }

    #[test]
    fn example1_incremental_enforces_and_reuses() {
        let (_, db) = crate::data::populate(crate::data::Sizes::small(), 3).unwrap();
        let mut checkers = example1_incremental(db).unwrap();
        let env = txlog_engine::Env::new();
        for i in 0..3u64 {
            let tx = crate::transactions::obtain_skill(&crate::data::emp_name(0), 50 + i);
            for (name, chk) in checkers.iter_mut() {
                assert!(chk.step("skill", &tx, &env).unwrap(), "{name} violated");
            }
        }
        // SKILL is outside every Example 1 read-set, so once each
        // checker has seen one skill-only window its verdicts come from
        // the cache.
        for (name, chk) in &checkers {
            assert!(
                !chk.checker().read_set().is_all(),
                "{name}: read-set should be precise, got {}",
                chk.checker().read_set()
            );
            let reused = chk.metrics().get(txlog_constraints::counters::REUSED);
            assert!(reused >= 1, "{name}: reused = {reused}");
        }
    }
}
