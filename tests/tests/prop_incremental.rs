//! Differential property harness for incremental constraint checking.
//!
//! The contract under test: an [`IncrementalChecker`] is *observationally
//! identical* to full rechecking — for any constraint, window, and step
//! sequence, its verdict after every step (including evaluation errors)
//! equals `Checker::check_now` on a parallel [`History`] fed the
//! same transactions. The checker may only differ in *cost*, never in
//! answers. The same loop holds the [`Checker`]'s entry points to one
//! evaluation: `check_window` over the window sliced out of the history,
//! `check_now`, and `check_assisted` (which may skip it, on a
//! certificate). Also covers the `push_state` entry point (deltas
//! derived by diffing pre-computed states), constructor parity on
//! degenerate windows, and the `DbState::diff` round-trip law the delta
//! layer rests on.

use proptest::prelude::*;
use std::sync::{Mutex, PoisonError};
use txlog::base::Atom;
use txlog::constraints::{
    Assisted, Checker, History, IncrementalChecker, VerifiedRegistry, Window,
};
use txlog::engine::{Engine, Env};
use txlog::logic::{parse_fterm, parse_sformula, FTerm, ParseCtx, SFormula};
use txlog::prelude::{Counter, Metrics};
use txlog::relational::Schema;

/// `model_checks` and `lowered_checks` are recorded by the
/// process-global recorder, which the test threads of this binary
/// share: every case that checks a window holds this, so the case
/// observing the counters sees only its own.
static MODEL_BUILDERS: Mutex<()> = Mutex::new(());

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

fn fterm(src: &str) -> FTerm {
    parse_fterm(src, &ctx(), &[]).expect("transaction parses")
}

/// A small program pool: inserts, deletes, and modifications over both
/// relations, parameterized so step sequences hit violations, repeated
/// content-equal states, and read-set-disjoint noise.
fn transaction(kind: usize, param: u64) -> FTerm {
    match kind % 6 {
        0 => {
            let name = ["a", "b"][(param % 2) as usize];
            fterm(&format!("insert(tuple('{name}', {}), EMP)", param % 6))
        }
        1 => fterm(&format!("insert(tuple('n{}'), LOG)", param % 3)),
        2 => fterm("foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 1) end"),
        3 => fterm("foreach e: 2tup | e in EMP do modify(e, salary, salary(e) - 1) end"),
        4 => fterm("foreach e: 2tup | e in EMP & e-name(e) = 'a' do delete(e, EMP) end"),
        _ => fterm("foreach l: 1tup | l in LOG do delete(l, LOG) end"),
    }
}

/// Constraints with different read-sets, checkability classes, and
/// failure modes (index 3 errors whenever LOG is non-empty: `salary`
/// projects a field a 1-tuple does not have).
fn constraint(idx: usize) -> SFormula {
    let src = match idx % 4 {
        0 => "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 3",
        1 => {
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP)
                 -> salary(s:e) <= salary((s;t):e)"
        }
        2 => "forall s: state, l': 1tup . l' in s:LOG -> l-name(l') != 'n2'",
        _ => "forall s: state, l': 1tup . l' in s:LOG -> salary(l') <= 5",
    };
    parse_sformula(src, &ctx()).expect("constraint parses")
}

fn window(idx: usize) -> Window {
    match idx % 4 {
        0 => Window::States(1),
        1 => Window::States(2),
        2 => Window::States(3),
        _ => Window::Complete,
    }
}

type Steps = Vec<(usize, u64)>;

fn steps_strategy() -> impl Strategy<Value = Steps> {
    prop::collection::vec((0usize..6, 0u64..12), 1..12)
}

/// A [`History`]'s evolution graph is functional: one label from one
/// (content-equal) state must lead to one state. Inserts allocate fresh
/// tuple ids, so replaying an insert label from a revisited state would
/// produce a *different* successor — give inserts a per-step label.
/// The other kinds are deterministic functions of state content, so a
/// shared per-kind label is sound and lets window keys repeat.
fn label(step: usize, kind: usize) -> String {
    match kind % 6 {
        0 | 1 => format!("i{step}"),
        k => format!("k{k}"),
    }
}

proptest! {
    /// The headline differential: step-for-step verdict equality,
    /// errors included, across every constraint/window combination.
    #[test]
    fn incremental_matches_full_rechecking(
        cidx in 0usize..4,
        widx in 0usize..4,
        steps in steps_strategy(),
    ) {
        let _serial = MODEL_BUILDERS.lock().unwrap_or_else(PoisonError::into_inner);
        let global = Metrics::enabled();
        global.install_global();
        let constraint = constraint(cidx);
        let window = window(widx);
        let width = match window {
            Window::States(k) => k,
            _ => usize::MAX,
        };
        let schema = schema();
        let db = schema.initial_state();
        let mut inc = IncrementalChecker::new(
            schema.clone(), db.clone(), constraint.clone(), window.clone(),
        ).unwrap();
        let full = Checker::new("full", constraint, window).unwrap();
        let mut history = History::new(schema, db);
        let env = Env::new();
        for (i, &(kind, param)) in steps.iter().enumerate() {
            let tx = transaction(kind, param);
            let label = label(i, kind);
            let got = inc.step(&label, &tx, &env);
            if let Err(exec_err) = history.step(&label, &tx, &env) {
                // execution failed before any state was appended:
                // the incremental checker must fail the same way
                // and neither history may advance
                let inc_err = got.expect_err("step must propagate execution errors");
                prop_assert_eq!(inc_err.to_string(), exec_err.to_string());
                prop_assert_eq!(inc.history().len(), history.len());
                continue;
            }
            // one evaluation, three ways in: the incremental verdict,
            // the history's current end, the same window handed over
            // as borrowed slices
            let now = full.check_now(&history);
            let start = history.len().saturating_sub(width);
            let (states, labels) = (&history.states()[start..], &history.labels()[start..]);
            let sliced = full.check_window(history.schema(), states, labels);
            for (entry, other) in [("incremental", &got), ("sliced window", &sliced)] {
                match (other, &now) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{} verdict diverged", entry),
                    (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                    (a, b) => prop_assert!(
                        false,
                        "status diverged: {entry} {a:?} vs check_now {b:?}"
                    ),
                }
            }
            // without a certificate the assisted check is check_now;
            // with one it accepts on the registry's word: no window
            // decided, by either route
            let unassisted = full.check_assisted(&history, &label, &VerifiedRegistry::new());
            prop_assert_eq!(unassisted, now.map(Assisted::Checked));
            let mut certifying = VerifiedRegistry::new();
            certifying.record(&label, full.name());
            let decided =
                || global.get(Counter::ModelChecks) + global.get(Counter::LoweredChecks);
            let before = decided();
            let certified = full.check_assisted(&history, &label, &certifying);
            prop_assert_eq!(certified, Ok(Assisted::Certified));
            prop_assert_eq!(decided(), before);
        }
        Metrics::disabled().install_global();
    }

    /// `push_state` (delta derived by diffing, not by tracing the
    /// program) is differentially equal to full rechecking too.
    #[test]
    fn push_state_matches_full_rechecking(
        cidx in 0usize..4,
        widx in 0usize..4,
        steps in steps_strategy(),
    ) {
        let _serial = MODEL_BUILDERS.lock().unwrap_or_else(PoisonError::into_inner);
        let constraint = constraint(cidx);
        let window = window(widx);
        let schema = schema();
        let db = schema.initial_state();
        let mut inc = IncrementalChecker::new(
            schema.clone(), db.clone(), constraint.clone(), window.clone(),
        ).unwrap();
        let full = Checker::new("full", constraint, window).unwrap();
        let mut history = History::new(schema.clone(), db.clone());
        let engine = Engine::builder(&schema).build().unwrap();
        let env = Env::new();
        let mut cur = db;
        for (i, &(kind, param)) in steps.iter().enumerate() {
            let tx = transaction(kind, param);
            let label = label(i, kind);
            let Ok(next) = engine.execute(&cur, &tx, &env) else { continue };
            let got = inc.push_state(&label, next.clone());
            history.push_state(&label, next.clone());
            cur = next;
            match (got, full.check_now(&history)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "verdict diverged"),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(
                    false,
                    "status diverged: incremental {a:?} vs full {b:?}"
                ),
            }
        }
    }

    /// `DbState::diff` round-trips between *arbitrary* state pairs —
    /// including unrelated ones — which is what entitles `push_state`
    /// to reconstruct a step's delta by diffing.
    #[test]
    fn diff_round_trips_between_arbitrary_states(
        a_emp in prop::collection::vec((0u8..4, 0u64..8), 0..6),
        a_log in prop::collection::vec(0u8..4, 0..6),
        b_emp in prop::collection::vec((0u8..4, 0u64..8), 0..6),
        b_log in prop::collection::vec(0u8..4, 0..6),
    ) {
        let schema = schema();
        let emp = schema.rel_id("EMP").unwrap();
        let log = schema.rel_id("LOG").unwrap();
        let build = |emps: &[(u8, u64)], logs: &[u8]| {
            let mut db = schema.initial_state();
            for &(n, s) in emps {
                let (next, _) = db
                    .insert_fields(emp, &[Atom::str(&format!("e{n}")), Atom::nat(s)])
                    .unwrap();
                db = next;
            }
            for &n in logs {
                let (next, _) = db
                    .insert_fields(log, &[Atom::str(&format!("l{n}"))])
                    .unwrap();
                db = next;
            }
            db
        };
        let a = build(&a_emp, &a_log);
        let b = build(&b_emp, &b_log);
        let roundtrip = a.diff(&b).apply(&a).unwrap();
        prop_assert!(roundtrip.content_eq(&b), "apply(diff(a, b), a) != b");
        prop_assert!(b.diff(&b).is_empty(), "diff of a state with itself");
    }

    /// Constructor parity: `IncrementalChecker::new` accepts exactly the
    /// windows `Checker::new` accepts.
    #[test]
    fn constructor_parity_on_degenerate_windows(cidx in 0usize..4, k in 0usize..4) {
        let schema = schema();
        let db = schema.initial_state();
        for w in [
            Window::States(k),
            Window::Complete,
            Window::NotCheckable("refers to unboundedly distant states".into()),
        ] {
            let full = Checker::new("full", constraint(cidx), w.clone());
            let inc = IncrementalChecker::new(
                schema.clone(), db.clone(), constraint(cidx), w,
            );
            prop_assert_eq!(full.is_err(), inc.is_err());
            if let (Err(a), Err(b)) = (full, inc) {
                prop_assert_eq!(a.to_string(), b.to_string());
            }
        }
    }
}

/// A fixed scenario pinning down cache behaviour alongside equivalence:
/// read-set-disjoint noise must actually reuse verdicts (the property
/// tests above would pass even for a cache that never hits).
#[test]
fn noise_reuse_is_observable() {
    let _serial = MODEL_BUILDERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let schema = schema();
    let db = schema.initial_state();
    let mut inc = IncrementalChecker::new(
        schema,
        db,
        constraint(0), // reads only EMP
        Window::States(2),
    )
    .unwrap();
    let env = Env::new();
    for _ in 0..6 {
        assert!(inc.step("noise", &transaction(1, 0), &env).unwrap());
    }
    let reused = inc.metrics().get(txlog::constraints::counters::REUSED);
    assert!(
        reused >= 3,
        "noise-only windows must hit the cache: {reused}"
    );
}
