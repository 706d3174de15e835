//! Differential properties for lowered constraint checking.
//!
//! A [`Checker`] whose constraint [`lower`](txlog::constraints::lower)
//! brought into Definition 4's form decides windows on the planner;
//! `Checker::check_model` — the evolution graph and the finite-model
//! checker — stays as the oracle. The contract is the one
//! `prop_plans.rs` holds planned evaluation to against naive: wherever
//! the oracle is defined, `check_window` returns the same verdict (it
//! may be *more* defined: it never visits the instances a guard proves
//! vacuous, so it cannot trip over an error inside one).
//!
//! Two pools, each × windows 1–3 and `Complete` × random step streams
//! with content-equal revisits, read-set-disjoint noise and violations:
//! the four constraints of `prop_incremental.rs` (one of which errors
//! whenever `LOG` is non-empty) over its two-relation schema, and every
//! Section-4 formula of `empdb::constraints` over the employee database.
//! Then two guards that the fast path is taken where it must be: every
//! constraint the session layer registers reports `is_lowered()`, and
//! a lowered check's work is counted, not timed.

use proptest::prelude::*;
use txlog::constraints::{Checker, History, Window};
use txlog::empdb::{self, constraints as ic, data, transactions as tx};
use txlog::engine::Env;
use txlog::logic::{parse_fterm, parse_sformula, FTerm, ParseCtx, SFormula};
use txlog::prelude::{Counter, Metrics};
use txlog::relational::{DbState, Schema};

fn window(idx: usize) -> (Window, usize) {
    match idx % 4 {
        3 => (Window::Complete, usize::MAX),
        k => (Window::States(k + 1), k + 1),
    }
}

/// Step `history` through `steps`, holding `check_window` to
/// `check_model` on the checker's window after every step that
/// executes.
fn agree_along(
    checker: &Checker,
    width: usize,
    mut history: History,
    steps: impl Iterator<Item = (String, FTerm)>,
) -> Result<(), TestCaseError> {
    let env = Env::new();
    for (label, tx) in steps {
        if history.step(&label, &tx, &env).is_err() {
            continue;
        }
        let start = history.len().saturating_sub(width);
        let (states, labels) = (&history.states()[start..], &history.labels()[start..]);
        if let Ok(want) = checker.check_model(history.schema(), states, labels) {
            let got = checker.check_window(history.schema(), states, labels);
            prop_assert!(
                got.as_ref() == Ok(&want),
                "{}: the model says Ok({want}), the window check {got:?} after {label}",
                checker.name()
            );
        }
    }
    Ok(())
}

// --- pool A: the prop_incremental schema, programs and constraints ---

fn small_schema() -> Schema {
    Schema::new()
        .relation("EMP", &["e-name", "salary"])
        .unwrap()
        .relation("LOG", &["l-name"])
        .unwrap()
}

fn small_tx(kind: usize, param: u64) -> FTerm {
    let src = match kind % 6 {
        0 => format!(
            "insert(tuple('{}', {}), EMP)",
            ["a", "b"][(param % 2) as usize],
            param % 6
        ),
        1 => format!("insert(tuple('n{}'), LOG)", param % 3),
        2 => "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 1) end".into(),
        3 => "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) - 1) end".into(),
        4 => "foreach e: 2tup | e in EMP & e-name(e) = 'a' do delete(e, EMP) end".into(),
        _ => "foreach l: 1tup | l in LOG do delete(l, LOG) end".into(),
    };
    parse_fterm(&src, &ParseCtx::with_relations(&["EMP", "LOG"]), &[]).expect("parses")
}

/// Index 3 errors whenever `LOG` is non-empty (`salary` of a 1-tuple).
fn small_constraint(idx: usize) -> SFormula {
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
    parse_sformula(src, &ParseCtx::with_relations(&["EMP", "LOG"])).expect("parses")
}

/// Inserts allocate fresh tuple ids, so from a revisited state the same
/// label would lead somewhere new: they get a label per step. The other
/// programs are functions of content and share one per program.
fn label(step: usize, fresh: bool, program: impl std::fmt::Display) -> String {
    if fresh {
        format!("i{step}")
    } else {
        format!("k{program}")
    }
}

// --- pool B: Section 4 over the employee database ---

fn section4() -> Vec<(&'static str, SFormula)> {
    let mut all = ic::example1_all();
    all.extend([
        ("marital-state-pair", ic::ic2_marital_state_pair()),
        ("marital-transaction", ic::ic2_marital_transaction()),
        ("skill-retention", ic::ic3_skill_retention()),
        (
            "salary-needs-dept-switch",
            ic::ic3_salary_needs_dept_switch(),
        ),
        ("salary-never-same", ic::ic3_salary_never_same()),
        (
            "dept-reference-connection",
            ic::ic3_dept_reference_connection(),
        ),
        (
            "dept-delete-precondition",
            ic::ic3_dept_delete_precondition(),
        ),
        ("assoc-connection", ic::ic3_assoc_connection()),
        ("never-rehire", ic::ic4_never_rehire()),
        ("fire-static", ic::ic4_fire_static()),
        ("fired-static", ic::fired_encoding().static_constraint()),
        ("invertible-unless-age", ic::ic4_invertible_unless_age()),
        ("no-project-forever", ic::ic4_no_project_forever()),
    ]);
    all
}

/// The employee database at four employees, with the two audit
/// relations the FIRE encodings read declared and empty.
fn employees() -> (Schema, DbState) {
    let (_, mut db) = empdb::populate(data::Sizes::small(), 3).expect("population");
    let schema = empdb::employee_schema()
        .relation("FIRE", &["FIRE-key"])
        .unwrap()
        .relation("FIRED", &["FIRED-key"])
        .unwrap();
    for audit in ["FIRE", "FIRED"] {
        db = db.with_relation(schema.rel_id(audit).unwrap(), 1).unwrap();
    }
    (schema, db)
}

/// Legal and illegal programs touching every relation a Section-4
/// constraint reads, plus noise on the scratch relation none reads.
/// Returns the program and whether it allocates fresh tuple ids.
fn employee_tx(kind: usize, param: u64) -> (FTerm, bool) {
    let who = data::emp_name((param % 4) as usize);
    let other = (param / 4 % 2) as usize;
    let raw = |src: String| parse_fterm(&src, &empdb::parse_ctx(), &[]).expect("parses");
    match kind % 16 {
        0 => (
            tx::hire(
                "newbie",
                &data::dept_name(other),
                500,
                30,
                "S",
                "proj-0",
                50,
            ),
            true,
        ),
        1 => (tx::fire(&who), false),
        2 => (tx::raise_salary(&who, 10), false),
        3 => (tx::cut_salary(&who, 10), false),
        4 => (tx::switch_dept(&who, &data::dept_name(other)), false),
        5 => (tx::demote(&who, 10, &data::dept_name(other)), false),
        6 => (tx::birthday(&who), false),
        7 => (tx::marry(&who), false),
        8 => (tx::annul(&who), false),
        9 => (tx::obtain_skill(&who, 50 + param % 2), true),
        10 => (tx::drop_skill(&who, 50 + param % 2), false),
        11 => (tx::allocate(&who, &data::proj_name(other), 40), true),
        12 => (tx::delete_dept(&data::dept_name(other)), false),
        13 => (
            raw(format!(
                "foreach p: 2tup | p in PROJ & p-name(p) = '{}' do delete(p, PROJ) end",
                data::proj_name(other)
            )),
            false,
        ),
        14 => {
            let audit = ["FIRE", "FIRED"][other];
            (raw(format!("insert(tuple('{who}'), {audit})")), true)
        }
        _ => (
            raw(format!("insert(tuple('noise-{}'), E)", param % 2)),
            true,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lowered_checks_agree_with_the_model_on_the_incremental_pool(
        cidx in 0usize..4,
        widx in 0usize..4,
        steps in prop::collection::vec((0usize..6, 0u64..12), 1..12),
    ) {
        let (window, width) = window(widx);
        let checker = Checker::new("pool-a", small_constraint(cidx), window).unwrap();
        let schema = small_schema();
        let history = History::new(schema.clone(), schema.initial_state());
        let steps = steps.iter().enumerate().map(|(i, &(kind, param))| {
            (label(i, kind % 6 < 2, kind % 6), small_tx(kind, param))
        });
        agree_along(&checker, width, history, steps)?;
    }

    #[test]
    fn lowered_checks_agree_with_the_model_on_section_4(
        cidx in 0usize..16,
        widx in 0usize..4,
        steps in prop::collection::vec((0usize..16, 0u64..8), 1..10),
    ) {
        let (window, width) = window(widx);
        let (name, formula) = section4().swap_remove(cidx);
        let checker = Checker::new(name, formula, window).unwrap();
        let (schema, db) = employees();
        let steps = steps.iter().enumerate().map(|(i, &(kind, param))| {
            let (tx, fresh) = employee_tx(kind, param);
            (label(i, fresh, format_args!("{}-{param}", kind % 16)), tx)
        });
        agree_along(&checker, width, History::new(schema, db), steps)?;
    }
}

/// The pools above would pass with nothing lowered. These must be:
/// every Section-4 constraint `lower` accepts, by name — and above all
/// the five the session layer registers, so the commit path cannot fall
/// back to building a model per check without a test failing.
#[test]
fn the_constraints_sessions_register_are_lowered() {
    for c in ic::session_constraints().expect("session constraints build") {
        assert!(c.is_lowered(), "{} fell off the lowered route", c.name());
    }
    assert!(ic::ic4_fired_session().expect("builds").is_lowered());
    let lowered: Vec<&str> = section4()
        .into_iter()
        .filter(|(name, f)| {
            Checker::new(*name, f.clone(), Window::States(3))
                .expect("a bounded window is accepted")
                .is_lowered()
        })
        .map(|(name, _)| name)
        .collect();
    assert_eq!(
        lowered,
        [
            "employee-has-project",
            "alloc-references-project",
            "alloc-within-100",
            "marital-transaction",
            "skill-retention",
            "salary-needs-dept-switch",
            "salary-never-same",
            "fire-static",
            "fired-static",
        ]
    );
}

/// Work, not wall-clock: at 100 employees a lowered
/// `employee-has-project` check, once compiled, scans `EMP` once and
/// probes `ALLOC` once per employee — no model, no engine build, no
/// plan compiled. The model route's nested loops (one pass over every
/// 3-tuple per employee) cannot come back without moving these.
#[test]
fn a_lowered_check_costs_one_scan_and_one_probe_per_employee() {
    let (schema, db) = empdb::populate(data::Sizes::scaled(100), 4).expect("population");
    let employed = db.relation(schema.rel_id("EMP").unwrap()).unwrap().len() as u64;
    assert_eq!(employed, 100);
    let m = Metrics::enabled();
    let checker = ic::session_constraints()
        .expect("session constraints build")
        .swap_remove(0)
        .with_metrics(m.clone());
    assert_eq!(checker.name(), "employee-has-project");
    let window = std::slice::from_ref(&db);
    let check = || checker.check_window::<&str>(&schema, window, &[]).unwrap();

    assert!(check(), "the seeded population allocates every employee");
    assert_eq!(m.get(Counter::EngineBuilds), 1, "the first check compiles");
    assert_eq!(m.get(Counter::PlansCompiled), 2, "one plan per quantifier");
    m.reset();
    assert!(check());
    let counted = [
        Counter::LoweredChecks,
        Counter::ModelChecks,
        Counter::EngineBuilds,
        Counter::PlansCompiled,
        Counter::ScanSteps,
        Counter::ScanRows,
        Counter::ProbeSteps,
        Counter::ProbeFallbackScans,
        Counter::ActiveSteps,
    ]
    .map(|c| m.get(c));
    assert_eq!(counted, [1, 0, 0, 0, 1, employed, employed, 0, 0]);
    // a checker handed another schema compiles for it rather than
    // trusting the kept tables, and keeps the first
    let (other, _) = employees();
    assert!(checker
        .check_window::<&str>(&other, &[other.initial_state()], &[])
        .unwrap());
    assert_eq!(m.get(Counter::EngineBuilds), 1);
    m.reset();
    assert!(check());
    assert_eq!(m.get(Counter::EngineBuilds), 0);
}
