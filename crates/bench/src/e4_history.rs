//! E4 — Example 4: constraints beyond the transaction subclass.
//!
//! Paper claims:
//!
//! 1. *never-rehire* is not checkable without complete history;
//! 2. encoding part of the history in a `FIRE` relation makes it
//!    **statically** checkable (window 1);
//! 3. *invertibility unless age changes* and *no project lasts forever*
//!    are not checkable at all — each check would require proving the
//!    existence of a future transaction.

use crate::{Claim, Report};
use txlog::constraints::{
    checkability, classify, Checker, ConstraintClass, Hints, History, NeverReinsertEncoding, Window,
};
use txlog::empdb::constraints::{
    ic4_future_hints, ic4_invertible_unless_age, ic4_never_rehire, ic4_no_project_forever,
};
use txlog::empdb::transactions::{fire, hire, raise_salary};
use txlog::empdb::{employee_schema, populate, Sizes};
use txlog::engine::{Env, ModelBuilder};

/// Run E4.
pub fn run() -> Report {
    let mut claims = Vec::new();
    let env = Env::new();

    // --- classification and checkability ---
    claims.push(Claim::new(
        "never-rehire: class",
        "dynamic, beyond the transaction subclass (three states involved)",
        format!("{:?}", classify(&ic4_never_rehire())),
        classify(&ic4_never_rehire()) == ConstraintClass::Dynamic,
    ));
    let w = checkability(&ic4_never_rehire(), Hints::default());
    claims.push(Claim::new(
        "never-rehire: checkability",
        "not checkable without knowing the complete history",
        format!("{w:?}"),
        matches!(w, Window::NotCheckable(_)),
    ));
    for (name, f) in [
        ("invertibility", ic4_invertible_unless_age()),
        ("no-project-forever", ic4_no_project_forever()),
    ] {
        let w = checkability(&f, ic4_future_hints());
        claims.push(Claim::new(
            format!("{name}: checkability"),
            "not checkable — requires proving a future transaction exists",
            format!("{w:?}"),
            matches!(w, Window::NotCheckable(_)),
        ));
    }

    // --- never-rehire semantically: an identity-preserving rehire is
    // invisible to bounded windows but violates the full model ---
    let schema = employee_schema();
    let (_, db0) = populate(Sizes::small(), 31).expect("population generates");
    let mut h = History::new(schema.clone(), db0);
    h.step(
        "hire-gil",
        &hire("gil", "dept-0", 500, 30, "S", "proj-0", 100),
        &env,
    )
    .expect("hire executes");
    // remember gil's identified tuple value, then fire him
    let emp_rel = schema.rel_id("EMP").expect("EMP exists");
    let gil = h
        .latest()
        .relation(emp_rel)
        .expect("EMP in state")
        .iter_vals()
        .find(|t| t.fields[0] == txlog::base::Atom::str("gil"))
        .expect("gil hired");
    // a permanent change *before* the firing, so firing gil does not
    // return the database to its initial contents (state deduplication
    // would otherwise close a phantom rehire cycle)
    h.step("busywork-0", &raise_salary("emp-0", 10), &env)
        .expect("raise executes");
    h.step("fire-gil", &fire("gil"), &env)
        .expect("fire executes");
    // push the firing beyond any bounded window: the rehire only becomes
    // a violation when correlated with states at least this far back
    for i in 1..3 {
        h.step(&format!("busywork-{i}"), &raise_salary("emp-0", 10), &env)
            .expect("raise executes");
    }
    // rehire *the same tuple* (identity preserved) — the paper's "hired
    // again"
    let g = txlog::logic::Var::tup_f("g", 5);
    let rehire_tx = txlog::logic::FTerm::insert(txlog::logic::FTerm::var(g), "EMP");
    // bind g to the *remembered value* (not an identity to re-resolve —
    // gil is gone from the current state)
    let rehire_env = env.bind(
        g,
        txlog::engine::Binding::Val(txlog::engine::Value::Tuple(gil)),
    );
    h.step("rehire-gil", &rehire_tx, &rehire_env)
        .expect("rehire executes");

    // every bounded window passes…
    let mut windows_pass = true;
    for k in [2usize, 3] {
        let checker =
            Checker::new("never-rehire", ic4_never_rehire(), Window::States(k)).expect("window ok");
        let out = checker.replay(&h).expect("replay evaluates");
        windows_pass &= out.per_step.iter().all(|&b| b);
    }
    // …while the complete model is violated
    let full = h
        .full_model()
        .expect("linear history models")
        .check(&ic4_never_rehire())
        .expect("check evaluates");
    claims.push(Claim::new(
        "never-rehire: windows blind, full history sees it",
        "windowed checks pass while the complete history exposes the rehire",
        format!("windows pass = {windows_pass}, full model holds = {full}"),
        windows_pass && !full,
    ));

    // --- the FIRE encoding makes it static ---
    let mut schema2 = employee_schema();
    let enc = NeverReinsertEncoding::install(&mut schema2, "EMP", "e-name", "FIRE")
        .expect("encoding installs");
    let static_ic = enc.static_constraint();
    claims.push(Claim::new(
        "FIRE encoding: class of the substituted constraint",
        "static (checkable with window 1)",
        format!(
            "{:?} / {:?}",
            classify(&static_ic),
            checkability(&static_ic, Hints::default())
        ),
        classify(&static_ic) == ConstraintClass::Static
            && checkability(&static_ic, Hints::default()) == Window::States(1),
    ));

    // replay the same story through the rewritten transactions: now the
    // rehire is caught by the static constraint on the current state
    // alone — even a *name-based* rehire with a fresh tuple.
    let db0 = schema2.initial_state();
    let mut h2 = History::new(schema2.clone(), db0);
    h2.step(
        "hire-gil",
        &hire("gil", "dept-0", 500, 30, "S", "proj-0", 100),
        &env,
    )
    .expect("hire executes");
    let fire_encoded = enc.rewrite(&fire("gil"));
    h2.step("fire-gil", &fire_encoded, &env)
        .expect("fire executes");
    let checker =
        Checker::new("fire-static", static_ic.clone(), Window::States(1)).expect("window ok");
    let before = checker.check_now(&h2).expect("check evaluates");
    h2.step(
        "rehire-gil",
        &hire("gil", "dept-1", 400, 31, "S", "proj-0", 100),
        &env,
    )
    .expect("rehire executes");
    let after = checker.check_now(&h2).expect("check evaluates");
    claims.push(Claim::new(
        "FIRE encoding: window-1 enforcement",
        "valid before the rehire; the rehire is caught by the current \
         state alone",
        format!("before = {before}, after = {after}"),
        before && !after,
    ));

    // --- invertibility / project-termination fail on concrete models ---
    let schema3 = employee_schema();
    let (_, db0) = populate(Sizes::small(), 32).expect("population generates");
    let mut b = ModelBuilder::new(schema3);
    let s0 = b.add_state(db0);
    // a transaction that keeps every age fixed but has no recorded inverse
    let _ = b
        .apply(s0, "raise", &raise_salary("emp-0", 10), &env)
        .expect("raise executes");
    b.transitive_close();
    let model = b.finish();
    let inv = model
        .check(&ic4_invertible_unless_age())
        .expect("check evaluates");
    claims.push(Claim::new(
        "invertibility: fails without an inverse transaction",
        "the constraint demands an inverse exist; a model without one \
         falsifies it — enforcement would mean *synthesizing* inverses at \
         every step",
        format!("holds = {inv}"),
        !inv,
    ));
    let forever = model
        .check(&ic4_no_project_forever())
        .expect("check evaluates");
    claims.push(Claim::new(
        "no-project-forever: fails on any model that stops",
        "projects persist to the model's horizon, so the constraint is \
         false — no bounded observation can establish it",
        format!("holds = {forever}"),
        !forever,
    ));

    Report {
        id: "E4",
        title: "Example 4 — beyond transaction constraints: history encodings",
        claims,
    }
}
