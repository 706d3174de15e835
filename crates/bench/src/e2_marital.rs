//! E2 — Example 2: the marital-status constraint.
//!
//! Paper claims:
//!
//! 1. the naive *state-pair* formulation is wrong — it constrains pairs
//!    of states that are not reachable from each other ("two states may
//!    very well be in contradiction as long as they are not reachable");
//! 2. the *transaction-constraint* formulation is right;
//! 3. given employees are never rehired, the constraint is checkable
//!    with a two-state history.

use crate::{Claim, Report};
use txlog::constraints::{checkability, classify, Checker, ConstraintClass, History, Window};
use txlog::empdb::constraints::{ic2_hints, ic2_marital_state_pair, ic2_marital_transaction};
use txlog::empdb::transactions::{annul, birthday, hire, marry};
use txlog::empdb::{employee_schema, populate, Sizes};
use txlog::engine::{Env, ModelBuilder};

/// Run E2.
pub fn run() -> Report {
    let mut claims = Vec::new();
    let schema = employee_schema();
    let env = Env::new();

    // classification
    claims.push(Claim::new(
        "state-pair form: class",
        "not a transaction constraint (general dynamic formula)",
        format!("{:?}", classify(&ic2_marital_state_pair())),
        classify(&ic2_marital_state_pair()) == ConstraintClass::Dynamic,
    ));
    claims.push(Claim::new(
        "transaction form: class",
        "transaction constraint",
        format!("{:?}", classify(&ic2_marital_transaction())),
        classify(&ic2_marital_transaction()) == ConstraintClass::Transaction,
    ));
    let w = checkability(&ic2_marital_transaction(), ic2_hints());
    claims.push(Claim::new(
        "transaction form: checkability",
        "two states (current + previous), given no rehiring",
        format!("{w:?}"),
        w == Window::States(2),
    ));

    // The flaw of the state-pair form: two *parallel* futures from one
    // root — in one branch ann marries and ages; in the other she stays
    // single and ages. The branches are mutually unreachable, yet the
    // state-pair form compares them and is falsified; the transaction
    // form is satisfied.
    let (_, db0) = populate(Sizes::small(), 7).expect("population generates");
    let mut b = ModelBuilder::new(schema.clone());
    let s0 = b.add_state(db0);
    let s0 = b
        .apply(
            s0,
            "hire-ann",
            &hire("ann", "dept-0", 500, 30, "S", "proj-0", 100),
            &env,
        )
        .expect("hire executes");
    // branch 1: marry, then a birthday
    let b1 = b
        .apply(s0, "marry-ann", &marry("ann"), &env)
        .expect("marry executes");
    let _b1 = b
        .apply(b1, "bday-1", &birthday("ann"), &env)
        .expect("birthday executes");
    // branch 2: two birthdays, still single
    let b2 = b
        .apply(s0, "bday-a", &birthday("ann"), &env)
        .expect("birthday executes");
    let _b2 = b
        .apply(b2, "bday-b", &birthday("ann"), &env)
        .expect("birthday executes");
    b.transitive_close();
    let model = b.finish();

    let pair_verdict = model
        .check(&ic2_marital_state_pair())
        .expect("state-pair form evaluates");
    claims.push(Claim::new(
        "parallel futures, state-pair form",
        "falsified by unreachable state pairs (the formulation is wrong)",
        format!("holds = {pair_verdict}"),
        !pair_verdict,
    ));
    let tx_verdict = model
        .check(&ic2_marital_transaction())
        .expect("transaction form evaluates");
    claims.push(Claim::new(
        "parallel futures, transaction form",
        "satisfied (branches are not connected by transactions)",
        format!("holds = {tx_verdict}"),
        tx_verdict,
    ));

    // enforcement with window 2: a violating step (the employee ages and
    // reverts to single in one transaction — the paper's formula uses age
    // as the clock witnessing "strictly later") is caught immediately,
    // while the legal prefix passes.
    let (_, db0) = populate(Sizes::small(), 8).expect("population generates");
    let mut history = History::new(schema, db0);
    history
        .step(
            "hire-ann",
            &hire("ann", "dept-0", 500, 30, "S", "proj-0", 100),
            &env,
        )
        .expect("hire executes");
    history
        .step("marry-ann", &marry("ann"), &env)
        .expect("marry executes");
    history
        .step("bday", &birthday("ann"), &env)
        .expect("birthday executes");
    history
        .step("annul-and-age", &annul("ann").seq(birthday("ann")), &env)
        .expect("annul executes");
    let checker = Checker::new("marital", ic2_marital_transaction(), Window::States(2))
        .expect("window accepted");
    let outcome = checker.replay(&history).expect("replay evaluates");
    let legal_prefix_ok = outcome.per_step[..3].iter().all(|&ok| ok);
    let caught_at_violation = !outcome.per_step[4];
    claims.push(Claim::new(
        "violating history, window 2",
        "legal prefix passes; the marital regression is caught with two \
         states of history at the step it happens",
        format!("prefix ok = {legal_prefix_ok}, caught = {caught_at_violation}"),
        legal_prefix_ok && caught_at_violation,
    ));

    Report {
        id: "E2",
        title: "Example 2 — marital status: state pairs vs transactions",
        claims,
    }
}
