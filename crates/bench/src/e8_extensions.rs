//! E8 — the paper's future-work section, implemented.
//!
//! Section 5 sketches two directions this repository carries out:
//!
//! 1. **Inverse synthesis.** Example 4's invertibility constraint is not
//!    *checkable* — "the existence of an inverse transaction needs to be
//!    proved" at every step. Constructive synthesis discharges exactly
//!    that proof for the foreach-free fragment: we synthesize the
//!    inverse, execute it, and the constraint (unenforceable in E4's
//!    model) becomes *true* in the model extended with the inverse arcs.
//! 2. **Verification-assisted validation.** "Transaction verification
//!    can be combined with constraint validation to make more
//!    constraints checkable with less amount of history maintained" —
//!    transactions verified (symbolically) to preserve a constraint skip
//!    its runtime check entirely; unverified ones fall back to windows,
//!    and violations are still caught.

use crate::{Claim, Report};
use txlog::base::Atom;
use txlog::constraints::{Assisted, Checker, History, VerifiedRegistry, Window};
use txlog::empdb::{employee_schema, populate, Sizes};
use txlog::engine::{Engine, Env, ModelBuilder};
use txlog::logic::{parse_fterm, parse_sformula};
use txlog::prover::{verify_preserves, VerifyOptions};
use txlog::synthesis::{invert, verify_inverse};

/// Run E8.
pub fn run() -> Report {
    let mut claims = Vec::new();
    let env = Env::new();

    // ---------- extension 1: inverse synthesis ----------
    let schema = employee_schema();
    let (_, db) = populate(Sizes::small(), 81).expect("population generates");
    let ctx = txlog::empdb::parse_ctx();
    // a foreach-free transaction that does not touch ages
    let tx = parse_fterm(
        "insert(tuple('kim', 'dept-0', 600, 30, 'S'), EMP) ;;
         insert(tuple('kim', 'proj-0', 100), ALLOC) ;;
         delete(tuple('proj-1', 100), PROJ)",
        &ctx,
        &[],
    )
    .expect("transaction parses");

    let inverse = invert(&schema, &tx, &db, &env).expect("inverse synthesizes");
    let restores =
        verify_inverse(&schema, &tx, &inverse, &db, &env).expect("verification evaluates");
    claims.push(Claim::new(
        "inverse synthesized and verified",
        "for foreach-free transactions an inverse exists constructively \
         (s ;t ;t⁻¹ restores s by value)",
        format!("restores = {restores}\n      inverse: {inverse}"),
        restores,
    ));

    // The invertibility constraint (false without inverse arcs) becomes
    // true once the synthesized inverse is recorded. The demonstration
    // transaction modifies salaries only: memberships and ages are fixed
    // (so the constraint's guard holds, unlike insertions, which void it
    // vacuously), and the modify-inverse restores the very same tuples —
    // identity included — closing the cycle exactly.
    let invertibility = txlog::empdb::constraints::ic4_invertible_unless_age();
    let engine = Engine::builder(&schema).build().unwrap();
    let emp_rel = schema.rel_id("EMP").expect("EMP exists");
    let e0 = txlog::logic::Var::tup_f("e0", 5);
    let raise_e0 = txlog::logic::FTerm::modify_attr(
        txlog::logic::FTerm::var(e0),
        "salary",
        txlog::logic::FTerm::attr("salary", txlog::logic::FTerm::var(e0))
            .add(txlog::logic::FTerm::nat(100)),
    );
    let tuple0 = db
        .relation(emp_rel)
        .expect("EMP in state")
        .iter_vals()
        .next()
        .expect("an employee exists");
    let env_mod = env.bind_tuple(e0, tuple0);

    let mut bare = ModelBuilder::new(schema.clone());
    let s0 = bare.add_state(db.clone());
    bare.apply(s0, "raise-e0", &raise_e0, &env_mod)
        .expect("raise executes");
    bare.transitive_close();
    let without = bare.finish().check(&invertibility).expect("evaluates");

    let mod_inverse =
        invert(&schema, &raise_e0, &db, &env_mod).expect("modify inverse synthesizes");
    let closes = engine
        .execute(
            &engine.execute(&db, &raise_e0, &env_mod).expect("executes"),
            &mod_inverse,
            &env_mod,
        )
        .expect("executes")
        .content_eq(&db);
    let mut extended = ModelBuilder::new(schema.clone());
    let s0 = extended.add_state(db.clone());
    let s1 = extended
        .apply(s0, "raise-e0", &raise_e0, &env_mod)
        .expect("raise executes");
    let s2 = extended
        .apply(s1, "raise-e0-inverse", &mod_inverse, &env_mod)
        .expect("inverse executes");
    // contents restored exactly ⇒ s2 deduplicates onto s0
    let cycle_closed = s2 == s0;
    extended.transitive_close();
    let with = extended.finish().check(&invertibility).expect("evaluates");
    claims.push(Claim::new(
        "invertibility constraint becomes maintainable",
        "false without inverses (E4); recording the synthesized inverse \
         closes the cycle and the constraint holds",
        format!(
            "bare model holds = {without}, inverse restores content = {closes}, \
             cycle closed = {cycle_closed}, extended model holds = {with}"
        ),
        !without && closes && cycle_closed && with,
    ));

    // ---------- extension 2: verification-assisted validation ----------
    let schema2 = txlog::relational::Schema::new()
        .relation("EMP", &["e-name", "salary"])
        .expect("schema builds");
    let ctx2 = txlog::logic::ParseCtx::with_relations(&["EMP"]);
    let never_shrinks = parse_sformula(
        "forall s: state, t: tx, x': 2tup . x' in s:EMP -> x' in (s;t):EMP",
        &ctx2,
    )
    .expect("constraint parses");
    let hire = parse_fterm("insert(tuple('new', 100), EMP)", &ctx2, &[]).expect("parses");
    let fire = parse_fterm(
        "foreach e: 2tup | e in EMP & e-name(e) = 'new' do delete(e, EMP) end",
        &ctx2,
        &[],
    )
    .expect("parses");

    // verify `hire` symbolically; `fire` will (correctly) not be certified
    let gen = |seed: u64| {
        let db = schema2.initial_state();
        let emp = schema2.rel_id("EMP")?;
        Ok(db
            .insert_fields(emp, &[Atom::str("ann"), Atom::nat(400 + seed)])?
            .0)
    };
    let verdict = verify_preserves(
        &schema2,
        &hire,
        "hire",
        &env,
        &never_shrinks,
        &[],
        &gen,
        &VerifyOptions::default(),
    );
    let mut registry = VerifiedRegistry::new();
    if verdict.is_proved() {
        registry.record("hire", "never-shrinks");
    }
    claims.push(Claim::new(
        "symbolic certificate obtained",
        "regression proves the insert preserves the membership constraint",
        format!("{verdict:?}"),
        verdict.is_proved(),
    ));

    let checker =
        Checker::new("never-shrinks", never_shrinks, Window::States(2)).expect("window accepted");
    let mut history = History::new(schema2.clone(), gen(0).expect("generates"));
    // five certified hires, then an uncertified violating transaction
    // arrives: fallback catches it
    let mut steps = Vec::new();
    for (label, tx) in [("hire", &hire); 5].into_iter().chain([("fire", &fire)]) {
        history.step(label, tx, &env).expect("step executes");
        let step = checker.check_assisted(&history, label, &registry);
        steps.push(step.expect("check evaluates"));
    }
    let all_ok = steps[..5].iter().all(|step| step.holds());
    let skipped = steps.iter().filter(|&&s| s == Assisted::Certified).count();
    let checked = steps.len() - skipped;
    let caught = steps[5] == Assisted::Checked(false);
    claims.push(Claim::new(
        "verified transactions skip the runtime check",
        "five certified steps validate with zero model checks; the \
         uncertified violating step still falls back and is caught",
        format!(
            "hires ok = {all_ok}, skipped = {skipped}, checked = {checked}, violation caught = {caught}"
        ),
        all_ok && skipped == 5 && checked == 1 && caught,
    ));

    Report {
        id: "E8",
        title: "Extensions — Section 5's future work, implemented",
        claims,
    }
}
