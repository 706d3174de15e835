//! E3 — Example 3: transaction constraints and their windows.
//!
//! Paper claims:
//!
//! 1. *skill retention* is a transaction constraint, checkable with two
//!    states because `⊆` is transitive; deleting a skill while employed
//!    violates it, but deleting skills together with the employee is
//!    legal ("we do want to delete the skill tuples … when we delete the
//!    employee himself");
//! 2. *salary decrease requires a department switch* constrains
//!    intermediate transitions too and is checkable with three states;
//! 3. replacing `<` by `≠` ("salary never the same as before") makes the
//!    constraint checkable only with a complete history;
//! 4. Structural Model: the *reference connection* (departments with
//!    employees are not deleted) is checkable with two states; the
//!    *association connection* (allocations die with their project) is
//!    dynamically equivalent to Example 1's static referential
//!    constraint.

use crate::{Claim, Report};
use txlog::constraints::{checkability, find_window_unsoundness, Checker, History, Window};
use txlog::empdb::constraints::{
    ic1_alloc_references_project, ic3_assoc_connection, ic3_dept_reference_connection,
    ic3_never_same_hints, ic3_salary_hints, ic3_salary_needs_dept_switch, ic3_salary_never_same,
    ic3_skill_hints, ic3_skill_retention,
};
use txlog::empdb::transactions::{
    cut_salary, delete_dept, demote, drop_skill, fire, hire, obtain_skill, raise_salary,
    switch_dept,
};
use txlog::empdb::{employee_schema, populate, Sizes};
use txlog::engine::Env;

/// Run E3.
pub fn run() -> Report {
    let windowed =
        |name: &str, ic, k| Checker::new(name, ic, Window::States(k)).expect("window ok");
    let mut claims = Vec::new();
    let schema = employee_schema();
    let env = Env::new();

    // --- checkability analysis matches the paper ---
    let w = checkability(&ic3_skill_retention(), ic3_skill_hints());
    claims.push(Claim::new(
        "skill retention: window",
        "two states (⊆ is transitive)",
        format!("{w:?}"),
        w == Window::States(2),
    ));
    let w = checkability(&ic3_salary_needs_dept_switch(), ic3_salary_hints());
    claims.push(Claim::new(
        "salary/department: window",
        "three states (constrains intermediate transitions; < transitive)",
        format!("{w:?}"),
        w == Window::States(3),
    ));
    let w = checkability(&ic3_salary_never_same(), ic3_never_same_hints());
    claims.push(Claim::new(
        "salary ≠ variant: window",
        "complete history only",
        format!("{w:?}"),
        w == Window::Complete,
    ));

    // --- skill retention, semantically ---
    let (_, db0) = populate(Sizes::small(), 21).expect("population generates");
    let mut h = History::new(schema.clone(), db0.clone());
    h.step(
        "hire-ann",
        &hire("ann", "dept-0", 500, 30, "S", "proj-0", 100),
        &env,
    )
    .expect("hire executes");
    h.step("learn-7", &obtain_skill("ann", 7), &env)
        .expect("skill executes");
    // the raise goes to emp-0, a *permanent* change: firing ann later must
    // not return the database to its initial contents, or state
    // deduplication would close a cycle amounting to an accidental rehire
    // (the paper's window-2 argument assumes employees are never rehired)
    h.step("raise", &raise_salary("emp-0", 50), &env)
        .expect("raise executes");
    let checker = windowed("skill-retention", ic3_skill_retention(), 2);
    let legal = checker.replay(&h).expect("replay evaluates");
    claims.push(Claim::new(
        "skill retention: legal history",
        "obtaining skills and unrelated updates preserve the constraint",
        format!(
            "all steps ok = {}",
            legal.per_step.iter().all(|&b| b) && legal.global
        ),
        legal.per_step.iter().all(|&b| b) && legal.global,
    ));

    let mut bad = h.clone();
    bad.step("drop-skill", &drop_skill("ann", 7), &env)
        .expect("drop executes");
    let dropped = checker.replay(&bad).expect("replay evaluates");
    claims.push(Claim::new(
        "skill retention: dropping a skill while employed",
        "violates the constraint, caught with window 2",
        format!("caught = {}", !dropped.per_step[dropped.per_step.len() - 1]),
        !dropped.per_step[dropped.per_step.len() - 1],
    ));

    let mut fired = h.clone();
    fired
        .step("fire-ann", &fire("ann"), &env)
        .expect("fire executes");
    let fired_out = checker.replay(&fired).expect("replay evaluates");
    claims.push(Claim::new(
        "skill retention: firing deletes skills with the employee",
        "legal — the constraint must not forbid deleting skills of a \
         deleted employee",
        format!(
            "all steps ok = {}",
            fired_out.per_step.iter().all(|&b| b) && fired_out.global
        ),
        fired_out.per_step.iter().all(|&b| b) && fired_out.global,
    ));

    // --- salary/department: window 2 provably unsound, window 3 sound here ---
    // each adjacent step is legal, but the composition decreases salary
    // with an unchanged department:
    //   s0 (dept-0, 500) --demote→ s1 (dept-1, 400) --raise+switch-back→
    //   s2 (dept-0, 450)
    let (_, db0) = populate(Sizes::small(), 22).expect("population generates");
    let mut h = History::new(schema.clone(), db0);
    h.step(
        "hire-bob",
        &hire("bob", "dept-0", 500, 40, "M", "proj-0", 100),
        &env,
    )
    .expect("hire executes");
    h.step("demote", &demote("bob", 100, "dept-1"), &env)
        .expect("demote executes");
    h.step(
        "raise-and-return",
        &raise_salary("bob", 50).seq(switch_dept("bob", "dept-0")),
        &env,
    )
    .expect("raise executes");
    let gap = find_window_unsoundness(&ic3_salary_needs_dept_switch(), 2, &h)
        .expect("analysis evaluates");
    claims.push(Claim::new(
        "salary/department: window 2 is too small",
        "a two-state window misses the composed decrease; three states \
         are needed",
        format!("unsoundness witness found = {}", gap.is_some()),
        gap.is_some(),
    ));
    let checker3 = windowed("salary-dept", ic3_salary_needs_dept_switch(), 3);
    let out3 = checker3.replay(&h).expect("replay evaluates");
    claims.push(Claim::new(
        "salary/department: window 3 catches it",
        "the three-state window sees the composed transition",
        format!("caught = {}", out3.per_step.iter().any(|&b| !b)),
        out3.per_step.iter().any(|&b| !b),
    ));
    // a legal decrease: cut with a department switch in the same step
    let (_, db0) = populate(Sizes::small(), 23).expect("population generates");
    let mut legal_h = History::new(schema.clone(), db0);
    legal_h
        .step(
            "hire-cy",
            &hire("cy", "dept-0", 500, 40, "M", "proj-0", 100),
            &env,
        )
        .expect("hire executes");
    legal_h
        .step("demote", &demote("cy", 100, "dept-1"), &env)
        .expect("demote executes");
    let legal3 = checker3.replay(&legal_h).expect("replay evaluates");
    claims.push(Claim::new(
        "salary/department: demotion with switch is legal",
        "decreasing salary while switching departments satisfies the \
         constraint",
        format!(
            "all steps ok = {}",
            legal3.per_step.iter().all(|&b| b) && legal3.global
        ),
        legal3.per_step.iter().all(|&b| b) && legal3.global,
    ));

    // --- ≠ variant: every bounded window is unsound; complete history works ---
    // (taken literally, "salary never the same as before" is violated by
    // any employee whose salary merely *stays put* across a transition,
    // so this history contains exactly the one employee it is about)
    let db0 = schema.initial_state();
    let mut h = History::new(schema.clone(), db0);
    h.step(
        "hire-di",
        &hire("di", "dept-0", 500, 40, "M", "proj-0", 100),
        &env,
    )
    .expect("hire executes");
    h.step("up-1", &raise_salary("di", 100), &env)
        .expect("raise executes");
    h.step("up-2", &raise_salary("di", 100), &env)
        .expect("raise executes");
    h.step("down", &cut_salary("di", 200), &env)
        .expect("cut executes");
    let w2 = find_window_unsoundness(&ic3_salary_never_same(), 2, &h).expect("analysis evaluates");
    let w3 = find_window_unsoundness(&ic3_salary_never_same(), 3, &h).expect("analysis evaluates");
    let complete = Checker::new("never-same", ic3_salary_never_same(), Window::Complete)
        .expect("window ok")
        .replay(&h)
        .expect("replay evaluates");
    claims.push(Claim::new(
        "salary ≠ variant: bounded windows miss the cycle",
        "windows 2 and 3 pass every step while the full history violates; \
         only the complete history catches the value returning",
        format!(
            "window2 unsound = {}, window3 unsound = {}, complete catches = {}",
            w2.is_some(),
            w3.is_some(),
            complete.per_step.iter().any(|&b| !b) && !complete.global
        ),
        w2.is_some() && w3.is_some() && complete.per_step.iter().any(|&b| !b),
    ));

    // --- Structural Model connections ---
    // reference connection: deleting a department that still has
    // employees violates; deleting an empty one is fine
    let (_, db0) = populate(Sizes::small(), 25).expect("population generates");
    let mut h = History::new(schema.clone(), db0);
    h.step(
        "hire-ed",
        &hire("ed", "dept-0", 500, 40, "M", "proj-0", 100),
        &env,
    )
    .expect("hire executes");
    h.step("del-dept", &delete_dept("dept-0"), &env)
        .expect("delete executes");
    let ref_checker = windowed("dept-ref", ic3_dept_reference_connection(), 2);
    let out = ref_checker.replay(&h).expect("replay evaluates");
    claims.push(Claim::new(
        "reference connection: deleting a populated department",
        "violates the constraint, caught with two states",
        format!("caught = {}", out.per_step.iter().any(|&b| !b)),
        out.per_step.iter().any(|&b| !b),
    ));

    // association connection ≡ static referential constraint: any history
    // where the project dies but allocations survive violates *both* the
    // association connection and Example 1's static constraint.
    let (_, db0) = populate(Sizes::small(), 26).expect("population generates");
    let mut h = History::new(schema, db0);
    h.step(
        "hire-fi",
        &hire("fi", "dept-0", 500, 40, "M", "proj-1", 100),
        &env,
    )
    .expect("hire executes");
    // delete proj-1 *without* cascading the allocations
    let kill_proj = txlog::logic::parse_fterm(
        "foreach q: 2tup | q in PROJ & p-name(q) = 'proj-1' do delete(q, PROJ) end",
        &txlog::empdb::parse_ctx(),
        &[],
    )
    .expect("transaction parses");
    h.step("kill-proj-1", &kill_proj, &env)
        .expect("delete executes");
    let assoc = windowed("assoc", ic3_assoc_connection(), 2)
        .replay(&h)
        .expect("replay evaluates");
    let static_ref = windowed("alloc-ref", ic1_alloc_references_project(), 1)
        .replay(&h)
        .expect("replay evaluates");
    let both_catch = assoc.per_step.iter().any(|&b| !b) && static_ref.per_step.iter().any(|&b| !b);
    claims.push(Claim::new(
        "association connection ≡ static referential constraint",
        "dangling allocations violate both formulations (the dynamic form \
         is subsumed by Example 1's static constraint)",
        format!(
            "association caught = {}, static caught = {}",
            assoc.per_step.iter().any(|&b| !b),
            static_ref.per_step.iter().any(|&b| !b)
        ),
        both_catch,
    ));

    Report {
        id: "E3",
        title: "Example 3 — transaction constraints and history windows",
        claims,
    }
}
