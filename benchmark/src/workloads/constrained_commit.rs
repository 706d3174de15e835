//! `constrained_commit` — embedded, one session, the paper's Section-4
//! constraints on every commit.
//!
//! The employee database carries every `empdb::session_constraints()`
//! constraint (Example 1's three static ones and Example 3's skill
//! retention) plus Example 4's never-rehire through the reactive
//! `FIRED` encoding. Pre-parsed commits from the paper's Section 4:
//! hire → obtain skills → allocate with headroom → fire cycles over
//! temporary staff, and new projects; 5 % are *illegal* (drop a skill,
//! over-allocate, rehire) and must be rejected naming the right
//! constraint.
//!
//! Why it exists: this is the paper's central feature and the slowest
//! thing in the repository — nearly all of a commit is
//! `CommitConstraint::check` under the head lock. Parse, wire and WAL
//! do nothing here, so a validation optimisation shows at full size and
//! a protocol optimisation shows nothing.
//!
//! The mix has no raise: under the reactive encoding a `modify` on
//! `EMP` reaches the `fired` pattern as a delete event, so a raise
//! would mark its employee as fired and the next commit touching `EMP`
//! would be refused. That is engine behaviour this benchmark works
//! around and does not judge.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use txlog::empdb::{self, constraints, transactions as tx};
use txlog::events::Automaton;
use txlog::prelude::{CommitConstraint, CommitError, Database, DbState, FTerm, Schema};

use super::{begin_measured, commit, emp, warmup_of, Shadow};
use crate::observe::{ConstraintStats, TimedConstraint};
use crate::rng::SplitMix64;
use crate::round::{Ctx, Round};

const EMPLOYEES: usize = 8;
/// Nine cycles of [`CYCLE`].
const COMMITS: usize = 180;

#[derive(Clone, Copy)]
enum Kind {
    Hire(usize),
    Fire(usize),
    Skill(usize),
    Allocate(usize),
    Project,
    Illegal,
}

/// The shape of the stream is fixed — two temporary employees are
/// hired, trained, allocated and fired per cycle, and the last op of a
/// cycle is illegal — and the seed only picks names, projects and
/// numbers. A commit's cost depends on which constraints its delta
/// touches and on how many skills and allocations exist, so a seeded
/// *mix* would give every seed its own cost; this gives every seed the
/// same one. 40 % obtain-skill, 20 % allocate, 15 % add-project, 10 %
/// hire, 10 % fire, 5 % illegal; every cycle ends with no temporary
/// staff, so the state does not drift.
const CYCLE: [Kind; 20] = {
    use Kind::{Allocate, Fire, Hire, Illegal, Project, Skill};
    [
        Hire(0),
        Skill(0),
        Project,
        Allocate(0),
        Skill(0),
        Hire(1),
        Skill(1),
        Allocate(1),
        Skill(0),
        Project,
        Skill(1),
        Allocate(0),
        Skill(1),
        Fire(0),
        Skill(1),
        Allocate(1),
        Project,
        Skill(1),
        Fire(1),
        Illegal,
    ]
};

/// A commit and the constraint that must refuse it, if any.
struct Step {
    text: String,
    program: FTerm,
    refused_by: Option<&'static str>,
}

struct Plan {
    schema: Schema,
    initial: DbState,
    steps: Vec<Step>,
    /// Employees and fired names the final state must hold.
    employed: usize,
    fired: usize,
}

fn plan(seed: u64, shrink: usize) -> Plan {
    let employees = (EMPLOYEES / shrink).max(4);
    let count = (COMMITS / shrink).max(40);
    let mut rng = SplitMix64::new(seed).fork(2);
    let (schema, initial) = emp::populate(employees, &mut rng);
    let sizes = empdb::Sizes::scaled(employees);
    // skills the permanent staff hold, from the raw rows
    let skill = schema.rel_id("SKILL").expect("SKILL exists");
    let held: Vec<(String, u64)> = initial
        .relation(skill)
        .expect("SKILL instance")
        .iter()
        .map(|t| {
            let who = t.fields()[0].as_symbol().expect("names are strings");
            (
                who.as_str().to_string(),
                t.fields()[1].as_nat().expect("numbers"),
            )
        })
        .collect();

    let mut temps: [Option<String>; 2] = [None, None];
    let mut fired: Vec<String> = Vec::new();
    let (mut hired, mut skills, mut added, mut illegal) = (0usize, 0u64, 0usize, 0usize);
    let mut steps = Vec::with_capacity(count);
    for i in 0..count {
        let proj = empdb::data::proj_name(rng.index(sizes.projects));
        let temp = |temps: &[Option<String>; 2], slot: usize| {
            temps[slot].clone().expect("the cycle hires before it uses")
        };
        let (text, program, refused_by) = match CYCLE[i % CYCLE.len()] {
            Kind::Hire(slot) => {
                hired += 1;
                let name = format!("temp-{hired}");
                let dept = empdb::data::dept_name(rng.index(sizes.depts));
                let (salary, age) = (300 + rng.below(600), 22 + rng.below(38));
                temps[slot] = Some(name.clone());
                (
                    format!("hire {name} {dept} {salary} {age} {proj}"),
                    tx::hire(&name, &dept, salary, age, "S", &proj, 40),
                    None,
                )
            }
            Kind::Fire(slot) => {
                let name = temps[slot].take().expect("the cycle hires before it fires");
                fired.push(name.clone());
                (format!("fire {name}"), tx::fire(&name), None)
            }
            Kind::Skill(slot) => {
                skills += 1;
                let (who, no) = (temp(&temps, slot), 1000 + skills);
                (
                    format!("obtain-skill {who} {no}"),
                    tx::obtain_skill(&who, no),
                    None,
                )
            }
            Kind::Allocate(slot) => {
                // with headroom: hired at 40 %, two more shares of at most 20
                let (who, share) = (temp(&temps, slot), 1 + rng.below(20));
                (
                    format!("allocate {who} {proj} {share}"),
                    tx::allocate(&who, &proj, share),
                    None,
                )
            }
            Kind::Project => {
                added += 1;
                let name = format!("new-proj-{added}");
                (
                    format!("add-project {name}"),
                    tx::add_project(&name, 100),
                    None,
                )
            }
            Kind::Illegal => {
                illegal += 1;
                match illegal % 3 {
                    0 if !held.is_empty() => {
                        let (who, no) = &held[rng.index(held.len())];
                        (
                            format!("drop-skill {who} {no}"),
                            tx::drop_skill(who, *no),
                            Some("skill-retention"),
                        )
                    }
                    1 => {
                        let who = &fired[rng.index(fired.len())];
                        (
                            format!("rehire {who} {proj}"),
                            tx::rehire(who, "dept-0", 500, 30, &proj, 40),
                            Some("never-rehire"),
                        )
                    }
                    _ => {
                        let who = empdb::data::emp_name(rng.index(employees));
                        (
                            format!("over-allocate {who} {proj}"),
                            tx::allocate(&who, &proj, 200),
                            Some("alloc-within-100"),
                        )
                    }
                }
            }
        };
        steps.push(Step {
            text,
            program,
            refused_by,
        });
    }
    Plan {
        schema,
        initial,
        steps,
        employed: employees + temps.iter().flatten().count(),
        fired: fired.len(),
    }
}

#[cfg(test)]
pub fn op_stream(seed: u64, shrink: usize) -> String {
    plan(seed, shrink)
        .steps
        .iter()
        .map(|s| format!("{} -> {:?}\n", s.text, s.refused_by))
        .collect()
}

/// The registered constraints: the paper's four session constraints,
/// then never-rehire over the event-maintained `FIRED`.
fn constraint_set() -> Vec<Box<dyn CommitConstraint>> {
    let mut all: Vec<Box<dyn CommitConstraint>> = constraints::session_constraints()
        .expect("session constraints build")
        .into_iter()
        .map(|c| Box::new(c) as Box<dyn CommitConstraint>)
        .collect();
    all.push(Box::new(
        constraints::ic4_fired_session().expect("never-rehire builds"),
    ));
    all
}

pub fn run(ctx: &Ctx) -> Round {
    let plan = plan(ctx.seed, ctx.shrink);
    let stats = Arc::new(ConstraintStats::default());
    let mut builder = Database::builder(plan.schema)
        .initial(plan.initial)
        .event_pattern(constraints::fired_pattern())
        .expect("fired pattern registers");
    for c in constraint_set() {
        builder = builder.constraint(if ctx.traced {
            Box::new(TimedConstraint::new(c, Arc::clone(&stats)))
        } else {
            c
        });
    }
    let db = builder.build().expect("database builds");
    let mut shadow = ctx.traced.then(|| Shadow {
        automata: vec![
            Automaton::compile(&constraints::fired_pattern().pattern, db.schema())
                .expect("fired pattern compiles"),
        ],
        adopt: true,
        ..Shadow::default()
    });
    let mut session = db.session();
    let mut round = Round::default();
    let mut unmeasured = Round::default();
    let warmup = warmup_of(plan.steps.len());
    let mut measured = None;
    for (i, step) in plan.steps.iter().enumerate() {
        if i == warmup {
            measured = Some(begin_measured(ctx, &mut round));
            stats.affected_calls.store(0, Relaxed);
            stats.skips.store(0, Relaxed);
        }
        let round = if i < warmup {
            &mut unmeasured
        } else {
            &mut round
        };
        let (result, ns) = commit(
            round,
            &mut session,
            "c",
            &step.program,
            i as u32,
            shadow.as_mut(),
        );
        let refused_by = step.refused_by.map(|name| {
            if ctx.sabotage {
                "no-such-constraint"
            } else {
                name
            }
        });
        let outcome = match (result, refused_by) {
            (Ok(_), None) => Ok(ns),
            (Err(CommitError::ConstraintViolation { constraint }), Some(name))
                if constraint == name =>
            {
                Ok(ns)
            }
            (Ok(_), Some(name)) => Err(format!("{}: accepted, {name} should refuse it", step.text)),
            (Err(e), want) => Err(format!("{}: {e} (expected {want:?})", step.text)),
        };
        round.record("commit", outcome);
    }
    let measured = measured.expect("the stream outlasts its warm-up");
    round.add("wall.commit", measured.wall());
    round.add("wall.op", measured.wall());
    measured.finish(&mut round, plan.steps.len() - warmup);
    round.fail_warmup(unmeasured);
    if ctx.traced {
        round.add(
            "t.constraint_affected_calls",
            stats.affected_calls.load(Relaxed) as f64,
        );
        round.add("t.constraint_skips", stats.skips.load(Relaxed) as f64);
    }

    // oracle, at the end: the state the model predicts, and every
    // constraint once more on it
    let state = db.snapshot();
    let rows = |rel: &str| {
        let id = db.schema().rel_id(rel).expect("relation exists");
        state.relation(id).map_or(0, |r| r.len())
    };
    let (employed, fired) = (rows("EMP"), rows("FIRED"));
    if (employed, fired) != (plan.employed, plan.fired) {
        round.fail(|| {
            format!(
                "final state employs {employed} and remembers {fired} fired; the model says {} and {}",
                plan.employed, plan.fired
            )
        });
    }
    for c in constraint_set() {
        match c.check(db.schema(), std::slice::from_ref(&*state), &[]) {
            Ok(true) => {}
            Ok(false) => round.fail(|| format!("{} does not hold on the final state", c.name())),
            Err(e) => round.fail(|| format!("{} on the final state: {e}", c.name())),
        }
    }
    round
}
