//! `served_oltp` — the whole served path on small state.
//!
//! An in-process `Server` (two workers) fronts the employee database at
//! 100 employees, no constraints, WAL on. Two wire clients work
//! disjoint parts of it: an *HR desk* edits `EMP` (raise, birthday,
//! switch department, marry) and a *staffing desk* edits `SKILL`,
//! `PROJ` and `ALLOC` (obtain skill, delete own skills, add project,
//! allocate then deallocate). Each desk is 80 % `Client::execute` and
//! 20 % `Client::ask` over its own relations.
//!
//! Why it exists: state is small, so copying and validation cost next
//! to nothing and frame, proto, parse, session, forwarding and the log
//! wait carry the time — where prepared statements, one framing
//! routine or per-commit tracing overhead must show, or must not. The
//! desks' footprints are disjoint, so no commit can conflict
//! (`failed_ratio` is 0 by construction) while a commit that lands
//! between the other desk's re-pin and its install still takes the
//! moved-head forwarding path.

use std::sync::Barrier;
use std::time::Instant;

use txlog::empdb;
use txlog::prelude::{
    Client, ClientError, Database, DbState, Engine, Env, ErrorCode, RemoteCommit, Schema,
};

use super::{
    begin_measured, count_log, emp, ns_since, open_shipped, serve, warmup_of, Conn, Shadow,
    MAX_RESUBMITS,
};
use crate::rng::SplitMix64;
use crate::round::{Ctx, Round};

const EMPLOYEES: usize = 100;
/// Ops per desk per round.
const OPS: usize = 4000;

#[derive(Clone, Debug)]
enum Req {
    Execute {
        label: &'static str,
        program: String,
    },
    Ask {
        formula: String,
    },
}

/// One desk's op stream. Every `Ask` is true by construction.
fn desk(which: usize, ops: usize, employees: usize, rng: &mut SplitMix64) -> Vec<Req> {
    let sizes = empdb::Sizes::scaled(employees);
    let mut fresh = 0u64;
    (0..ops)
        .map(|_| {
            let who = empdb::data::emp_name(rng.index(employees));
            let write = rng.below(100) < 80;
            let kind = rng.below(4);
            let on_emp = |body: String| {
                format!("foreach e: 5tup | e in EMP & e-name(e) = '{who}' do {body} end")
            };
            match (which, write, kind) {
                (0, true, 0) => Req::Execute {
                    label: "raise",
                    program: on_emp(format!(
                        "modify(e, salary, salary(e) + {})",
                        1 + rng.below(9)
                    )),
                },
                (0, true, 1) => Req::Execute {
                    label: "birthday",
                    program: on_emp("modify(e, age, age(e) + 1)".to_string()),
                },
                (0, true, 2) => Req::Execute {
                    label: "switch-dept",
                    program: on_emp(format!(
                        "modify(e, e-dept, '{}')",
                        empdb::data::dept_name(rng.index(sizes.depts))
                    )),
                },
                (0, true, _) => Req::Execute {
                    label: "marry",
                    program: on_emp("modify(e, m-status, 'M')".to_string()),
                },
                (0, false, 0 | 1) => Req::Ask {
                    formula: emp::probe_query(rng.index(employees)),
                },
                (0, false, _) => Req::Ask {
                    formula: format!(
                        "size({{ e-name(e) | e: 5tup . e in EMP & e-dept(e) = '{}' }}) >= 0",
                        empdb::data::dept_name(rng.index(sizes.depts))
                    ),
                },
                (_, true, 0) => {
                    fresh += 1;
                    Req::Execute {
                        label: "obtain-skill",
                        program: format!("insert(tuple('{who}', {}), SKILL)", 1000 + fresh),
                    }
                }
                (_, true, 1) => Req::Execute {
                    label: "delete-own-skills",
                    program: format!(
                        "foreach k: 2tup | k in SKILL & s-emp(k) = '{who}' & s-no(k) >= 1000 \
                         do delete(k, SKILL) end"
                    ),
                },
                (_, true, 2) => {
                    fresh += 1;
                    Req::Execute {
                        label: "add-project",
                        program: format!("insert(tuple('new-proj-{fresh}', 100), PROJ)"),
                    }
                }
                (_, true, _) => Req::Execute {
                    label: "allocate-deallocate",
                    program: format!(
                        "insert(tuple('{who}', '{}', 0), ALLOC) ;; \
                         foreach a: 3tup | a in ALLOC & a-emp(a) = '{who}' & perc(a) = 0 \
                         do delete(a, ALLOC) end",
                        empdb::data::proj_name(rng.index(sizes.projects))
                    ),
                },
                (_, false, 0 | 1) => Req::Ask {
                    formula: format!(
                        "size({{ s-no(k) | k: 2tup . k in SKILL & s-emp(k) = '{who}' }}) >= 0"
                    ),
                },
                (_, false, _) => Req::Ask {
                    formula: format!(
                        "exists p: 2tup . p in PROJ & p-name(p) = '{}'",
                        empdb::data::proj_name(rng.index(sizes.projects))
                    ),
                },
            }
        })
        .collect()
}

struct Plan {
    schema: Schema,
    initial: DbState,
    desks: [Vec<Req>; 2],
}

fn plan(seed: u64, shrink: usize) -> Plan {
    let employees = (EMPLOYEES / shrink).max(10);
    let ops = (OPS / shrink).max(40);
    let mut rng = SplitMix64::new(seed).fork(1);
    let (schema, initial) = emp::populate(employees, &mut rng);
    let desks = [0, 1].map(|d| desk(d, ops, employees, &mut rng.fork(10 + d as u64)));
    Plan {
        schema,
        initial,
        desks,
    }
}

#[cfg(test)]
pub fn op_stream(seed: u64, shrink: usize) -> String {
    plan(seed, shrink)
        .desks
        .iter()
        .enumerate()
        .flat_map(|(d, reqs)| reqs.iter().map(move |r| format!("{d} {r:?}\n")))
        .collect()
}

/// `Client::execute`, resubmitting (as an application would) when the
/// engine reports `RetriesExhausted`.
fn execute(
    client: &mut Client,
    label: &str,
    program: &str,
    round: &mut Round,
) -> Result<RemoteCommit, ClientError> {
    let mut resubmits = 0;
    loop {
        match client.execute(label, program) {
            Err(ClientError::Server(e))
                if e.code == ErrorCode::RetriesExhausted && resubmits < MAX_RESUBMITS =>
            {
                resubmits += 1;
                round.add("resubmits", 1.0);
            }
            other => return other,
        }
    }
}

fn note_commit(round: &mut Round, forwarded: bool, retries: u32) {
    round.add("forwarded", f64::from(u8::from(forwarded)));
    round.add("retries", f64::from(retries));
}

/// One desk over a real connection. Returns its measurements and how
/// many of its commits were acknowledged (warm-up included).
fn desk_over_the_wire(addr: std::net::SocketAddr, reqs: &[Req], start: &Barrier) -> (Round, u64) {
    let mut round = Round::default();
    let mut acked = 0;
    let mut client = Client::connect(addr, "desk").expect("desk connects");
    let warmup = warmup_of(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        if i == warmup {
            start.wait();
        }
        let timed = i >= warmup;
        let t = Instant::now();
        let (class, outcome) = match req {
            Req::Execute { label, program } => {
                let outcome = execute(&mut client, label, program, &mut round).map(|c| {
                    acked += 1;
                    if timed {
                        note_commit(&mut round, c.forwarded, c.retries);
                    }
                });
                ("commit", outcome.map_err(|e| format!("{label}: {e}")))
            }
            Req::Ask { formula } => (
                "read",
                match client.ask(formula) {
                    Ok(true) => Ok(()),
                    Ok(false) => Err(format!("{formula}: answered false")),
                    Err(e) => Err(format!("{formula}: {e}")),
                },
            ),
        };
        let ns = ns_since(t);
        if timed {
            round.record(class, outcome.map(|()| ns));
        } else if let Err(e) = outcome {
            round.fail(|| format!("warm-up: {e}"));
        }
    }
    (round, acked)
}

/// One desk through the decomposed calls, in-process.
fn desk_decomposed(db: &Database, which: u32, reqs: &[Req], start: &Barrier) -> (Round, u64) {
    let mut round = Round::default();
    // warm-up takes the same path; its spans predate the measured
    // phase and its counts go nowhere
    let mut unmeasured = Round::default();
    let mut acked = 0;
    let mut conn = Conn::open(db);
    let mut shadow = Shadow::default();
    let warmup = warmup_of(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        if i == warmup {
            start.wait();
        }
        let round = if i < warmup {
            &mut unmeasured
        } else {
            &mut round
        };
        let op = which * 1_000_000 + i as u32;
        match req {
            Req::Execute { label, program } => {
                let (result, ns) = conn.execute(round, label, program, op, &mut shadow);
                acked += u64::from(result.is_ok());
                round.record(
                    "commit",
                    result.map(|_| ns).map_err(|e| format!("{label}: {e}")),
                );
            }
            Req::Ask { formula } => {
                let (result, ns) = conn.ask(round, formula, op);
                let outcome = match result {
                    Ok(true) => Ok(ns),
                    Ok(false) => Err(format!("{formula}: answered false")),
                    Err(e) => Err(format!("{formula}: {e}")),
                };
                round.record("read", outcome);
            }
        }
    }
    round.fail_warmup(unmeasured);
    (round, acked)
}

/// Both desks' programs applied one after the other, single-threaded,
/// to the initial state. The desks touch disjoint relations, so they
/// commute and any interleaving the server chose must equal this.
fn replay(plan: &Plan) -> DbState {
    let engine = Engine::builder(&plan.schema)
        .build()
        .expect("engine builds");
    let mut state = plan.initial.clone();
    for req in plan.desks.iter().flatten() {
        if let Req::Execute { program, .. } = req {
            state = engine
                .execute(&state, &emp::program(program), &Env::new())
                .expect("replay executes");
        }
    }
    state
}

pub fn run(ctx: &Ctx) -> Round {
    let plan = plan(ctx.seed, ctx.shrink);
    let shipped = open_shipped(
        ctx,
        Database::builder(plan.schema.clone()).initial(plan.initial.clone()),
    );
    let server = (!ctx.traced).then(|| serve(&shipped.db));
    // the two desks and this thread, which times the measured phase
    let start = Barrier::new(3);

    let mut round = Round::default();
    let mut acked = 0;
    let measured_ops: usize = plan
        .desks
        .iter()
        .map(|d| d.len() - warmup_of(d.len()))
        .sum();
    std::thread::scope(|s| {
        let desks: Vec<_> = plan
            .desks
            .iter()
            .enumerate()
            .map(|(which, reqs)| {
                let (db, start) = (&shipped.db, &start);
                let addr = server.as_ref().map(|srv| srv.local_addr());
                s.spawn(move || match addr {
                    Some(addr) => desk_over_the_wire(addr, reqs, start),
                    None => desk_decomposed(db, which as u32, reqs, start),
                })
            })
            .collect();
        start.wait();
        let measured = begin_measured(ctx, &mut round);
        for desk in desks {
            let (part, desk_acked) = desk.join().expect("desk thread");
            round.absorb(part);
            acked += desk_acked;
        }
        let wall = measured.wall();
        for key in ["wall.op", "wall.commit", "wall.read"] {
            round.add(key, wall);
        }
        measured.finish(&mut round, measured_ops);
    });
    if let Some(server) = server {
        server.shutdown();
        server.join();
    }

    // oracle: every acknowledged commit is a version, and the state is
    // the one a sequential replay of both streams produces
    let head = shipped.db.head_version() + u64::from(ctx.sabotage);
    if head != acked {
        round.fail(|| format!("head version {head} after {acked} acknowledged commits"));
    }
    if !shipped.db.snapshot().value_eq(&replay(&plan)) {
        round.fail(|| "final state differs from the sequential replay of both desks".to_string());
    }
    let db = std::sync::Arc::into_inner(shipped.db).expect("server released the database");
    drop(db); // joins the log writer: every byte has reached the store
    count_log(&mut round, &shipped.log, acked, ctx.traced);
    round
}
