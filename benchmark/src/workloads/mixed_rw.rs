//! `mixed_rw` — one writer against one scanning reader, embedded, the
//! employee database at 300 employees.
//!
//! The writer commits two-tuple swaps on `EMP`: marry one single
//! employee `;;` annul one married one, so the number of married
//! employees never changes. The reader runs the `snapshot_read` scan as
//! `size(…) = K` in a loop until the writer finishes, and `K` must hold
//! on every read.
//!
//! Why it exists: the layers of `large_state_write` and `snapshot_read`
//! used against each other. Pinned snapshots force copies on the
//! writer, `snapshot()` and install share the head lock, and a state
//! representation that makes writes cheaper but scans dearer shows here
//! as `reads_per_s` falling while `commits_per_s` rises. The invariant
//! is a snapshot-consistency oracle on the real threaded build.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use txlog::prelude::{Database, DbState, FTerm, Schema};

use super::{begin_measured, commit, emp, judge_read, read, warmup_of, Shadow};
use crate::rng::SplitMix64;
use crate::round::{Ctx, Round};

const EMPLOYEES: usize = 300;
const SWAPS: usize = 4000;

struct Plan {
    schema: Schema,
    initial: DbState,
    married: usize,
    swaps: Vec<String>,
}

fn plan(seed: u64, shrink: usize) -> Plan {
    let employees = (EMPLOYEES / shrink).max(20);
    let count = (SWAPS / shrink).max(40);
    let mut rng = SplitMix64::new(seed).fork(5);
    let (schema, initial) = emp::populate(employees, &mut rng);
    let (mut married, mut single) = emp::marital_split(&schema, &initial);
    assert!(
        !married.is_empty() && !single.is_empty(),
        "population has both"
    );
    let set = |who: &str, status: &str| {
        format!(
            "foreach e: 5tup | e in EMP & e-name(e) = '{who}' do modify(e, m-status, '{status}') end"
        )
    };
    let swaps = (0..count)
        .map(|_| {
            let (s, m) = (rng.index(single.len()), rng.index(married.len()));
            let text = format!("{} ;; {}", set(&single[s], "M"), set(&married[m], "S"));
            std::mem::swap(&mut single[s], &mut married[m]);
            text
        })
        .collect();
    Plan {
        schema,
        initial,
        married: married.len(),
        swaps,
    }
}

#[cfg(test)]
pub fn op_stream(seed: u64, shrink: usize) -> String {
    plan(seed, shrink)
        .swaps
        .iter()
        .map(|s| s.clone() + "\n")
        .collect()
}

pub fn run(ctx: &Ctx) -> Round {
    let plan = plan(ctx.seed, ctx.shrink);
    let programs: Vec<FTerm> = plan.swaps.iter().map(|s| emp::program(s)).collect();
    let invariant = emp::married_query(plan.married + usize::from(ctx.sabotage));
    let scan = emp::formula(&invariant);
    let db = Database::builder(plan.schema)
        .initial(plan.initial)
        .build()
        .expect("database builds");
    let mut round = Round::default();
    let warmup = warmup_of(programs.len());
    let writer_done = AtomicBool::new(false);
    let start = Barrier::new(2);

    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut part = Round::default();
            let engine = db.engine().expect("engine builds");
            start.wait();
            let since = std::time::Instant::now();
            let mut i = 0u32;
            while !writer_done.load(Ordering::Acquire) {
                let (result, ns) = read(&db, &engine, &scan, 1_000_000 + i, ctx.traced);
                part.record("read", judge_read(result, true, ns, &invariant));
                i += 1;
            }
            part.add("wall.read", since.elapsed().as_secs_f64());
            part
        });
        let mut session = db.session();
        let mut shadow = ctx.traced.then(Shadow::default);
        for tx in &programs[..warmup] {
            session
                .commit("warm-up", tx, &txlog::prelude::Env::new())
                .expect("warm-up commits");
        }
        start.wait();
        let measured = begin_measured(ctx, &mut round);
        for (i, tx) in programs[warmup..].iter().enumerate() {
            let (result, ns) = commit(
                &mut round,
                &mut session,
                "swap",
                tx,
                i as u32,
                shadow.as_mut(),
            );
            round.record(
                "commit",
                result.map(|_| ns).map_err(|e| format!("swap {i}: {e}")),
            );
        }
        writer_done.store(true, Ordering::Release);
        round.add("wall.commit", measured.wall());
        round.add("wall.op", measured.wall());
        let part = reader.join().expect("reader thread");
        let reads = part.attempted as usize;
        round.absorb(part);
        measured.finish(&mut round, programs.len() - warmup + reads);
    });
    round
}
