//! `large_state_write` — embedded, one session, no constraints, no WAL:
//! single-row commits against one 20 000-row relation.
//!
//! Why it exists: it isolates install / copy-on-write cost. `DbState`
//! is copy-on-write at whole-relation granularity and the head always
//! pins the previous state, so every commit deep-copies the relation
//! and its column index. A persistent map should move this workload by
//! an order of magnitude and `served_oltp` hardly at all.

use txlog::prelude::{Database, FTerm};

use super::{begin_measured, commit, kv, warmup_of, Shadow};
use crate::rng::SplitMix64;
use crate::round::{Ctx, Round};

const ROWS: usize = 20_000;
const COMMITS: usize = 600;

fn generate(seed: u64, shrink: usize) -> (usize, kv::Gen, Vec<kv::Op>) {
    let rows = (ROWS / shrink).max(100);
    let commits = (COMMITS / shrink).max(20);
    let mut gen = kv::Gen::new(rows, SplitMix64::new(seed).fork(3));
    let ops = (0..commits).map(|_| gen.next_op()).collect();
    (rows, gen, ops)
}

#[cfg(test)]
pub fn op_stream(seed: u64, shrink: usize) -> String {
    let (_, _, ops) = generate(seed, shrink);
    ops.iter().map(|op| op.text() + "\n").collect()
}

pub fn run(ctx: &Ctx) -> Round {
    let mut round = Round::default();
    let (rows, gen, ops) = generate(ctx.seed, ctx.shrink);
    let programs: Vec<FTerm> = ops.iter().map(|op| op.parse()).collect();
    let schema = kv::schema();
    let db = Database::builder(schema.clone())
        .initial(kv::preload(&schema, rows))
        .build()
        .expect("database builds");
    let mut session = db.session();
    let mut shadow = ctx.traced.then(Shadow::default);

    let warmup = warmup_of(programs.len());
    for tx in &programs[..warmup] {
        session
            .commit("warm-up", tx, &txlog::prelude::Env::new())
            .expect("warm-up commits");
    }
    let measured = begin_measured(ctx, &mut round);
    for (i, tx) in programs[warmup..].iter().enumerate() {
        let (result, ns) = commit(&mut round, &mut session, "w", tx, i as u32, shadow.as_mut());
        round.record(
            "commit",
            result.map(|_| ns).map_err(|e| format!("commit {i}: {e}")),
        );
    }
    let wall = measured.wall();
    round.add("wall.op", wall);
    round.add("wall.commit", wall);
    measured.finish(&mut round, programs.len() - warmup);

    // oracle: the database holds exactly the generator's model
    let (want_rows, want_digest) = gen.expect();
    let want = (want_rows, want_digest ^ u64::from(ctx.sabotage));
    match kv::observe(&schema, &db.snapshot()) {
        Ok(got) if got == want => {}
        Ok(got) => round.fail(|| format!("final (rows, digest) {got:?}, model says {want:?}")),
        Err(e) => round.fail(|| e),
    }
    round
}
