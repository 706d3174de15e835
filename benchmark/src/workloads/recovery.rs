//! `recovery` — restart from only the bytes that were flushed.
//!
//! Set-up builds a log once: a preloaded `KV` relation, then commits of
//! the `large_state_write` mix through the shipped WAL configuration
//! (`checkpoint_every: 1024`), eight in flight at a time so the group
//! committer batches them. The harness's store wrapper remembers how
//! long the log was at each successful `sync`, and the generator's
//! model digest is recorded at every version. Then, repeatedly: copy
//! the file, cut it to the last *synced* length, reopen, time it.
//!
//! Why it exists: restart time with realistic state (checkpoint decode
//! plus delta replay), write amplification including checkpoints, and
//! the durability contract checked end to end — the recovered version
//! is at least the last acknowledged one and the recovered rows digest
//! to what the model held at that version.

use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

use txlog::engine::db::CommitTicket;
use txlog::prelude::{Database, Env, FTerm, Metrics};
use txlog::relational::codec;

use super::{begin_measured, commit, count_log, kv, ns_since, open_shipped, Shadow, SHIPPED_WAL};
use crate::observe::copy_synced_prefix;
use crate::rng::SplitMix64;
use crate::round::{Ctx, Round};
use crate::spans;

const ROWS: usize = 2000;
/// One cadence checkpoint at 1024, then 256 deltas to replay.
const COMMITS: usize = 1280;
const REOPENS: usize = 34;
/// Commits submitted before their tickets are awaited.
const IN_FLIGHT: usize = 8;

fn generate(seed: u64, shrink: usize) -> (usize, Vec<kv::Op>, Vec<(usize, u64)>) {
    let rows = (ROWS / shrink).max(100);
    // at any scale the log crosses one checkpoint less often than it
    // commits, so small runs still replay deltas
    let commits = (COMMITS / shrink).max(30);
    let mut gen = kv::Gen::new(rows, SplitMix64::new(seed).fork(7));
    let mut expect = vec![gen.expect()];
    let ops = (0..commits)
        .map(|_| {
            let op = gen.next_op();
            expect.push(gen.expect());
            op
        })
        .collect();
    (rows, ops, expect)
}

#[cfg(test)]
pub fn op_stream(seed: u64, shrink: usize) -> String {
    generate(seed, shrink)
        .1
        .iter()
        .map(|op| op.text() + "\n")
        .collect()
}

pub fn run(ctx: &Ctx) -> Round {
    let mut round = Round::default();
    let (rows, ops, expect) = generate(ctx.seed, ctx.shrink);
    let programs: Vec<FTerm> = ops.iter().map(|op| op.parse()).collect();
    let schema = kv::schema();

    // ---- set-up: build the log ----
    let shipped = open_shipped(
        ctx,
        Database::builder(schema.clone()).initial(kv::preload(&schema, rows)),
    );
    let mut acked = 0u64;
    {
        let mut session = shipped.db.session();
        if ctx.traced {
            // the decomposed commit, one at a time: what the store and
            // the codec cost per commit
            spans::measure_from_now();
            let mut shadow = Shadow::default();
            for (i, tx) in programs.iter().enumerate() {
                let (result, _) = commit(
                    &mut round,
                    &mut session,
                    "w",
                    tx,
                    i as u32,
                    Some(&mut shadow),
                );
                match result {
                    Ok(_) => acked += 1,
                    Err(e) => round.fail(|| format!("log build, commit {i}: {e}")),
                }
            }
        } else {
            let env = Env::new();
            for batch in programs.chunks(IN_FLIGHT) {
                let mut tickets: Vec<CommitTicket> = Vec::with_capacity(batch.len());
                for tx in batch {
                    let submitted = session
                        .prepare(tx, &env)
                        .map_err(Into::into)
                        .and_then(|p| session.submit_prepared("w", &p));
                    match submitted {
                        Ok((_, ticket)) => tickets.push(ticket),
                        Err(e) => round.fail(|| format!("log build: {e}")),
                    }
                }
                for ticket in tickets {
                    match ticket.wait() {
                        Ok(()) => acked += 1,
                        Err(e) => round.fail(|| format!("log build, ack: {e}")),
                    }
                }
            }
        }
    }
    let db = std::sync::Arc::into_inner(shipped.db).expect("sole owner");
    drop(db); // joins the log writer
    count_log(&mut round, &shipped.log, acked, ctx.traced);
    let synced_len = shipped.log.synced_len.load(Relaxed);

    // ---- measured: reopen from the synced prefix ----
    let reopens = (REOPENS / ctx.shrink).max(3);
    let (log, image) = (ctx.dir.join("wal.log"), ctx.dir.join("image.log"));
    let mut measured = None;
    for i in 0..=reopens {
        // the first reopen is the warm-up
        if i == 1 {
            measured = Some(begin_measured(ctx, &mut round));
        }
        if let Err(e) = copy_synced_prefix(&log, &image, synced_len) {
            round.fail(|| format!("copying the log: {e}"));
            break;
        }
        let traced = ctx.traced && i > 0;
        let t = Instant::now();
        let opened = {
            let _root = traced.then(|| spans::op("op.recover", i as u32));
            let _span = traced.then(|| spans::span("wal.recover"));
            // what a restarted `txlog-serve --wal` does
            Database::builder(schema.clone())
                .metrics(Metrics::enabled())
                .durability(SHIPPED_WAL)
                .open_path(&image)
        };
        let ns = ns_since(t);
        let outcome = opened.map_err(|e| e.to_string()).and_then(|(db, report)| {
            let state = db.snapshot();
            if traced {
                round.add("t.replayed", report.replayed_deltas as f64);
                let bytes = codec::encode_db_state(&state);
                round.add("t.state_bytes", bytes.len() as f64);
                let _span = spans::beside("relational.state_decode", i as u32);
                codec::decode_db_state(&bytes).map_err(|e| e.to_string())?;
            }
            let version = report.version;
            if version < acked {
                return Err(format!(
                    "recovered version {version}, {acked} commits were acknowledged"
                ));
            }
            let want = expect
                .get(version as usize)
                .ok_or_else(|| format!("recovered version {version} was never committed"))?;
            let want = (want.0, want.1 ^ u64::from(ctx.sabotage));
            let got = kv::observe(&schema, &state)?;
            if got != want {
                return Err(format!(
                    "recovered (rows, digest) {got:?} at version {version}, the model held {want:?}"
                ));
            }
            Ok(ns)
        });
        if i > 0 {
            round.record("recover", outcome);
        } else if let Err(e) = outcome {
            round.fail(|| format!("warm-up reopen: {e}"));
        }
    }
    if let Some(measured) = measured {
        round.add("wall.op", measured.wall());
    }
    round
}
