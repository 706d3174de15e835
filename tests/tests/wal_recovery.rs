//! Crash-recovery matrix for the write-ahead log.
//!
//! One fixed, deterministic workload of `K` commits is logged into an
//! in-memory [`MemStore`], and a *sequential-replay oracle* records the
//! encoded bytes of every prefix state (version 0 through `K`). The
//! durability contract under test:
//!
//! > For **every** way the log can be cut short — truncation at any
//! > byte offset, a flipped byte anywhere, or a write that dies mid
//! > record — `Database` recovery returns a state *byte-identical* to
//! > some commit-order prefix of the original history, at the matching
//! > version, with constraints still satisfied.
//!
//! No sampling: the truncation and corruption sweeps cover every byte
//! offset of the log, and the live-crash sweep kills the store at every
//! offset a commit tries to write past.

use txlog::engine::{CommitError, Database, Durability, Env, MemStore, RecoveryReport, WalError};
use txlog::logic::{parse_fterm, FTerm, ParseCtx};
use txlog::prelude::{Counter, Metrics};
use txlog::relational::codec::encode_db_state;
use txlog::relational::Schema;

fn schema() -> Schema {
    Schema::new()
        .relation("STAFF", &["s-name", "pay"])
        .expect("schema builds")
        .relation("NOTES", &["note"])
        .expect("schema builds")
}

fn ctx() -> ParseCtx {
    ParseCtx::with_relations(&["STAFF", "NOTES"])
}

/// The fixed workload: inserts, a modify sweep, a delete, and a
/// disjoint-relation note — every delta shape the log records.
fn workload() -> Vec<(String, FTerm)> {
    let ctx = ctx();
    let parse = |s: &str| parse_fterm(s, &ctx, &[]).expect("transaction parses");
    let mut txs = Vec::new();
    for (i, (name, pay)) in [("ann", 500u64), ("bob", 400), ("cal", 300)]
        .iter()
        .enumerate()
    {
        txs.push((
            format!("hire-{i}"),
            parse(&format!("insert(tuple('{name}', {pay}), STAFF)")),
        ));
    }
    txs.push((
        "raise-all".into(),
        parse("foreach e: 2tup | e in STAFF do modify(e, pay, pay(e) + 10) end"),
    ));
    txs.push((
        "fire-bob".into(),
        parse("foreach e: 2tup | e in STAFF & s-name(e) = 'bob' do delete(e, STAFF) end"),
    ));
    txs.push(("note".into(), parse("insert(tuple('memo'), NOTES)")));
    for i in 0..2 {
        txs.push((
            format!("temp-{i}"),
            parse(&format!("insert(tuple('temp-{i}', {i}), STAFF)")),
        ));
    }
    txs
}

/// Run the workload through a WAL-backed database, returning the log
/// bytes and the oracle: `encode_db_state` of every prefix state, so
/// `oracle[v]` is the byte-exact head at version `v`.
fn logged_run(durability: Durability) -> (Vec<u8>, Vec<Vec<u8>>) {
    logged_run_with(durability, None)
}

/// [`logged_run`], reporting into `metrics` when one is given.
fn logged_run_with(durability: Durability, metrics: Option<Metrics>) -> (Vec<u8>, Vec<Vec<u8>>) {
    let store = MemStore::default();
    let mut builder = Database::builder(schema()).durability(durability);
    if let Some(metrics) = metrics {
        builder = builder.metrics(metrics);
    }
    let (db, report) = builder
        .open_store(Box::new(store.clone()))
        .expect("fresh log opens");
    assert!(report.fresh, "empty store must initialise fresh");
    let env = Env::new();
    let mut oracle = vec![encode_db_state(&db.snapshot())];
    let mut session = db.session();
    for (label, tx) in workload() {
        session.commit(&label, &tx, &env).expect("commit succeeds");
        oracle.push(encode_db_state(&db.snapshot()));
    }
    drop(session);
    drop(db);
    (store.contents(), oracle)
}

/// Recover a database from raw log bytes without attaching a new WAL.
fn recover(bytes: Vec<u8>) -> Result<(Database, RecoveryReport), WalError> {
    Database::builder(schema()).open_store(Box::new(MemStore::from_bytes(bytes)))
}

/// Assert the recovered database is byte-identical to the oracle prefix
/// at its reported version.
fn assert_is_prefix(db: &Database, report: &RecoveryReport, oracle: &[Vec<u8>], what: &str) {
    let v = report.version as usize;
    assert!(v < oracle.len(), "{what}: version {v} beyond history");
    assert_eq!(
        db.head_version(),
        report.version,
        "{what}: head version agrees"
    );
    assert!(
        encode_db_state(&db.snapshot()) == oracle[v],
        "{what}: recovered state is not the version-{v} prefix"
    );
}

/// Baseline: recovering the intact log lands on the final commit.
#[test]
fn intact_log_recovers_the_full_history() {
    let (bytes, oracle) = logged_run(Durability::wal());
    let (db, report) = recover(bytes).expect("intact log recovers");
    assert_eq!(report.version as usize, oracle.len() - 1);
    assert_eq!(report.truncated_records, 0, "nothing to truncate");
    assert_is_prefix(&db, &report, &oracle, "intact");
}

/// The tentpole matrix: truncate the log at EVERY byte offset. Recovery
/// must always succeed and always land on a commit-order prefix.
#[test]
fn truncation_at_every_byte_offset_recovers_a_prefix() {
    let (bytes, oracle) = logged_run(Durability::wal());
    let mut seen_versions = std::collections::BTreeSet::new();
    for cut in 0..=bytes.len() {
        let (db, report) = recover(bytes[..cut].to_vec())
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert_is_prefix(&db, &report, &oracle, &format!("cut at {cut}"));
        seen_versions.insert(report.version);
    }
    // the sweep actually exercised partial histories, not just 0 and K
    assert!(seen_versions.len() > 2, "sweep covered multiple prefixes");
    assert_eq!(
        *seen_versions.iter().max().expect("nonempty") as usize,
        oracle.len() - 1,
        "the full-length cut recovers everything"
    );
}

/// Corruption matrix: flip one byte at EVERY offset. The CRC (or the
/// framing checks) must stop the scan at the corrupted record, so
/// recovery still lands on a commit-order prefix.
#[test]
fn corruption_at_every_byte_offset_recovers_a_prefix() {
    let (bytes, oracle) = logged_run(Durability::wal());
    for pos in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x40;
        match recover(corrupt) {
            Ok((db, report)) => {
                assert_is_prefix(&db, &report, &oracle, &format!("flip at {pos}"));
                assert!(
                    report.truncated_records > 0 || report.fresh,
                    "flip at {pos}: a corrupted record must be dropped"
                );
            }
            // a flip inside the first checkpoint's schema section can
            // decode to a *different valid* schema, which recovery must
            // refuse to silently adopt
            Err(WalError::SchemaMismatch { .. }) => {}
            Err(e) => panic!("flip at {pos}: unexpected hard error: {e}"),
        }
    }
}

/// Live fault injection: re-run the workload against stores that die
/// mid-write at every byte offset the real log occupies. With
/// `sync_every = 1`, every commit the session *acknowledged* must
/// survive recovery, and the recovered state must be a prefix.
#[test]
fn injected_write_failures_keep_acknowledged_commits() {
    let (bytes, oracle) = logged_run(Durability::wal());
    let env = Env::new();
    for fail_at in 0..=bytes.len() as u64 {
        let store = MemStore::default().failing_at(fail_at);
        let mut acked = 0usize;
        match Database::builder(schema())
            .durability(Durability::wal())
            .open_store(Box::new(store.clone()))
        {
            Ok((db, _)) => {
                let mut session = db.session();
                for (label, tx) in workload() {
                    match session.commit(&label, &tx, &env) {
                        Ok(_) => acked += 1,
                        Err(CommitError::Durability(_)) => break,
                        Err(e) => panic!("fail_at {fail_at}: unexpected error: {e}"),
                    }
                }
            }
            // the store died while writing the initial checkpoint
            Err(WalError::Io { .. }) => {}
            Err(e) => panic!("fail_at {fail_at}: unexpected open error: {e}"),
        }
        let (db, report) = recover(store.contents())
            .unwrap_or_else(|e| panic!("fail_at {fail_at}: recovery failed: {e}"));
        assert!(
            report.version as usize >= acked,
            "fail_at {fail_at}: {acked} acknowledged commits but only \
             version {} recovered",
            report.version
        );
        assert_is_prefix(&db, &report, &oracle, &format!("fail_at {fail_at}"));
    }
}

/// Regression for version reuse after a WAL failure: keep committing
/// after Durability errors instead of stopping at the first, under both
/// mid-write and fsync fault injection, with a checkpoint after every
/// commit so checkpoint records interleave with commit records and
/// faults land on them too. A failure that may have left a commit
/// record in the log must poison the WAL (all later submissions fail)
/// rather than let the next commit reuse the version — a duplicate
/// version record would make recovery truncate at the duplicate and
/// silently drop every acknowledged commit after it.
#[test]
fn commits_after_durability_errors_never_corrupt_the_log() {
    let cadence = Durability::Wal {
        sync_every: 1,
        checkpoint_every: 1,
    };
    let (bytes, _) = logged_run(cadence);
    let env = Env::new();
    let initial = encode_db_state(&schema().initial_state());
    for fail_sync in [false, true] {
        // offsets where recovery surfaced a durable-but-unacknowledged
        // commit — the sweep must actually exercise that path
        let mut in_doubt_recovered = 0usize;
        for fail_at in 0..=bytes.len() as u64 {
            let what = format!(
                "{} fault at {fail_at}",
                if fail_sync { "sync" } else { "append" }
            );
            let store = if fail_sync {
                MemStore::default().failing_sync_at(fail_at)
            } else {
                MemStore::default().failing_at(fail_at)
            };
            // acked: version → state bytes of every acknowledged commit;
            // in_doubt: the one commit that installed but whose batch
            // failed, so its record may sit in the log even though the
            // session saw an error
            let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut in_doubt: Option<(u64, Vec<u8>)> = None;
            match Database::builder(schema())
                .durability(cadence)
                .open_store(Box::new(store.clone()))
            {
                Ok((db, _)) => {
                    let mut session = db.session();
                    for (label, tx) in workload() {
                        match session.commit(&label, &tx, &env) {
                            Ok(c) => {
                                acked.push((c.version, encode_db_state(&db.snapshot())));
                            }
                            // a poisoned submission never consumed a
                            // version, and no bytes reach the log, so
                            // the in-doubt record (if any) is unchanged
                            Err(CommitError::Durability(WalError::Poisoned { .. })) => {}
                            Err(CommitError::Durability(_)) => {
                                // a non-poisoned durability error is a
                                // failed *acknowledgment*: the commit
                                // installed first, so the head is its
                                // state
                                in_doubt =
                                    Some((db.head_version(), encode_db_state(&db.snapshot())));
                            }
                            Err(e) => panic!("{what}: unexpected commit error: {e}"),
                        }
                    }
                }
                // the store died while writing/flushing the initial
                // checkpoint
                Err(WalError::Io { .. }) => {}
                Err(e) => panic!("{what}: unexpected open error: {e}"),
            }
            let (db, report) = recover(store.contents())
                .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
            let v = report.version;
            let max_acked = acked.last().map_or(0, |(av, _)| *av);
            assert!(
                v >= max_acked,
                "{what}: {max_acked} commits acknowledged but only version {v} recovered"
            );
            let recovered = encode_db_state(&db.snapshot());
            let from_in_doubt = in_doubt.as_ref().filter(|(pv, _)| *pv == v);
            let expected = acked
                .iter()
                .find(|(av, _)| *av == v)
                .map(|(_, s)| s)
                .or(from_in_doubt.map(|(_, s)| s));
            match expected {
                Some(state) => {
                    assert!(
                        recovered == *state,
                        "{what}: recovered state is not the version-{v} head"
                    );
                    if from_in_doubt.is_some() && v > max_acked {
                        in_doubt_recovered += 1;
                    }
                }
                None => {
                    assert_eq!(v, 0, "{what}: recovered version {v} was never produced");
                    assert!(
                        recovered == initial,
                        "{what}: version 0 must be the initial state"
                    );
                }
            }
        }
        if fail_sync {
            assert!(
                in_doubt_recovered > 0,
                "sync-fault sweep never exercised a durable-but-unacknowledged commit"
            );
        } else {
            // a failed commit append rolls back its bytes and a failed
            // checkpoint append is skipped outright, so an append fault
            // never leaves an unacknowledged record for recovery to find
            assert_eq!(
                in_doubt_recovered, 0,
                "append faults must not leave durable-but-unacknowledged records"
            );
        }
    }
}

/// Checkpoint cadence must not change what recovery returns — only how
/// much replay it takes to get there. A checkpoint-free log replays
/// every commit, and the dense run's WAL counters honour its cadence.
#[test]
fn checkpoints_change_replay_cost_not_the_recovered_state() {
    const CHECKPOINT_EVERY: u64 = 2;
    let dense = Durability::Wal {
        sync_every: 1,
        checkpoint_every: CHECKPOINT_EVERY,
    };
    let sparse = Durability::Wal {
        sync_every: 1,
        checkpoint_every: u64::MAX,
    };
    let metrics = Metrics::enabled();
    let (dense_bytes, dense_oracle) = logged_run_with(dense, Some(metrics.clone()));
    let (sparse_bytes, sparse_oracle) = logged_run(sparse);
    let commits = (dense_oracle.len() - 1) as u64;
    assert_eq!(
        dense_oracle, sparse_oracle,
        "cadence is invisible to commits"
    );

    let (db_d, rep_d) = recover(dense_bytes).expect("dense log recovers");
    let (db_s, rep_s) = recover(sparse_bytes).expect("sparse log recovers");
    assert_eq!(rep_d.version, rep_s.version);
    assert!(
        encode_db_state(&db_d.snapshot()) == encode_db_state(&db_s.snapshot()),
        "same history, same recovered state"
    );
    assert!(
        rep_d.replayed_deltas < rep_s.replayed_deltas,
        "dense checkpoints must shorten replay ({} vs {})",
        rep_d.replayed_deltas,
        rep_s.replayed_deltas
    );
    assert_eq!(
        rep_s.replayed_deltas, commits,
        "a checkpoint-free log replays every commit"
    );
    assert!(
        metrics.get(Counter::WalCheckpoints) >= commits / CHECKPOINT_EVERY,
        "checkpoint cadence was honoured"
    );
    assert!(
        metrics.get(Counter::WalFsyncs) <= metrics.get(Counter::WalAppends),
        "syncs cannot outnumber appends"
    );
}

/// Constraints registered at recovery time are verified against the
/// recovered head: a satisfied one passes, a violated one makes
/// recovery fail loudly instead of serving a bad head.
#[test]
fn recovery_checks_constraints_against_the_recovered_head() {
    use txlog::constraints::{Checker, Hints};
    use txlog::logic::parse_sformula;

    let (bytes, _) = logged_run(Durability::wal());
    let constraint = |text: &str| {
        Box::new(
            Checker::for_session("cap", parse_sformula(text, &ctx()).expect("parses"), {
                Hints::default()
            })
            .expect("bounded window"),
        )
    };
    // pays top out at 510 after the raise, so 1000 holds and 100 fails
    let ok = Database::builder(schema())
        .constraint(constraint(
            "forall s: state, e': 2tup . e' in s:STAFF -> pay(e') <= 1000",
        ))
        .open_store(Box::new(MemStore::from_bytes(bytes.clone())));
    assert!(ok.is_ok(), "satisfied constraint admits the recovered head");
    let bad = Database::builder(schema())
        .constraint(constraint(
            "forall s: state, e': 2tup . e' in s:STAFF -> pay(e') <= 100",
        ))
        .open_store(Box::new(MemStore::from_bytes(bytes)));
    match bad {
        Err(WalError::Engine(_)) => {}
        Err(e) => panic!("expected a constraint rejection, got: {e}"),
        Ok(_) => panic!("violated constraint must not admit the recovered head"),
    }
}

/// A recovered database keeps working: new commits append to the same
/// store and survive a second recovery.
#[test]
fn recovery_then_new_commits_then_recovery_again() {
    let (bytes, oracle) = logged_run(Durability::wal());
    let store = MemStore::from_bytes(bytes);
    let (db, report) = Database::builder(schema())
        .durability(Durability::wal())
        .open_store(Box::new(store.clone()))
        .expect("recovers");
    assert_eq!(report.version as usize, oracle.len() - 1);
    let env = Env::new();
    let tx = parse_fterm("insert(tuple('zoe', 700), STAFF)", &ctx(), &[]).expect("parses");
    db.session().commit("hire-zoe", &tx, &env).expect("commits");
    let expected = encode_db_state(&db.snapshot());
    drop(db);

    let (db2, report2) = recover(store.contents()).expect("recovers again");
    assert_eq!(report2.version as usize, oracle.len(), "one more commit");
    assert!(
        encode_db_state(&db2.snapshot()) == expected,
        "the post-recovery commit is durable too"
    );
}

/// Fails the `nth` commit fsync it sees (1-based), cleanly, once.
struct FailNthFsync(std::sync::atomic::AtomicU32, u32);

impl txlog::engine::sim::StepHook for FailNthFsync {
    fn on_step(&self, point: txlog::engine::sim::StepPoint) -> txlog::engine::sim::StepAction {
        use std::sync::atomic::Ordering;
        if point == txlog::engine::sim::StepPoint::WalFsync
            && self.0.fetch_add(1, Ordering::SeqCst) + 1 == self.1
        {
            return txlog::engine::sim::StepAction::FailIo;
        }
        txlog::engine::sim::StepAction::Proceed
    }
}

/// Group commit appends a whole batch before issuing its single fsync,
/// so a crash can land at any byte of the batched append: none, some,
/// or all of the in-doubt records durable. Install four commits into
/// one batch under a manual writer, pump it, then sweep every cut of
/// the resulting bytes: each cut must recover a commit-order prefix,
/// and the sweep must produce crash images at every batch depth —
/// versions 0 through 4 — not just the empty-or-full extremes.
#[test]
fn batch_crash_at_every_byte_offset_recovers_a_prefix() {
    let store = MemStore::default();
    let (db, report) = Database::builder(schema())
        .durability(Durability::Wal {
            sync_every: 4,
            checkpoint_every: 0,
        })
        .manual_log_writer()
        .open_store(Box::new(store.clone()))
        .expect("fresh log opens");
    assert!(report.fresh);
    let env = Env::new();
    let mut oracle = vec![encode_db_state(&db.snapshot())];
    let mut session = db.session();
    let mut tickets = Vec::new();
    for (label, tx) in workload().into_iter().take(4) {
        let prepared = session.prepare(&tx, &env).expect("transaction prepares");
        let (_, ticket) = session
            .submit_prepared(&label, &prepared)
            .expect("submission installs");
        oracle.push(encode_db_state(&db.snapshot()));
        tickets.push(ticket);
    }
    assert_eq!(db.head_version(), 4, "all four installed before any fsync");
    assert!(
        tickets.iter().all(|t| !t.is_complete()),
        "nothing is acknowledged until the batch is pumped"
    );
    db.pump_log_writer();
    for t in tickets {
        t.wait()
            .expect("the whole batch acknowledges after its one fsync");
    }

    let bytes = store.contents();
    let mut seen = std::collections::BTreeSet::new();
    for cut in 0..=bytes.len() {
        let (rec, report) = recover(bytes[..cut].to_vec())
            .unwrap_or_else(|e| panic!("batch cut at {cut}: recovery failed: {e}"));
        assert_is_prefix(&rec, &report, &oracle, &format!("batch cut at {cut}"));
        seen.insert(report.version);
    }
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2, 3, 4],
        "the sweep saw crash images with none, some, and all of the batch durable"
    );
}

/// The poisoned-log agreement check: a crash *between* append success
/// and fsync failure leaves the commit record on disk but the commit
/// unacknowledged. `recover_log` must return that
/// durable-but-unacknowledged commit — and the explorer's durability
/// oracle must accept exactly that verdict for the same history. One
/// scenario, judged by both sides.
#[test]
fn crash_between_append_and_fsync_recovers_the_unacked_commit() {
    use txlog::engine::sim::{check_oracles, run_seeded, SimConfig, SimDurability};

    let hire = parse_fterm("insert(tuple('ann', 500), STAFF)", &ctx(), &[]).expect("parses");
    let raise = parse_fterm(
        "foreach e: 2tup | e in STAFF do modify(e, pay, pay(e) + 10) end",
        &ctx(),
        &[],
    )
    .expect("parses");

    // --- side 1: the live database with a failing second commit fsync
    let store = MemStore::default();
    let (mut db, _) = Database::builder(schema())
        .durability(Durability::Wal {
            sync_every: 1,
            checkpoint_every: 0,
        })
        .open_store(Box::new(store.clone()))
        .expect("fresh log opens");
    // installed after open, so only *commit* fsyncs count: the second
    // one — the raise — fails after its record was appended
    db.set_step_hook(std::sync::Arc::new(FailNthFsync(
        std::sync::atomic::AtomicU32::new(0),
        2,
    )));
    let env = Env::new();
    let mut session = db.session();
    session
        .commit("hire", &hire, &env)
        .expect("first commit lands");
    let err = session
        .commit("raise", &raise, &env)
        .expect_err("second commit's fsync fails after the append");
    assert!(matches!(err, CommitError::Durability(WalError::Io { .. })));
    assert_eq!(
        db.head_version(),
        2,
        "the raise installed before its batch fsync failed — it is in doubt, not gone"
    );

    // what the raise *would* have installed, from an undamaged replay
    let oracle_db = Database::builder(schema())
        .build()
        .expect("oracle database builds");
    let mut oracle_session = oracle_db.session();
    oracle_session.commit("hire", &hire, &env).expect("hire");
    oracle_session.commit("raise", &raise, &env).expect("raise");
    let unacked_state = encode_db_state(&oracle_db.snapshot());

    // recover_log's verdict on the crash image
    let (recovered, report) = recover(store.contents()).expect("poisoned log recovers");
    assert_eq!(
        report.version, 2,
        "recovery returns the durable-but-unacked commit, not the acked prefix"
    );
    assert!(
        encode_db_state(&recovered.snapshot()) == unacked_state,
        "the recovered head is the unacknowledged raise's state"
    );

    // --- side 2: the explorer's durability oracle on the same history.
    // One session, two commits; search the seeded schedules for the run
    // where the raise's record was appended but its batch fsync failed:
    // commit 1 acked, commit 2 installed-but-unacked, and the full
    // store bytes (append landed) recover version 2.
    let cfg = SimConfig::new(schema())
        .session("w", vec![hire, raise])
        .durability(SimDurability::Wal {
            sync_every: 1,
            checkpoint_every: 0,
            explore_faults: true,
        });
    let out = (0..1000)
        .filter_map(|seed| run_seeded(&cfg, seed).ok())
        .find(|out| {
            let durable = out
                .images
                .last()
                .and_then(|img| recover(img.bytes.clone()).ok())
                .map(|(_, r)| r.version);
            out.acked == 1 && out.in_doubt == [2] && durable == Some(2)
        })
        .expect("some seed fails the raise's fsync after its append");
    assert!(
        encode_db_state(&out.states[2]) == unacked_state,
        "the sim's in-doubt state is the same unacked raise"
    );
    assert_eq!(
        check_oracles(&cfg, &out),
        None,
        "the durability oracle accepts recover_log's verdict on every crash image"
    );
}
