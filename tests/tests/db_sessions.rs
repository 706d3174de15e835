//! Serializability of the session layer's optimistic commits.
//!
//! Three angles:
//!
//! * **Explorer-driven interleavings** — the workloads that used to be
//!   pinned to one hand-written schedule (conflicting writers, mixed
//!   disjoint-and-conflicting) now run under the `sim` explorer, which
//!   enumerates *every* interleaving exhaustively and judges each
//!   against the serializability, snapshot-consistency, and durability
//!   oracles.
//! * **Property** — any pair of transactions drawn from per-relation
//!   pools with disjoint footprints commits from a shared stale
//!   snapshot without a single retry (the forwarding fast path), and
//!   the head equals the sequential oracle.
//! * **Threaded stress** — writers hammer one database from real
//!   threads; every commit lands, head version counts them exactly,
//!   and replaying the per-version labels sequentially reproduces the
//!   final state. The read-then-raise variant runs at every isolation
//!   level and checks that only serializable restarts a transaction.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::thread;
use txlog::empdb::transactions::{add_dept, add_project, obtain_skill, raise_salary};
use txlog::empdb::{populate, Sizes};
use txlog::engine::sim::{explore_exhaustive, ExploreOptions, SimConfig};
use txlog::engine::{CommitError, Database, Env, IsolationLevel, RetryPolicy, SessionOptions};
use txlog::logic::{parse_fformula, FTerm};
use txlog::prelude::Atom;
use txlog::relational::DbState;

fn database() -> Database {
    let (schema, db) = populate(Sizes::small(), 2).expect("population generates");
    Database::with_initial(schema, db).expect("database builds")
}

/// The populated empdb workload as a simulation config.
fn sim_config(sessions: &[(&str, Vec<FTerm>)]) -> SimConfig {
    let (schema, db) = populate(Sizes::small(), 2).expect("population generates");
    let mut cfg = SimConfig::new(schema).initial(db);
    for (name, txs) in sessions {
        cfg = cfg.session(name, txs.clone());
    }
    cfg
}

/// Replay `txs` in order from `base` through a fresh single-writer
/// database — the sequential oracle.
fn oracle(base_db: &Database, base: &DbState, txs: &[&FTerm]) -> DbState {
    let db = Database::with_initial(base_db.schema().clone(), base.clone())
        .expect("oracle database builds");
    let mut session = db.session();
    let env = Env::new();
    for (i, tx) in txs.iter().enumerate() {
        session
            .commit(&format!("oracle-{i}"), tx, &env)
            .expect("oracle commit succeeds");
    }
    let snap = db.snapshot();
    (*snap).clone()
}

/// Two writers raising the same employee's salary — formerly one
/// hand-written interleaving, now *every* interleaving: under each
/// schedule both raises land (or one aborts cleanly after exhausting
/// retries) and the head serializes like the sequential oracle.
#[test]
fn conflicting_writers_serialize_under_every_schedule() {
    let cfg = sim_config(&[
        ("raise-a", vec![raise_salary("emp-0", 10)]),
        ("raise-b", vec![raise_salary("emp-0", 7)]),
    ]);
    let report = explore_exhaustive(&cfg, &ExploreOptions::default()).expect("runs complete");
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(!report.truncated);
    assert!(
        report.schedules >= 10,
        "two contended sessions have many interleavings, got {}",
        report.schedules
    );
}

/// Three writers: two disjoint (SKILL vs EMP footprints) around one
/// conflicting (EMP vs EMP) — formerly one pinned schedule, now the
/// whole interleaving space. Every schedule must both serialize and,
/// in at least one interleaving, take the forwarding fast path.
#[test]
fn mixed_disjoint_and_conflicting_under_every_schedule() {
    let cfg = sim_config(&[
        ("t1", vec![raise_salary("emp-0", 5)]),
        ("t2", vec![obtain_skill("emp-1", 900)]),
        ("t3", vec![raise_salary("emp-1", 3)]),
    ]);
    let report = explore_exhaustive(&cfg, &ExploreOptions::default()).expect("runs complete");
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(!report.truncated);
    assert!(
        report.stats.forwarded_commits > 0,
        "some schedule pins the disjoint writer before the head moves"
    );
}

/// Two sessions, two commits each, contention on one employee plus a
/// disjoint second commit — the deepest workload the exhaustive
/// explorer covers over the full empdb state.
#[test]
fn two_commit_scripts_serialize_under_every_schedule() {
    let cfg = sim_config(&[
        (
            "a",
            vec![raise_salary("emp-0", 10), obtain_skill("emp-2", 700)],
        ),
        (
            "b",
            vec![raise_salary("emp-0", 7), obtain_skill("emp-3", 800)],
        ),
    ])
    .max_attempts(2);
    let opts = ExploreOptions {
        dedup: true,
        ..ExploreOptions::default()
    };
    let report = explore_exhaustive(&cfg, &opts).expect("runs complete");
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(!report.truncated);
    assert!(report.pruned > 0, "dedup must collapse identical prefixes");
}

/// A prepared commit never retries: the stale overlapping writer
/// surfaces `Conflict` and the head is untouched by the failed attempt.
#[test]
fn prepared_commit_leaves_head_untouched_on_conflict() {
    let db = database();
    let env = Env::new();

    let mut s1 = db.session();
    let mut s2 = db.session();
    s1.commit("winner", &raise_salary("emp-0", 10), &env)
        .expect("commits");
    let version_after_winner = db.head_version();
    let stale = s2
        .prepare(&raise_salary("emp-0", 1), &env)
        .expect("prepares");
    let err = s2
        .commit_prepared("loser", &stale)
        .expect_err("stale overlapping prepared commit conflicts");
    assert!(matches!(
        err,
        txlog::engine::CommitError::Conflict { head_version } if head_version == version_after_winner
    ));
    assert_eq!(db.head_version(), version_after_winner);
}

/// Transaction pools per relation, for the disjointness property.
fn tx_pool(rel: usize, i: usize) -> FTerm {
    match rel {
        0 => raise_salary("emp-0", 1 + i as u64),
        1 => obtain_skill("emp-0", 500 + i as u64),
        2 => add_project(&format!("proj-p{i}"), 0),
        _ => add_dept(&format!("dept-p{i}"), "emp-0", "hq"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any two transactions over *different* relations, committed from
    /// the same stale snapshot, succeed without retry — and the result
    /// is the sequential composition.
    #[test]
    fn disjoint_commits_never_retry(
        rel_a in 0usize..4,
        rel_b in 0usize..4,
        ia in 0usize..8,
        ib in 0usize..8,
    ) {
        prop_assume!(rel_a != rel_b);
        let db = database();
        let base = (*db.snapshot()).clone();
        let env = Env::new();
        let ta = tx_pool(rel_a, ia);
        let tb = tx_pool(rel_b, ib);

        let mut s1 = db.session();
        let mut s2 = db.session();
        let ca = s1.commit("a", &ta, &env).expect("a commits");
        let cb = s2.commit("b", &tb, &env).expect("b commits");
        prop_assert_eq!(ca.retries, 0);
        prop_assert_eq!(cb.retries, 0, "disjoint footprints must never conflict");
        prop_assert!(cb.forwarded, "stale disjoint commit forwards");

        let expect = oracle(&db, &base, &[&ta, &tb]);
        prop_assert!(db.snapshot().value_eq(&expect), "head != oracle");
    }
}

/// Real threads, one database: every commit lands exactly once, and
/// replaying the committed transactions in version order from the base
/// state reproduces the final head.
#[test]
fn threaded_stress_serializes() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 8;

    let db = database();
    let base = (*db.snapshot()).clone();
    let base_version = db.head_version();
    let env = Env::new();

    // version -> transaction, recorded as each commit lands
    let committed: Mutex<BTreeMap<u64, FTerm>> = Mutex::new(BTreeMap::new());
    thread::scope(|s| {
        for w in 0..WRITERS {
            let committed = &committed;
            let db = &db;
            let env = &env;
            s.spawn(move || {
                let mut session = db.session();
                for round in 0..ROUNDS {
                    // writers 0/1 contend on EMP; writers 2/3 stay disjoint
                    let tx = match w {
                        0 => raise_salary("emp-0", 1),
                        1 => raise_salary("emp-1", 2),
                        2 => obtain_skill("emp-2", (100 * w + round) as u64),
                        _ => add_project(&format!("proj-{w}-{round}"), 0),
                    };
                    let commit = session
                        .commit(&format!("w{w}-r{round}"), &tx, env)
                        .expect("commit lands within the retry budget");
                    let prev = committed
                        .lock()
                        .expect("tally lock")
                        .insert(commit.version, tx);
                    assert!(prev.is_none(), "two commits claimed one version");
                }
            });
        }
    });

    let committed = committed.into_inner().expect("tally lock");
    assert_eq!(committed.len(), WRITERS * ROUNDS, "every commit landed");
    assert_eq!(db.head_version(), base_version + committed.len() as u64);
    let versions: Vec<u64> = committed.keys().copied().collect();
    let contiguous: Vec<u64> = (base_version + 1..=db.head_version()).collect();
    assert_eq!(versions, contiguous, "versions are gapless and ordered");

    let in_order: Vec<&FTerm> = committed.values().collect();
    let expect = oracle(&db, &base, &in_order);
    assert!(
        db.snapshot().value_eq(&expect),
        "threaded result differs from sequential replay in version order"
    );
}

/// `name`'s salary at the head.
fn salary(db: &Database, name: &str) -> u64 {
    let schema = db.schema();
    let emp = schema.rel_id("EMP").expect("EMP exists");
    // attribute positions are 1-based
    let key = schema.attr_index("EMP", "e-name").expect("e-name exists") - 1;
    let pay = schema.attr_index("EMP", "salary").expect("salary exists") - 1;
    let snap = db.snapshot();
    let found = snap
        .relation(emp)
        .expect("EMP is stored")
        .iter_vals()
        .find(|t| t.fields[key] == Atom::str(name))
        .expect("employee exists");
    found.fields[pay].as_nat().expect("salary is a number")
}

/// The contended read-then-raise workload at every isolation level:
/// each writer asks a question over the hot EMP relation (a statement
/// read, certified under serializable) and then raises its own
/// employee. A serialization failure restarts the whole statement from
/// the read, as a client must. Every commit lands and every employee is
/// raised exactly once per round at every level; only serializable
/// certifies reads, so the weaker levels never restart.
#[test]
fn read_then_raise_restarts_only_under_serializable() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 25;

    let ctx = txlog::empdb::parse_ctx();
    let hot =
        parse_fformula("exists e: 5tup . e in EMP & salary(e) > 400", &ctx, &[]).expect("parses");
    for level in IsolationLevel::ALL {
        let (schema, initial) = populate(Sizes::scaled(50), 2).expect("population generates");
        let db = Database::builder(schema)
            .initial(initial)
            .default_retry(RetryPolicy {
                max_retries: 64,
                ..Default::default()
            })
            .build()
            .expect("database builds");
        let names: Vec<String> = (0..WRITERS).map(|w| format!("emp-{w}")).collect();
        let before: Vec<u64> = names.iter().map(|n| salary(&db, n)).collect();
        let base_version = db.head_version();
        let restarts: usize = thread::scope(|s| {
            let writers: Vec<_> = names
                .iter()
                .map(|name| {
                    let (db, hot) = (&db, &hot);
                    s.spawn(move || {
                        let env = Env::new();
                        let mut session = db.session_with(SessionOptions::new().isolation(level));
                        let tx = raise_salary(name, 1);
                        let mut restarts = 0;
                        for round in 0..ROUNDS {
                            loop {
                                assert!(session.ask(hot, &env).expect("hot read evaluates"));
                                match session.commit(&format!("{name}-r{round}"), &tx, &env) {
                                    Ok(_) => break,
                                    Err(CommitError::SerializationFailure { .. }) => {
                                        restarts += 1;
                                        session.refresh();
                                    }
                                    Err(e) => panic!("{level}: commit fails fatally: {e}"),
                                }
                            }
                        }
                        restarts
                    })
                })
                .collect();
            writers
                .into_iter()
                .map(|h| h.join().expect("writer joins"))
                .sum()
        });
        assert_eq!(
            db.head_version(),
            base_version + (WRITERS * ROUNDS) as u64,
            "{level}: every commit lands"
        );
        for (name, was) in names.iter().zip(before) {
            assert_eq!(
                salary(&db, name),
                was + ROUNDS as u64,
                "{level}: {name} raised once per round"
            );
        }
        if level != IsolationLevel::Serializable {
            assert_eq!(restarts, 0, "{level}: only serializable certifies reads");
        }
    }
}
