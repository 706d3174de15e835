//! Model checking the commit/WAL state machine.
//!
//! Drives `txlog::engine::sim`: every nondeterministic decision of the
//! commit pipeline (which session or the group-commit log writer runs
//! next, whether a WAL append or fsync fails) becomes a numbered
//! choice, and the explorer enumerates schedules exhaustively for
//! small workloads and pseudo-randomly (seeded, replayable) for larger
//! ones. Three oracles judge every execution: serializability,
//! snapshot consistency, and durability of every per-step crash image
//! — including images taken mid-batch, with several installed commits
//! awaiting a single fsync.
//!
//! Reproducing a failure: a failing run prints its seed and schedule;
//! `run_seeded(&cfg, seed)` or `run_with_schedule(&cfg, &schedule)`
//! replays it byte-for-byte (see DESIGN.md §12).

use std::sync::Arc;
use std::time::Instant;
use txlog::empdb::transactions::raise_salary;
use txlog::empdb::{populate, Sizes};
use txlog::engine::sim::{
    check_oracles, explore_exhaustive, explore_random, run_seeded, run_with_schedule,
    ExploreOptions, ProtocolBug, SimConfig, SimDurability, StepAction, StepHook, StepPoint,
};
use txlog::engine::{Database, Env};
use txlog::logic::{parse_fterm, FTerm, ParseCtx};
use txlog::prelude::{Atom, Schema};
use txlog::relational::codec::encode_db_state;
use txlog::relational::DbState;

fn schema() -> Schema {
    Schema::new()
        .relation("EMP", &["e-name", "salary"])
        .expect("EMP declares")
        .relation("PROJ", &["p-name", "budget"])
        .expect("PROJ declares")
}

fn tx(src: &str) -> FTerm {
    parse_fterm(src, &ParseCtx::with_relations(&["EMP", "PROJ"]), &[]).expect("transaction parses")
}

fn base(schema: &Schema) -> DbState {
    let emp = schema.rel_id("EMP").expect("EMP exists");
    let (s, _) = schema
        .initial_state()
        .insert_fields(emp, &[Atom::str("ann"), Atom::nat(500)])
        .expect("seed row inserts");
    s
}

/// The acceptance workload: two sessions, two commits each, every
/// transaction touching the same EMP tuple — maximal contention, so
/// every interleaving exercises conflict detection and retry.
fn conflicting_2x2() -> SimConfig {
    let s = schema();
    let b = base(&s);
    SimConfig::new(s)
        .initial(b)
        .session(
            "a",
            vec![
                tx("foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end"),
                tx("foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 100) end"),
            ],
        )
        .session(
            "b",
            vec![
                tx("foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 7) end"),
                tx("foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 70) end"),
            ],
        )
        .max_attempts(2)
}

/// One conflicting commit per session — the smallest contended
/// workload, cheap enough to explore exhaustively with durability and
/// fault scheduling on.
fn conflicting_2x1() -> SimConfig {
    let s = schema();
    let b = base(&s);
    SimConfig::new(s)
        .initial(b)
        .session(
            "a",
            vec![tx(
                "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end",
            )],
        )
        .session(
            "b",
            vec![tx(
                "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 7) end",
            )],
        )
}

/// Footprint-disjoint sessions (different relations): every schedule
/// must forward the stale commit without a single retry.
fn disjoint_2x1() -> SimConfig {
    let s = schema();
    let b = base(&s);
    SimConfig::new(s)
        .initial(b)
        .session(
            "a",
            vec![tx(
                "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end",
            )],
        )
        .session("b", vec![tx("insert(tuple('apollo', 9), PROJ)")])
}

/// Acceptance: exhaustive exploration of the 2×2 conflicting workload
/// completes, covers several hundred schedules at least, and every
/// schedule passes all three oracles.
#[test]
fn exhaustive_2x2_conflicting_passes_all_oracles() {
    let report =
        explore_exhaustive(&conflicting_2x2(), &ExploreOptions::default()).expect("runs complete");
    println!(
        "exhaustive 2x2: {} schedules over {} nodes, max depth {}, \
         {} forwarded commits, {} retry-exhausted aborts",
        report.schedules,
        report.nodes,
        report.max_depth,
        report.stats.forwarded_commits,
        report.stats.aborted_retries
    );
    assert!(
        report.failure.is_none(),
        "oracle violation: {:?}",
        report.failure
    );
    assert!(!report.truncated, "exploration must finish the whole tree");
    assert!(
        report.schedules >= 300,
        "a 2x2 contended workload has hundreds of interleavings, got {}",
        report.schedules
    );
    assert!(
        report.stats.forwarded_commits > 0 || report.stats.aborted_retries > 0,
        "contention must surface in at least one explored schedule"
    );
}

/// State dedup prunes the exhaustive tree without changing the verdict.
#[test]
fn exhaustive_2x2_with_dedup_agrees_and_prunes() {
    let opts = ExploreOptions {
        dedup: true,
        ..ExploreOptions::default()
    };
    let report = explore_exhaustive(&conflicting_2x2(), &opts).expect("runs complete");
    println!(
        "exhaustive 2x2 dedup: {} schedules, {} nodes, {} pruned",
        report.schedules, report.nodes, report.pruned
    );
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.pruned > 0, "identical prefixes must collapse");
}

/// Disjoint footprints: every schedule commits both transactions, the
/// stale one by forwarding, and no schedule retries.
#[test]
fn exhaustive_disjoint_always_forwards() {
    let report =
        explore_exhaustive(&disjoint_2x1(), &ExploreOptions::default()).expect("runs complete");
    println!(
        "exhaustive disjoint: {} schedules, {} forwarded",
        report.schedules, report.stats.forwarded_commits
    );
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert_eq!(
        report.stats.aborted_retries, 0,
        "disjoint commits must never exhaust retries"
    );
    assert!(
        report.stats.forwarded_commits > 0,
        "some schedule pins both sessions before either commits"
    );
}

/// Durability on, WAL faults schedulable: every per-step crash image
/// recovers to a commit-order prefix of the acked commits (or the one
/// in-doubt commit), under every interleaving and every fault point.
#[test]
fn exhaustive_durable_with_faults_passes_durability_oracle() {
    let cfg = conflicting_2x1().durability(SimDurability::Wal {
        sync_every: 1,
        checkpoint_every: 1,
        explore_faults: true,
    });
    // the schedulable log-writer actor deepens the tree; dedup keeps
    // the sweep tractable without losing any distinct state
    let opts = ExploreOptions {
        dedup: true,
        ..ExploreOptions::default()
    };
    let report = explore_exhaustive(&cfg, &opts).expect("runs complete");
    println!(
        "exhaustive durable: {} schedules, {} poisoned runs, {} in-doubt runs",
        report.schedules, report.stats.poisoned_runs, report.stats.in_doubt_runs
    );
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.stats.poisoned_runs > 0,
        "some schedule must inject an fsync fault and poison the WAL"
    );
    assert!(
        report.stats.in_doubt_runs > 0,
        "some schedule must crash between append success and fsync failure"
    );
}

/// Seeded random exploration of a workload too big to exhaust: batch
/// size is `MODEL_CHECK_SCHEDULES` (CI runs 10k), every schedule passes
/// all oracles.
#[test]
fn seeded_random_batch_passes_all_oracles() {
    let count: u64 = std::env::var("MODEL_CHECK_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let cfg = conflicting_2x2()
        .max_attempts(3)
        .durability(SimDurability::Wal {
            sync_every: 1,
            checkpoint_every: 2,
            explore_faults: true,
        });
    let report = explore_random(&cfg, 0xDB_C0FFEE, count).expect("runs complete");
    println!(
        "random batch: {} schedules, max depth {}, {} forwarded, {} poisoned",
        report.schedules,
        report.max_depth,
        report.stats.forwarded_commits,
        report.stats.poisoned_runs
    );
    assert!(
        report.failure.is_none(),
        "failing seed: {:?}",
        report.failure
    );
    assert_eq!(report.schedules, count);
}

/// The replay guarantee behind every printed seed: the same seed
/// reproduces the identical schedule, trace, commits, and final state.
#[test]
fn seed_replays_byte_for_byte() {
    let cfg = conflicting_2x2().durability(SimDurability::Wal {
        sync_every: 1,
        checkpoint_every: 1,
        explore_faults: true,
    });
    for seed in [1u64, 42, 0xFEED_FACE] {
        let a = run_seeded(&cfg, seed).expect("run completes");
        let b = run_seeded(&cfg, seed).expect("run completes");
        assert_eq!(a.schedule, b.schedule, "seed {seed}: schedules diverge");
        assert_eq!(a.trace, b.trace, "seed {seed}: traces diverge");
        assert_eq!(a.committed, b.committed, "seed {seed}: commits diverge");
        assert_eq!(
            encode_db_state(&a.final_state),
            encode_db_state(&b.final_state),
            "seed {seed}: final states diverge"
        );
        // and the recorded schedule replays the same run without the seed
        let c = run_with_schedule(&cfg, &a.schedule).expect("run completes");
        assert_eq!(a.trace, c.trace, "seed {seed}: schedule replay diverges");
    }
}

/// The checker catches a deliberately wrong protocol: validating
/// against the pinned snapshot instead of the moved head loses an
/// update, and the serializability oracle flags it in well under 10k
/// schedules. The reported schedule — and its minimization — reproduce
/// the violation deterministically.
#[test]
fn injected_lost_update_caught_within_10k_schedules() {
    let cfg = conflicting_2x1().bug(ProtocolBug::ValidateAgainstSnapshot);
    let opts = ExploreOptions {
        max_schedules: 10_000,
        ..ExploreOptions::default()
    };
    let report = explore_exhaustive(&cfg, &opts).expect("runs complete");
    let failure = report.failure.expect("the lost update must be caught");
    println!(
        "lost update caught after {} schedules: {failure}",
        report.schedules + 1
    );
    assert!(
        report.schedules < 10_000,
        "must be caught within the schedule budget"
    );
    assert!(failure.violation.contains("not serializable"), "{failure}");
    // replaying the printed schedules reproduces the violation
    let out = run_with_schedule(&cfg, &failure.schedule).expect("replay completes");
    assert!(check_oracles(&cfg, &out).is_some(), "full schedule replays");
    let out = run_with_schedule(&cfg, &failure.minimized).expect("replay completes");
    assert!(
        check_oracles(&cfg, &out).is_some(),
        "minimized schedule replays"
    );
    assert!(
        failure.minimized.len() <= failure.schedule.len(),
        "minimization never grows the schedule"
    );
}

/// Same bug, random mode: a failing seed is found and replays to the
/// same violation byte-for-byte.
#[test]
fn injected_lost_update_caught_by_seeded_mode() {
    let cfg = conflicting_2x1().bug(ProtocolBug::ValidateAgainstSnapshot);
    let report = explore_random(&cfg, 7, 10_000).expect("runs complete");
    let failure = report.failure.expect("the lost update must be caught");
    let seed = failure.seed.expect("random mode records the seed");
    let out = run_seeded(&cfg, seed).expect("replay completes");
    assert_eq!(
        out.schedule, failure.schedule,
        "the printed seed replays the identical schedule"
    );
    assert!(check_oracles(&cfg, &out).is_some());
}

/// Acknowledging a commit whose WAL append failed violates durability:
/// the crash-image oracle catches it.
#[test]
fn injected_undurable_ack_caught_by_durability_oracle() {
    let cfg = conflicting_2x1()
        .durability(SimDurability::Wal {
            sync_every: 1,
            checkpoint_every: 1,
            explore_faults: true,
        })
        .bug(ProtocolBug::AckUndurableCommits);
    let report = explore_exhaustive(&cfg, &ExploreOptions::default()).expect("runs complete");
    let failure = report.failure.expect("the undurable ack must be caught");
    assert!(failure.violation.contains("durability"), "{failure}");
}

/// Acceptance for the group-commit pipeline: exhaustive exploration
/// with `sync_every: 2` (batches of up to two commits behind one
/// fsync) and schedulable writer faults. Some schedule must install
/// both commits before the writer's fsync — a multi-commit in-doubt
/// batch — and every per-step crash image of every schedule must still
/// recover to an acceptable prefix.
#[test]
fn group_commit_exhaustive_passes_all_oracles() {
    let cfg = conflicting_2x1().durability(SimDurability::Wal {
        sync_every: 2,
        checkpoint_every: 0,
        explore_faults: true,
    });
    // the writer actor deepens the schedule tree; dedup keeps the
    // exhaustive sweep tractable without losing any distinct state
    let opts = ExploreOptions {
        dedup: true,
        ..ExploreOptions::default()
    };
    let report = explore_exhaustive(&cfg, &opts).expect("runs complete");
    println!(
        "exhaustive group commit: {} schedules, max {} unacked installs, \
         {} poisoned runs, {} in-doubt runs",
        report.schedules,
        report.stats.max_unacked_installed,
        report.stats.poisoned_runs,
        report.stats.in_doubt_runs
    );
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(!report.truncated, "exploration must finish the whole tree");
    assert!(
        report.stats.max_unacked_installed >= 2,
        "some schedule must batch two installed commits behind one fsync, \
         got {}",
        report.stats.max_unacked_installed
    );
    assert!(
        report.stats.poisoned_runs > 0,
        "some schedule must fail a batch fsync and poison the WAL"
    );
    assert!(
        report.stats.in_doubt_runs > 0,
        "some schedule must end with installed-but-unacknowledged commits"
    );
}

/// Group commit under the big seeded batch: the 2×2 contended workload
/// with batches of up to three commits and schedulable faults, for
/// `MODEL_CHECK_SCHEDULES` seeds (CI runs 10k).
#[test]
fn group_commit_seeded_batch_passes_all_oracles() {
    let count: u64 = std::env::var("MODEL_CHECK_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let cfg = conflicting_2x2()
        .max_attempts(3)
        .durability(SimDurability::Wal {
            sync_every: 3,
            checkpoint_every: 2,
            explore_faults: true,
        });
    let report = explore_random(&cfg, 0xBA7C11ED, count).expect("runs complete");
    println!(
        "group-commit random batch: {} schedules, max depth {}, \
         max {} unacked installs, {} poisoned",
        report.schedules,
        report.max_depth,
        report.stats.max_unacked_installed,
        report.stats.poisoned_runs
    );
    assert!(
        report.failure.is_none(),
        "failing seed: {:?}",
        report.failure
    );
    assert_eq!(report.schedules, count);
    assert!(
        report.stats.max_unacked_installed >= 2,
        "seeded exploration must reach a multi-commit in-doubt batch"
    );
}

/// The undurable-ack bug under group commit: with batches of two, an
/// acknowledgment that skips the batch fsync leaves *several* commits
/// claimed-durable but absent from the log, and the crash-image oracle
/// still catches it.
#[test]
fn group_commit_undurable_ack_caught_by_durability_oracle() {
    let cfg = conflicting_2x1()
        .durability(SimDurability::Wal {
            sync_every: 2,
            checkpoint_every: 0,
            explore_faults: true,
        })
        .bug(ProtocolBug::AckUndurableCommits);
    let opts = ExploreOptions {
        dedup: true,
        ..ExploreOptions::default()
    };
    let report = explore_exhaustive(&cfg, &opts).expect("runs complete");
    let failure = report.failure.expect("the undurable ack must be caught");
    assert!(failure.violation.contains("durability"), "{failure}");
    // the printed schedule reproduces the violation deterministically
    let out = run_with_schedule(&cfg, &failure.schedule).expect("replay completes");
    assert!(
        check_oracles(&cfg, &out).is_some(),
        "the reported schedule replays to the same violation"
    );
}

/// The do-nothing hook: every step proceeds, nothing is recorded. The
/// difference between it and no hook at all is the dynamic dispatch an
/// armed seam adds.
struct NoopHook;

impl StepHook for NoopHook {
    fn on_step(&self, _point: StepPoint) -> StepAction {
        StepAction::Proceed
    }
}

/// The seam is free when disarmed: commits with no hook installed must
/// not run materially slower than with a no-op hook armed, so the
/// disarmed branch cannot be the expensive side. Both sides run the
/// same commits once to warm up before the measured run.
#[test]
fn disarmed_seam_commits_no_slower_than_a_noop_hook() {
    const COMMITS: usize = 400;
    let commits_per_s = |hook: bool| {
        let (schema, db) = populate(Sizes::small(), 2).expect("population generates");
        let mut db = Database::with_initial(schema, db).expect("database builds");
        if hook {
            db.set_step_hook(Arc::new(NoopHook));
        }
        let tx = raise_salary("emp-0", 1);
        let env = Env::new();
        let mut session = db.session();
        let start = Instant::now();
        for i in 0..COMMITS {
            session
                .commit(&format!("raise-{i}"), &tx, &env)
                .expect("commits");
        }
        COMMITS as f64 / start.elapsed().as_secs_f64()
    };
    commits_per_s(false);
    commits_per_s(true);
    let disarmed = commits_per_s(false);
    let armed = commits_per_s(true);
    let ratio = disarmed / armed;
    assert!(
        ratio >= 0.5,
        "the disarmed seam must not cost more than a real hook: \
         {disarmed:.0} vs {armed:.0} commits/s (ratio {ratio:.2})"
    );
}
