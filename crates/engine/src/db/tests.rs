use super::*;
use crate::env::Env;
use crate::wal::{Durability, LogStore, MemStore, WalError};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Barrier;
use txlog_base::{Atom, RelId};
use txlog_events::PatternDef;
use txlog_logic::{parse_fterm, FTerm, ParseCtx};

fn schema() -> Schema {
    Schema::new()
        .relation("EMP", &["e-name", "salary"])
        .unwrap()
        .relation("LOG", &["l-entry"])
        .unwrap()
}

fn ctx() -> ParseCtx {
    ParseCtx::with_relations(&["EMP", "LOG"])
}

fn tx(src: &str) -> FTerm {
    parse_fterm(src, &ctx(), &[]).unwrap()
}

struct SalaryCap(u64);
impl CommitConstraint for SalaryCap {
    fn name(&self) -> &str {
        "salary-cap"
    }
    fn window_states(&self) -> usize {
        1
    }
    fn affected_by(&self, schema: &Schema, delta: &Delta) -> bool {
        schema.rel_id("EMP").is_ok_and(|id| delta.touches(id))
    }
    fn check(&self, schema: &Schema, states: &[DbState], _: &[&str]) -> TxResult<bool> {
        let emp = schema.rel_id("EMP")?;
        let state = states.last().expect("window is non-empty");
        Ok(state
            .relation(emp)
            .map(|r| {
                r.iter()
                    .all(|t| t.fields()[1].as_nat().is_ok_and(|s| s <= self.0))
            })
            .unwrap_or(true))
    }
}

#[test]
fn sequential_commits_advance_the_head() {
    let db = Database::new(schema()).unwrap();
    let mut s = db.session();
    let c1 = s
        .commit(
            "hire-ann",
            &tx("insert(tuple('ann', 500), EMP)"),
            &Env::new(),
        )
        .unwrap();
    assert_eq!(c1.version, 1);
    assert!(!c1.forwarded);
    let c2 = s
        .commit(
            "hire-bob",
            &tx("insert(tuple('bob', 400), EMP)"),
            &Env::new(),
        )
        .unwrap();
    assert_eq!(c2.version, 2);
    let emp = db.schema().rel_id("EMP").unwrap();
    assert_eq!(db.snapshot().relation(emp).unwrap().len(), 2);
    assert_eq!(db.head_version(), 2);
}

#[test]
fn snapshots_are_isolated_from_later_commits() {
    let db = Database::new(schema()).unwrap();
    let mut s = db.session();
    s.commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    let frozen = db.snapshot();
    let mut s2 = db.session();
    s2.commit("hire2", &tx("insert(tuple('bob', 400), EMP)"), &Env::new())
        .unwrap();
    let emp = db.schema().rel_id("EMP").unwrap();
    assert_eq!(frozen.relation(emp).unwrap().len(), 1);
    assert_eq!(db.snapshot().relation(emp).unwrap().len(), 2);
}

#[test]
fn disjoint_commit_forwards_without_retry() {
    let db = Database::new(schema()).unwrap();
    // two sessions pinned to the same snapshot
    let mut a = db.session();
    let mut b = db.session();
    a.commit("emp", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    // b's footprint is {LOG}, disjoint from a's {EMP}
    let c = b
        .commit("log", &tx("insert(tuple('audit'), LOG)"), &Env::new())
        .unwrap();
    assert!(
        c.forwarded,
        "disjoint commit should forward, not re-execute"
    );
    assert_eq!(c.retries, 0);
    assert_eq!(c.version, 2);
    let emp = db.schema().rel_id("EMP").unwrap();
    let log = db.schema().rel_id("LOG").unwrap();
    let head = db.snapshot();
    assert_eq!(head.relation(emp).unwrap().len(), 1);
    assert_eq!(head.relation(log).unwrap().len(), 1);
}

#[test]
fn overlapping_commit_retries_and_serializes() {
    let db = Database::new(schema()).unwrap();
    let mut setup = db.session();
    setup
        .commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    let mut a = db.session();
    let mut b = db.session();
    let raise = tx("foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end");
    a.commit("raise-a", &raise, &Env::new()).unwrap();
    let c = b.commit("raise-b", &raise, &Env::new()).unwrap();
    assert!(!c.forwarded);
    assert!(c.retries >= 1, "same-relation commit must conflict");
    // both raises landed: serializable outcome
    let emp = db.schema().rel_id("EMP").unwrap();
    let sal = db
        .snapshot()
        .relation(emp)
        .unwrap()
        .iter()
        .next()
        .unwrap()
        .fields()[1]
        .as_nat()
        .unwrap();
    assert_eq!(sal, 520);
}

#[test]
fn prepared_commit_surfaces_conflict() {
    let db = Database::new(schema()).unwrap();
    let mut setup = db.session();
    setup
        .commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    let mut a = db.session();
    let mut b = db.session();
    let raise = tx("foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end");
    a.commit("raise-a", &raise, &Env::new()).unwrap();
    let stale = b.prepare(&raise, &Env::new()).unwrap();
    match b.commit_prepared("raise-b", &stale) {
        Err(CommitError::Conflict { head_version }) => assert_eq!(head_version, 2),
        other => panic!("expected Conflict, got {other:?}"),
    }
    // refresh and try again: succeeds
    b.refresh();
    let fresh = b.prepare(&raise, &Env::new()).unwrap();
    b.commit_prepared("raise-b", &fresh).unwrap();
}

#[test]
fn constraint_violation_aborts_without_installing() {
    let mut db = Database::new(schema()).unwrap();
    db.add_constraint(Box::new(SalaryCap(1000))).unwrap();
    let mut s = db.session();
    let err = s
        .commit("hire", &tx("insert(tuple('ann', 5000), EMP)"), &Env::new())
        .unwrap_err();
    match err {
        CommitError::ConstraintViolation { constraint } => {
            assert_eq!(constraint, "salary-cap")
        }
        other => panic!("expected ConstraintViolation, got {other:?}"),
    }
    assert_eq!(db.head_version(), 0);
    // a legal commit still goes through
    s.refresh();
    s.commit("hire", &tx("insert(tuple('ann', 900), EMP)"), &Env::new())
        .unwrap();
    assert_eq!(db.head_version(), 1);
}

#[test]
fn materialized_event_pattern_maintains_history_relation() {
    let db = Database::builder(schema())
        .event_pattern(PatternDef::materialized(
            "fired",
            Pattern::parse("delete(EMP, N, _)").unwrap(),
            "FIRED",
            &["N"],
        ))
        .unwrap()
        .build()
        .unwrap();
    assert!(db.schema().expect("FIRED").unwrap().system);
    // subscriptions share the materialized patterns' name space
    let err = db
        .subscribe_pattern(
            "fired",
            &Pattern::parse("insert(EMP, N, _)").unwrap(),
            Arc::new(|_| {}),
        )
        .unwrap_err();
    assert!(err.to_string().contains("already registered"), "{err}");
    let fired = db.schema().rel_id("FIRED").unwrap();
    let mut s = db.session();
    s.commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    assert!(db.snapshot().relation(fired).unwrap().is_empty());
    s.commit("fire", &tx("delete(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    // the history row is part of the fire's own commit
    let head = db.snapshot();
    assert!(head
        .relation(fired)
        .unwrap()
        .contains_fields(&[Atom::str("ann")]));
    assert_eq!(db.head_version(), 2, "materialization consumes no version");
    // re-firing the same name does not duplicate the history row
    s.refresh();
    s.commit("rehire", &tx("insert(tuple('ann', 700), EMP)"), &Env::new())
        .unwrap();
    s.commit("refire", &tx("delete(tuple('ann', 700), EMP)"), &Env::new())
        .unwrap();
    assert_eq!(db.snapshot().relation(fired).unwrap().len(), 1);
}

#[test]
fn subscriptions_deliver_matches_in_commit_order() {
    let db = Database::new(schema()).unwrap();
    let seen: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let p = Pattern::parse("insert(EMP, N, _)").unwrap();
    let id = db
        .subscribe_pattern(
            "hires",
            &p,
            Arc::new(move |n: &crate::events::EventNotification| {
                let name = n.binding.values().next().unwrap();
                sink.lock().unwrap().push((n.version, name.to_string()));
            }),
        )
        .unwrap();
    // duplicate names are rejected
    assert!(db.subscribe_pattern("hires", &p, Arc::new(|_| {})).is_err());
    let mut s = db.session();
    s.commit("h1", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    s.commit("h2", &tx("insert(tuple('bob', 400), EMP)"), &Env::new())
        .unwrap();
    assert_eq!(
        *seen.lock().unwrap(),
        vec![(1, "'ann'".to_string()), (2, "'bob'".to_string())]
    );
    assert!(db.unsubscribe(id));
    assert!(!db.unsubscribe(id));
    s.commit("h3", &tx("insert(tuple('cyd', 300), EMP)"), &Env::new())
        .unwrap();
    assert_eq!(seen.lock().unwrap().len(), 2, "unsubscribed");
}

#[test]
fn late_subscription_primes_silently_over_history() {
    let db = Database::new(schema()).unwrap();
    let mut s = db.session();
    s.commit("fire", &tx("insert(tuple('ann'), LOG)"), &Env::new())
        .unwrap();
    let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    // seq whose left half is already in the past at subscription time
    let p = Pattern::parse("seq(insert(LOG, N), insert(EMP, N, _))").unwrap();
    db.subscribe_pattern(
        "seq",
        &p,
        Arc::new(move |n: &crate::events::EventNotification| {
            sink.lock().unwrap().push(n.version);
        }),
    )
    .unwrap();
    // completes the seq: left primed from history, right live
    s.commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    assert_eq!(*seen.lock().unwrap(), vec![2]);
}

#[test]
fn event_pattern_registration_is_validated() {
    let refusal = |r: TxResult<DatabaseBuilder>| match r {
        Ok(_) => panic!("registration should be refused"),
        Err(e) => e.to_string(),
    };
    // unknown relation
    let err = refusal(
        Database::builder(schema()).event_pattern(PatternDef::materialized(
            "p",
            Pattern::parse("insert(NOPE, X)").unwrap(),
            "OUT",
            &["X"],
        )),
    );
    assert!(err.contains("unknown relation NOPE"), "{err}");
    // materialization column not certainly bound (Or binds S on one
    // branch only)
    assert!(Database::builder(schema())
        .event_pattern(PatternDef::materialized(
            "p",
            Pattern::parse("or(insert(EMP, N, S), delete(EMP, N, _))").unwrap(),
            "OUT",
            &["N", "S"],
        ))
        .is_err());
    // patterns over system relations are rejected
    let b = Database::builder(schema())
        .event_pattern(PatternDef::materialized(
            "fired",
            Pattern::parse("delete(EMP, N, _)").unwrap(),
            "FIRED",
            &["N"],
        ))
        .unwrap();
    let err = refusal(b.event_pattern(PatternDef::materialized(
        "loop",
        Pattern::parse("insert(FIRED, N)").unwrap(),
        "LOOPED",
        &["N"],
    )));
    assert!(err.contains("cannot watch system relation FIRED"), "{err}");
}

/// Never-rehire over a materialized `FIRED`, written out by hand: no
/// name is both employed and fired.
struct NeverRehire;

impl CommitConstraint for NeverRehire {
    fn name(&self) -> &str {
        "never-rehire"
    }
    fn window_states(&self) -> usize {
        1
    }
    fn affected_by(&self, _: &Schema, _: &Delta) -> bool {
        true
    }
    fn check(&self, schema: &Schema, states: &[DbState], _: &[&str]) -> TxResult<bool> {
        let state = states.last().expect("window is non-empty");
        let fired = state
            .relation(schema.rel_id("FIRED")?)
            .expect("FIRED exists");
        let emp = state.relation(schema.rel_id("EMP")?).expect("EMP exists");
        Ok(emp.iter().all(|t| !fired.contains_fields(&t.fields()[..1])))
    }
}

/// A fire and its `FIRED` row are one commit, so a rehire is validated
/// against the row however far notification lags behind. Here a
/// subscriber parks the dispatcher inside the first commit's drain, so
/// every later commit only enqueues for notification; the rehire must
/// still be refused.
#[test]
fn materialized_row_commits_with_the_fire_that_caused_it() {
    let db = Database::builder(schema())
        .event_pattern(PatternDef::materialized(
            "fired",
            Pattern::parse("delete(EMP, N, _)").unwrap(),
            "FIRED",
            &["N"],
        ))
        .unwrap()
        .constraint(Box::new(NeverRehire))
        .build()
        .unwrap();
    let (parked, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let (p, r) = (Arc::clone(&parked), Arc::clone(&release));
    db.subscribe_pattern(
        "park",
        &Pattern::parse("insert(LOG, X)").unwrap(),
        Arc::new(move |_: &crate::events::EventNotification| {
            p.wait();
            r.wait();
        }),
    )
    .unwrap();
    let env = Env::new();
    let (parker, hire, fire, rehire) = std::thread::scope(|scope| {
        let parker = scope.spawn(|| {
            db.session()
                .commit("park", &tx("insert(tuple('park'), LOG)"), &env)
        });
        parked.wait();
        let mut s = db.session();
        let hire = s.commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &env);
        let fire = s.commit("fire", &tx("delete(tuple('ann', 500), EMP)"), &env);
        let rehire = s.commit("rehire", &tx("insert(tuple('ann', 700), EMP)"), &env);
        release.wait();
        (parker.join().unwrap(), hire, fire, rehire)
    });
    assert_eq!(parker.unwrap().version, 1);
    assert_eq!(hire.unwrap().version, 2);
    assert_eq!(fire.unwrap().version, 3, "the FIRED row took no version");
    assert!(
        matches!(&rehire, Err(CommitError::ConstraintViolation { constraint })
                 if constraint == "never-rehire"),
        "{rehire:?}"
    );
    assert_eq!(db.head_version(), 3);
    let head = db.snapshot();
    let fired = db.schema().rel_id("FIRED").unwrap();
    assert!(head
        .relation(fired)
        .unwrap()
        .contains_fields(&[Atom::str("ann")]));
}

/// A system relation is written only by the engine: a user
/// transaction touching one is refused, so the `FIRED` row that is
/// never-rehire's memory cannot be erased to let a rehire through.
#[test]
fn materialized_relation_refuses_user_writes() {
    let db = Database::builder(schema())
        .event_pattern(PatternDef::materialized(
            "fired",
            Pattern::parse("delete(EMP, N, _)").unwrap(),
            "FIRED",
            &["N"],
        ))
        .unwrap()
        .constraint(Box::new(NeverRehire))
        .build()
        .unwrap();
    let ctx = ParseCtx::with_relations(&["EMP", "LOG", "FIRED"]);
    let tx = |src: &str| parse_fterm(src, &ctx, &[]).unwrap();
    let env = Env::new();
    let rehire = tx("insert(tuple('ann', 700), EMP)");
    let refused_by_never_rehire = |r: Result<Commit, CommitError>| {
        matches!(&r, Err(CommitError::ConstraintViolation { constraint })
                 if constraint == "never-rehire")
    };
    let mut s = db.session();
    s.commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &env)
        .unwrap();
    s.commit("fire", &tx("delete(tuple('ann', 500), EMP)"), &env)
        .unwrap();
    assert!(refused_by_never_rehire(s.commit("rehire", &rehire, &env)));
    match s.commit("erase", &tx("delete(tuple('ann'), FIRED)"), &env) {
        Err(CommitError::Execution(e)) => assert!(e.to_string().contains("FIRED"), "{e}"),
        other => panic!("expected the FIRED delete to be refused, got {other:?}"),
    }
    assert!(refused_by_never_rehire(s.commit("rehire", &rehire, &env)));
    assert_eq!(db.head_version(), 2);
}

/// A commit refused by a constraint, or by an overloaded log, advances
/// no materialized automaton: the `and` never sees the refused `EMP`
/// insert, so a later `LOG` insert of the same name completes nothing.
#[test]
fn materialized_pattern_ignores_refused_commits() {
    let paired = || {
        PatternDef::materialized(
            "paired",
            Pattern::parse("and(insert(EMP, N, _), insert(LOG, N))").unwrap(),
            "PAIRED",
            &["N"],
        )
    };
    let env = Env::new();
    let db = Database::builder(schema())
        .event_pattern(paired())
        .unwrap()
        .constraint(Box::new(SalaryCap(1000)))
        .build()
        .unwrap();
    let rel = db.schema().rel_id("PAIRED").unwrap();
    let mut s = db.session();
    let refused = s.commit("hire", &tx("insert(tuple('ann', 5000), EMP)"), &env);
    assert!(
        matches!(refused, Err(CommitError::ConstraintViolation { .. })),
        "{refused:?}"
    );
    s.commit("log", &tx("insert(tuple('ann'), LOG)"), &env)
        .unwrap();
    assert_eq!(db.head_version(), 1);
    assert!(db.snapshot().relation(rel).unwrap().is_empty());
    // the pattern itself works: a legal hire of the same name pairs
    s.commit("hire", &tx("insert(tuple('ann', 900), EMP)"), &env)
        .unwrap();
    assert_eq!(db.snapshot().relation(rel).unwrap().len(), 1);

    // the same through a log that refuses the record: one queued
    // submission fills it, and the next is overloaded
    let (db, _) = Database::builder(schema())
        .event_pattern(paired())
        .unwrap()
        .manual_log_writer()
        .log_queue_cap(1)
        .durability(Durability::Wal {
            sync_every: 1,
            checkpoint_every: 0,
        })
        .open_store(Box::new(MemStore::new()))
        .unwrap();
    let rel = db.schema().rel_id("PAIRED").unwrap();
    let mut s = db.session();
    let p = s.prepare(&tx("insert(tuple('bob'), LOG)"), &env).unwrap();
    s.submit_prepared("fill", &p).unwrap();
    let p = s
        .prepare(&tx("insert(tuple('ann', 500), EMP)"), &env)
        .unwrap();
    let refused = s.submit_prepared("hire", &p).map(|(c, _)| c);
    assert!(
        matches!(refused, Err(CommitError::Overload { .. })),
        "{refused:?}"
    );
    db.pump_log_writer();
    let p = s.prepare(&tx("insert(tuple('ann'), LOG)"), &env).unwrap();
    s.submit_prepared("log", &p).unwrap();
    db.pump_log_writer();
    assert_eq!(db.head_version(), 2);
    assert!(db.snapshot().relation(rel).unwrap().is_empty());
}

/// A subscriber whose callback panics loses its subscription, and
/// nothing else: the commit that reached it returns `Ok`, later
/// commits keep materializing, and the other subscribers keep being
/// served. The panicking one is registered first, so its panic comes
/// before the healthy subscriber's callback in every drain.
#[test]
fn subscription_that_panics_is_dropped_and_dispatch_continues() {
    let m = Metrics::enabled();
    let db = Database::builder(schema())
        .metrics(m.clone())
        .event_pattern(PatternDef::materialized(
            "hired",
            Pattern::parse("insert(EMP, N, _)").unwrap(),
            "HIRED",
            &["N"],
        ))
        .unwrap()
        .build()
        .unwrap();
    let hires = Pattern::parse("insert(EMP, N, _)").unwrap();
    let bad = db
        .subscribe_pattern("panics", &hires, Arc::new(|_| panic!("subscriber bug")))
        .unwrap();
    let seen = Arc::new(AtomicUsize::new(0));
    let sink = Arc::clone(&seen);
    db.subscribe_pattern(
        "counts",
        &hires,
        Arc::new(move |_| {
            sink.fetch_add(1, Relaxed);
        }),
    )
    .unwrap();
    let mut s = db.session();
    for i in 1..=6u64 {
        let hire = tx(&format!("insert(tuple('w{i}', 500), EMP)"));
        let c = s
            .commit("hire", &hire, &Env::new())
            .expect("a subscriber's panic does not fail the commit");
        assert_eq!(c.version, i);
    }
    assert_eq!(
        seen.load(Relaxed),
        6,
        "the healthy subscriber saw every hire"
    );
    let hired = db.schema().rel_id("HIRED").unwrap();
    assert_eq!(db.snapshot().relation(hired).unwrap().len(), 6);
    assert!(!db.unsubscribe(bad), "the panicking subscription is gone");
    assert_eq!(m.get(Counter::EvtNotificationsDropped), 1);
    assert_eq!(m.get(Counter::EvtNotificationsSent), 6);
}

#[test]
fn materialized_relations_recover_with_the_log() {
    let def = || {
        PatternDef::materialized(
            "fired",
            Pattern::parse("delete(EMP, N, _)").unwrap(),
            "FIRED",
            &["N"],
        )
    };
    let store = MemStore::new();
    {
        let (db, _) = Database::builder(schema())
            .event_pattern(def())
            .unwrap()
            .durability(Durability::Wal {
                sync_every: 1,
                checkpoint_every: 1024,
            })
            .open_store(Box::new(store.clone()))
            .unwrap();
        let mut s = db.session();
        s.commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
            .unwrap();
        s.commit("fire", &tx("delete(tuple('ann', 500), EMP)"), &Env::new())
            .unwrap();
        let fired = db.schema().rel_id("FIRED").unwrap();
        assert_eq!(db.snapshot().relation(fired).unwrap().len(), 1);
    }
    // reopen from the logged bytes: the fire's record carries the
    // history row, so it replays with the fire
    let (db, report) = Database::builder(schema())
        .event_pattern(def())
        .unwrap()
        .durability(Durability::Wal {
            sync_every: 1,
            checkpoint_every: 1024,
        })
        .open_store(Box::new(MemStore::from_bytes(store.contents())))
        .unwrap();
    assert!(!report.fresh);
    let fired = db.schema().rel_id("FIRED").unwrap();
    assert!(db
        .snapshot()
        .relation(fired)
        .unwrap()
        .contains_fields(&[Atom::str("ann")]));
    // and the automaton state was rebuilt: a fresh fire of a new
    // name still materializes
    let mut s = db.session();
    s.commit("hire2", &tx("insert(tuple('bob', 400), EMP)"), &Env::new())
        .unwrap();
    s.commit("fire2", &tx("delete(tuple('bob', 400), EMP)"), &Env::new())
        .unwrap();
    assert_eq!(db.snapshot().relation(fired).unwrap().len(), 2);
}

#[test]
fn add_constraint_rejects_violated_base() {
    let mut db = Database::new(schema()).unwrap();
    let mut s = db.session();
    s.commit("hire", &tx("insert(tuple('ann', 5000), EMP)"), &Env::new())
        .unwrap();
    assert!(db.add_constraint(Box::new(SalaryCap(1000))).is_err());
}

#[test]
fn footprint_bounds_simple_programs() {
    let fp = Footprint::of_program(&tx("insert(tuple('ann', 1), EMP)"));
    let rels: Vec<&str> = fp.rels().unwrap().iter().map(|s| s.as_str()).collect();
    assert_eq!(rels, ["EMP"]);
    let fp = Footprint::of_program(&tx(
        "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 1) end",
    ));
    let rels: Vec<&str> = fp.rels().unwrap().iter().map(|s| s.as_str()).collect();
    assert_eq!(rels, ["EMP"]);
    let fp = Footprint::of_program(&tx("if exists e: 2tup . e in EMP & salary(e) > 100
         then insert(tuple('rich'), LOG) else insert(tuple('poor'), LOG)"));
    let rels: Vec<&str> = fp.rels().unwrap().iter().map(|s| s.as_str()).collect();
    assert_eq!(rels, ["EMP", "LOG"]);
}

#[test]
fn footprint_poisons_unbounded_reads() {
    // a foreach without a membership conjunct enumerates active tuples
    let unbounded = tx("foreach e: 2tup | salary(e) > 0 do delete(e, EMP) end");
    assert!(Footprint::of_program(&unbounded).is_all());
    // an unbounded footprint conflicts with any non-empty delta
    let s = schema();
    let emp = s.rel_id("EMP").unwrap();
    let d0 = s.initial_state();
    let (_, _, delta) = d0
        .insert_traced(
            emp,
            &txlog_relational::TupleVal::anonymous(vec![
                txlog_base::Atom::str("x"),
                txlog_base::Atom::nat(1),
            ]),
        )
        .unwrap();
    assert!(Footprint::all().overlaps_delta(&s, &delta));
    assert!(!Footprint::all().overlaps_delta(&s, &Delta::empty()));
}

#[test]
fn durable_commits_survive_reopen() {
    let store = MemStore::new();
    let (db, report) = Database::builder(schema())
        .durability(Durability::Wal {
            sync_every: 1,
            checkpoint_every: 0,
        })
        .open_store(Box::new(store.clone()))
        .unwrap();
    assert!(report.fresh);
    let mut s = db.session();
    s.commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    s.commit("hire2", &tx("insert(tuple('bob', 400), EMP)"), &Env::new())
        .unwrap();
    let head = db.snapshot();
    drop(s);
    drop(db);
    // reopen from the same log bytes
    let (db2, report) = Database::builder(schema())
        .durability(Durability::wal())
        .open_store(Box::new(MemStore::from_bytes(store.contents())))
        .unwrap();
    assert!(!report.fresh);
    assert_eq!(report.replayed_deltas, 2);
    assert_eq!(db2.head_version(), 2);
    let recovered = db2.snapshot();
    assert!(recovered.content_eq(&head));
    assert_eq!(recovered.next_tuple_id(), head.next_tuple_id());
    // and the recovered database keeps committing
    let mut s2 = db2.session();
    let c = s2
        .commit("hire3", &tx("insert(tuple('cyn', 300), EMP)"), &Env::new())
        .unwrap();
    assert_eq!(c.version, 3);
}

#[test]
fn forwarded_commits_are_logged_too() {
    let store = MemStore::new();
    let (db, _) = Database::builder(schema())
        .durability(Durability::wal())
        .open_store(Box::new(store.clone()))
        .unwrap();
    let mut a = db.session();
    let mut b = db.session();
    a.commit("emp", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    let c = b
        .commit("log", &tx("insert(tuple('audit'), LOG)"), &Env::new())
        .unwrap();
    assert!(c.forwarded);
    let head = db.snapshot();
    drop(a);
    drop(b);
    drop(db);
    let (db2, report) = Database::builder(schema())
        .durability(Durability::wal())
        .open_store(Box::new(MemStore::from_bytes(store.contents())))
        .unwrap();
    assert_eq!(report.replayed_deltas, 2);
    assert_eq!(db2.head_version(), 2);
    assert!(db2.snapshot().content_eq(&head));
}

#[test]
fn recovery_verifies_constraints_against_recovered_head() {
    let store = MemStore::new();
    let (db, _) = Database::builder(schema())
        .durability(Durability::wal())
        .open_store(Box::new(store.clone()))
        .unwrap();
    let mut s = db.session();
    s.commit("hire", &tx("insert(tuple('ann', 5000), EMP)"), &Env::new())
        .unwrap();
    drop(s);
    drop(db);
    // a constraint the logged history violates fails the recovery
    let err = match Database::builder(schema())
        .durability(Durability::wal())
        .constraint(Box::new(SalaryCap(1000)))
        .open_store(Box::new(MemStore::from_bytes(store.contents())))
    {
        Err(e) => e,
        Ok(_) => panic!("recovery should reject a violated constraint"),
    };
    assert!(matches!(err, WalError::Engine(_)), "got {err:?}");
    // one the history satisfies passes
    let (db2, _) = Database::builder(schema())
        .durability(Durability::wal())
        .constraint(Box::new(SalaryCap(10_000)))
        .open_store(Box::new(MemStore::from_bytes(store.contents())))
        .unwrap();
    assert_eq!(db2.head_version(), 1);
}

#[test]
fn builder_requires_open_for_wal_durability() {
    assert!(Database::builder(schema())
        .durability(Durability::wal())
        .build()
        .is_err());
    let db = Database::builder(schema()).build().unwrap();
    assert_eq!(db.head_version(), 0);
}

#[test]
fn commit_metrics_are_recorded() {
    let m = Metrics::enabled();
    let db = Database::builder(schema())
        .metrics(m.clone())
        .build()
        .unwrap();
    let mut s = db.session();
    s.commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    assert_eq!(m.get(Counter::CommitAttempts), 1);
    assert_eq!(m.get(Counter::CommitsApplied), 1);
    assert_eq!(m.get(Counter::CommitConflicts), 0);
}

#[test]
fn manual_writer_acks_the_whole_batch_after_one_fsync() {
    use txlog_base::obs::Hist;
    let store = MemStore::new();
    let m = Metrics::enabled();
    let (db, _) = Database::builder(schema())
        .metrics(m.clone())
        .manual_log_writer()
        .durability(Durability::Wal {
            sync_every: 8,
            checkpoint_every: 0,
        })
        .open_store(Box::new(store.clone()))
        .unwrap();
    let env = Env::new();
    let mut s = db.session();
    let mut tickets = Vec::new();
    for (label, src) in [
        ("a", "insert(tuple('ann', 500), EMP)"),
        ("b", "insert(tuple('bob', 400), EMP)"),
        ("c", "insert(tuple('cyn', 300), EMP)"),
    ] {
        let p = s.prepare(&tx(src), &env).unwrap();
        let (_, t) = s.submit_prepared(label, &p).unwrap();
        tickets.push(t);
    }
    assert_eq!(db.head_version(), 3, "all three install before any fsync");
    assert!(
        tickets.iter().all(|t| !t.is_complete()),
        "no ack may precede the group fsync"
    );
    db.pump_log_writer();
    for t in &tickets {
        assert!(matches!(t.try_result(), Some(Ok(()))));
    }
    assert_eq!(m.get(Counter::WalGroupBatches), 1, "one batch, one fsync");
    assert_eq!(m.hist(Hist::WalGroupBatchSize).max, 3);
    assert_eq!(
        store.durable_len(),
        store.contents().len(),
        "the batch is durable after the pump"
    );
}

/// A `LogStore` whose `sync` blocks until the gate opens — a
/// stand-in for a device with a stalled fsync.
#[derive(Clone)]
struct GatedStore {
    inner: MemStore,
    gate: Arc<(Mutex<bool>, std::sync::Condvar)>,
}

impl GatedStore {
    fn open_gate(&self) {
        let (lock, cv) = &*self.gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    fn close_gate(&self) {
        *self.gate.0.lock().unwrap() = false;
    }
}

impl LogStore for GatedStore {
    fn len(&self) -> Result<u64, WalError> {
        self.inner.len()
    }
    fn read_all(&mut self) -> Result<Vec<u8>, WalError> {
        self.inner.read_all()
    }
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.inner.append(bytes)
    }
    fn sync(&mut self) -> Result<(), WalError> {
        let (lock, cv) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
        drop(open);
        self.inner.sync()
    }
    fn truncate(&mut self, len: u64) -> Result<(), WalError> {
        self.inner.truncate(len)
    }
}

#[test]
fn slow_log_store_surfaces_overload_instead_of_deadlock() {
    let store = GatedStore {
        inner: MemStore::new(),
        gate: Arc::new((Mutex::new(true), std::sync::Condvar::new())),
    };
    let (db, _) = Database::builder(schema())
        .log_queue_cap(2)
        .durability(Durability::Wal {
            sync_every: 1,
            checkpoint_every: 0,
        })
        .open_store(Box::new(store.clone()))
        .unwrap();
    // the open-time checkpoint synced through the open gate; stall
    // every fsync from here on
    store.close_gate();
    let env = Env::new();
    let mut s = db.session();
    let mut tickets = Vec::new();
    let mut overloaded = false;
    // with the writer stalled at most 1 (in flight) + 2 (queued)
    // submissions are accepted; the next one must be rejected with
    // Overload rather than blocking
    for i in 0..4 {
        let p = s
            .prepare(&tx(&format!("insert(tuple('e{i}', {i}), EMP)")), &env)
            .unwrap();
        match s.submit_prepared(&format!("hire-{i}"), &p) {
            Ok((_, t)) => tickets.push(t),
            Err(CommitError::Overload { capacity }) => {
                assert_eq!(capacity, 2);
                overloaded = true;
                break;
            }
            Err(e) => panic!("unexpected submit error: {e:?}"),
        }
    }
    assert!(
        overloaded,
        "a stalled writer must surface backpressure within queue_cap + 1 submissions"
    );
    assert!(
        tickets.len() >= 2,
        "the queue accepts up to its capacity before overloading"
    );
    // backpressure is transient: release the device and every
    // accepted commit acks durably
    store.open_gate();
    for t in &tickets {
        t.wait().unwrap();
    }
    assert_eq!(db.head_version(), tickets.len() as u64);
}

/// Every `CommitError` variant either exposes its wrapped cause
/// through `Error::source()` or is itself the root cause — the
/// contract a wire-protocol front end relies on to map commit
/// failures losslessly.
#[test]
fn commit_error_source_chain_per_variant() {
    use std::error::Error as _;
    let conflict = CommitError::Conflict { head_version: 7 };
    assert!(conflict.source().is_none());
    let violated = CommitError::ConstraintViolation {
        constraint: "cap".to_string(),
    };
    assert!(violated.source().is_none());
    let exhausted = CommitError::RetriesExhausted { attempts: 9 };
    assert!(exhausted.source().is_none());
    let serialization = CommitError::SerializationFailure { head_version: 3 };
    assert!(serialization.source().is_none());
    let overload = CommitError::Overload { capacity: 4 };
    assert!(overload.source().is_none());
    let execution = CommitError::Execution(TxError::eval("boom"));
    let src = execution.source().expect("Execution chains its TxError");
    assert!(src.downcast_ref::<TxError>().is_some());
    let durability = CommitError::Durability(WalError::Poisoned {
        detail: "fsync died".to_string(),
    });
    let src = durability.source().expect("Durability chains its WalError");
    assert!(src.downcast_ref::<WalError>().is_some());
    // the chain continues through the WAL layer down to the codec
    let nested = CommitError::Durability(WalError::Codec(
        txlog_relational::codec::CodecError::BadMagic,
    ));
    let wal = nested.source().expect("WalError level");
    let codec = wal.source().expect("CodecError level");
    assert!(codec
        .downcast_ref::<txlog_relational::codec::CodecError>()
        .is_some());
}

#[test]
fn read_committed_repins_at_statement_boundaries() {
    let db = Database::new(schema()).unwrap();
    let mut rc = db.session_with(SessionOptions::read_committed());
    let mut si = db.session_with(SessionOptions::snapshot());
    let mut writer = db.session();
    writer
        .commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    let p = txlog_logic::parse_fformula("exists e: 2tup . e in EMP", &ctx(), &[]).unwrap();
    assert!(
        rc.ask(&p, &Env::new()).unwrap(),
        "read committed re-pins at the statement boundary"
    );
    assert!(
        !si.ask(&p, &Env::new()).unwrap(),
        "snapshot keeps its pinned (empty) state"
    );
}

/// The reference a staged block must agree with: its statements as
/// one left-nested sequential composition, `Λ` when there are none.
fn compose(parts: &[FTerm]) -> FTerm {
    let mut it = parts.iter().cloned();
    let Some(first) = it.next() else {
        return FTerm::Identity;
    };
    it.fold(first, |acc, next| FTerm::Seq(Box::new(acc), Box::new(next)))
}

#[test]
fn staged_block_equals_one_sequential_execution() {
    let db = Database::new(schema()).unwrap();
    db.session()
        .commit("seed", &tx("insert(tuple('bob', 300), EMP)"), &Env::new())
        .unwrap();
    let blocks: [&[&str]; 4] = [
        &[],
        // insert, then modify the tuple just inserted
        &[
            "insert(tuple('ann', 500), EMP)",
            "foreach e: 2tup | e in EMP & e-name(e) = 'ann' do modify(e, salary, 600) end",
        ],
        &[
            "insert(tuple('memo'), LOG)",
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 1) end",
            "delete(tuple('bob', 301), EMP)",
        ],
        &[
            "insert(tuple('cy', 1), EMP)",
            "delete(tuple('cy', 1), EMP)",
            "insert(tuple('cy', 2), EMP)",
        ],
    ];
    let engine = db.engine().unwrap();
    for block in blocks {
        let parts: Vec<FTerm> = block.iter().map(|src| tx(src)).collect();
        let mut s = db.session();
        s.begin();
        for (k, part) in parts.iter().enumerate() {
            assert_eq!(s.stage(part, &Env::new()).unwrap() as usize, k + 1);
        }
        let whole = engine
            .execute_traced(&s.snapshot(), &compose(&parts), &Env::new())
            .unwrap();
        let staged = s.staged().expect("the block is open").execution();
        assert!(staged.state.content_eq(&whole.state), "{block:?}");
        assert_eq!(staged.delta, whole.delta, "{block:?}");
        assert!(
            s.state().content_eq(&whole.state),
            "the block reads its staging"
        );
    }
}

#[test]
fn read_committed_block_does_not_repin() {
    let db = Database::new(schema()).unwrap();
    let mut rc = db.session_with(SessionOptions::read_committed());
    let mut writer = db.session();
    let any_emp = txlog_logic::parse_fformula("exists e: 2tup . e in EMP", &ctx(), &[]).unwrap();
    rc.begin();
    let pinned = rc.version();
    writer
        .commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    assert!(
        !rc.ask(&any_emp, &Env::new()).unwrap(),
        "the block reads its pin"
    );
    rc.stage(&tx("insert(tuple('memo'), LOG)"), &Env::new())
        .unwrap();
    assert!(!rc.ask(&any_emp, &Env::new()).unwrap());
    assert_eq!(
        rc.version(),
        pinned,
        "no statement inside the block re-pins"
    );
    assert_eq!(rc.abort(), Some(1));
    assert!(
        rc.ask(&any_emp, &Env::new()).unwrap(),
        "outside a block the statement boundary re-pins again"
    );
}

#[test]
fn serializable_certifies_the_read_set() {
    let m = Metrics::enabled();
    let db = Database::builder(schema())
        .metrics(m.clone())
        .build()
        .unwrap();
    let mut ssi = db.session_with(SessionOptions::serializable());
    let mut writer = db.session();
    let p = txlog_logic::parse_fformula("exists e: 2tup . e in EMP", &ctx(), &[]).unwrap();
    // the read is taken, then EMP moves under it
    assert!(!ssi.ask(&p, &Env::new()).unwrap());
    writer
        .commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    // the commit's own footprint (LOG) is disjoint — a snapshot
    // session would forward — but the *read* of EMP is stale
    let err = ssi
        .commit("memo", &tx("insert(tuple('audit'), LOG)"), &Env::new())
        .expect_err("read-set certification must fail");
    assert!(
        matches!(err, CommitError::SerializationFailure { head_version: 1 }),
        "got {err:?}"
    );
    assert_eq!(m.get(Counter::CommitSerializationFailures), 1);

    // the same dance under snapshot isolation forwards cleanly
    let mut si = db.session_with(SessionOptions::snapshot());
    assert!(si.ask(&p, &Env::new()).unwrap());
    writer
        .commit("hire2", &tx("insert(tuple('bob', 400), EMP)"), &Env::new())
        .unwrap();
    let c = si
        .commit("memo2", &tx("insert(tuple('audit-2'), LOG)"), &Env::new())
        .expect("snapshot isolation ignores read-write conflicts");
    assert!(c.forwarded);
}

#[test]
fn serializable_reads_reset_after_commit_and_refresh() {
    let db = Database::new(schema()).unwrap();
    let mut ssi = db.session_with(SessionOptions::serializable());
    let mut writer = db.session();
    let p = txlog_logic::parse_fformula("exists e: 2tup . e in EMP", &ctx(), &[]).unwrap();
    assert!(!ssi.ask(&p, &Env::new()).unwrap());
    writer
        .commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    // refresh discards the stale read set; the next commit is clean
    ssi.refresh();
    ssi.commit("memo", &tx("insert(tuple('audit'), LOG)"), &Env::new())
        .expect("refreshed reads certify");
    // a successful commit also resets the reads: observing EMP
    // *after* the writer moved it poisons nothing
    assert!(ssi.ask(&p, &Env::new()).unwrap());
    ssi.commit("memo2", &tx("insert(tuple('audit-2'), LOG)"), &Env::new())
        .expect("reads taken at the current head certify");
}

#[test]
fn read_committed_forwards_on_write_write_disjointness_alone() {
    let db = Database::new(schema()).unwrap();
    let mut setup = db.session();
    setup
        .commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    // reads EMP, writes LOG — under snapshot the footprint overlaps
    // any EMP delta; under read committed only the writes matter
    let audit = tx("foreach e: 2tup | e in EMP do insert(tuple('seen'), LOG) end");
    let raise = tx("foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end");

    let mut rc = db.session_with(SessionOptions::read_committed());
    let prepared = rc.prepare(&audit, &Env::new()).unwrap();
    setup.commit("raise", &raise, &Env::new()).unwrap();
    let c = rc
        .commit_prepared("audit", &prepared)
        .expect("write-write disjoint commit forwards under read committed");
    assert!(c.forwarded, "read committed ignores the stale EMP read");

    let mut si = db.session_with(SessionOptions::snapshot());
    let prepared = si.prepare(&audit, &Env::new()).unwrap();
    setup.commit("raise-2", &raise, &Env::new()).unwrap();
    let err = si
        .commit_prepared("audit-2", &prepared)
        .expect_err("the same stale read conflicts under snapshot");
    assert!(matches!(err, CommitError::Conflict { .. }), "got {err:?}");
}

#[test]
fn session_retry_policy_overrides_the_database_default() {
    let db = Database::new(schema()).unwrap();
    let mut setup = db.session();
    setup
        .commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .unwrap();
    let raise = tx("foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end");
    // a zero-retry session gives up on the first conflict even
    // though the database default would have retried
    let mut stubborn = db.session_with(SessionOptions::new().retry(RetryPolicy::no_backoff(0)));
    setup.commit("raise-a", &raise, &Env::new()).unwrap();
    let err = stubborn
        .commit("raise-b", &raise, &Env::new())
        .expect_err("zero retries exhausts on the first conflict");
    assert!(
        matches!(err, CommitError::RetriesExhausted { attempts: 1 }),
        "got {err:?}"
    );
}

#[test]
fn windowed_constraint_escalates_read_committed() {
    let m = Metrics::enabled();
    let mut db = Database::builder(schema())
        .metrics(m.clone())
        .build()
        .unwrap();
    db.add_constraint(Box::new(TwoStateNoop)).unwrap();
    let s = db.session_with(SessionOptions::read_committed());
    assert_eq!(
        s.isolation(),
        IsolationLevel::Snapshot,
        "a window-2 constraint needs a statement-stable pre-state"
    );
    assert_eq!(m.get(Counter::SessionsEscalated), 1);
    assert_eq!(m.get(Counter::SessionsSnapshot), 1);
    assert_eq!(m.get(Counter::SessionsReadCommitted), 0);
}

/// What a constraint is shown at every check: `window_states` trailing
/// states at most, one label per transition between them — none for a
/// window of the candidate alone, whose pre-state is not in view — and
/// the session's configured prefix on each label.
#[test]
fn label_prefix_applies_to_commit_labels() {
    use std::sync::Mutex;
    /// Always affected, never violated; records `(states, labels)` of
    /// every window it is shown.
    struct WindowSpy(usize, Mutex<Vec<(usize, Vec<String>)>>);
    impl CommitConstraint for Arc<WindowSpy> {
        fn name(&self) -> &str {
            "window-spy"
        }
        fn window_states(&self) -> usize {
            self.0
        }
        fn affected_by(&self, _: &Schema, _: &Delta) -> bool {
            true
        }
        fn check(&self, _: &Schema, states: &[DbState], labels: &[&str]) -> TxResult<bool> {
            let labels = labels.iter().map(|l| l.to_string()).collect();
            self.1.lock().unwrap().push((states.len(), labels));
            Ok(true)
        }
    }
    for k in 1..=3 {
        let spy = Arc::new(WindowSpy(k, Mutex::new(Vec::new())));
        let mut db = Database::new(schema()).unwrap();
        db.add_constraint(Box::new(Arc::clone(&spy))).unwrap();
        let mut s = db.session_with(SessionOptions::new().label_prefix("job-7/"));
        let committed: Vec<String> = (1..=4).map(|i| format!("job-7/hire-{i}")).collect();
        for i in 1..=4 {
            let hire = tx(&format!("insert(tuple('emp-{i}', 500), EMP)"));
            s.commit(&format!("hire-{i}"), &hire, &Env::new()).unwrap();
        }
        // the base check at registration, then one check per commit: at
        // history start the window is still filling, by the last commit
        // it is full for every k
        let seen = spy.1.lock().unwrap();
        assert_eq!(seen.len(), 5, "window {k}");
        assert_eq!(seen[0], (1, Vec::new()), "window {k}: base check");
        for (i, (states, labels)) in seen.iter().enumerate().skip(1) {
            assert_eq!(*states, k.min(i + 1), "window {k}, commit {i}");
            assert_eq!(
                labels[..],
                committed[i + 1 - states..i],
                "window {k}, commit {i}"
            );
        }
    }
}

/// Always affected, never violated; panics on its second check (the
/// first is the base check at registration).
struct PanicsOnSecondCheck {
    name: &'static str,
    checks: AtomicUsize,
}

impl CommitConstraint for PanicsOnSecondCheck {
    fn name(&self) -> &str {
        self.name
    }
    fn window_states(&self) -> usize {
        1
    }
    fn affected_by(&self, _: &Schema, _: &Delta) -> bool {
        true
    }
    fn check(&self, _: &Schema, _: &[DbState], _: &[&str]) -> TxResult<bool> {
        if self.checks.fetch_add(1, Relaxed) == 1 {
            panic!("constraint bug");
        }
        Ok(true)
    }
}

/// A constraint is caller code running under the head lock. One that
/// panics fails its own commit with a typed error and leaves the
/// database usable — with one affected constraint and with two: both
/// still run on the failing commit (validation does not stop at the
/// first failure), so the second's own panic is behind it, too, when
/// the fresh session commits.
#[test]
fn panicking_constraint_fails_its_commit_not_the_database() {
    for names in [&["flaky"][..], &["flaky-a", "flaky-b"][..]] {
        let mut db = Database::new(schema()).unwrap();
        for &name in names {
            let checks = AtomicUsize::new(0);
            db.add_constraint(Box::new(PanicsOnSecondCheck { name, checks }))
                .unwrap();
        }
        let hire = tx("insert(tuple('ann', 500), EMP)");
        let err = db
            .session()
            .commit("hire", &hire, &Env::new())
            .expect_err("the panicking check fails the commit");
        match err {
            CommitError::Execution(e) => assert!(e.to_string().contains(names[0]), "got {e}"),
            other => panic!("expected Execution, got {other:?}"),
        }
        assert_eq!(db.head_version(), 0, "nothing installed");
        assert!(db.snapshot().content_eq(&schema().initial_state()));
        let c = db
            .session()
            .commit("hire", &hire, &Env::new())
            .expect("a fresh session commits once the constraint behaves");
        assert_eq!(c.version, 1);
    }
    // and should anything else ever unwind while holding the head lock,
    // the poison is recovered instead of wedging every later caller
    let db = Database::new(schema()).unwrap();
    let poisoned = catch_unwind(AssertUnwindSafe(|| {
        let _held = db.head.lock().unwrap();
        panic!("unwinding with the head locked");
    }));
    assert!(poisoned.is_err() && db.head.is_poisoned());
    assert_eq!(db.head_version(), 0);
    db.session()
        .commit("hire", &tx("insert(tuple('ann', 500), EMP)"), &Env::new())
        .expect("commits proceed over a recovered lock");
    assert_eq!(db.snapshot().relation(RelId(0)).unwrap().len(), 1);
}

/// Needs two states, never affected: makes the head retain a window
/// whose advance is observable.
struct TwoStateNoop;

impl CommitConstraint for TwoStateNoop {
    fn name(&self) -> &str {
        "two-state-noop"
    }
    fn window_states(&self) -> usize {
        2
    }
    fn affected_by(&self, _: &Schema, _: &Delta) -> bool {
        false
    }
    fn check(&self, _: &Schema, _: &[DbState], _: &[&str]) -> TxResult<bool> {
        Ok(true)
    }
}

/// Direct commits, forwarded commits, and a direct commit that
/// completes a materialized pattern's match go through one routine and
/// leave one shape behind: head version +1, exactly one WAL commit
/// record whose delta takes the previous head to the new one (the
/// history row included), the retained window advanced by one, and the
/// case's own outcome counters bumped once.
#[test]
fn every_commit_kind_stages_through_one_routine() {
    use txlog_relational::codec::{decode_frame, Decoder};
    let outcome_counters = [
        Counter::CommitsApplied,
        Counter::CommitsForwarded,
        Counter::EvtMaterialized,
    ];
    let moved: [&[Counter]; 3] = [
        &[Counter::CommitsApplied],
        &[Counter::CommitsForwarded],
        &[Counter::CommitsApplied, Counter::EvtMaterialized],
    ];
    for (kind, moved) in moved.into_iter().enumerate() {
        let store = MemStore::new();
        let m = Metrics::enabled();
        let fired = PatternDef::materialized(
            "fired",
            Pattern::parse("delete(EMP, N, _)").unwrap(),
            "FIRED",
            &["N"],
        );
        let (db, _) = Database::builder(schema())
            .metrics(m.clone())
            .event_pattern(fired)
            .unwrap()
            .constraint(Box::new(TwoStateNoop))
            .manual_log_writer()
            .durability(Durability::Wal {
                sync_every: 1,
                checkpoint_every: 0,
            })
            .open_store(Box::new(store.clone()))
            .unwrap();
        let env = Env::new();
        // a stale session for the forwarded case, then one commit
        // everyone starts after
        let mut stale = db.session();
        let mut s = db.session();
        let p = s
            .prepare(&tx("insert(tuple('ann', 500), EMP)"), &env)
            .unwrap();
        s.submit_prepared("setup", &p).unwrap();
        db.pump_log_writer();

        let logged = store.contents().len();
        let before = db.snapshot();
        let before_version = db.head_version();
        let before_counts = outcome_counters.map(|c| m.get(c));
        let label = match kind {
            0 => {
                let p = s
                    .prepare(&tx("insert(tuple('bob', 400), EMP)"), &env)
                    .unwrap();
                let (c, _) = s.submit_prepared("direct", &p).unwrap();
                assert!(!c.forwarded);
                "direct"
            }
            1 => {
                // pinned before `setup` moved EMP; LOG is disjoint
                let p = stale
                    .prepare(&tx("insert(tuple('audit'), LOG)"), &env)
                    .unwrap();
                let (c, _) = stale.submit_prepared("forwarded", &p).unwrap();
                assert!(c.forwarded);
                "forwarded"
            }
            _ => {
                let p = s
                    .prepare(&tx("delete(tuple('ann', 500), EMP)"), &env)
                    .unwrap();
                let (c, _) = s.submit_prepared("fire", &p).unwrap();
                assert!(!c.forwarded);
                "fire"
            }
        };
        db.pump_log_writer();

        assert_eq!(db.head_version(), before_version + 1, "{label}");
        let after = db.snapshot();
        // exactly one record reached the log, and it is this commit's
        let bytes = store.contents();
        let (payload, consumed) = decode_frame(&bytes[logged..], u32::MAX)
            .expect("a valid frame")
            .expect("a complete frame");
        assert_eq!(logged + consumed, bytes.len(), "{label}: one record only");
        let mut d = Decoder::new(payload);
        assert_eq!(d.u8("tag").unwrap(), 1, "{label}: a commit record");
        assert_eq!(d.u64("version").unwrap(), before_version + 1);
        assert_eq!(d.str("label").unwrap(), label);
        assert_eq!(d.u64("allocator").unwrap(), after.next_tuple_id());
        let delta = d.delta().unwrap();
        let replayed = delta.apply(&before).unwrap();
        assert_eq!(replayed.content_digest(), after.content_digest(), "{label}");
        let fired = db.schema().rel_id("FIRED").unwrap();
        assert_eq!(delta.touches(fired), label == "fire", "{label}");
        // the retained window slid by one: (before, after), closed by
        // this commit's label
        let head = db.head();
        let (states, labels) = head.window(usize::MAX, None);
        assert_eq!(states.len(), 2, "{label}");
        assert_eq!(states[0].content_digest(), before.content_digest());
        assert_eq!(states[1].content_digest(), after.content_digest());
        assert_eq!(labels, [label]);
        // and only this case's outcome counters moved, by one each
        for (c, was) in outcome_counters.into_iter().zip(before_counts) {
            assert_eq!(
                m.get(c) - was,
                u64::from(moved.contains(&c)),
                "{label}: {c:?}"
            );
        }
    }
}

#[test]
fn isolation_level_parsing_and_names() {
    for level in IsolationLevel::ALL {
        assert_eq!(IsolationLevel::parse(level.name()), Some(level));
    }
    assert_eq!(
        IsolationLevel::parse("rc"),
        Some(IsolationLevel::ReadCommitted)
    );
    assert_eq!(IsolationLevel::parse("si"), Some(IsolationLevel::Snapshot));
    assert_eq!(
        IsolationLevel::parse("SSI"),
        Some(IsolationLevel::Serializable)
    );
    assert_eq!(IsolationLevel::parse("chaos"), None);
}
