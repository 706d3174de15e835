//! `event_fanout` — commits feeding event patterns, served.
//!
//! One relation `R(x, y)` behind an in-process `Server`, with two
//! *materialized* patterns registered on the database. Connection 1
//! subscribes to eight patterns (`insert`, `delete`, `seq`, `and`,
//! `without`, `or` shapes; two can never match); connection 2 commits
//! text programs, every fourth a delete-then-insert. The subscriber
//! timestamps each `next_notification`.
//!
//! Why it exists: it is the only workload where the `txlog-events`
//! automata, the engine-internal `events/{name}` commits and the
//! server's notification flush do most of the work. `notify_*` is the
//! delay a reactive client sees: producer's `execute` return to the
//! subscriber's `next_notification` return for that version.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use txlog::events::Automaton;
use txlog::prelude::{
    Atom, Client, Database, EventCallback, NotificationEvent, Pattern, PatternDef, Schema,
};

use super::{begin_measured, count_log, ns_since, open_shipped, serve, warmup_of, Conn, Shadow};
use crate::observe::timed_callback;
use crate::rng::SplitMix64;
use crate::round::{Ctx, Round};
use crate::spans;

const COMMITS: usize = 3000;

/// Matches the producer lets be outstanding — committed but not yet
/// read by the subscriber. The server drops a subscription whose
/// connection queue passes 256 frames (`ServerConfig::notify_queue`),
/// and an idle connection is only flushed every 25 ms, so a stall of
/// the subscriber's worker would otherwise turn into a failed run. The
/// producer normally runs some 90 matches ahead and never waits.
const WINDOW: usize = 192;

/// Patterns whose matches the engine materializes into system
/// relations: `(name, pattern, relation, column)`.
const MATERIALIZED: [(&str, &str, &str, &str); 2] = [
    ("gone", "delete(R, GoneX, _)", "GONE", "GoneX"),
    (
        "cycled",
        "seq(insert(R, CycX, _), delete(R, CycX, _))",
        "CYCLED",
        "CycX",
    ),
];

/// What the subscriber connection subscribes to.
const SUBSCRIPTIONS: [(&str, &str); 8] = [
    ("ins-1", "insert(R, X, 1)"),
    ("del", "delete(R, X, Y)"),
    ("cycle", "seq(insert(R, X, Y), delete(R, X, _))"),
    ("both", "and(insert(R, X, _), delete(R, X, _))"),
    ("first-del", "without(delete(R, X, _), insert(R, X, 3))"),
    ("zero", "or(insert(R, X, 0), delete(R, X, 0))"),
    ("nobody", "insert(R, 'nobody', _)"),
    ("reinsert", "seq(delete(R, X, _), insert(R, X, _))"),
];

fn schema() -> Schema {
    Schema::new()
        .relation("R", &["x", "y"])
        .expect("static schema is well-formed")
}

/// Commit `i` inserts `('k-i', i mod 4)`; every fourth commit first
/// deletes the tuple from two commits back (residue 1, so never one
/// that was deleted before).
fn program(i: usize, tag: u64) -> String {
    let insert = format!("insert(tuple('k{tag}-{i}', {}), R)", i % 4);
    if i % 4 == 3 {
        let j = i - 2;
        format!("delete(tuple('k{tag}-{j}', {}), R) ;; {insert}", j % 4)
    } else {
        insert
    }
}

type Binding = Vec<(String, Atom)>;

/// The matches commit `i` must produce, as `(subscription, binding)`,
/// worked out from the program text alone.
fn expected(i: usize, tag: u64) -> Vec<(&'static str, Binding)> {
    let x = |k: usize| ("X".to_string(), Atom::str(&format!("k{tag}-{k}")));
    match i % 4 {
        0 => vec![("zero", vec![x(i)])],
        1 => vec![("ins-1", vec![x(i)])],
        3 => {
            let gone = x(i - 2);
            let with_y = vec![gone.clone(), ("Y".to_string(), Atom::nat(1))];
            vec![
                ("del", with_y.clone()),
                ("cycle", with_y),
                ("both", vec![gone.clone()]),
                ("first-del", vec![gone]),
            ]
        }
        _ => Vec::new(),
    }
}

/// Key tag and commit count; the tag makes the op stream depend on
/// the seed (the shape of the stream is fixed by design).
fn plan(seed: u64, shrink: usize) -> (u64, usize) {
    let tag = SplitMix64::new(seed).fork(6).below(1_000_000);
    (tag, (COMMITS / shrink).max(40))
}

#[cfg(test)]
pub fn op_stream(seed: u64, shrink: usize) -> String {
    let (tag, commits) = plan(seed, shrink);
    (0..commits).map(|i| program(i, tag) + "\n").collect()
}

/// One delivered match.
struct Delivered {
    name: String,
    version: u64,
    binding: Binding,
    at_ns: u64,
}

/// Judge the delivered matches: every expected match exactly once, per
/// subscription in version order, with the committed values. Samples
/// `notify` latency for matches of measured commits when `acks` holds
/// the producer's timestamps.
fn judge(
    round: &mut Round,
    tag: u64,
    versions: &[u64],
    acks: Option<&[u64]>,
    warmup: usize,
    delivered: &[Delivered],
) {
    let mut want: BTreeMap<&str, Vec<(usize, Binding)>> = BTreeMap::new();
    for i in 0..versions.len() {
        for (name, binding) in expected(i, tag) {
            want.entry(name).or_default().push((i, binding));
        }
    }
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for d in delivered {
        let Some((name, due)) = want.get_key_value(d.name.as_str()) else {
            round.fail(|| {
                format!(
                    "{} matched at version {}; it never should",
                    d.name, d.version
                )
            });
            continue;
        };
        let k = seen.entry(name).or_default();
        let verdict = match due.get(*k) {
            None => Err(format!("{name}: more matches than expected")),
            Some((i, _)) if versions[*i] != d.version => Err(format!(
                "{name}: match {k} at version {}, expected commit {i} at version {}",
                d.version, versions[*i]
            )),
            Some((_, binding)) if *binding != d.binding => Err(format!(
                "{name}: match {k} bound {:?}, committed {binding:?}",
                d.binding
            )),
            Some((i, _)) => Ok(*i),
        };
        *k += 1;
        match (verdict, acks) {
            (Ok(i), Some(acks)) if i >= warmup => {
                round.record("notify", Ok(d.at_ns.saturating_sub(acks[i])));
            }
            (Ok(_), _) => {}
            (Err(e), _) => round.fail(|| e),
        }
    }
    for (name, due) in &want {
        let got = seen.get(name).copied().unwrap_or(0);
        if got < due.len() {
            round.fail(|| format!("{name}: {got} of {} matches delivered", due.len()));
        }
    }
}

fn builder() -> txlog::prelude::DatabaseBuilder {
    MATERIALIZED.iter().fold(
        Database::builder(schema()),
        |b, (name, pattern, rel, col)| {
            let pattern = Pattern::parse(pattern).expect("pattern parses");
            b.event_pattern(PatternDef::materialized(name, pattern, rel, &[col]))
                .expect("pattern registers")
        },
    )
}

/// One round's op stream and what it must produce.
struct Stream {
    tag: u64,
    programs: Vec<String>,
    warmup: usize,
    total_matches: usize,
}

/// The traced form, in-process: subscriptions call back on the
/// committing thread, commits go through the decomposed calls.
fn commit_decomposed(ctx: &Ctx, stream: &Stream, db: &Database, round: &mut Round) -> Vec<u64> {
    let delivered: Arc<Mutex<Vec<Delivered>>> = Arc::default();
    for (name, pattern) in SUBSCRIPTIONS {
        let sink = Arc::clone(&delivered);
        let callback: EventCallback = Arc::new(move |n| {
            let mut binding: Binding = n
                .binding
                .iter()
                .map(|(v, a)| (v.as_str().to_string(), *a))
                .collect();
            binding.sort_by(|a, b| a.0.cmp(&b.0));
            sink.lock().expect("sink").push(Delivered {
                name: name.to_string(),
                version: n.version,
                binding,
                at_ns: spans::now_ns(),
            });
        });
        let pattern = Pattern::parse(pattern).expect("pattern parses");
        db.subscribe_pattern(name, &pattern, timed_callback(callback))
            .expect("subscription registers");
    }
    let mut shadow = Shadow {
        automata: MATERIALIZED
            .iter()
            .map(|m| m.1)
            .chain(SUBSCRIPTIONS.iter().map(|s| s.1))
            .map(|p| {
                Automaton::compile(&Pattern::parse(p).expect("parses"), db.schema())
                    .expect("pattern compiles")
            })
            .collect(),
        ..Shadow::default()
    };
    let mut conn = Conn::open(db);
    let mut versions = vec![0u64; stream.programs.len()];
    // warm-up takes the same path (the shadow automata must see every
    // delta); its spans predate the measured phase
    let mut unmeasured = Round::default();
    let mut measured = None;
    for (i, program) in stream.programs.iter().enumerate() {
        if i == stream.warmup {
            measured = Some(begin_measured(ctx, round));
        }
        let round = if i < stream.warmup {
            &mut unmeasured
        } else {
            &mut *round
        };
        let (result, ns) = conn.execute(round, "c", program, i as u32, &mut shadow);
        if let Ok(c) = &result {
            versions[i] = c.version;
        }
        round.record(
            "commit",
            result.map(|_| ns).map_err(|e| format!("commit {i}: {e}")),
        );
    }
    let measured = measured.expect("the stream outlasts its warm-up");
    let wall = measured.wall();
    round.add("wall.op", wall);
    round.add("wall.commit", wall);
    measured.finish(round, stream.programs.len() - stream.warmup);
    round.fail_warmup(unmeasured);
    let delivered = std::mem::take(&mut *delivered.lock().expect("sink"));
    judge(
        round,
        stream.tag,
        &versions,
        None,
        stream.warmup,
        &delivered,
    );
    versions
}

/// What the subscriber connection saw, and when it saw the last of it.
struct Received {
    delivered: Vec<Delivered>,
    problems: Vec<String>,
    last_at_ns: u64,
}

/// The subscriber: subscribe, then read notifications until every
/// expected match has arrived or something went wrong. `received`
/// tells the producer how far it has come.
fn subscribe_and_read(
    addr: std::net::SocketAddr,
    total_matches: usize,
    start: &Barrier,
    received: &AtomicUsize,
) -> Received {
    let mut client = Client::connect(addr, "subscriber").expect("subscriber connects");
    for (name, pattern) in SUBSCRIPTIONS {
        client.subscribe(name, pattern).expect("subscribes");
    }
    start.wait();
    let (mut delivered, mut problems) = (Vec::new(), Vec::new());
    while delivered.len() < total_matches {
        match client.next_notification(Duration::from_secs(5)) {
            Ok(Some(NotificationEvent::Match(n))) => {
                delivered.push(Delivered {
                    name: n.name,
                    version: n.version,
                    binding: n.binding,
                    at_ns: spans::now_ns(),
                });
                received.store(delivered.len(), Ordering::Release);
            }
            Ok(Some(NotificationEvent::Overflow { name, capacity })) => {
                problems.push(format!("{name} overflowed a queue of {capacity}"));
                break;
            }
            Ok(None) => {
                problems.push("no notification for 5 s".to_string());
                break;
            }
            Err(e) => {
                problems.push(format!("subscriber connection: {e}"));
                break;
            }
        }
    }
    // a subscriber that gave up must not leave the producer waiting
    received.store(usize::MAX, Ordering::Release);
    Received {
        delivered,
        problems,
        last_at_ns: spans::now_ns(),
    }
}

/// The untraced form: a subscriber connection and a producer
/// connection on a real server.
fn commit_over_the_wire(
    ctx: &Ctx,
    stream: &Stream,
    db: &Arc<Database>,
    round: &mut Round,
) -> Vec<u64> {
    let server = serve(db);
    let addr = server.local_addr();
    let start = Barrier::new(2);
    let received = AtomicUsize::new(0);
    let commits = stream.programs.len();
    let (mut versions, mut acks) = (vec![0u64; commits], vec![0u64; commits]);
    let seen = std::thread::scope(|s| {
        let subscriber =
            s.spawn(|| subscribe_and_read(addr, stream.total_matches, &start, &received));
        let mut producer = Client::connect(addr, "producer").expect("producer connects");
        // subscriptions are in place before the first commit
        start.wait();
        let mut measured = None;
        let (mut measured_from_ns, mut due) = (0, 0);
        for (i, program) in stream.programs.iter().enumerate() {
            if i == stream.warmup {
                measured = Some(begin_measured(ctx, round));
                measured_from_ns = spans::now_ns();
            }
            due += expected(i, stream.tag).len();
            while due.saturating_sub(received.load(Ordering::Acquire)) > WINDOW {
                std::thread::sleep(Duration::from_micros(500));
            }
            let t = Instant::now();
            let result = producer.execute("c", program);
            let ns = ns_since(t);
            acks[i] = spans::now_ns();
            let outcome = result
                .map(|c| versions[i] = c.version)
                .map_err(|e| format!("commit {i}: {e}"));
            if i >= stream.warmup {
                round.record("commit", outcome.map(|()| ns));
            } else if let Err(e) = outcome {
                round.fail(|| format!("warm-up: {e}"));
            }
        }
        let measured = measured.expect("the stream outlasts its warm-up");
        round.add("wall.commit", measured.wall());
        let seen = subscriber.join().expect("subscriber thread");
        // the workload's own op ends when its notification is read
        let wall_ns = seen.last_at_ns.saturating_sub(measured_from_ns);
        round.add("wall.op", wall_ns as f64 / 1e9);
        measured.finish(round, commits - stream.warmup);
        seen
    });
    for p in seen.problems {
        round.fail(|| p);
    }
    judge(
        round,
        stream.tag,
        &versions,
        Some(&acks),
        stream.warmup,
        &seen.delivered,
    );
    server.shutdown();
    server.join();
    versions
}

pub fn run(ctx: &Ctx) -> Round {
    let (tag, commits) = plan(ctx.seed, ctx.shrink);
    let stream = Stream {
        tag,
        programs: (0..commits).map(|i| program(i, tag)).collect(),
        warmup: warmup_of(commits),
        total_matches: (0..commits).map(|i| expected(i, tag).len()).sum(),
    };
    let shipped = open_shipped(ctx, builder());
    let mut round = Round::default();
    let versions = if ctx.traced {
        commit_decomposed(ctx, &stream, &shipped.db, &mut round)
    } else {
        commit_over_the_wire(ctx, &stream, &shipped.db, &mut round)
    };

    // oracle, second half: the materialized relations hold one row per
    // deleting commit
    let deletes = (0..commits).filter(|i| i % 4 == 3).count() + usize::from(ctx.sabotage);
    let snapshot = shipped.db.snapshot();
    for (_, _, rel, _) in MATERIALIZED {
        let id = shipped.db.schema().rel_id(rel).expect("system relation");
        let rows = snapshot.relation(id).map_or(0, |r| r.len());
        if rows != deletes {
            round.fail(|| format!("{rel} holds {rows} rows after {deletes} deleting commits"));
        }
    }
    let acked = versions.iter().filter(|v| **v > 0).count() as u64;
    drop(snapshot);
    drop(Arc::into_inner(shipped.db).expect("server released the database"));
    count_log(&mut round, &shipped.log, acked, ctx.traced);
    round
}
