//! Deterministic metrics snapshots for the CI baseline gate.
//!
//! [`collect`] installs a process-global metrics registry, runs a fixed,
//! fully seeded workload — the E1–E8 experiments plus three targeted
//! exercises of the plan interpreter, the incremental checker, and the
//! session commit pipeline — and
//! returns the accumulated [`Snapshot`]. Everything the workload does is
//! deterministic (seeded population, `BTreeMap` enumeration order, fixed
//! catalog serialization order), so the counters-only JSON form of the
//! snapshot is byte-identical across runs on the same commit. CI diffs
//! it against `baselines/metrics.json`: a drift means the engine is
//! doing *different work* than it did at the blessed commit — more
//! scans, fewer cache hits — which is exactly the class of regression
//! wall-clock benches are too noisy to gate on.

use txlog::constraints::{IncrementalChecker, Window};
use txlog::engine::{Engine, Env, EvalOptions, PlanMode};
use txlog::logic::{parse_fformula, parse_fterm, parse_sformula};
use txlog::prelude::{Metrics, Snapshot};

/// Run the fixed snapshot workload and return the recorded metrics.
///
/// Installs (and on exit uninstalls) the process-global recorder, so
/// engines created deep inside the experiments report into the same
/// registry as the explicitly threaded exercises.
pub fn collect() -> Snapshot {
    let metrics = Metrics::enabled();
    metrics.install_global();
    for report in crate::run_all() {
        assert!(
            report.all_agree(),
            "snapshot workload requires experiments to agree: {}",
            report.render()
        );
    }
    plan_exercise(&metrics);
    cache_exercise(&metrics);
    commit_exercise(&metrics);
    isolation_exercise(&metrics);
    wal_exercise(&metrics);
    group_commit_exercise(&metrics);
    server_exercise(&metrics);
    events_exercise(&metrics);
    let snap = metrics.snapshot();
    Metrics::disabled().install_global();
    snap
}

/// The b8 join constraint — "every employee is allocated to some
/// project" — whose inner existential compiles to an `a-emp` index
/// probe. Evaluated naively at 100 employees (to exercise the oracle
/// counters) and indexed at 400 (where probes must dominate scans).
fn plan_exercise(metrics: &Metrics) {
    let ctx = txlog::empdb::parse_ctx();
    let every_emp_allocated = parse_fformula(
        "forall e: 5tup . e in EMP ->
           (exists a: 3tup . a in ALLOC & a-emp(a) = e-name(e))",
        &ctx,
        &[],
    )
    .expect("constraint parses");
    let raise_dept = parse_fterm(
        "foreach e: 5tup | e in EMP & e-dept(e) = 'dept-0' do \
           modify(e, salary, salary(e) + 1) end",
        &ctx,
        &[],
    )
    .expect("transaction parses");
    let env = Env::new();
    for (n, mode) in [(100usize, PlanMode::Naive), (400, PlanMode::Indexed)] {
        let (schema, db) =
            txlog::empdb::populate(txlog::empdb::Sizes::scaled(n), 4).expect("population");
        let engine = Engine::builder(&schema)
            .options(EvalOptions {
                planner: mode,
                ..Default::default()
            })
            .metrics(metrics.clone())
            .build()
            .expect("schema builds");
        assert!(
            engine
                .eval_truth(&db, &every_emp_allocated, &env)
                .expect("evaluates"),
            "seeded population allocates every employee"
        );
        engine.execute(&db, &raise_dept, &env).expect("executes");
    }
}

/// A six-step incremental-checking run whose read-set-disjoint noise
/// steps repeat the window key, so the verdict cache demonstrably fires
/// (`cache_reused > 0` in the baseline).
fn cache_exercise(metrics: &Metrics) {
    use txlog::prelude::Schema;
    let schema = Schema::new()
        .relation("WORKERS", &["w-name", "wage"])
        .expect("relation")
        .relation("AUDIT", &["a-entry"])
        .expect("relation");
    let ctx = txlog::logic::ParseCtx::with_relations(&["WORKERS", "AUDIT"]);
    let constraint = parse_sformula(
        "forall s: state, t: tx, e: 2tup .
           (s:e in s:WORKERS & (s;t):e in (s;t):WORKERS)
             -> wage(s:e) <= wage((s;t):e)",
        &ctx,
    )
    .expect("constraint parses");
    let db = schema.initial_state();
    let workers = schema.rel_id("WORKERS").expect("relation id");
    let (db, _) = db
        .insert_fields(
            workers,
            &[
                txlog::prelude::Atom::str("ann"),
                txlog::prelude::Atom::nat(500),
            ],
        )
        .expect("insert");
    let mut checker = IncrementalChecker::new(schema, db, constraint, Window::States(2))
        .expect("checker builds")
        .with_metrics(metrics.clone());
    let noise = parse_fterm("insert(tuple('noise'), AUDIT)", &ctx, &[]).expect("parses");
    let raise = parse_fterm(
        "foreach e: 2tup | e in WORKERS do modify(e, wage, wage(e) + 100) end",
        &ctx,
        &[],
    )
    .expect("parses");
    let env = Env::new();
    checker.step("raise", &raise, &env).expect("step checks");
    for _ in 0..5 {
        checker.step("noise", &noise, &env).expect("step checks");
    }
    assert!(
        checker.metrics().get(txlog::constraints::counters::REUSED) > 0,
        "noise steps must hit the verdict cache"
    );
}

/// A single-threaded walk through every branch of the session commit
/// pipeline, so the commit counters are pinned in the baseline: an
/// uncontended apply, a stale-but-disjoint delta forward, a conflicted
/// retry, a single-attempt prepared-commit conflict, and a constraint
/// validation with one read-set skip. Deterministic because there is
/// exactly one thread — the interleaving is the program order.
fn commit_exercise(metrics: &Metrics) {
    use txlog::constraints::{Checker, Hints};
    use txlog::engine::{CommitError, Database, RetryPolicy};
    use txlog::prelude::Schema;

    let schema = Schema::new()
        .relation("STAFF", &["n-name", "pay"])
        .expect("relation")
        .relation("NOTES", &["note"])
        .expect("relation");
    let ctx = txlog::logic::ParseCtx::with_relations(&["STAFF", "NOTES"]);
    let cap = parse_sformula(
        "forall s: state, e': 2tup . e' in s:STAFF -> pay(e') <= 1000",
        &ctx,
    )
    .expect("constraint parses");
    let staff = |name: &str, pay: u64| {
        parse_fterm(&format!("insert(tuple('{name}', {pay}), STAFF)"), &ctx, &[]).expect("parses")
    };
    let note = parse_fterm("insert(tuple('note'), NOTES)", &ctx, &[]).expect("parses");

    let mut db = Database::builder(schema)
        .metrics(metrics.clone())
        .default_retry(RetryPolicy::no_backoff(4))
        .build()
        .expect("database builds");
    db.add_constraint(Box::new(
        Checker::for_session("pay-cap", cap, Hints::default()).expect("bounded window"),
    ))
    .expect("base state satisfies the cap");
    let env = Env::new();

    // uncontended apply (validated)
    let mut writer = db.session();
    writer
        .commit("hire-ann", &staff("ann", 500), &env)
        .expect("commits");
    // stale session, disjoint footprint: forwarded, and the cap check
    // is skipped because NOTES is outside its read-set
    let mut stale = db.session();
    writer
        .commit("hire-bob", &staff("bob", 600), &env)
        .expect("commits");
    let fwd = stale.commit("note", &note, &env).expect("commits");
    assert!(fwd.forwarded, "disjoint stale commit must forward");
    // stale session, overlapping footprint: conflict then retried apply
    let mut contender = db.session();
    writer
        .commit("hire-cal", &staff("cal", 700), &env)
        .expect("commits");
    let retried = contender
        .commit("hire-dee", &staff("dee", 800), &env)
        .expect("commits");
    assert!(retried.retries > 0, "stale overlapping commit must retry");
    // single-attempt conflict
    let mut once = db.session();
    writer
        .commit("hire-eli", &staff("eli", 300), &env)
        .expect("commits");
    let stale = once.prepare(&staff("fay", 400), &env).expect("prepares");
    let err = once
        .commit_prepared("hire-fay", &stale)
        .expect_err("stale overlapping prepared commit conflicts");
    assert!(matches!(err, CommitError::Conflict { .. }));
    // constraint violation: validated, rejected, not installed
    let err = writer
        .commit("overpay", &staff("gus", 5000), &env)
        .expect_err("cap violation rejected");
    assert!(matches!(err, CommitError::ConstraintViolation { .. }));
}

/// A single-threaded walk through the isolation-level machinery, so the
/// per-level session counters and `commit_serialization_failures` are
/// pinned non-zero in the baseline: one session opened at each level, a
/// read-committed statement-boundary re-pin observing a concurrent
/// commit, a serializable session whose read-set certification fails,
/// and a read-committed request escalated to snapshot by a window-2
/// constraint. Deterministic because there is exactly one thread.
fn isolation_exercise(metrics: &Metrics) {
    use txlog::constraints::{Checker, Hints};
    use txlog::engine::{CommitError, Database, IsolationLevel, SessionOptions};
    use txlog::prelude::Schema;

    let schema = Schema::new()
        .relation("STOCK", &["s-item", "s-count"])
        .expect("relation");
    let ctx = txlog::logic::ParseCtx::with_relations(&["STOCK"]);
    let env = Env::new();
    let item = |name: &str, n: u64| {
        parse_fterm(&format!("insert(tuple('{name}', {n}), STOCK)"), &ctx, &[]).expect("parses")
    };
    let any_stock = parse_fformula("exists e: 2tup . e in STOCK", &ctx, &[]).expect("parses");

    let db = Database::builder(schema)
        .metrics(metrics.clone())
        .build()
        .expect("database builds");

    // one session per level pins the per-level open counters
    let mut rc = db.session_with(SessionOptions::read_committed());
    let mut si = db.session_with(SessionOptions::snapshot());
    let mut ssi = db.session_with(SessionOptions::serializable());
    let mut writer = db.session();
    writer
        .commit("seed", &item("bolt", 10), &env)
        .expect("commits");

    // read committed re-pins at the statement boundary and sees the
    // concurrent commit; snapshot stays on its pinned (empty) state
    assert!(rc.ask(&any_stock, &env).expect("asks"));
    assert!(!si.ask(&any_stock, &env).expect("asks"));

    // serializable certifies the read set: a concurrent commit that
    // touches an observed relation aborts the session's own commit
    ssi.refresh();
    let _ = ssi.ask(&any_stock, &env).expect("asks");
    writer
        .commit("more", &item("nut", 5), &env)
        .expect("commits");
    let err = ssi
        .commit("memo", &item("memo", 1), &env)
        .expect_err("read-set certification fails");
    assert!(matches!(err, CommitError::SerializationFailure { .. }));

    // a window-2 constraint escalates a read-committed request
    let schema = Schema::new()
        .relation("WORKERS", &["w-name", "wage"])
        .expect("relation");
    let ctx = txlog::logic::ParseCtx::with_relations(&["WORKERS"]);
    let mono = parse_sformula(
        "forall s: state, t: tx, e: 2tup .
           (s:e in s:WORKERS & (s;t):e in (s;t):WORKERS)
             -> wage(s:e) <= wage((s;t):e)",
        &ctx,
    )
    .expect("constraint parses");
    let mut windowed = Database::builder(schema)
        .metrics(metrics.clone())
        .build()
        .expect("database builds");
    let transitive = Hints {
        step_relation_transitive: true,
        ..Hints::default()
    };
    windowed
        .add_constraint(Box::new(
            Checker::for_session("wage-mono", mono, transitive).expect("bounded window"),
        ))
        .expect("initial state satisfies the constraint");
    let escalated = windowed.session_with(SessionOptions::read_committed());
    assert_eq!(
        escalated.isolation(),
        IsolationLevel::Snapshot,
        "a transition constraint forces statement-stable snapshots"
    );
}

/// A durable commit run plus a torn-tail recovery, pinning the WAL and
/// recovery counters in the baseline: seven commits with fsync cadence 2
/// and checkpoint cadence 3 (two mid-log checkpoints), then a reopen of
/// the same bytes with the final record torn, which truncates exactly
/// that record and resumes from the last checkpoint. Deterministic
/// because the codec is byte-stable and `MemStore` is in-process.
fn wal_exercise(metrics: &Metrics) {
    use txlog::engine::{Database, Durability, MemStore};
    use txlog::prelude::Schema;

    let schema = Schema::new()
        .relation("LEDGER", &["l-entry", "amount"])
        .expect("relation");
    let ctx = txlog::logic::ParseCtx::with_relations(&["LEDGER"]);
    let env = Env::new();
    let entry = |n: u64| {
        parse_fterm(&format!("insert(tuple('e-{n}', {n}), LEDGER)"), &ctx, &[]).expect("parses")
    };

    let store = MemStore::default();
    let (db, report) = Database::builder(schema.clone())
        .metrics(metrics.clone())
        .durability(Durability::Wal {
            sync_every: 2,
            checkpoint_every: 3,
        })
        .open_store(Box::new(store.clone()))
        .expect("opens a fresh log");
    assert!(report.fresh, "empty store initialises a fresh log");
    let mut writer = db.session();
    for n in 1..=7u64 {
        writer
            .commit(&format!("entry-{n}"), &entry(n), &env)
            .expect("commits durably");
    }
    drop(writer);
    drop(db);

    // tear into the final commit record and recover the remaining bytes
    let mut bytes = store.contents();
    bytes.truncate(bytes.len() - 5);
    let (db, report) = Database::builder(schema)
        .metrics(metrics.clone())
        .open_store(Box::new(MemStore::from_bytes(bytes)))
        .expect("recovers a prefix");
    assert_eq!(report.version, 6, "torn tail lands on the previous commit");
    assert_eq!(report.truncated_records, 1, "exactly the torn record drops");
    assert_eq!(db.snapshot().total_tuples(), 6, "six entries survive");
}

/// Three prepared submissions from one session against a *manual* log
/// writer, pumped as a single batch: pins the group-commit counters in
/// the baseline — exactly one batch whose recorded size is 3 — on top
/// of the per-commit batches the single-threaded exercises above
/// produce. Deterministic because the manual writer only runs when
/// pumped, so the batch boundary is the program order.
fn group_commit_exercise(metrics: &Metrics) {
    use txlog::engine::{Database, Durability, MemStore};
    use txlog::prelude::{Counter, Hist, Schema};

    let schema = Schema::new()
        .relation("QUEUE", &["q-entry", "q-n"])
        .expect("relation");
    let ctx = txlog::logic::ParseCtx::with_relations(&["QUEUE"]);
    let env = Env::new();
    let entry = |n: u64| {
        parse_fterm(&format!("insert(tuple('q-{n}', {n}), QUEUE)"), &ctx, &[]).expect("parses")
    };

    let batches_before = metrics.get(Counter::WalGroupBatches);
    let (db, report) = Database::builder(schema)
        .metrics(metrics.clone())
        .durability(Durability::Wal {
            sync_every: 8,
            checkpoint_every: 0,
        })
        .manual_log_writer()
        .open_store(Box::new(MemStore::default()))
        .expect("opens a fresh log");
    assert!(report.fresh, "empty store initialises a fresh log");
    let mut session = db.session();
    let mut tickets = Vec::new();
    for n in 1..=3u64 {
        let prepared = session.prepare(&entry(n), &env).expect("prepares");
        let (_, ticket) = session
            .submit_prepared(&format!("queue-{n}"), &prepared)
            .expect("submission installs");
        tickets.push(ticket);
    }
    assert!(
        tickets.iter().all(|t| !t.is_complete()),
        "a manual writer acknowledges nothing before the pump"
    );
    db.pump_log_writer();
    for ticket in tickets {
        ticket.wait().expect("the batch acknowledges");
    }
    assert_eq!(
        metrics.get(Counter::WalGroupBatches),
        batches_before + 1,
        "three queued commits drain as one batch"
    );
    assert_eq!(
        metrics.hist(Hist::WalGroupBatchSize).max,
        3,
        "the batch size histogram records the full batch"
    );
}

/// A scripted loopback conversation with the wire-protocol server,
/// pinning the server counters in the baseline: one accepted
/// connection runs a fixed request sequence (autocommit, query, ask,
/// and a staged begin/execute/commit block), a second connection is
/// deterministically refused by the connection cap of 1, and one
/// deliberately corrupt frame exercises the decode-error path.
/// Deterministic because admission happens on the accept thread before
/// the handshake completes, so by the time client 1 holds its Welcome
/// the cap is provably occupied, and all frame counts follow from the
/// script.
fn server_exercise(metrics: &Metrics) {
    use std::sync::Arc;
    use std::time::Duration;
    use txlog::engine::Database;
    use txlog::prelude::{ClientError, Counter, ErrorCode, Schema, Server, ServerConfig};
    use txlog::server::frame::{encode_frame, FRAME_HEADER_LEN};

    let before = |c: Counter| metrics.get(c);
    let base = [
        before(Counter::ServerConnsAccepted),
        before(Counter::ServerConnsRejected),
        before(Counter::ServerFramesIn),
        before(Counter::ServerFramesOut),
        before(Counter::ServerDecodeErrors),
        before(Counter::ServerOverloads),
    ];

    let schema = Schema::new()
        .relation("CREW", &["c-name", "c-rank"])
        .expect("relation");
    let db = Database::builder(schema)
        .metrics(metrics.clone())
        .build()
        .expect("database builds");
    let cfg = ServerConfig {
        max_connections: 1,
        accept_queue: 1,
        workers: 2,
        idle_timeout: Duration::from_secs(10),
        read_timeout: Duration::from_secs(10),
        server_name: "snapshot".to_string(),
        ..ServerConfig::default()
    };
    let server =
        Server::bind_with(Arc::new(db), "127.0.0.1:0", cfg).expect("binds a loopback port");
    let addr = server.local_addr();

    let mut one = txlog::prelude::Client::connect(addr, "snapshot-1").expect("first client");
    assert_eq!(one.server_info().relations, vec!["CREW".to_string()]);

    // The cap is 1 and client 1 holds it: client 2 must be refused.
    let refused = txlog::prelude::Client::connect(addr, "snapshot-2")
        .expect_err("the connection cap refuses a second client");
    match refused {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::TooManyConnections),
        other => panic!("expected a typed rejection, got {other}"),
    }

    // The fixed request script: an autocommit, two reads, and a staged
    // two-statement transaction block.
    let c = one
        .execute("enlist", "insert(tuple('ada', 1), CREW)")
        .expect("autocommit installs");
    assert_eq!(c.version, 1);
    let crew = one.query("CREW").expect("query evaluates");
    assert!(
        crew.contains("ada"),
        "query result renders the tuple: {crew}"
    );
    assert!(one
        .ask("exists e: 2tup . e in CREW & c-rank(e) = 1")
        .expect("formula evaluates"));
    one.begin().expect("block opens");
    one.execute("staged", "insert(tuple('bea', 2), CREW)")
        .expect("statement stages");
    let c = one.commit("enlist-2").expect("block commits");
    assert_eq!(c.version, 2);

    // One corrupt frame: flip a payload bit so the CRC fails. The
    // server reports a typed decode error and drops the connection.
    let mut bad = encode_frame(b"not a message", u32::MAX).expect("frame fits");
    bad[FRAME_HEADER_LEN] ^= 0x01;
    one.send_raw(&bad).expect("bytes leave");
    match one.read_response() {
        Ok(txlog::server::Response::Error(e)) => assert_eq!(e.code, ErrorCode::Decode),
        other => panic!("expected a decode error, got {other:?}"),
    }
    drop(one);

    server.shutdown();
    server.join();

    let delta = |c: Counter, b: u64| metrics.get(c) - b;
    assert_eq!(delta(Counter::ServerConnsAccepted, base[0]), 1);
    assert_eq!(delta(Counter::ServerConnsRejected, base[1]), 1);
    // Hello + 6 scripted requests; the corrupt frame is counted as a
    // decode error, not an inbound frame.
    assert_eq!(delta(Counter::ServerFramesIn, base[2]), 7);
    // Welcome + 6 replies + the rejection + the decode-error farewell.
    assert_eq!(delta(Counter::ServerFramesOut, base[3]), 9);
    assert_eq!(delta(Counter::ServerDecodeErrors, base[4]), 1);
    assert_eq!(delta(Counter::ServerOverloads, base[5]), 0);
}

/// A fixed walk through the reactive-event subsystem, pinning the
/// `evt_*` counters and the `events.dispatch` span in the baseline:
/// one materialized history pattern plus one in-process subscription
/// run over a five-commit script chosen so that every counter moves
/// for a script-determined reason — three arrivals notify, two
/// departures fire the history pattern, and the second departure of
/// the same tuple finds its history row already present and adds none
/// (so `evt_materialized` pins the dedup, not just the install).
fn events_exercise(metrics: &Metrics) {
    use std::sync::{Arc, Mutex};
    use txlog::engine::Database;
    use txlog::prelude::{Atom, Counter, ParseCtx, Pattern, PatternDef, Schema, Symbol};

    let before = |c: Counter| metrics.get(c);
    let base = [
        before(Counter::EvtPatterns),
        before(Counter::EvtSteps),
        before(Counter::EvtMatches),
        before(Counter::EvtMaterialized),
        before(Counter::EvtNotificationsSent),
        before(Counter::EvtNotificationsDropped),
    ];

    let schema = Schema::new()
        .relation("GATE", &["g-name", "g-level"])
        .expect("relation");
    let departures = Pattern::parse("delete(GATE, N, _)").expect("pattern parses");
    let db = Database::builder(schema)
        .metrics(metrics.clone())
        .event_pattern(PatternDef::materialized(
            "departures",
            departures,
            "DEPARTED",
            &["N"],
        ))
        .expect("pattern registers")
        .build()
        .expect("database builds");

    let seen: Arc<Mutex<Vec<(u64, Atom)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let arrivals = Pattern::parse("insert(GATE, N, L)").expect("pattern parses");
    let sub = db
        .subscribe_pattern(
            "arrivals",
            &arrivals,
            Arc::new(move |n| {
                let who = n.binding[&Symbol::new("N")];
                sink.lock().expect("sink lock").push((n.version, who));
            }),
        )
        .expect("subscription registers");

    // The script: ada and bev arrive, ada departs (fires the history
    // pattern), ada returns, ada departs again (same history row —
    // the materialization dedups it).
    let ctx = ParseCtx::with_relations(&["GATE"]);
    let env = Env::new();
    let mut session = db.session();
    for (label, program) in [
        ("arrive-ada", "insert(tuple('ada', 1), GATE)"),
        ("arrive-bev", "insert(tuple('bev', 2), GATE)"),
        ("depart-ada", "delete(tuple('ada', 1), GATE)"),
        ("return-ada", "insert(tuple('ada', 1), GATE)"),
        ("redepart-ada", "delete(tuple('ada', 1), GATE)"),
    ] {
        let t = parse_fterm(program, &ctx, &[]).expect("script parses");
        session.refresh();
        session.commit(label, &t, &env).expect("script commits");
    }
    assert!(db.unsubscribe(sub), "the live subscription unregisters");

    // Three arrivals, in commit-version order; ada's departure at v3
    // carries its DEPARTED row, so the return lands at v4.
    assert_eq!(
        *seen.lock().expect("sink lock"),
        vec![
            (1, Atom::str("ada")),
            (2, Atom::str("bev")),
            (4, Atom::str("ada")),
        ],
        "every arrival notifies exactly once, in version order"
    );

    let delta = |c: Counter, b: u64| metrics.get(c) - b;
    // The materialized pattern plus the subscription.
    assert_eq!(delta(Counter::EvtPatterns, base[0]), 2);
    assert!(
        delta(Counter::EvtSteps, base[1]) > 0,
        "dispatch does automaton work"
    );
    // Three arrival matches and two departure matches.
    assert_eq!(delta(Counter::EvtMatches, base[2]), 5);
    // Two departure matches, one installed row: the dedup is pinned.
    assert_eq!(delta(Counter::EvtMaterialized, base[3]), 1);
    assert_eq!(delta(Counter::EvtNotificationsSent, base[4]), 3);
    assert_eq!(delta(Counter::EvtNotificationsDropped, base[5]), 0);
}
