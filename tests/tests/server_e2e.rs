//! End-to-end tests for the wire-protocol server, over real loopback
//! sockets: handshake discipline, execute/query round-trips, typed
//! wire errors for constraint violations and admission-control
//! rejections, staged transaction blocks and the isolation anomaly
//! matrix they obey, and graceful drain — a
//! shutdown must answer every request already on the wire (including
//! a commit paused inside constraint validation) before the server
//! exits.
//!
//! The CI `server` job runs exactly this file with
//! `RUST_TEST_THREADS=8`, so these tests are written to tolerate
//! running concurrently: every server binds port 0 and no test uses a
//! fixed address.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use txlog::engine::{CommitConstraint, Database};
use txlog::prelude::*;
use txlog::server::frame::{encode_frame, FRAME_HEADER_LEN};
use txlog::server::{Request, Response, PROTOCOL_VERSION};

fn crew_db() -> Arc<Database> {
    let schema = Schema::new()
        .relation("CREW", &["c-name", "c-rank"])
        .expect("relation declares");
    Arc::new(
        Database::builder(schema)
            .metrics(Metrics::enabled())
            .build()
            .expect("database builds"),
    )
}

fn serve(db: Arc<Database>, cfg: ServerConfig) -> Server {
    Server::bind_with(db, "127.0.0.1:0", cfg).expect("binds a loopback port")
}

fn quick_cfg() -> ServerConfig {
    ServerConfig {
        idle_timeout: Duration::from_secs(20),
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

#[test]
fn handshake_then_execute_and_query_round_trip() {
    let server = serve(crew_db(), quick_cfg());
    let mut client = Client::connect(server.local_addr(), "e2e").expect("connects");
    assert_eq!(client.server_info().protocol, PROTOCOL_VERSION);
    assert_eq!(client.server_info().relations, vec!["CREW".to_string()]);
    assert_eq!(client.server_info().head_version, 0);

    let c = client
        .execute("enlist", "insert(tuple('ada', 1), CREW)")
        .expect("autocommit installs");
    assert_eq!(c.version, 1);
    assert!(client
        .ask("exists e: 2tup . e in CREW & c-name(e) = 'ada'")
        .expect("formula evaluates"));
    let rendered = client.query("CREW").expect("query evaluates");
    assert!(rendered.contains("ada"), "tuple renders: {rendered}");
    let plan = client
        .explain("exists e: 2tup . e in CREW", false)
        .expect("explain renders");
    assert!(!plan.is_empty());
    let state = client.show_state().expect("state renders");
    assert!(state.contains("CREW"), "state names the relation: {state}");

    server.shutdown();
    server.join();
}

#[test]
fn version_mismatch_is_a_typed_protocol_error() {
    let server = serve(crew_db(), quick_cfg());
    // the server speaks exactly one version: newer and older are both refused
    for (protocol, client) in [
        (PROTOCOL_VERSION + 7, "from the future"),
        (PROTOCOL_VERSION - 1, "from the past"),
    ] {
        let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connects");
        let hello = Request::Hello {
            protocol,
            client: client.to_string(),
        };
        txlog::server::frame::write_frame(&mut stream, &hello.encode(), u32::MAX).expect("writes");
        let mut buf = Vec::new();
        match txlog::server::frame::read_frame_blocking(&mut stream, &mut buf, u32::MAX)
            .expect("reads")
        {
            txlog::server::frame::ReadOutcome::Frame(payload) => {
                match Response::decode(&payload).expect("decodes") {
                    Response::Error(e) => {
                        assert_eq!(e.code, ErrorCode::Protocol, "version {protocol}");
                        assert_eq!(e.detail, u64::from(PROTOCOL_VERSION));
                    }
                    other => panic!("expected a protocol error, got {other:?}"),
                }
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }
    server.shutdown();
    server.join();
}

#[test]
fn constraint_violation_arrives_as_a_typed_wire_error() {
    let schema = Schema::new()
        .relation("STAFF", &["s-name", "pay"])
        .expect("relation declares");
    let ctx = ParseCtx::with_relations(&["STAFF"]);
    let cap = parse_sformula(
        "forall s: state, e': 2tup . e' in s:STAFF -> pay(e') <= 1000",
        &ctx,
    )
    .expect("constraint parses");
    let mut db = Database::builder(schema).build().expect("database builds");
    db.add_constraint(Box::new(
        txlog::constraints::Checker::for_session(
            "pay-cap",
            cap,
            txlog::constraints::Hints::default(),
        )
        .expect("bounded window"),
    ))
    .expect("initial state satisfies the cap");

    let server = serve(Arc::new(db), quick_cfg());
    let mut client = Client::connect(server.local_addr(), "e2e").expect("connects");
    let err = client
        .execute("overpay", "insert(tuple('gus', 5000), STAFF)")
        .expect_err("the cap rejects this commit");
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrorCode::ConstraintViolation);
            assert_eq!(e.message, "pay-cap", "the constraint name travels whole");
        }
        other => panic!("expected a typed server error, got {other}"),
    }
    // the connection survives a refused commit
    let c = client
        .execute("fair", "insert(tuple('ann', 500), STAFF)")
        .expect("a compliant commit still installs");
    assert_eq!(c.version, 1);
    server.shutdown();
    server.join();
}

#[test]
fn staged_transaction_blocks_commit_atomically_and_abort_discards() {
    let server = serve(crew_db(), quick_cfg());
    let addr = server.local_addr();
    let mut one = Client::connect(addr, "staging").expect("connects");
    let mut other = Client::connect(addr, "observer").expect("connects");

    one.begin().expect("block opens");
    one.execute("a", "insert(tuple('ada', 1), CREW)")
        .expect("stages");
    one.execute("b", "insert(tuple('bea', 2), CREW)")
        .expect("stages");
    // the stager sees its own writes; the observer sees nothing yet
    assert!(one
        .ask("exists e: 2tup . e in CREW & c-name(e) = 'ada'")
        .expect("evaluates"));
    assert!(!other.ask("exists e: 2tup . e in CREW").expect("evaluates"));
    let c = one.commit("both").expect("block commits");
    assert_eq!(c.version, 1, "two staged statements are one commit");
    assert!(other
        .ask("exists e: 2tup . e in CREW & c-name(e) = 'bea'")
        .expect("evaluates"));

    // an aborted block leaves no trace
    one.begin().expect("block reopens");
    one.execute("c", "insert(tuple('cyd', 3), CREW)")
        .expect("stages");
    assert_eq!(one.abort().expect("aborts"), 1);
    assert!(!other
        .ask("exists e: 2tup . e in CREW & c-name(e) = 'cyd'")
        .expect("evaluates"));

    // block bookkeeping errors are BadState, not disconnects
    match one.commit("nothing-open").expect_err("no block is open") {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::BadState),
        other => panic!("expected BadState, got {other}"),
    }
    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------------
// The served anomaly matrix. Each row is one fixed interleaving of two
// clients' sequential calls: both open a block and read, both stage,
// then A commits before B. Levels run strongest first.
//
// | row                                 | read committed | snapshot  | serializable          |
// |-------------------------------------|----------------|-----------|-----------------------|
// | write skew (on-call rota)           | reachable      | reachable | SerializationFailure  |
// | lost update, client-computed writes | Conflict       | Conflict  | SerializationFailure  |
// | blind increment, re-run from Begin  | commits        | commits   | commits               |
// ---------------------------------------------------------------------------

/// Two doctors on call (`DOCA`, `DOCB`) and one account at 90.
fn rota_server() -> Server {
    let schema = Schema::new()
        .relation("DOCA", &["da-name"])
        .expect("DOCA declares")
        .relation("DOCB", &["db-name"])
        .expect("DOCB declares")
        .relation("ACCT", &["a-name", "a-bal"])
        .expect("ACCT declares");
    let db = Database::builder(schema).build().expect("database builds");
    let server = serve(Arc::new(db), quick_cfg());
    let mut setup = Client::connect(server.local_addr(), "setup").expect("connects");
    for program in [
        "insert(tuple('ann'), DOCA)",
        "insert(tuple('bob'), DOCB)",
        "insert(tuple('x', 90), ACCT)",
    ] {
        setup.execute("setup", program).expect("setup commits");
    }
    server
}

/// Two clients, each with a block open at `level`.
fn two_blocks(server: &Server, level: IsolationLevel) -> (Client, Client) {
    let mut a = Client::connect(server.local_addr(), "a").expect("connects");
    let mut b = Client::connect(server.local_addr(), "b").expect("connects");
    a.begin_at(Some(level)).expect("block opens");
    b.begin_at(Some(level)).expect("block opens");
    (a, b)
}

fn error_code(r: Result<RemoteCommit, ClientError>) -> ErrorCode {
    match r {
        Err(ClientError::Server(e)) => e.code,
        other => panic!("expected a typed refusal, got {other:?}"),
    }
}

/// Each client asks that the *other* doctor is on call, then signs its
/// own off. The two write footprints are disjoint, so B forwards unless
/// its read is certified — which only serializable does.
#[test]
fn served_write_skew_is_refused_under_serializable_only() {
    for level in IsolationLevel::ALL.into_iter().rev() {
        let server = rota_server();
        let (mut a, mut b) = two_blocks(&server, level);
        assert!(a.ask("exists d: 1tup . d in DOCB").expect("asks"));
        assert!(b.ask("exists d: 1tup . d in DOCA").expect("asks"));
        a.execute(
            "stage",
            "foreach d: 1tup | d in DOCA do delete(d, DOCA) end",
        )
        .expect("stages");
        b.execute(
            "stage",
            "foreach d: 1tup | d in DOCB do delete(d, DOCB) end",
        )
        .expect("stages");
        a.commit("sign-off-ann")
            .expect("the first sign-off commits");
        let second = b.commit("sign-off-bob");
        let rota_empty = !a.ask("exists d: 1tup . d in DOCA").expect("asks")
            && !a.ask("exists d: 1tup . d in DOCB").expect("asks");
        if level == IsolationLevel::Serializable {
            assert_eq!(error_code(second), ErrorCode::SerializationFailure);
            assert!(!rota_empty, "bob stays on call");
        } else {
            let c = second.expect("{level}: write skew is a documented anomaly");
            assert!(c.forwarded, "{level}: disjoint writes forward");
            assert!(rota_empty, "{level}: both sign-offs landed");
        }
        server.shutdown();
        server.join();
    }
}

/// Both clients read the balance and write back a value they computed
/// from it. B's block may not commit over A's write: it is never
/// re-executed, so the conflict reaches the client.
#[test]
fn served_lost_update_is_refused_at_every_level() {
    for level in IsolationLevel::ALL.into_iter().rev() {
        let server = rota_server();
        let (mut a, mut b) = two_blocks(&server, level);
        for client in [&mut a, &mut b] {
            let read = client.query("ACCT").expect("queries");
            assert!(read.contains("90"), "{read}");
        }
        a.execute(
            "stage",
            "foreach t: 2tup | t in ACCT do modify(t, a-bal, 100) end",
        )
        .expect("stages");
        b.execute(
            "stage",
            "foreach t: 2tup | t in ACCT do modify(t, a-bal, 110) end",
        )
        .expect("stages");
        a.commit("deposit-10").expect("the first deposit commits");
        let expected = match level {
            IsolationLevel::Serializable => ErrorCode::SerializationFailure,
            _ => ErrorCode::Conflict,
        };
        assert_eq!(error_code(b.commit("deposit-20")), expected, "{level}");
        assert!(a
            .ask("exists t: 2tup . t in ACCT & a-bal(t) = 100")
            .expect("asks"));
        server.shutdown();
        server.join();
    }
}

/// A blind increment refused at commit closes its block; re-run from
/// `Begin` at the moved head, it commits, and no increment is lost.
#[test]
fn served_blind_increment_commits_after_a_rerun_at_every_level() {
    const INCREMENT: &str = "foreach t: 2tup | t in ACCT do modify(t, a-bal, a-bal(t) + 10) end";
    for level in IsolationLevel::ALL.into_iter().rev() {
        let server = rota_server();
        let (mut a, mut b) = two_blocks(&server, level);
        a.execute("stage", INCREMENT).expect("stages");
        b.execute("stage", INCREMENT).expect("stages");
        a.commit("inc-a").expect("the first increment commits");
        b.commit("inc-b")
            .expect_err("a stale block commits in one attempt or not at all");
        assert_eq!(
            error_code(b.commit("inc-b")),
            ErrorCode::BadState,
            "the failed commit closed the block"
        );
        b.begin_at(Some(level)).expect("block reopens");
        b.execute("stage", INCREMENT).expect("stages");
        let c = b.commit("inc-b").expect("the re-run commits");
        assert_eq!(c.retries, 0, "block commits never retry");
        assert!(a
            .ask("exists t: 2tup . t in ACCT & a-bal(t) = 110")
            .expect("asks"));
        server.shutdown();
        server.join();
    }
}

#[test]
fn connection_cap_rejects_with_too_many_connections() {
    let cfg = ServerConfig {
        max_connections: 1,
        ..quick_cfg()
    };
    let server = serve(crew_db(), cfg);
    let addr = server.local_addr();
    let _held = Client::connect(addr, "holder").expect("first connects");
    match Client::connect(addr, "rejected").expect_err("cap refuses the second") {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrorCode::TooManyConnections);
            assert_eq!(e.detail, 1, "the cap travels in the detail field");
        }
        other => panic!("expected a typed rejection, got {other}"),
    }
    server.shutdown();
    server.join();
}

#[test]
fn overload_rejection_under_a_tiny_accept_queue() {
    // One worker, a one-slot queue, and a generous connection cap: the
    // worker is parked on the first connection, the queue holds the
    // second, and every further connection must be refused with the
    // typed Overload error until capacity frees up.
    let cfg = ServerConfig {
        max_connections: 64,
        accept_queue: 1,
        workers: 1,
        ..quick_cfg()
    };
    let server = serve(crew_db(), cfg);
    let addr = server.local_addr();
    let _served = Client::connect(addr, "served").expect("first connects");
    // the second is admitted into the queue; its handshake will not be
    // answered while the lone worker is busy, so connect raw
    let _queued = std::net::TcpStream::connect(addr).expect("second connects");
    std::thread::sleep(Duration::from_millis(100));

    let mut saw_overload = false;
    for _ in 0..10 {
        match Client::connect(addr, "flood") {
            Err(ClientError::Server(e)) if e.code == ErrorCode::Overload => {
                assert_eq!(e.detail, 1, "the queue capacity travels in the detail");
                saw_overload = true;
                break;
            }
            Err(ClientError::Server(e)) => panic!("unexpected rejection {e}"),
            // a race with the queue draining is possible but the queue
            // cannot drain while the only worker is held — keep trying
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(
        saw_overload,
        "a full accept queue must refuse with Overload"
    );
    server.shutdown();
    server.join();
}

#[test]
fn graceful_shutdown_answers_pipelined_requests_before_goodbye() {
    let server = serve(crew_db(), quick_cfg());
    let mut client = Client::connect(server.local_addr(), "pipeline").expect("connects");

    // One write carrying two frames: an Execute and a Shutdown. The
    // drain contract says both must be answered before the connection
    // closes.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(
        &encode_frame(
            &Request::Execute {
                label: "last-commit".to_string(),
                program: "insert(tuple('zoe', 9), CREW)".to_string(),
            }
            .encode(),
            u32::MAX,
        )
        .expect("frame fits"),
    );
    bytes.extend_from_slice(
        &encode_frame(&Request::Shutdown.encode(), u32::MAX).expect("frame fits"),
    );
    client.send_raw(&bytes).expect("both frames leave");

    match client.read_response().expect("first reply") {
        Response::Executed { version, .. } => assert_eq!(version, 1),
        other => panic!("expected Executed, got {other:?}"),
    }
    match client.read_response().expect("second reply") {
        Response::ShuttingDown => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    // then the server says goodbye and the socket closes
    match client.read_response() {
        Ok(Response::Goodbye { .. }) | Err(ClientError::Disconnected) => {}
        other => panic!("expected Goodbye or a clean close, got {other:?}"),
    }
    server.join();

    // nothing was lost: a fresh server over the same database sees the
    // drained commit... the database is gone with the server here, so
    // assert via a new bind on a new database being independent — the
    // real persistence story is the WAL, covered in wal tests.
}

#[test]
fn shutdown_drains_an_in_flight_commit_and_farewells_idle_peers() {
    // A commit constraint that parks mid-validation until released: the
    // shutdown arrives while the commit is in flight, and the commit
    // must still complete and be acknowledged. The gate is only armed
    // after registration — `add_constraint` validates the initial
    // state synchronously on this thread, and parking there would be a
    // self-deadlock.
    struct Gate {
        armed: AtomicBool,
        entered: AtomicBool,
        release: AtomicBool,
    }
    struct SlowCheck(Arc<Gate>);
    impl CommitConstraint for SlowCheck {
        fn name(&self) -> &str {
            "slow-check"
        }
        fn window_states(&self) -> usize {
            1
        }
        fn affected_by(&self, _schema: &Schema, _delta: &Delta) -> bool {
            true
        }
        fn check(&self, _schema: &Schema, _states: &[DbState], _labels: &[&str]) -> TxResult<bool> {
            if !self.0.armed.load(Ordering::Acquire) {
                return Ok(true);
            }
            self.0.entered.store(true, Ordering::Release);
            while !self.0.release.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(true)
        }
    }

    let gate = Arc::new(Gate {
        armed: AtomicBool::new(false),
        entered: AtomicBool::new(false),
        release: AtomicBool::new(false),
    });
    let schema = Schema::new()
        .relation("CREW", &["c-name", "c-rank"])
        .expect("relation declares");
    let mut db = Database::builder(schema).build().expect("database builds");
    db.add_constraint(Box::new(SlowCheck(Arc::clone(&gate))))
        .expect("initial state passes");
    gate.armed.store(true, Ordering::Release);
    let server = serve(Arc::new(db), quick_cfg());
    let addr = server.local_addr();

    let mut idle = Client::connect(addr, "idle").expect("idle peer connects");
    let committer = std::thread::spawn(move || {
        let mut c = Client::connect(addr, "committer").expect("connects");
        c.execute("slow", "insert(tuple('ada', 1), CREW)")
            .expect("the in-flight commit completes despite the drain")
    });

    // wait until the commit is provably inside constraint validation,
    // then start the drain, then release the constraint
    while !gate.entered.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
    std::thread::sleep(Duration::from_millis(50));
    gate.release.store(true, Ordering::Release);

    let commit = committer.join().expect("committer thread joins");
    assert_eq!(commit.version, 1, "the drained commit installed");

    // the idle peer is dismissed with a goodbye (or a clean close)
    match idle.read_response() {
        Ok(Response::Goodbye { reason }) => {
            assert!(reason.contains("shutting down"), "reason: {reason}")
        }
        Err(ClientError::Disconnected) => {}
        other => panic!("expected Goodbye, got {other:?}"),
    }
    server.join();
}

#[test]
fn corrupt_frames_get_a_typed_decode_error_then_disconnect() {
    let server = serve(crew_db(), quick_cfg());
    let mut client = Client::connect(server.local_addr(), "corrupt").expect("connects");
    let mut bad = encode_frame(b"garbage payload", u32::MAX).expect("frame fits");
    bad[FRAME_HEADER_LEN + 2] ^= 0x80;
    client.send_raw(&bad).expect("bytes leave");
    match client.read_response().expect("the server answers first") {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Decode),
        other => panic!("expected a decode error, got {other:?}"),
    }
    // framing is lost, so the server hangs up
    match client.read_response() {
        Err(ClientError::Disconnected) => {}
        other => panic!("expected a disconnect, got {other:?}"),
    }
    server.shutdown();
    server.join();
}

#[test]
fn subscriber_sees_every_match_in_commit_version_order() {
    let server = serve(crew_db(), quick_cfg());
    let addr = server.local_addr();
    let mut sub = Client::connect(addr, "subscriber").expect("connects");
    sub.subscribe("arrivals", "insert(CREW, N, R)")
        .expect("subscription registers");

    // Commits from a *different* connection: delivery crosses threads.
    let mut committer = Client::connect(addr, "committer").expect("connects");
    let names = ["ada", "bea", "cyd"];
    let mut versions = Vec::new();
    for (i, n) in names.iter().enumerate() {
        let c = committer
            .execute(n, &format!("insert(tuple('{n}', {i}), CREW)"))
            .expect("commit installs");
        versions.push(c.version);
    }

    let mut got = Vec::new();
    while got.len() < names.len() {
        match sub
            .next_notification(Duration::from_secs(5))
            .expect("push channel stays healthy")
        {
            Some(NotificationEvent::Match(n)) => got.push(n),
            Some(NotificationEvent::Overflow { name, .. }) => {
                panic!("no overflow expected for {name}")
            }
            None => panic!("timed out with {} of {} matches", got.len(), names.len()),
        }
    }
    for (i, n) in got.iter().enumerate() {
        assert_eq!(n.name, "arrivals");
        assert_eq!(n.version, versions[i], "delivery follows commit order");
        assert_eq!(
            n.binding,
            vec![
                ("N".to_string(), Atom::str(names[i])),
                ("R".to_string(), Atom::nat(i as u64)),
            ],
            "the binding travels whole, sorted by variable"
        );
    }
    assert!(
        got.windows(2).all(|w| w[0].version <= w[1].version),
        "versions never go backwards"
    );
    server.shutdown();
    server.join();
}

#[test]
fn subscription_bookkeeping_errors_are_typed() {
    let server = serve(crew_db(), quick_cfg());
    let mut client = Client::connect(server.local_addr(), "bookkeeper").expect("connects");

    // an unparseable pattern is a Parse error, not a disconnect
    match client
        .subscribe("broken", "seq(insert(CREW)")
        .expect_err("bad pattern refuses")
    {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Parse),
        other => panic!("expected a parse error, got {other}"),
    }
    // a pattern over an unknown relation is an Execution error
    match client
        .subscribe("ghost", "insert(GHOST, X)")
        .expect_err("unknown relation refuses")
    {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Execution),
        other => panic!("expected an execution error, got {other}"),
    }
    // duplicate names and unknown unsubscribes are BadState
    client
        .subscribe("arrivals", "insert(CREW, N, R)")
        .expect("first registration succeeds");
    match client
        .subscribe("arrivals", "insert(CREW, N, R)")
        .expect_err("duplicate name refuses")
    {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::BadState),
        other => panic!("expected BadState, got {other}"),
    }
    match client.unsubscribe("nobody").expect_err("unknown name") {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::BadState),
        other => panic!("expected BadState, got {other}"),
    }
    // after unsubscribing, commits push nothing
    client.unsubscribe("arrivals").expect("drops");
    client
        .execute("quiet", "insert(tuple('ada', 1), CREW)")
        .expect("commit installs");
    assert_eq!(
        client
            .next_notification(Duration::from_millis(200))
            .expect("socket healthy"),
        None,
        "an unsubscribed pattern pushes nothing"
    );
    server.shutdown();
    server.join();
}

#[test]
fn slow_subscriber_overflow_is_a_typed_error_naming_the_subscription() {
    // A queue of two, and one commit whose dispatch produces three
    // matches: the callbacks all run before the worker can flush (the
    // commit came from this very connection, whose worker is busy
    // answering it), so the third match must overflow deterministically.
    let cfg = ServerConfig {
        notify_queue: 2,
        ..quick_cfg()
    };
    let server = serve(crew_db(), cfg);
    let mut client = Client::connect(server.local_addr(), "slow").expect("connects");
    client
        .subscribe("arrivals", "insert(CREW, N, R)")
        .expect("registers");
    client
        .execute(
            "burst",
            "insert(tuple('ada', 1), CREW) ;; \
             insert(tuple('bea', 2), CREW) ;; \
             insert(tuple('cyd', 3), CREW)",
        )
        .expect("the commit itself is unaffected by the overflow");
    match client
        .next_notification(Duration::from_secs(5))
        .expect("push channel stays healthy")
    {
        Some(NotificationEvent::Overflow { name, capacity }) => {
            assert_eq!(name, "arrivals", "the error names the subscription");
            assert_eq!(capacity, 2, "the queue bound travels in the detail");
        }
        other => panic!("expected the typed overflow, got {other:?}"),
    }
    // the dropped subscription's queued matches were discarded with it
    assert_eq!(
        client
            .next_notification(Duration::from_millis(200))
            .expect("socket healthy"),
        None,
        "no partial delivery after an overflow"
    );
    // the name is free again: re-subscribing resumes delivery
    client
        .subscribe("arrivals", "insert(CREW, N, R)")
        .expect("re-registers after overflow");
    client
        .execute("one-more", "insert(tuple('dot', 4), CREW)")
        .expect("commit installs");
    match client
        .next_notification(Duration::from_secs(5))
        .expect("push channel stays healthy")
    {
        Some(NotificationEvent::Match(n)) => {
            assert_eq!(n.binding[0], ("N".to_string(), Atom::str("dot")));
        }
        other => panic!("expected a match after re-subscribing, got {other:?}"),
    }
    server.shutdown();
    server.join();
}

#[test]
fn queued_notifications_survive_a_graceful_drain() {
    let server = serve(crew_db(), quick_cfg());
    let addr = server.local_addr();
    let mut sub = Client::connect(addr, "survivor").expect("connects");
    sub.subscribe("arrivals", "insert(CREW, N, R)")
        .expect("registers");

    // Another connection commits a match, then the drain begins. The
    // subscriber's queued notification must be flushed before its
    // goodbye — a drain loses responses, never pushed matches.
    let mut committer = Client::connect(addr, "committer").expect("connects");
    let c = committer
        .execute("final", "insert(tuple('zoe', 9), CREW)")
        .expect("commit installs");
    server.shutdown();

    match sub
        .next_notification(Duration::from_secs(5))
        .expect("the match outlives the drain")
    {
        Some(NotificationEvent::Match(n)) => {
            assert_eq!(n.version, c.version);
            assert_eq!(n.binding[0], ("N".to_string(), Atom::str("zoe")));
        }
        other => panic!("expected the queued match, got {other:?}"),
    }
    // after the flush, the drain farewell arrives
    match sub.next_notification(Duration::from_secs(5)) {
        Err(ClientError::Disconnected) => {}
        other => panic!("expected the drain goodbye, got {other:?}"),
    }
    server.join();
}

/// Eight clients, one relation each, so every pair of concurrent deltas
/// is footprint-disjoint: in memory and durable (group commit over an
/// in-memory log), every request is answered without a protocol error
/// and every commit is installed.
#[test]
fn concurrent_clients_commit_disjoint_relations_without_protocol_errors() {
    const CLIENTS: u64 = 8;
    const ROUNDS: u64 = 10;
    for durable in [false, true] {
        let mut schema = Schema::new();
        for r in 0..CLIENTS {
            schema = schema
                .relation(&format!("R{r}"), &[&format!("k{r}"), &format!("v{r}")])
                .expect("relation declares");
        }
        let builder = Database::builder(schema).metrics(Metrics::enabled());
        let db = if durable {
            let wal = Durability::Wal {
                sync_every: 64,
                checkpoint_every: 1 << 20,
            };
            let store = Box::new(MemStore::new());
            builder
                .durability(wal)
                .open_store(store)
                .expect("log opens")
                .0
        } else {
            builder.build().expect("database builds")
        };
        let db = Arc::new(db);
        let server = serve(Arc::clone(&db), quick_cfg());
        let addr = server.local_addr();

        let handles: Vec<_> = (0..CLIENTS)
            .map(|r| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr, &format!("worker-{r}")).expect("connects");
                    for i in 0..ROUNDS {
                        c.execute(
                            &format!("r{r}-{i}"),
                            &format!("insert(tuple('t-{i}', {i}), R{r})"),
                        )
                        .expect("disjoint commits never conflict away");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread joins");
        }
        let label = if durable { "durable" } else { "in memory" };
        assert_eq!(
            db.head_version(),
            CLIENTS * ROUNDS,
            "{label}: every commit installed"
        );
        assert_eq!(db.snapshot().total_tuples() as u64, CLIENTS * ROUNDS);
        server.shutdown();
        server.join();
    }
}

#[test]
fn idle_subscriber_is_pushed_to_not_polled() {
    // Ping-pong: one connection commits a match, an idle one waits for
    // it. A subscriber only flushed at its read loop's 25 ms tick would
    // need ~12.5 ms a round (≈ 625 ms for 50); a pushed one needs the
    // commit's own round trip, far under the 250 ms bound.
    let server = serve(crew_db(), quick_cfg());
    let addr = server.local_addr();
    let mut sub = Client::connect(addr, "idle").expect("connects");
    sub.subscribe("arrivals", "insert(CREW, N, R)")
        .expect("registers");
    let mut committer = Client::connect(addr, "committer").expect("connects");
    let rounds = 50;
    let start = std::time::Instant::now();
    for i in 0..rounds {
        let c = committer
            .execute("ping", &format!("insert(tuple('p{i}', {i}), CREW)"))
            .expect("commit installs");
        match sub
            .next_notification(Duration::from_secs(5))
            .expect("push channel stays healthy")
        {
            Some(NotificationEvent::Match(n)) => assert_eq!(n.version, c.version),
            other => panic!("round {i}: expected the match, got {other:?}"),
        }
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "{rounds} pushed rounds took {took:?}; a polled subscriber would need ~625 ms"
    );
    server.shutdown();
    server.join();
}

/// A connection read frame by frame, so a test can see where pushed
/// notifications fall relative to the replies around them.
struct RawConn {
    stream: std::net::TcpStream,
    buf: Vec<u8>,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> RawConn {
        let stream = std::net::TcpStream::connect(addr).expect("connects");
        let mut raw = RawConn {
            stream,
            buf: Vec::new(),
        };
        raw.send(&Request::Hello {
            protocol: PROTOCOL_VERSION,
            client: "raw".to_string(),
        });
        match raw.next() {
            Response::Welcome { .. } => raw,
            other => panic!("expected Welcome, got {other:?}"),
        }
    }

    fn send(&mut self, req: &Request) {
        txlog::server::frame::write_frame(&mut self.stream, &req.encode(), u32::MAX)
            .expect("request leaves");
    }

    fn next(&mut self) -> Response {
        let wait = Duration::from_secs(5);
        match txlog::server::frame::read_frame_timeout(
            &self.stream,
            &mut self.buf,
            wait,
            wait,
            u32::MAX,
            &|| false,
        )
        .expect("socket healthy")
        {
            txlog::server::frame::ReadOutcome::Frame(p) => Response::decode(&p).expect("decodes"),
            other => panic!("expected a frame, got {other:?}"),
        }
    }
}

#[test]
fn concurrent_commits_push_each_match_once_in_order_behind_the_reply() {
    // Two producer connections commit concurrently while the
    // subscriber's own connection commits too: 300 commits in all.
    // Each connection writes its own relation, so no commit conflicts.
    const PER_PRODUCER: usize = 120;
    const OWN: usize = 60;
    let mut schema = Schema::new();
    for r in 0..3 {
        schema = schema
            .relation(&format!("R{r}"), &[&format!("k{r}"), &format!("v{r}")])
            .expect("relation declares");
    }
    let db = Database::builder(schema).build().expect("database builds");
    let server = serve(Arc::new(db), quick_cfg());
    let addr = server.local_addr();
    let mut sub = RawConn::connect(addr);
    let mut pushed: Vec<(String, u64)> = Vec::new();
    let any =
        |v: &str| format!("or(or(insert(R0, K, {v}), insert(R1, K, {v})), insert(R2, K, {v}))");
    for (name, pattern) in [("all", any("V")), ("ones", any("1"))] {
        sub.send(&Request::Subscribe {
            name: name.to_string(),
            pattern,
        });
        match sub.next() {
            Response::Subscribed { .. } => {}
            other => panic!("expected Subscribed, got {other:?}"),
        }
    }

    let producers: Vec<_> = (0..2)
        .map(|p| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, "producer").expect("connects");
                (0..PER_PRODUCER)
                    .map(|i| {
                        let rank = i % 3;
                        let v = c
                            .execute("p", &format!("insert(tuple('p-{i}', {rank}), R{p})"))
                            .expect("commit installs")
                            .version;
                        (v, rank)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    // The subscriber's own commits: every notification on the wire
    // before an `Executed{v}` reply is for an earlier version, so the
    // reply precedes the matches its own commit produced.
    let mut commits: Vec<(u64, usize)> = Vec::new();
    for i in 0..OWN {
        let rank = i % 3;
        sub.send(&Request::Execute {
            label: "own".to_string(),
            program: format!("insert(tuple('own-{i}', {rank}), R2)"),
        });
        loop {
            match sub.next() {
                Response::Notification { name, version, .. } => pushed.push((name, version)),
                Response::Executed { version, .. } => {
                    if let Some((name, seen)) = pushed.iter().find(|(_, seen)| *seen >= version) {
                        panic!("{name} pushed version {seen} before the reply for {version}");
                    }
                    commits.push((version, rank));
                    break;
                }
                other => panic!("expected Executed, got {other:?}"),
            }
        }
    }
    for p in producers {
        commits.extend(p.join().expect("producer joins"));
    }
    assert_eq!(commits.len(), 2 * PER_PRODUCER + OWN);
    commits.sort_unstable();

    let want = |name: &str| -> Vec<u64> {
        commits
            .iter()
            .filter(|(_, rank)| name == "all" || *rank == 1)
            .map(|(v, _)| *v)
            .collect()
    };
    let total = want("all").len() + want("ones").len();
    while pushed.len() < total {
        match sub.next() {
            Response::Notification { name, version, .. } => pushed.push((name, version)),
            other => panic!("expected a notification, got {other:?}"),
        }
    }
    for name in ["all", "ones"] {
        let got: Vec<u64> = pushed
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(
            got,
            want(name),
            "{name}: every match exactly once, in commit-version order"
        );
    }
    server.shutdown();
    server.join();
}

#[test]
fn abruptly_dropped_subscriber_leaves_no_pusher_or_subscription_behind() {
    let db = crew_db();
    let server = serve(Arc::clone(&db), quick_cfg());
    let addr = server.local_addr();
    let mut sub = Client::connect(addr, "vanishing").expect("connects");
    sub.subscribe("arrivals", "insert(CREW, N, R)")
        .expect("registers");
    let mut committer = Client::connect(addr, "committer").expect("connects");
    committer
        .execute("first", "insert(tuple('ada', 1), CREW)")
        .expect("commit installs");
    assert!(
        matches!(
            sub.next_notification(Duration::from_secs(5)),
            Ok(Some(NotificationEvent::Match(_)))
        ),
        "the pusher delivers while the subscriber lives"
    );
    // Gone without unsubscribing: the server must notice and release.
    drop(sub);

    let sent = || db.metrics().get(Counter::EvtNotificationsSent);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    for i in 0.. {
        let before = sent();
        committer
            .execute("later", &format!("insert(tuple('l{i}', 2), CREW)"))
            .expect("commit installs");
        if sent() == before {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the dead connection's subscription still matches after 5 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let before = sent();
    committer
        .execute("quiet", "insert(tuple('zed', 3), CREW)")
        .expect("commit installs");
    assert_eq!(sent(), before, "no subscription outlived its connection");

    // No pusher outlived it either: the drain joins every worker, and a
    // worker returns only after its pusher is joined.
    drop(committer);
    server.shutdown();
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = done.send(());
    });
    joined
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown + join returns");
}
