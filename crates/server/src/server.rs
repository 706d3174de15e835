//! The concurrent server: a thread pool over [`std::net::TcpListener`].
//!
//! One accept thread does **admission control** — it refuses new
//! connections (with a typed wire error, not a silent close) when the
//! active-connection cap is hit or the bounded hand-off queue is full —
//! and a fixed pool of worker threads each own one connection at a
//! time. Every connection gets its own [`Session`] over the shared
//! [`Database`], so the commit pipeline's snapshot isolation, conflict
//! detection, and group-commit batching apply to network clients
//! exactly as they do to in-process ones.
//!
//! **Backpressure** has three layers, each with its own typed error:
//! the accept queue ([`ErrorCode::Overload`] at admission), the
//! connection cap ([`ErrorCode::TooManyConnections`]), and the commit
//! pipeline's own log-submission queue (`CommitError::Overload`,
//! forwarded losslessly as [`ErrorCode::Overload`] with the queue
//! capacity in the detail field).
//!
//! **Graceful drain**: [`Server::shutdown`] (or a wire
//! [`Request::Shutdown`]) stops admission and asks every worker to
//! finish. A request already read — including one whose commit is
//! waiting on the log writer — completes and its response is written;
//! idle connections get their queued notifications and a
//! [`Response::Goodbye`] at the next tick; then [`Server::join`] returns.
//!
//! **Notifications are pushed**, not polled: a connection's first
//! `Subscribe` spawns a pusher thread that sleeps on its mailbox and
//! writes each batch of matches the moment a commit anywhere queues it.
//! The worker and the pusher share the socket's write half; whoever
//! holds it drains the mailbox, so drain order is wire order.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use txlog_base::obs::{Counter, Metrics};
use txlog_base::Atom;
use txlog_engine::db::{CommitError, Database, Session, SessionOptions};
use txlog_engine::{Env, EventCallback, SubId};
use txlog_events::Pattern;
use txlog_logic::{parse_fformula, parse_fterm, ParseCtx};
use txlog_relational::{DbState, Schema};

use crate::frame::{
    read_frame_timeout, write_frame, write_frames, ReadOutcome, DEFAULT_MAX_FRAME_LEN,
};
use crate::proto::{ErrorCode, Request, Response, WireError, PROTOCOL_VERSION};

/// Tunables for [`Server::bind_with`]. [`Default`] is sized for tests
/// and small deployments; every knob exists so the end-to-end tests
/// can force each backpressure path deterministically.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connections allowed to be active (queued or being served) at
    /// once; the accept thread refuses the rest with
    /// [`ErrorCode::TooManyConnections`].
    pub max_connections: usize,
    /// Capacity of the bounded accept→worker hand-off queue; when it
    /// is full the accept thread refuses with [`ErrorCode::Overload`].
    pub accept_queue: usize,
    /// Worker threads, each serving one connection at a time.
    pub workers: usize,
    /// How long a connection may sit between requests before the
    /// server closes it with a [`Response::Goodbye`].
    pub idle_timeout: Duration,
    /// How long a started frame may take to finish arriving.
    pub read_timeout: Duration,
    /// Bound on a single frame's payload.
    pub max_frame_len: u32,
    /// Name reported in the [`Response::Welcome`] handshake.
    pub server_name: String,
    /// Per-connection bound on queued-but-unsent notification frames.
    /// When a commit's matches would push a connection past it, the
    /// slowest subscription is dropped: its queued frames are
    /// discarded and replaced by one
    /// [`ErrorCode::SubscriptionOverflow`] frame naming it.
    pub notify_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            accept_queue: 16,
            workers: 8,
            idle_timeout: Duration::from_secs(60),
            read_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            server_name: "txlog".to_string(),
            notify_queue: 256,
        }
    }
}

/// State shared by the accept thread, the workers, and the [`Server`]
/// handle.
struct Shared {
    db: Arc<Database>,
    cfg: ServerConfig,
    /// Connections admitted and not yet finished (queued or served).
    active: AtomicUsize,
    /// Set once; every loop in the server polls it.
    stop: AtomicBool,
    /// The bound address, used to self-connect and wake the blocking
    /// `accept` when shutdown is requested from outside.
    addr: SocketAddr,
    /// Monotonic connection serial, used to namespace each
    /// connection's subscriptions in the database's pattern registry.
    next_conn: AtomicU64,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn metrics(&self) -> &Metrics {
        self.db.metrics()
    }

    /// Flip the stop flag and wake the accept thread. Idempotent.
    fn trigger_shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // The accept thread blocks in accept(); a throwaway local
        // connection wakes it so it can observe the flag and exit.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

/// A running server. Dropping it shuts down and joins every thread;
/// call [`Server::shutdown`] + [`Server::join`] to do the same
/// explicitly.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind with default [`ServerConfig`]. Pass port 0 to let the OS
    /// pick; read the result back with [`Server::local_addr`].
    pub fn bind(db: Arc<Database>, addr: impl ToSocketAddrs) -> io::Result<Server> {
        Server::bind_with(db, addr, ServerConfig::default())
    }

    /// Bind a listener and start the accept thread and worker pool.
    pub fn bind_with(
        db: Arc<Database>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            cfg,
            active: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            addr: local,
            next_conn: AtomicU64::new(0),
        });
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(shared.cfg.accept_queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(shared.cfg.workers.max(1));
        for i in 0..shared.cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("txlog-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))?,
            );
        }
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("txlog-accept".to_string())
                .spawn(move || accept_loop(&shared, &listener, &tx))?
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The database this server fronts.
    pub fn database(&self) -> &Arc<Database> {
        &self.shared.db
    }

    /// Begin a graceful drain: stop admitting, let in-flight requests
    /// finish, close idle connections with a goodbye. Returns
    /// immediately; [`Server::join`] waits for the drain to complete.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Wait until every worker and the accept thread have exited.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.trigger_shutdown();
        self.join_inner();
    }
}

/// Best-effort: write one response frame and forget the connection.
/// Used on the admission path, where blocking the accept thread on a
/// slow peer would stall every other client.
fn send_and_close(shared: &Shared, mut stream: TcpStream, resp: &Response) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    if write_frame(&mut stream, &resp.encode(), shared.cfg.max_frame_len).is_ok() {
        shared.metrics().bump(Counter::ServerFramesOut);
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, tx: &SyncSender<TcpStream>) {
    for conn in listener.incoming() {
        if shared.stopping() {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        if shared.active.load(Ordering::Acquire) >= shared.cfg.max_connections {
            shared.metrics().bump(Counter::ServerConnsRejected);
            let err = WireError::new(
                ErrorCode::TooManyConnections,
                "connection cap reached; try again later",
            )
            .with_detail(shared.cfg.max_connections as u64);
            send_and_close(shared, stream, &Response::Error(err));
            continue;
        }
        match tx.try_send(stream) {
            Ok(()) => {
                shared.active.fetch_add(1, Ordering::AcqRel);
                shared.metrics().bump(Counter::ServerConnsAccepted);
            }
            Err(TrySendError::Full(stream)) => {
                shared.metrics().bump(Counter::ServerConnsRejected);
                shared.metrics().bump(Counter::ServerOverloads);
                let err =
                    WireError::new(ErrorCode::Overload, "accept queue full; back off and retry")
                        .with_detail(shared.cfg.accept_queue as u64);
                send_and_close(shared, stream, &Response::Error(err));
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping `tx` (by returning) ends every worker's recv loop.
}

/// Decrements the active-connection count however the handler exits.
struct ActiveGuard<'a>(&'a AtomicUsize);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // Take the lock only to receive; holding it during handling
        // would serialize the whole pool onto one connection.
        let stream = match rx.lock() {
            Ok(guard) => match guard.recv() {
                Ok(s) => s,
                Err(_) => return,
            },
            Err(_) => return,
        };
        let _guard = ActiveGuard(&shared.active);
        if shared.stopping() {
            // Admitted before the drain began, picked up after: refuse
            // rather than start a session that would be cut short.
            send_and_close(
                shared,
                stream,
                &Response::Error(WireError::new(
                    ErrorCode::Unavailable,
                    "server is shutting down",
                )),
            );
            continue;
        }
        handle_conn(shared, stream);
    }
}

/// Everything one connection's worker owns: its session (snapshot,
/// the transaction block opened by `Begin`, commit pipeline access) and
/// a handle on its notification mailbox.
struct Conn<'a> {
    session: Session<'a>,
    ctx: ParseCtx,
    /// This connection's serial, namespacing its registry names.
    serial: u64,
    /// The bounded notification mailbox, shared with the event hub's
    /// callbacks (which run on whichever thread commits) and the pusher.
    notify: Arc<NotifyQueue>,
}

/// The per-connection notification mailbox. Hub callbacks fill it from
/// committing threads and wake the pusher when it stops being empty;
/// whichever of the worker and the pusher holds the write half drains
/// it ([`NotifyQueue::flush`]).
#[derive(Default)]
struct NotifyQueue {
    inner: Mutex<NotifyInner>,
    /// Signalled on the empty → non-empty transition and at `stop`.
    ready: Condvar,
}

#[derive(Default)]
struct NotifyInner {
    /// Frames awaiting the wire: notifications, plus one typed
    /// overflow error per dropped subscription.
    pending: VecDeque<Response>,
    /// Live subscriptions by client-facing name.
    subs: HashMap<String, SubId>,
    /// Subscriptions that overflowed: callbacks stop enqueueing for
    /// them.
    dead: BTreeSet<String>,
    /// Dead subscriptions the next drain unregisters from the database.
    to_drop: Vec<String>,
    /// The connection is ending: the pusher exits.
    stop: bool,
}

/// Lock, shrugging off poison: every critical section here leaves its
/// data consistent, so a panicking holder cannot have torn it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl NotifyQueue {
    /// Drain the mailbox onto the wire: unregister overflowed
    /// subscriptions, then write every queued frame (matches and typed
    /// overflow errors) in arrival order with one write. `out` is the
    /// locked write half — taken before the mailbox lock, by the worker
    /// and the pusher alike — so drain order is wire order.
    fn flush(&self, shared: &Shared, out: &mut TcpStream) -> io::Result<()> {
        let (frames, drops): (Vec<Response>, Vec<SubId>) = {
            let inner = &mut *lock(&self.inner);
            let subs = &mut inner.subs;
            let drops = inner
                .to_drop
                .drain(..)
                .filter_map(|name| subs.remove(&name));
            (inner.pending.drain(..).collect(), drops.collect())
        };
        for id in drops {
            shared.db.unsubscribe(id);
        }
        let payloads: Vec<Vec<u8>> = frames.iter().map(Response::encode).collect();
        write_frames(out, &payloads, shared.cfg.max_frame_len)?;
        shared
            .metrics()
            .add(Counter::ServerFramesOut, frames.len() as u64);
        Ok(())
    }
}

/// The pusher: sleep until the mailbox fills, then drain it under the
/// write half. Exits at `stop` or when the peer stops reading; the
/// worker flushes whatever is left.
fn push_loop(shared: &Shared, mailbox: &NotifyQueue, out: &Mutex<TcpStream>) {
    loop {
        let inner = mailbox
            .ready
            .wait_while(lock(&mailbox.inner), |i| i.pending.is_empty() && !i.stop)
            .unwrap_or_else(PoisonError::into_inner);
        if inner.stop {
            return;
        }
        drop(inner);
        if mailbox.flush(shared, &mut lock(out)).is_err() {
            return;
        }
    }
}

/// Ends a connection's pushing however its worker leaves (a panic
/// included): stops the pusher, so the thread scope can join it, and
/// releases the subscriptions, so the hub stops filling a mailbox
/// nobody will drain.
struct Hangup<'a>(&'a Shared, &'a NotifyQueue);

impl Drop for Hangup<'_> {
    fn drop(&mut self) {
        let subs: Vec<SubId> = {
            let mut inner = lock(&self.1.inner);
            inner.stop = true;
            inner.subs.drain().map(|(_, id)| id).collect()
        };
        self.1.ready.notify_one();
        for id in subs {
            self.0.db.unsubscribe(id);
        }
    }
}

fn handle_conn(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // The write half. The worker holds it from reading a request until
    // that request's response and own matches are written; the pusher
    // holds it while it writes a batch.
    let Ok(out) = stream.try_clone().map(Mutex::new) else {
        return;
    };
    let mut buf: Vec<u8> = Vec::new();
    let metrics = shared.metrics().clone();
    let mailbox = Arc::new(NotifyQueue::default());
    let send = |out: &mut TcpStream, resp: &Response| -> io::Result<()> {
        write_frame(out, &resp.encode(), shared.cfg.max_frame_len)?;
        metrics.bump(Counter::ServerFramesOut);
        Ok(())
    };
    // Queued notifications go out before the farewell: a drain loses
    // responses, never pushed matches.
    let farewell = |bye: Option<Response>| {
        if let Some(resp) = bye {
            let mut w = lock(&out);
            let _ = w.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = mailbox
                .flush(shared, &mut w)
                .and_then(|()| send(&mut w, &resp));
        }
    };

    // ---- handshake: the first frame must be a matching Hello ----
    let payload = match read_one(shared, &stream, &mut buf, &metrics) {
        Ok(p) => p,
        Err(bye) => return farewell(bye),
    };
    let greeting = match Request::decode(&payload) {
        Ok(Request::Hello { protocol, .. }) if protocol == PROTOCOL_VERSION => {
            let relations = shared
                .db
                .schema()
                .decls()
                .iter()
                .map(|d| d.name.to_string())
                .collect();
            Ok(Response::Welcome {
                protocol: PROTOCOL_VERSION,
                server: shared.cfg.server_name.clone(),
                head_version: shared.db.head_version(),
                relations,
            })
        }
        Ok(Request::Hello { protocol, .. }) => Err(WireError::new(
            ErrorCode::Protocol,
            format!("server speaks protocol {PROTOCOL_VERSION}, client sent {protocol}"),
        )
        .with_detail(u64::from(PROTOCOL_VERSION))),
        Ok(_) => Err(WireError::new(
            ErrorCode::Protocol,
            "expected Hello as the first request",
        )),
        Err(e) => {
            metrics.bump(Counter::ServerDecodeErrors);
            Err(WireError::new(ErrorCode::Decode, e.to_string()))
        }
    };
    let welcomed = matches!(greeting, Ok(Response::Welcome { .. }));
    let greeting = greeting.unwrap_or_else(Response::Error);
    if send(&mut lock(&out), &greeting).is_err() || !welcomed {
        return;
    }

    let mut conn = Conn {
        session: shared.db.session(),
        ctx: ParseCtx::new(shared.db.schema().decls().iter().map(|d| d.name)),
        serial: shared.next_conn.fetch_add(1, Ordering::AcqRel),
        notify: Arc::clone(&mailbox),
    };

    // ---- request loop ----
    std::thread::scope(|scope| {
        let hangup = Hangup(shared, &mailbox);
        let mut pusher = None;
        let bye = loop {
            let payload = match read_one(shared, &stream, &mut buf, &metrics) {
                Ok(p) => p,
                Err(bye) => break bye,
            };
            let mut w = lock(&out);
            let resp = {
                let _span = metrics.span("server.request");
                match Request::decode(&payload) {
                    Ok(req) => handle_request(shared, &mut conn, req),
                    Err(e) => {
                        metrics.bump(Counter::ServerDecodeErrors);
                        // The frame checksum held, so the stream is still
                        // in sync: report and keep the connection.
                        Response::Error(WireError::new(ErrorCode::Decode, e.to_string()))
                    }
                }
            };
            // Matches this very request produced (dispatch is
            // synchronous with commit) follow its response directly.
            if send(&mut w, &resp)
                .and_then(|()| mailbox.flush(shared, &mut w))
                .is_err()
            {
                break None;
            }
            drop(w);
            if pusher.is_none() && matches!(resp, Response::Subscribed { .. }) {
                pusher = std::thread::Builder::new()
                    .name(format!("txlog-push-{}", conn.serial))
                    .spawn_scoped(scope, || push_loop(shared, &mailbox, &out))
                    .ok();
            }
        };
        drop(hangup);
        if let Some(p) = pusher {
            let _ = p.join();
        }
        farewell(bye);
    });
}

/// Read one request frame for the connection loop. Anything else ends
/// the connection; the error carries the farewell owed to the peer.
fn read_one(
    shared: &Shared,
    stream: &TcpStream,
    buf: &mut Vec<u8>,
    metrics: &Metrics,
) -> Result<Vec<u8>, Option<Response>> {
    let outcome = read_frame_timeout(
        stream,
        buf,
        shared.cfg.idle_timeout,
        shared.cfg.read_timeout,
        shared.cfg.max_frame_len,
        &|| shared.stopping(),
    );
    match outcome {
        Ok(ReadOutcome::Frame(p)) => {
            metrics.bump(Counter::ServerFramesIn);
            Ok(p)
        }
        Ok(ReadOutcome::Disconnected) | Err(_) => Err(None),
        Ok(ReadOutcome::IdleTimeout) => {
            let reason = if shared.stopping() {
                "server shutting down"
            } else {
                "idle timeout"
            };
            Err(Some(Response::Goodbye {
                reason: reason.to_string(),
            }))
        }
        Ok(ReadOutcome::Stalled) => Err(Some(Response::Error(WireError::new(
            ErrorCode::Protocol,
            "request frame stalled mid-read",
        )))),
        Ok(ReadOutcome::Corrupt(e)) => {
            // A bad length or checksum means framing is lost; nothing
            // after this point on the stream can be trusted.
            metrics.bump(Counter::ServerDecodeErrors);
            Err(Some(Response::Error(WireError::new(
                ErrorCode::Decode,
                e.to_string(),
            ))))
        }
    }
}

fn handle_request<'a>(shared: &'a Shared, conn: &mut Conn<'a>, req: Request) -> Response {
    match req {
        Request::Hello { .. } => Response::Error(WireError::new(
            ErrorCode::Protocol,
            "handshake already complete",
        )),
        Request::Execute { label, program } => answer(do_execute(shared, conn, &label, &program)),
        Request::Query { expr } => answer(query_value(conn, &expr)),
        Request::Ask { formula } => answer(query_truth(conn, &formula)),
        Request::Explain { target, program } => answer(explain(shared, conn, &target, program)),
        Request::Begin { isolation } => {
            if conn.session.staged().is_some() {
                return bad_state("a transaction is already open");
            }
            // a requested level re-opens the connection's session at
            // that level (sessions fix their level at open); absent, the
            // session keeps whatever it runs at, the server default
            if let Some(level) = isolation.filter(|l| *l != conn.session.isolation()) {
                conn.session = shared
                    .db
                    .session_with(SessionOptions::new().isolation(level));
            }
            conn.session.begin();
            Response::Begun
        }
        Request::Commit { label } => match conn.session.staged() {
            None => bad_state("no transaction is open"),
            // a failed block commit closes the block as well: it can
            // never commit, so the client re-runs it from `Begin`
            Some(_) => match conn.session.submit_block(&label).and_then(|(c, ticket)| {
                ticket.wait()?;
                Ok(c)
            }) {
                Ok(c) => Response::Committed {
                    version: c.version,
                    retries: c.retries,
                    forwarded: c.forwarded,
                },
                Err(e) => Response::Error(commit_err(shared, &e)),
            },
        },
        Request::Abort => match conn.session.abort() {
            Some(discarded) => Response::Aborted { discarded },
            None => bad_state("no transaction is open"),
        },
        Request::ShowState => {
            view(conn);
            Response::State {
                text: render_state(shared.db.schema(), conn.session.state()),
            }
        }
        Request::Metrics => Response::Metrics {
            json: shared.metrics().snapshot().to_json(false),
        },
        Request::Shutdown => {
            shared.trigger_shutdown();
            // The reply goes out now; the connection closes at the
            // next read boundary (read_one sees the stop flag), after
            // any already-pipelined requests have been answered.
            Response::ShuttingDown
        }
        Request::Subscribe { name, pattern } => subscribe(shared, conn, name, &pattern),
        Request::Unsubscribe { name } => {
            // Release the mailbox before the hub lock `unsubscribe` takes.
            let id = lock(&conn.notify.inner).subs.remove(&name);
            match id {
                Some(id) => {
                    shared.db.unsubscribe(id);
                    Response::Unsubscribed { name }
                }
                None => bad_state(format!("no subscription named {name}")),
            }
        }
    }
}

/// Register a wire subscription: parse the pattern text, register it
/// under a name namespaced by the connection serial (two connections
/// may both subscribe as "fires"), and wire the hub callback to the
/// connection's bounded mailbox.
fn subscribe(shared: &Shared, conn: &mut Conn<'_>, name: String, pattern: &str) -> Response {
    if lock(&conn.notify.inner).subs.contains_key(&name) {
        return bad_state(format!("a subscription named {name} is already active"));
    }
    let parsed = match Pattern::parse(pattern) {
        Ok(p) => p,
        Err(e) => return Response::Error(WireError::new(ErrorCode::Parse, e.to_string())),
    };
    let metrics = shared.metrics().clone();
    let mailbox = Arc::clone(&conn.notify);
    let cap = shared.cfg.notify_queue.max(1);
    let sub = name.clone();
    let callback: EventCallback = Arc::new(move |n| {
        let mut inner = lock(&mailbox.inner);
        if inner.dead.contains(&sub) {
            // Overflowed earlier in this flush window; the next drain
            // unregisters it from the hub.
            metrics.bump(Counter::EvtNotificationsDropped);
            return;
        }
        if inner.pending.len() >= cap {
            // The peer is not draining fast enough. Drop this
            // subscription wholesale — a silent gap would violate the
            // every-match guarantee, so its queued matches are replaced
            // by one typed error naming it.
            inner
                .pending
                .retain(|r| !matches!(r, Response::Notification { name, .. } if *name == sub));
            inner.pending.push_back(Response::Error(
                WireError::new(ErrorCode::SubscriptionOverflow, sub.clone())
                    .with_detail(cap as u64),
            ));
            inner.dead.insert(sub.clone());
            inner.to_drop.push(sub.clone());
            metrics.bump(Counter::EvtNotificationsDropped);
            return;
        }
        let mut binding: Vec<(String, Atom)> = n
            .binding
            .iter()
            .map(|(v, a)| (v.as_str().to_string(), *a))
            .collect();
        binding.sort_by(|a, b| a.0.cmp(&b.0));
        inner.pending.push_back(Response::Notification {
            name: sub.clone(),
            version: n.version,
            binding,
        });
        if inner.pending.len() == 1 {
            mailbox.ready.notify_one();
        }
    });
    let registry = format!("wire-{}/{}", conn.serial, name);
    match shared.db.subscribe_pattern(&registry, &parsed, callback) {
        Ok(id) => {
            // A name freed by overflow may be reused once the client
            // has seen the error frame.
            let mut inner = lock(&conn.notify.inner);
            inner.dead.remove(&name);
            inner.subs.insert(name.clone(), id);
            Response::Subscribed { name }
        }
        Err(e) => Response::Error(WireError::new(ErrorCode::Execution, e.to_string())),
    }
}

fn answer(r: Result<Response, WireError>) -> Response {
    match r {
        Ok(resp) => resp,
        Err(e) => Response::Error(e),
    }
}

fn parse_err(e: txlog_base::TxError) -> WireError {
    WireError::new(ErrorCode::Parse, e.to_string())
}

fn exec_err(e: txlog_base::TxError) -> WireError {
    WireError::new(ErrorCode::Execution, e.to_string())
}

/// The request contradicts the connection's state.
fn bad_state(message: impl Into<String>) -> Response {
    Response::Error(WireError::new(ErrorCode::BadState, message))
}

/// The wire form of a failed commit, counting overloads on the way.
fn commit_err(shared: &Shared, e: &CommitError) -> WireError {
    if matches!(e, CommitError::Overload { .. }) {
        shared.metrics().bump(Counter::ServerOverloads);
    }
    WireError::from_commit(e)
}

/// Settle what a read sees: inside a block, the block's staged state;
/// outside one, the head, so re-pin first.
fn view(conn: &mut Conn<'_>) {
    if conn.session.staged().is_none() {
        conn.session.refresh();
    }
}

/// Stage the program inside a block; outside one, commit it at the head.
fn do_execute(
    shared: &Shared,
    conn: &mut Conn<'_>,
    label: &str,
    program: &str,
) -> Result<Response, WireError> {
    let tx = parse_fterm(program, &conn.ctx, &[]).map_err(parse_err)?;
    if conn.session.staged().is_some() {
        let statements = conn.session.stage(&tx, &Env::new()).map_err(exec_err)?;
        return Ok(Response::Staged { statements });
    }
    conn.session.refresh();
    let c = conn
        .session
        .commit(label, &tx, &Env::new())
        .map_err(|e| commit_err(shared, &e))?;
    Ok(Response::Executed {
        version: c.version,
        retries: c.retries,
        forwarded: c.forwarded,
    })
}

/// Render a state with the schema's relation names instead of raw
/// relation identities, so `show` over the wire reads like the schema
/// the client was welcomed with.
fn render_state(schema: &Schema, state: &DbState) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("state {\n");
    for d in schema.decls() {
        let _ = write!(out, "  {}{{", d.name);
        if let Some(rel) = state.relation(d.id) {
            for (k, t) in rel.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{t}");
            }
        }
        out.push_str("}\n");
    }
    out.push('}');
    out
}

fn query_value(conn: &mut Conn<'_>, expr: &str) -> Result<Response, WireError> {
    let q = parse_fterm(expr, &conn.ctx, &[]).map_err(parse_err)?;
    view(conn);
    let v = conn.session.query(&q, &Env::new()).map_err(exec_err)?;
    Ok(Response::Value {
        text: format!("{v}"),
    })
}

fn query_truth(conn: &mut Conn<'_>, formula: &str) -> Result<Response, WireError> {
    let p = parse_fformula(formula, &conn.ctx, &[]).map_err(parse_err)?;
    view(conn);
    let value = conn.session.ask(&p, &Env::new()).map_err(exec_err)?;
    Ok(Response::Truth { value })
}

fn explain(
    shared: &Shared,
    conn: &mut Conn<'_>,
    target: &str,
    program: bool,
) -> Result<Response, WireError> {
    let engine = shared.db.engine().map_err(exec_err)?;
    let text = if program {
        let t = parse_fterm(target, &conn.ctx, &[]).map_err(parse_err)?;
        engine.explain_program(&t).render()
    } else {
        let f = parse_fformula(target, &conn.ctx, &[]).map_err(parse_err)?;
        engine.explain_formula(&f).render()
    };
    Ok(Response::Explained { text })
}
