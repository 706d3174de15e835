//! The reactive-event stage: complex-event automata over the commit
//! stream.
//!
//! A pattern's matches drive one of two effects:
//!
//! * **Materialization** — patterns registered at build time with
//!   [`PatternDef::materialized`] add their matches as tuples of a
//!   system relation *to the commit that completes them*. Their
//!   `Materialized` automata live in the head, under its lock:
//!   `Database::stage` steps each on the candidate's delta and folds
//!   the new rows (those not already present) into the candidate
//!   before validation, so the constraints see them and the commit's
//!   one log record carries them; it absorbs the steps only once the
//!   commit installs, so a refused commit advances nothing.
//! * **Notification** — in-process subscribers registered with
//!   `Database::subscribe_pattern` get a callback per match, in commit
//!   order, after the commit; the wire protocol's `Subscribe` rides on
//!   this. The `EventHub` enqueues every committed delta under the
//!   head lock (queue order is commit order) and dispatches it outside
//!   the lock, on the committing thread, serialized by a `try_lock`ed
//!   mutex: whichever committer wins drains the whole queue. A callback
//!   that panics loses its subscription; the others keep being served.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

use txlog_base::obs::{Counter, Metrics};
use txlog_base::{RelId, Symbol, TxError, TxResult};
use txlog_events::{Automaton, Binding, Step};
use txlog_relational::{DbState, Delta, Schema, TupleVal};

pub use txlog_events::{EventKind, Materialize, PTerm, Pattern, PatternDef, PatternError};

/// Bound on the retained dispatched-delta history. The history seeds
/// the automaton of a pattern subscribed mid-stream (so joins may reach
/// back to retained commits) and comes pre-seeded from WAL recovery's
/// replayed suffix.
const HISTORY_CAP: usize = 8192;

/// Handle on one live subscription, returned by
/// `Database::subscribe_pattern` and consumed by
/// `Database::unsubscribe`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SubId(u64);

/// One delivered match: which pattern fired, at which committed
/// version, with which variable binding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EventNotification {
    /// The pattern's registry name.
    pub name: String,
    /// The version of the commit that completed the match.
    pub version: u64,
    /// The match's variable binding.
    pub binding: Binding,
}

/// A subscriber callback. Invoked on the committing thread with no
/// engine locks held; keep it short (enqueue and return) — a slow
/// callback delays the committer that happens to be draining. A
/// callback that panics is unsubscribed.
pub type EventCallback = Arc<dyn Fn(&EventNotification) + Send + Sync>;

/// Compile a pattern for registration under `name`. Patterns over
/// system relations are rejected: a materialization feeding an
/// automaton would loop, and system relations are engine-written in the
/// first place.
fn compile(name: &str, pattern: &Pattern, schema: &Schema) -> TxResult<Automaton> {
    for rel in pattern.rels() {
        if schema.by_name(rel).is_some_and(|d| d.system) {
            return Err(TxError::schema(format!(
                "event patterns cannot watch system relation {rel} \
                 (system relations are themselves event-maintained)"
            )));
        }
    }
    Automaton::compile(pattern, schema)
        .map_err(|e| TxError::schema(format!("event pattern {name}: {e}")))
}

/// A build-time pattern and the system relation its matches become
/// rows of.
pub(crate) struct Materialized {
    name: String,
    automaton: Automaton,
    rel: RelId,
    columns: Vec<Symbol>,
}

/// The materialized patterns' steps on one candidate commit and the rows
/// they added, held until it installs.
pub(crate) struct Pending {
    steps: Vec<Step>,
    rows: u64,
}

impl Materialized {
    /// Compile a definition against a schema that already declares its
    /// relation (`DatabaseBuilder::event_pattern` adds it).
    /// Materialization columns must be variables every match certainly
    /// binds.
    pub(crate) fn compile(def: &PatternDef, schema: &Schema) -> TxResult<Materialized> {
        let automaton = compile(&def.name, &def.pattern, schema)?;
        let (certain, mut columns) = (def.pattern.certain_vars(), Vec::new());
        for c in &def.materialize.columns {
            let v = Symbol::new(c);
            if !certain.contains(&v) {
                return Err(TxError::schema(format!(
                    "event pattern {}: materialization column {c} is not \
                     certainly bound by the pattern",
                    def.name
                )));
            }
            columns.push(v);
        }
        Ok(Materialized {
            name: def.name.clone(),
            automaton,
            rel: schema.rel_id(&def.materialize.relation)?,
            columns,
        })
    }

    /// The pattern's registry name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Advance over an already-committed delta whose rows are already in
    /// the state — WAL recovery's replayed suffix. Counts nothing.
    pub(crate) fn replay(&mut self, delta: &Delta) {
        self.automaton.advance(delta);
    }
}

/// Extend a candidate commit with the rows its delta materializes: step
/// every automaton on `delta` (absorbing nothing) and insert each new
/// match's row that `state` does not already hold. Returns the extended
/// state and delta, and the steps to [`absorb`] once the commit
/// installs.
pub(crate) fn materialize(
    mats: &[Materialized],
    mut state: DbState,
    delta: Delta,
) -> TxResult<(DbState, Delta, Pending)> {
    let mut rows = Delta::empty();
    let mut steps = Vec::with_capacity(mats.len());
    for m in mats {
        let step = m.automaton.step(&delta);
        for b in &step.fired.matches {
            let row: Vec<_> = m.columns.iter().map(|c| b[c]).collect();
            if !state
                .relation(m.rel)
                .is_some_and(|r| r.contains_fields(&row))
            {
                let (next, _, d) = state.insert_traced(m.rel, &TupleVal::anonymous(row))?;
                (state, rows) = (next, rows.compose(&d));
            }
        }
        steps.push(step);
    }
    let pending = Pending {
        steps,
        rows: rows.tuple_changes() as u64,
    };
    let delta = if rows.is_empty() {
        delta
    } else {
        delta.compose(&rows)
    };
    Ok((state, delta, pending))
}

/// Take the steps of a candidate that installed, counting its automaton
/// work, matches and installed rows.
pub(crate) fn absorb(mats: &mut [Materialized], pending: Pending, metrics: &Metrics) {
    for (m, step) in mats.iter_mut().zip(pending.steps) {
        let fired = m.automaton.absorb(step);
        metrics.add(Counter::EvtSteps, fired.steps);
        metrics.add(Counter::EvtMatches, fired.matches.len() as u64);
    }
    metrics.add(Counter::EvtMaterialized, pending.rows);
}

/// One live subscription: its automaton and its callback.
struct Subscription {
    id: SubId,
    name: String,
    automaton: Automaton,
    callback: EventCallback,
}

struct HubInner {
    subs: Vec<Subscription>,
    queue: VecDeque<(u64, Delta)>,
    history: VecDeque<(u64, Delta)>,
    next_sub: u64,
}

/// The engine's notification stage. One per [`crate::Database`].
pub(crate) struct EventHub {
    /// True iff materialized patterns exist: the hub then keeps
    /// recording history for late subscribers even with none live.
    record: bool,
    /// True iff any pattern is registered — checked before cloning a
    /// delta under the head lock, so databases without patterns pay
    /// one atomic load per commit.
    active: AtomicBool,
    inner: Mutex<HubInner>,
    /// Serializes dispatch. Only ever `try_lock`ed: a committer that
    /// loses the race leaves its queue entry for the current drainer.
    dispatch: Mutex<()>,
}

impl EventHub {
    /// A hub whose history starts with WAL recovery's replayed suffix
    /// (so a later live subscription can still prime over it), and
    /// that keeps `record`ing history while no subscription is live —
    /// set when the database has materialized patterns.
    pub(crate) fn new(record: bool, recovered: Vec<(u64, Delta)>) -> EventHub {
        let skip = recovered.len().saturating_sub(HISTORY_CAP);
        EventHub {
            active: AtomicBool::new(record),
            record,
            inner: Mutex::new(HubInner {
                subs: Vec::new(),
                queue: VecDeque::new(),
                history: recovered.into_iter().skip(skip).collect(),
                next_sub: 0,
            }),
            dispatch: Mutex::new(()),
        }
    }

    /// The hub's state. No callback runs under this lock.
    fn inner(&self) -> MutexGuard<'_, HubInner> {
        self.inner.lock().expect("event hub lock")
    }

    pub(crate) fn is_active(&self) -> bool {
        self.active.load(Relaxed)
    }

    /// Register a live pattern under a name no materialized pattern
    /// holds (the caller checks). The fresh automaton is primed over the
    /// retained history *silently* (no notifications): matches
    /// completing at or after the subscription are delivered, matches
    /// wholly in the past are not. `primer` supplements the hub's own
    /// history (which only accumulates while some pattern is
    /// registered) with deltas the caller retained — the head's recent
    /// delta log; overlapping versions are advanced once, and versions
    /// still queued for dispatch are left to the dispatcher (they
    /// advance this automaton like any other).
    pub(crate) fn subscribe(
        &self,
        name: &str,
        pattern: &Pattern,
        schema: &Schema,
        callback: EventCallback,
        metrics: &Metrics,
        primer: &[(u64, Delta)],
    ) -> TxResult<SubId> {
        let mut automaton = compile(name, pattern, schema)?;
        let mut inner = self.inner();
        if inner.subs.iter().any(|s| s.name == name) {
            return Err(TxError::schema(format!(
                "event pattern {name} is already registered"
            )));
        }
        let queued_from = inner.queue.front().map_or(u64::MAX, |(v, _)| *v);
        {
            let mut by_version: std::collections::BTreeMap<u64, &Delta> =
                inner.history.iter().map(|(v, d)| (*v, d)).collect();
            for (v, d) in primer {
                by_version.entry(*v).or_insert(d);
            }
            for (v, delta) in by_version {
                if v >= queued_from {
                    break;
                }
                let _ = automaton.advance(delta);
            }
        }
        let id = SubId(inner.next_sub);
        inner.next_sub += 1;
        inner.subs.push(Subscription {
            id,
            name: name.to_string(),
            automaton,
            callback,
        });
        drop(inner);
        self.active.store(true, Relaxed);
        metrics.bump(Counter::EvtPatterns);
        Ok(id)
    }

    /// Drop a subscription. Returns false for an unknown (or
    /// already-removed) id.
    pub(crate) fn unsubscribe(&self, id: SubId) -> bool {
        let mut inner = self.inner();
        let before = inner.subs.len();
        inner.subs.retain(|s| s.id != id);
        if inner.subs.is_empty() && !self.record {
            self.active.store(false, Relaxed);
        }
        inner.subs.len() < before
    }

    /// Enqueue a committed delta. Caller holds the head lock — that is
    /// what makes queue order commit order.
    pub(crate) fn enqueue(&self, version: u64, delta: Delta) {
        self.inner().queue.push_back((version, delta));
    }

    /// Drain the queue through every subscription. Called after every
    /// commit, outside the head lock. Non-blocking when another thread
    /// is already draining — the current drainer picks the entry up.
    pub(crate) fn drain(&self, metrics: &Metrics) {
        while self.is_active() {
            let guard = match self.dispatch.try_lock() {
                Ok(guard) => guard,
                // a drainer unwound: it guarded no data, so carry on
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
                Err(TryLockError::WouldBlock) => return,
            };
            loop {
                let item = self.inner().queue.pop_front();
                let Some((version, delta)) = item else { break };
                let notes = self.advance_all(version, delta, metrics);
                self.deliver(notes, metrics);
            }
            drop(guard);
            // A commit that raced our unlock may have enqueued after we
            // saw an empty queue; loop once more rather than strand it.
            if self.inner().queue.is_empty() {
                return;
            }
        }
    }

    /// Advance every subscription's automaton by one delta (under the
    /// inner lock) and collect the notifications to deliver outside it.
    fn advance_all(
        &self,
        version: u64,
        delta: Delta,
        metrics: &Metrics,
    ) -> Vec<(SubId, EventCallback, EventNotification)> {
        let _span = metrics.span("events.dispatch");
        let mut notes = Vec::new();
        let mut inner = self.inner();
        for sub in &mut inner.subs {
            let fired = sub.automaton.advance(&delta);
            metrics.add(Counter::EvtSteps, fired.steps);
            metrics.add(Counter::EvtMatches, fired.matches.len() as u64);
            for binding in fired.matches {
                let note = EventNotification {
                    name: sub.name.clone(),
                    version,
                    binding,
                };
                notes.push((sub.id, Arc::clone(&sub.callback), note));
            }
        }
        inner.history.push_back((version, delta));
        while inner.history.len() > HISTORY_CAP {
            inner.history.pop_front();
        }
        notes
    }

    /// Invoke the callbacks. One that panics is unsubscribed, and its
    /// notification and any others still due to it count as dropped.
    fn deliver(&self, notes: Vec<(SubId, EventCallback, EventNotification)>, metrics: &Metrics) {
        let mut failed = Vec::new();
        for (id, callback, note) in notes {
            let delivered =
                !failed.contains(&id) && catch_unwind(AssertUnwindSafe(|| callback(&note))).is_ok();
            if delivered {
                metrics.bump(Counter::EvtNotificationsSent);
            } else {
                if !failed.contains(&id) {
                    failed.push(id);
                    self.unsubscribe(id);
                }
                metrics.bump(Counter::EvtNotificationsDropped);
            }
        }
    }
}
