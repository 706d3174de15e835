//! Engine-wide observability: counters, histograms-lite, and spans.
//!
//! Every optimization layer of the system — traced deltas, the
//! fingerprint-keyed verdict cache, compiled quantifier plans with
//! secondary-index probes — claims to save work. This module makes those
//! claims *observable*: the evaluator, the plan interpreter, and the
//! incremental checker all report into a shared [`Metrics`] handle, and
//! consumers (benches, the `metrics-snapshot` binary, `explain()`
//! reports) read the resulting [`Snapshot`].
//!
//! Design constraints, in order:
//!
//! * **Zero cost when disabled.** A [`Metrics`] handle is an
//!   `Option<Arc<Registry>>`; the default is `None`, so every counter
//!   bump on an uninstrumented run is a single branch. Engines built
//!   without an explicit handle inherit the process-global recorder
//!   ([`Metrics::current`]), which is disabled unless a binary installs
//!   one.
//! * **Determinism.** Counters count *events*, never time. The
//!   [`Snapshot`] serializes counters and histograms in fixed catalog
//!   order and spans in name order, and its JSON omits durations unless
//!   explicitly asked — so two runs of the same workload on the same
//!   commit produce byte-identical snapshots, which is what lets CI diff
//!   them against a committed baseline.
//! * **No dependencies.** Counters are relaxed atomics, spans use
//!   `std::time::Instant`, and the JSON is written by the hand-rolled
//!   [`json::JsonBuf`] (the build environment has no registry access, so
//!   serde is not an option).
//!
//! The counter catalog is the closed enum [`Counter`]; the histogram
//! catalog (count/sum/max triples) is [`Hist`]. Adding a counter means
//! adding a variant, its entry in `ALL`, and its name — the snapshot
//! format and the CI baseline pick it up automatically (the baseline
//! will then show intentional drift, to be re-blessed).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod json;

/// The closed catalog of monotonic counters.
///
/// Grouped by subsystem: quantifier-plan interpretation (`Plan*`,
/// `Scan*`, `Probe*`, …), the fluent executor (`Exec*`), the model
/// checker, and the constraint checkers (`Checks*`, `Cache*`, …).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Counter {
    /// Quantifier prefixes compiled to a `QuantPlan`.
    PlansCompiled,
    /// Enumerations emptied (∃) or vacuously satisfied (∀) by a
    /// definitely-false plan-variable-free prefilter.
    PrefilterCuts,
    /// Plan steps interpreted with a full relation scan as the source.
    ScanSteps,
    /// Candidate tuples enumerated by relation scans (including probe
    /// fallbacks that degenerate to scans).
    ScanRows,
    /// Plan steps interpreted with a secondary-index probe as the source.
    ProbeSteps,
    /// Candidate tuples returned by index probes.
    ProbeRows,
    /// Index probes that fell back to a full scan (key failed to
    /// evaluate for a non-`Undefined` reason, or was not atom-valued).
    ProbeFallbackScans,
    /// Lazy secondary-index builds triggered by a probe on a relation
    /// whose index was not yet materialized.
    IndexBuilds,
    /// Plan steps using the active-tuples (arity-wide) fallback domain.
    ActiveSteps,
    /// Candidate tuples enumerated from the active-tuples fallback.
    ActiveRows,
    /// Plan steps using the atom-domain fallback.
    AtomSteps,
    /// Candidate atoms enumerated from the atom-domain fallback.
    AtomRows,
    /// Naive (oracle-mode) enumerations begun.
    NaiveSteps,
    /// Candidate bindings enumerated by the naive nested-loop walk.
    NaiveRows,
    /// Candidates discarded by a residual plan filter before recursion.
    FilterDrops,
    /// Full assignments that reached the enumeration visitor (both
    /// planned and naive paths).
    AssignmentsEmitted,
    /// Transaction combinator steps executed (`execute_traced` nodes).
    ExecSteps,
    /// `a ;; b` composition nodes executed.
    ExecSeq,
    /// `if p then a else b` nodes executed.
    ExecCond,
    /// `foreach` nodes executed.
    ExecForeach,
    /// `foreach` body iterations performed.
    ForeachIterations,
    /// `insert` primitives executed.
    ExecInsert,
    /// `delete` primitives executed.
    ExecDelete,
    /// `modify` primitives executed.
    ExecModify,
    /// `assign` primitives executed.
    ExecAssign,
    /// `EngineBuilder::build` calls: schema validations plus attribute
    /// and signature table constructions. Owners of a schema (`Model`,
    /// `Database`) build once and hand out views, so this grows with
    /// models and databases made, not with formulas evaluated.
    EngineBuilds,
    /// Closed s-formulas decided by the finite-model checker.
    ModelChecks,
    /// Constraint windows decided by a lowered program (Definition 4's
    /// `s :: q`, or its two-state transaction form) on the planner,
    /// without building a model. `model_checks + lowered_checks` counts
    /// every window a `Checker` decided.
    LoweredChecks,
    /// Constraint checks requested of an incremental checker
    /// (`reused + recomputed == requested` is a checked invariant).
    ChecksRequested,
    /// Checks answered from the fingerprint-keyed verdict cache.
    CacheReused,
    /// Checks that built a window model and re-evaluated the constraint.
    CacheRecomputed,
    /// State-fingerprint equality comparisons performed while computing
    /// window-key dedup classes.
    FingerprintCompares,
    /// Runtime model checks skipped because a proof certificate covered
    /// the (transaction, constraint) pair (assisted checking).
    ProofSkips,
    /// Commit attempts started by a `Database` session (including
    /// retries; `attempts == applied + forwarded + conflicts` when every
    /// commit eventually succeeds).
    CommitAttempts,
    /// Commit attempts abandoned because the head moved and the
    /// transaction's footprint overlapped the concurrent deltas.
    CommitConflicts,
    /// Conflicted commits that re-executed against a fresh snapshot.
    CommitRetries,
    /// Commits installed by executing directly at the committed head.
    CommitsApplied,
    /// Commits installed by forwarding a disjoint delta onto a moved
    /// head without re-execution.
    CommitsForwarded,
    /// Session constraints validated against a candidate commit.
    CommitValidations,
    /// Session-constraint validations skipped because the commit's delta
    /// was disjoint from the constraint's read set.
    CommitValidationSkips,
    /// Records (commits and checkpoints) appended to a write-ahead log.
    WalAppends,
    /// Bytes appended to a write-ahead log, framing included.
    WalBytes,
    /// Synchronous flushes (`fsync`-equivalents) issued to a log store.
    WalFsyncs,
    /// Full-state checkpoint records appended to a write-ahead log.
    WalCheckpoints,
    /// Batches the group-commit log writer flushed (one fsync each).
    WalGroupBatches,
    /// Committed deltas replayed onto a checkpoint state during recovery.
    RecoverReplayedDeltas,
    /// Torn or corrupt tail records dropped (by truncation) during
    /// recovery.
    RecoverTruncatedRecords,
    /// Connections the wire-protocol server admitted into service.
    ServerConnsAccepted,
    /// Connections the server turned away at admission (the active set
    /// or the hand-off queue was full).
    ServerConnsRejected,
    /// Request frames the server decoded off client connections.
    ServerFramesIn,
    /// Response frames the server wrote to client connections
    /// (including rejection and goodbye frames).
    ServerFramesOut,
    /// Frames or payloads the server could not decode (bad checksum,
    /// truncated frame, unknown message tag).
    ServerDecodeErrors,
    /// Requests the server rejected with a wire `Overload` error (the
    /// commit pipeline's log submission queue was full).
    ServerOverloads,
    /// Serializable commits aborted because a concurrently committed
    /// delta intersected the session's accumulated read footprint (or
    /// the bounded delta log was too short to certify it clean).
    CommitSerializationFailures,
    /// Sessions opened at `IsolationLevel::ReadCommitted` (after any
    /// escalation).
    SessionsReadCommitted,
    /// Sessions opened at `IsolationLevel::Snapshot` (after any
    /// escalation).
    SessionsSnapshot,
    /// Sessions opened at `IsolationLevel::Serializable`.
    SessionsSerializable,
    /// Read-committed session requests escalated to Snapshot because
    /// the database carries multi-state (window ≥ 2) constraints that
    /// statement-boundary re-pinning would break.
    SessionsEscalated,
    /// Event patterns registered (materialized or subscribed).
    EvtPatterns,
    /// Automaton node visits across all pattern advances.
    EvtSteps,
    /// Pattern matches completed by committed deltas.
    EvtMatches,
    /// Tuples materialized event patterns added to the commits that
    /// matched them.
    EvtMaterialized,
    /// Notifications delivered to subscribers (in-process callbacks
    /// count one per match delivered).
    EvtNotificationsSent,
    /// Notifications dropped: a wire subscriber's queue overflowed, or
    /// an in-process callback panicked and lost its subscription.
    EvtNotificationsDropped,
}

impl Counter {
    /// Every counter, in canonical (serialization) order.
    pub const ALL: [Counter; 64] = [
        Counter::PlansCompiled,
        Counter::PrefilterCuts,
        Counter::ScanSteps,
        Counter::ScanRows,
        Counter::ProbeSteps,
        Counter::ProbeRows,
        Counter::ProbeFallbackScans,
        Counter::IndexBuilds,
        Counter::ActiveSteps,
        Counter::ActiveRows,
        Counter::AtomSteps,
        Counter::AtomRows,
        Counter::NaiveSteps,
        Counter::NaiveRows,
        Counter::FilterDrops,
        Counter::AssignmentsEmitted,
        Counter::ExecSteps,
        Counter::ExecSeq,
        Counter::ExecCond,
        Counter::ExecForeach,
        Counter::ForeachIterations,
        Counter::ExecInsert,
        Counter::ExecDelete,
        Counter::ExecModify,
        Counter::ExecAssign,
        Counter::EngineBuilds,
        Counter::ModelChecks,
        Counter::LoweredChecks,
        Counter::ChecksRequested,
        Counter::CacheReused,
        Counter::CacheRecomputed,
        Counter::FingerprintCompares,
        Counter::ProofSkips,
        Counter::CommitAttempts,
        Counter::CommitConflicts,
        Counter::CommitRetries,
        Counter::CommitsApplied,
        Counter::CommitsForwarded,
        Counter::CommitValidations,
        Counter::CommitValidationSkips,
        Counter::WalAppends,
        Counter::WalBytes,
        Counter::WalFsyncs,
        Counter::WalCheckpoints,
        Counter::WalGroupBatches,
        Counter::RecoverReplayedDeltas,
        Counter::RecoverTruncatedRecords,
        Counter::ServerConnsAccepted,
        Counter::ServerConnsRejected,
        Counter::ServerFramesIn,
        Counter::ServerFramesOut,
        Counter::ServerDecodeErrors,
        Counter::ServerOverloads,
        Counter::CommitSerializationFailures,
        Counter::SessionsReadCommitted,
        Counter::SessionsSnapshot,
        Counter::SessionsSerializable,
        Counter::SessionsEscalated,
        Counter::EvtPatterns,
        Counter::EvtSteps,
        Counter::EvtMatches,
        Counter::EvtMaterialized,
        Counter::EvtNotificationsSent,
        Counter::EvtNotificationsDropped,
    ];

    /// Stable snake_case name used in snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::PlansCompiled => "plans_compiled",
            Counter::PrefilterCuts => "prefilter_cuts",
            Counter::ScanSteps => "scan_steps",
            Counter::ScanRows => "scan_rows",
            Counter::ProbeSteps => "probe_steps",
            Counter::ProbeRows => "probe_rows",
            Counter::ProbeFallbackScans => "probe_fallback_scans",
            Counter::IndexBuilds => "index_builds",
            Counter::ActiveSteps => "active_steps",
            Counter::ActiveRows => "active_rows",
            Counter::AtomSteps => "atom_steps",
            Counter::AtomRows => "atom_rows",
            Counter::NaiveSteps => "naive_steps",
            Counter::NaiveRows => "naive_rows",
            Counter::FilterDrops => "filter_drops",
            Counter::AssignmentsEmitted => "assignments_emitted",
            Counter::ExecSteps => "exec_steps",
            Counter::ExecSeq => "exec_seq",
            Counter::ExecCond => "exec_cond",
            Counter::ExecForeach => "exec_foreach",
            Counter::ForeachIterations => "foreach_iterations",
            Counter::ExecInsert => "exec_insert",
            Counter::ExecDelete => "exec_delete",
            Counter::ExecModify => "exec_modify",
            Counter::ExecAssign => "exec_assign",
            Counter::EngineBuilds => "engine_builds",
            Counter::ModelChecks => "model_checks",
            Counter::LoweredChecks => "lowered_checks",
            Counter::ChecksRequested => "checks_requested",
            Counter::CacheReused => "cache_reused",
            Counter::CacheRecomputed => "cache_recomputed",
            Counter::FingerprintCompares => "fingerprint_compares",
            Counter::ProofSkips => "proof_skips",
            Counter::CommitAttempts => "commit_attempts",
            Counter::CommitConflicts => "commit_conflicts",
            Counter::CommitRetries => "commit_retries",
            Counter::CommitsApplied => "commits_applied",
            Counter::CommitsForwarded => "commits_forwarded",
            Counter::CommitValidations => "commit_validations",
            Counter::CommitValidationSkips => "commit_validation_skips",
            Counter::WalAppends => "wal_appends",
            Counter::WalBytes => "wal_bytes",
            Counter::WalFsyncs => "wal_fsyncs",
            Counter::WalCheckpoints => "wal_checkpoints",
            Counter::WalGroupBatches => "wal_group_batches",
            Counter::RecoverReplayedDeltas => "recover_replayed_deltas",
            Counter::RecoverTruncatedRecords => "recover_truncated_records",
            Counter::ServerConnsAccepted => "srv_conns_accepted",
            Counter::ServerConnsRejected => "srv_conns_rejected",
            Counter::ServerFramesIn => "srv_frames_in",
            Counter::ServerFramesOut => "srv_frames_out",
            Counter::ServerDecodeErrors => "srv_decode_errors",
            Counter::ServerOverloads => "srv_overloads",
            Counter::CommitSerializationFailures => "commit_serialization_failures",
            Counter::SessionsReadCommitted => "sessions_read_committed",
            Counter::SessionsSnapshot => "sessions_snapshot",
            Counter::SessionsSerializable => "sessions_serializable",
            Counter::SessionsEscalated => "sessions_escalated",
            Counter::EvtPatterns => "evt_patterns",
            Counter::EvtSteps => "evt_steps",
            Counter::EvtMatches => "evt_matches",
            Counter::EvtMaterialized => "evt_materialized",
            Counter::EvtNotificationsSent => "evt_notifications_sent",
            Counter::EvtNotificationsDropped => "evt_notifications_dropped",
        }
    }
}

/// The closed catalog of histograms-lite (count / sum / max triples).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Hist {
    /// Tuple changes per recorded transaction delta.
    DeltaTuples,
    /// Candidate-budget consumption per enumeration (`max_iterations`
    /// slots used by one quantifier/set-former/`foreach` domain walk).
    EnumBudget,
    /// Satisfying matches per `foreach` execution.
    ForeachMatches,
    /// Relations in a constraint's read set at checker construction
    /// (the whole schema when the read set is unbounded).
    ReadSetRels,
    /// States participating in each window-key computation.
    WindowStates,
    /// Commit records per group-commit batch (one observation per
    /// flushed batch).
    WalGroupBatchSize,
}

impl Hist {
    /// Every histogram, in canonical (serialization) order.
    pub const ALL: [Hist; 6] = [
        Hist::DeltaTuples,
        Hist::EnumBudget,
        Hist::ForeachMatches,
        Hist::ReadSetRels,
        Hist::WindowStates,
        Hist::WalGroupBatchSize,
    ];

    /// Stable snake_case name used in snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            Hist::DeltaTuples => "delta_tuples",
            Hist::EnumBudget => "enum_budget",
            Hist::ForeachMatches => "foreach_matches",
            Hist::ReadSetRels => "read_set_rels",
            Hist::WindowStates => "window_states",
            Hist::WalGroupBatchSize => "wal_group_batch_size",
        }
    }
}

/// One histogram's accumulated state.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HistValue {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Maximum observed value (0 when empty).
    pub max: u64,
}

#[derive(Default)]
struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// One span's accumulated state: entry count plus total/max wall time.
/// Only the count is deterministic; snapshots exclude the durations
/// unless asked.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SpanValue {
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds spent inside (non-deterministic).
    pub total_nanos: u64,
    /// Longest single visit in nanoseconds (non-deterministic).
    pub max_nanos: u64,
}

struct Registry {
    counters: [AtomicU64; Counter::ALL.len()],
    hists: [HistCell; Hist::ALL.len()],
    spans: Mutex<BTreeMap<String, SpanValue>>,
}

impl Registry {
    fn new() -> Registry {
        Registry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| HistCell::default()),
            spans: Mutex::new(BTreeMap::new()),
        }
    }
}

/// The process-global recorder, installed by binaries that want every
/// engine/checker built without an explicit handle to report somewhere
/// (e.g. the `metrics-snapshot` binary). `None` in normal operation.
static GLOBAL: Mutex<Option<Arc<Registry>>> = Mutex::new(None);

thread_local! {
    /// Stack of active span names on this thread, for nested span paths.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A cheap, cloneable handle to a metrics registry — or to nothing.
///
/// Cloning shares the registry: two handles cloned from each other
/// accumulate into the same counters. The disabled handle makes every
/// recording operation a single branch.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Registry>>,
}

impl Metrics {
    /// The no-op handle: records nothing, costs one branch per call.
    pub fn disabled() -> Metrics {
        Metrics { inner: None }
    }

    /// A fresh, empty, recording registry.
    pub fn enabled() -> Metrics {
        Metrics {
            inner: Some(Arc::new(Registry::new())),
        }
    }

    /// True iff this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Install this handle's registry as the process-global recorder
    /// that [`Metrics::current`] returns. Installing a disabled handle
    /// uninstalls the global.
    pub fn install_global(&self) {
        *GLOBAL.lock().expect("metrics global lock") = self.inner.clone();
    }

    /// The process-global recorder if one is installed, else disabled.
    /// Engines and checkers built without an explicit handle call this.
    pub fn current() -> Metrics {
        Metrics {
            inner: GLOBAL.lock().expect("metrics global lock").clone(),
        }
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(r) = &self.inner {
            r.counters[c as usize].fetch_add(n, Relaxed);
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn bump(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&self, h: Hist, v: u64) {
        if let Some(r) = &self.inner {
            let cell = &r.hists[h as usize];
            cell.count.fetch_add(1, Relaxed);
            cell.sum.fetch_add(v, Relaxed);
            cell.max.fetch_max(v, Relaxed);
        }
    }

    /// Current value of a counter (0 on a disabled handle).
    pub fn get(&self, c: Counter) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |r| r.counters[c as usize].load(Relaxed))
    }

    /// Current state of a histogram (empty on a disabled handle).
    pub fn hist(&self, h: Hist) -> HistValue {
        self.inner.as_ref().map_or(HistValue::default(), |r| {
            let cell = &r.hists[h as usize];
            HistValue {
                count: cell.count.load(Relaxed),
                sum: cell.sum.load(Relaxed),
                max: cell.max.load(Relaxed),
            }
        })
    }

    /// Zero every counter, histogram, and span.
    pub fn reset(&self) {
        if let Some(r) = &self.inner {
            for c in &r.counters {
                c.store(0, Relaxed);
            }
            for h in &r.hists {
                h.count.store(0, Relaxed);
                h.sum.store(0, Relaxed);
                h.max.store(0, Relaxed);
            }
            r.spans.lock().expect("span lock").clear();
        }
    }

    /// Enter a named, timed span. The returned guard records on drop;
    /// spans entered while another span guard is live on the same thread
    /// are recorded under the dotted path of their ancestors
    /// (`"check.model"`), which is the nesting structure.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(r) = &self.inner else {
            return SpanGuard { active: None };
        };
        let path = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let mut path = String::new();
            for anc in s.iter() {
                path.push_str(anc);
                path.push('.');
            }
            path.push_str(name);
            s.push(name);
            path
        });
        SpanGuard {
            active: Some(ActiveSpan {
                registry: Arc::clone(r),
                path,
                start: Instant::now(),
            }),
        }
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name(), self.get(c)))
            .collect();
        let hists = Hist::ALL
            .iter()
            .map(|&h| (h.name(), self.hist(h)))
            .collect();
        let spans = self.inner.as_ref().map_or_else(BTreeMap::new, |r| {
            r.spans.lock().expect("span lock").clone()
        });
        Snapshot {
            counters,
            hists,
            spans,
        }
    }
}

struct ActiveSpan {
    registry: Arc<Registry>,
    path: String,
    start: Instant,
}

/// Guard returned by [`Metrics::span`]; records the visit on drop.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let nanos = u64::try_from(a.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut spans = a.registry.spans.lock().expect("span lock");
        let v = spans.entry(a.path).or_default();
        v.count += 1;
        v.total_nanos += nanos;
        v.max_nanos = v.max_nanos.max(nanos);
    }
}

/// A point-in-time copy of a registry: counters and histograms in
/// catalog order, spans in path order.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// `(name, value)` for every counter, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every histogram, in [`Hist::ALL`] order.
    pub hists: Vec<(&'static str, HistValue)>,
    /// Accumulated spans keyed by dotted path.
    pub spans: BTreeMap<String, SpanValue>,
}

impl Snapshot {
    /// Value of a counter by name (0 if unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Serialize to JSON. With `include_timings` false (the deterministic
    /// form the CI baseline uses) spans carry only their entry counts;
    /// with it true they also carry total/max nanoseconds.
    pub fn to_json(&self, include_timings: bool) -> String {
        let mut j = json::JsonBuf::new();
        j.begin_obj();
        j.key("counters");
        j.begin_obj();
        for (name, v) in &self.counters {
            j.key(name);
            j.num(*v);
        }
        j.end_obj();
        j.key("hists");
        j.begin_obj();
        for (name, h) in &self.hists {
            j.key(name);
            j.begin_obj();
            j.key("count");
            j.num(h.count);
            j.key("sum");
            j.num(h.sum);
            j.key("max");
            j.num(h.max);
            j.end_obj();
        }
        j.end_obj();
        j.key("spans");
        j.begin_obj();
        for (path, s) in &self.spans {
            j.key(path);
            j.begin_obj();
            j.key("count");
            j.num(s.count);
            if include_timings {
                j.key("total_nanos");
                j.num(s.total_nanos);
                j.key("max_nanos");
                j.num(s.max_nanos);
            }
            j.end_obj();
        }
        j.end_obj();
        j.end_obj();
        j.finish()
    }

    /// Like [`Snapshot::to_json`] but pretty-printed with one entry per
    /// line — the form committed as the CI metrics baseline, so a drift
    /// surfaces as a reviewable per-counter line diff.
    pub fn to_json_pretty(&self, include_timings: bool) -> String {
        fn block(out: &mut String, name: &str, lines: &[String], last: bool) {
            let _ = writeln!(out, "  \"{name}\": {{");
            for (i, l) in lines.iter().enumerate() {
                let comma = if i + 1 < lines.len() { "," } else { "" };
                let _ = writeln!(out, "    {l}{comma}");
            }
            let _ = writeln!(out, "  }}{}", if last { "" } else { "," });
        }
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect();
        let hists: Vec<String> = self
            .hists
            .iter()
            .map(|(n, h)| {
                format!(
                    "\"{n}\": {{\"count\": {}, \"sum\": {}, \"max\": {}}}",
                    h.count, h.sum, h.max
                )
            })
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(p, s)| {
                if include_timings {
                    format!(
                        "\"{p}\": {{\"count\": {}, \"total_nanos\": {}, \"max_nanos\": {}}}",
                        s.count, s.total_nanos, s.max_nanos
                    )
                } else {
                    format!("\"{p}\": {{\"count\": {}}}", s.count)
                }
            })
            .collect();
        let mut out = String::from("{\n");
        block(&mut out, "counters", &counters, false);
        block(&mut out, "hists", &hists, false);
        block(&mut out, "spans", &spans, true);
        out.push('}');
        out
    }

    /// Human-readable report: non-zero counters, non-empty histograms,
    /// and spans with mean/max times.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("counters:\n");
        for (name, v) in &self.counters {
            if *v != 0 {
                let _ = writeln!(out, "  {name:<24} {v}");
            }
        }
        out.push_str("hists (count/sum/max):\n");
        for (name, h) in &self.hists {
            if h.count != 0 {
                let _ = writeln!(out, "  {name:<24} {}/{}/{}", h.count, h.sum, h.max);
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for (path, s) in &self.spans {
                let mean = s.total_nanos / s.count.max(1);
                let _ = writeln!(
                    out,
                    "  {path:<24} n={} mean={}ns max={}ns",
                    s.count, mean, s.max_nanos
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        m.bump(Counter::ScanRows);
        m.observe(Hist::DeltaTuples, 7);
        let _g = m.span("noop");
        assert_eq!(m.get(Counter::ScanRows), 0);
        assert_eq!(m.hist(Hist::DeltaTuples), HistValue::default());
        assert!(m.snapshot().spans.is_empty());
    }

    #[test]
    fn counters_and_hists_accumulate() {
        let m = Metrics::enabled();
        m.bump(Counter::ProbeRows);
        m.add(Counter::ProbeRows, 4);
        m.observe(Hist::EnumBudget, 3);
        m.observe(Hist::EnumBudget, 9);
        assert_eq!(m.get(Counter::ProbeRows), 5);
        assert_eq!(
            m.hist(Hist::EnumBudget),
            HistValue {
                count: 2,
                sum: 12,
                max: 9
            }
        );
        // clones share the registry
        let m2 = m.clone();
        m2.bump(Counter::ProbeRows);
        assert_eq!(m.get(Counter::ProbeRows), 6);
        m.reset();
        assert_eq!(m2.get(Counter::ProbeRows), 0);
        assert_eq!(m2.hist(Hist::EnumBudget), HistValue::default());
    }

    #[test]
    fn spans_nest_by_dotted_path() {
        let m = Metrics::enabled();
        {
            let _outer = m.span("check");
            {
                let _inner = m.span("model");
                let _deeper = m.span("eval");
            }
            let _inner2 = m.span("model");
        }
        let _again = m.span("check");
        drop(_again);
        let snap = m.snapshot();
        assert_eq!(snap.spans["check"].count, 2);
        assert_eq!(snap.spans["check.model"].count, 2);
        assert_eq!(snap.spans["check.model.eval"].count, 1);
        // sibling after inner dropped is a fresh top-level nesting
        assert!(!snap.spans.contains_key("model"));
    }

    #[test]
    fn snapshot_json_is_deterministic_without_timings() {
        let m = Metrics::enabled();
        m.add(Counter::ScanRows, 2);
        m.observe(Hist::DeltaTuples, 5);
        {
            let _s = m.span("work");
        }
        let a = m.snapshot().to_json(false);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = m.snapshot().to_json(false);
        assert_eq!(a, b, "counter-only JSON must not depend on time");
        assert!(a.contains("\"scan_rows\":2"));
        assert!(a.contains("\"delta_tuples\":{\"count\":1,\"sum\":5,\"max\":5}"));
        assert!(a.contains("\"work\":{\"count\":1}"));
        assert!(!a.contains("nanos"));
        // the timed form does expose durations
        assert!(m.snapshot().to_json(true).contains("total_nanos"));
    }

    #[test]
    fn pretty_json_is_the_compact_json_reformatted() {
        let m = Metrics::enabled();
        m.add(Counter::ProbeRows, 41);
        m.observe(Hist::EnumBudget, 9);
        {
            let _outer = m.span("check");
            let _inner = m.span("model");
        }
        let snap = m.snapshot();
        // catalog names and span paths contain no spaces, so stripping
        // layout whitespace from the pretty form must recover the
        // compact form exactly
        let stripped: String = snap
            .to_json_pretty(false)
            .chars()
            .filter(|c| *c != ' ' && *c != '\n')
            .collect();
        assert_eq!(stripped, snap.to_json(false));
        let pretty = snap.to_json_pretty(false);
        assert!(pretty.contains("\"probe_rows\": 41"));
        assert!(pretty.contains("\"check.model\": {\"count\": 1}"));
        assert!(snap.to_json_pretty(true).contains("total_nanos"));
    }

    #[test]
    fn catalog_names_are_unique_and_match_order() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "catalog names must be unique");
        // ALL must cover every discriminant exactly once
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, *c as usize); // discriminants are usable
            assert_eq!(
                Counter::ALL.iter().filter(|d| **d == *c).count(),
                1,
                "duplicate in ALL at {i}"
            );
        }
    }

    #[test]
    fn global_install_and_uninstall() {
        // current() is disabled by default in the test process (nothing
        // installed), and reflects installs/uninstalls.
        let m = Metrics::enabled();
        m.install_global();
        assert!(Metrics::current().is_enabled());
        Metrics::current().bump(Counter::ModelChecks);
        assert_eq!(m.get(Counter::ModelChecks), 1);
        Metrics::disabled().install_global();
        assert!(!Metrics::current().is_enabled());
    }

    #[test]
    fn render_skips_zero_entries() {
        let m = Metrics::enabled();
        m.bump(Counter::ExecSteps);
        let text = m.snapshot().render();
        assert!(text.contains("exec_steps"));
        assert!(!text.contains("exec_assign"));
    }
}
