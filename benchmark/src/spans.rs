//! The outside-in trace: spans recorded from the benchmark's own files
//! around each call into a layer.
//!
//! A span is `(name, start, end, parent, op)`. Spans live in one
//! preallocated in-memory vector for the whole run and are written out
//! only when the workload is over, so recording costs two short lock
//! holds and no I/O. Nesting on one thread follows a thread-local
//! stack; work the engine fans out to *other* threads (constraint
//! checks run on scoped validation workers) is attached through
//! [`adopt`], and threads that belong to no operation at all (the WAL
//! writer) record parentless spans.
//!
//! [`reduce`] turns the vector into per-name **self time**: a span's
//! duration minus the part of that interval its children cover — the
//! union of the children, so two checks running in parallel are not
//! subtracted twice.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// "No parent" / "no operation".
pub const NONE: u32 = u32::MAX;

/// Root spans — one per operation — are named `op.<class>`
/// (`op.commit`, `op.read`, …).
pub fn is_root(name: &str) -> bool {
    name.starts_with("op.")
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// `(span << 32) | op` of the span that adopts spans opened on threads
/// with an empty stack; `u64::MAX` when nobody adopts.
static ADOPTER: AtomicU64 = AtomicU64::new(u64::MAX);

/// Start of the measured phase; spans of operations that began before
/// it (warm-up) are left out of [`reduce`].
static MEASURED_FROM: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Reserve room for `capacity` spans up front so recording never
/// reallocates inside a measured operation.
pub fn reserve(capacity: usize) {
    now_ns();
    SPANS.lock().expect("span store").reserve(capacity);
}

/// The measured phase starts now: warm-up is over. The first call
/// decides (the recovery workload starts counting spans while it still
/// builds its log, which is set-up for its end-to-end numbers).
pub fn measure_from_now() {
    let _ = MEASURED_FROM.compare_exchange(0, now_ns().max(1), Ordering::AcqRel, Ordering::Acquire);
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct Guard {
    id: u32,
}

fn open(name: &'static str, parent: u32, op: u32) -> Guard {
    let mut spans = SPANS.lock().expect("span store");
    let id = u32::try_from(spans.len()).expect("span count fits u32");
    spans.push(Span {
        name,
        start_ns: now_ns(),
        end_ns: 0,
        parent,
        op,
    });
    drop(spans);
    STACK.with(|s| s.borrow_mut().push((id, op)));
    Guard { id }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(
                popped.map(|p| p.0),
                Some(self.id),
                "spans close in LIFO order"
            );
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans[self.id as usize].end_ns = end;
        }
    }
}

/// Open the root span (`op.<class>`) of operation `op`.
pub fn op(class: &'static str, op: u32) -> Guard {
    debug_assert!(is_root(class));
    open(class, NONE, op)
}

/// Open a span under whatever is open on this thread; on a thread with
/// nothing open, under the current adopter; failing that, parentless.
pub fn span(name: &'static str) -> Guard {
    let (parent, op) = STACK
        .with(|s| s.borrow().last().copied())
        .unwrap_or_else(|| {
            let a = ADOPTER.load(Ordering::Acquire);
            if a == u64::MAX {
                (NONE, NONE)
            } else {
                ((a >> 32) as u32, a as u32)
            }
        });
    open(name, parent, op)
}

/// A measurement the harness adds *beside* an operation (replaying a
/// delta, advancing a shadow automaton): it carries the operation's id
/// but no parent, so it is never counted inside the operation.
pub fn beside(name: &'static str, op: u32) -> Guard {
    open(name, NONE, op)
}

/// Restores the previous adopter when dropped.
pub struct Adoption(u64);

impl Drop for Adoption {
    fn drop(&mut self) {
        ADOPTER.store(self.0, Ordering::Release);
    }
}

/// Until the returned value drops, spans opened on threads that have
/// nothing open become children of this thread's innermost span. Only
/// sound while a single thread issues operations.
pub fn adopt() -> Adoption {
    let (span, op) = STACK
        .with(|s| s.borrow().last().copied())
        .expect("adopt is called inside a span");
    Adoption(ADOPTER.swap((u64::from(span) << 32) | u64::from(op), Ordering::AcqRel))
}

/// Take every recorded span, leaving the store empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store"))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Reduced {
    /// Σ self time per span name, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Σ wall time per span name, ns: under each parent, the union of
    /// its children of that name. Equal to the summed durations unless
    /// same-named siblings overlapped (constraint checks fanned out to
    /// two validation workers), where it is what the blocked caller
    /// waited rather than what the workers spent.
    pub wall_ns: BTreeMap<&'static str, u64>,
    /// Spans per name.
    pub count: BTreeMap<&'static str, u64>,
    /// Operations a per-op mean of this name divides by: the roots of
    /// every class the name occurred under. A layer only commits enter
    /// is averaged over commits — all of them, also those it did
    /// nothing for — and one every op enters over all ops. Parentless
    /// spans that are not roots (the WAL writer's, the replays beside
    /// a commit) have no entry.
    pub denom: BTreeMap<&'static str, u64>,
}

/// Total length of the union of `intervals` (sorted by start), clipped
/// to `lo..hi`.
fn union_len(intervals: impl Iterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut reach = lo;
    let mut covered = 0;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// [`reduce_from`] the start of the measured phase.
pub fn reduce(spans: &[Span]) -> Reduced {
    reduce_from(spans, MEASURED_FROM.load(Ordering::Acquire))
}

/// Reduce the spans of operations that began at or after `from_ns`.
pub fn reduce_from(spans: &[Span], from_ns: u64) -> Reduced {
    let mut children: BTreeMap<u32, Vec<(u64, u64, &'static str)>> = BTreeMap::new();
    // a parent always opens before its children, so one forward pass
    // resolves every span's root
    let mut root_of: Vec<u32> = Vec::with_capacity(spans.len());
    let mut classes: BTreeMap<&'static str, std::collections::BTreeSet<&'static str>> =
        BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        if s.parent != NONE {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns, s.name));
            root_of.push(root_of[s.parent as usize]);
        } else {
            root_of.push(id as u32);
        }
    }
    let mut out = Reduced::default();
    for (id, s) in spans.iter().enumerate() {
        let root = &spans[root_of[id] as usize];
        if root.start_ns < from_ns {
            continue;
        }
        if is_root(root.name) {
            classes.entry(s.name).or_default().insert(root.name);
        }
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&(id as u32)) {
            kids.sort_unstable();
            covered = union_len(kids.iter().map(|k| (k.0, k.1)), s.start_ns, s.end_ns);
            let mut names: Vec<&'static str> = kids.iter().map(|k| k.2).collect();
            names.sort_unstable();
            names.dedup();
            for name in names {
                let same = kids.iter().filter(|k| k.2 == name).map(|k| (k.0, k.1));
                *out.wall_ns.entry(name).or_default() += union_len(same, s.start_ns, u64::MAX);
            }
        }
        if s.parent == NONE {
            *out.wall_ns.entry(s.name).or_default() += duration;
        }
        *out.self_ns.entry(s.name).or_default() += duration - covered.min(duration);
        *out.count.entry(s.name).or_default() += 1;
    }
    for (name, under) in classes {
        let roots = under.iter().map(|class| out.count[class]).sum();
        out.denom.insert(name, roots);
    }
    out
}

/// One JSON object per line; a span's id is its line number from 0.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    let field = |v: u32| if v == NONE { -1 } else { i64::from(v) };
    for (id, s) in spans.iter().enumerate() {
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            field(s.parent),
            field(s.op)
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp("op.commit", 0, 100, NONE),   // 0: children cover 10..90
            sp("submit", 10, 90, 0),         // 1: children cover 20..60 ∪ 70..80
            sp("check", 20, 50, 1),          // 2
            sp("check", 30, 60, 1),          // 3: overlaps 2 (ran in parallel)
            sp("callback", 70, 80, 1),       // 4
            sp("wal.sync", 40, 45, NONE),    // 5: another thread, no parent
            sp("op.commit", 100, 110, NONE), // 6: a commit no check ran for
            sp("op.read", 110, 130, NONE),   // 7
            sp("eval", 112, 130, 7),         // 8
        ];
        let r = reduce_from(&spans, 0);
        assert_eq!(r.self_ns["op.commit"], 20 + 10);
        assert_eq!(r.self_ns["submit"], 80 - 40 - 10);
        assert_eq!(r.self_ns["check"], 60);
        assert_eq!(r.self_ns["callback"], 10);
        assert_eq!(r.self_ns["wal.sync"], 5);
        assert_eq!(r.count["check"], 2);
        assert_eq!(r.wall_ns["op.commit"], 110);
        assert_eq!(r.wall_ns["op.read"], 20);
        assert_eq!(r.wall_ns["check"], 40, "20..60, not 30 + 30");
        assert_eq!(r.wall_ns["callback"], 10);
        assert_eq!(r.wall_ns["wal.sync"], 5);
        // along the blocking path, self time of the spans that have
        // children plus wall time of the leaves is the roots' duration
        assert_eq!(
            r.self_ns["op.commit"]
                + r.self_ns["submit"]
                + r.wall_ns["check"]
                + r.wall_ns["callback"],
            r.wall_ns["op.commit"]
        );
        // a commit-path layer is averaged over both commits, a
        // read-path layer over the one read, a parentless span over
        // nothing
        assert_eq!(r.denom["check"], 2);
        assert_eq!(r.denom["op.commit"], 2);
        assert_eq!(r.denom["eval"], 1);
        assert!(!r.denom.contains_key("wal.sync"));
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped() {
        let spans = vec![sp("op.read", 0, 10, NONE), sp("late", 5, 30, 0)];
        let r = reduce_from(&spans, 0);
        assert_eq!(r.self_ns["op.read"], 5);
        assert_eq!(r.self_ns["late"], 25);
        // an operation that began before the measured phase is left out whole
        assert_eq!(reduce_from(&spans, 1), Reduced::default());
    }

    #[test]
    fn recording_nests_adopts_and_stands_beside() {
        // the only test that touches the process-wide store
        reserve(16);
        {
            let _root = op("op.commit", 7);
            {
                let _submit = span("submit");
                let _adoption = adopt();
                std::thread::scope(|s| {
                    s.spawn(|| drop(span("check")));
                });
            }
            drop(beside("replay", 7));
        }
        std::thread::scope(|s| {
            s.spawn(|| drop(span("wal.sync")));
        });
        let spans = take();
        let by_name = |n: &str| spans.iter().position(|s| s.name == n).expect("recorded");
        let (root, submit) = (by_name("op.commit"), by_name("submit"));
        assert_eq!(spans[submit].parent, root as u32);
        assert_eq!(spans[by_name("check")].parent, submit as u32);
        assert_eq!(spans[by_name("check")].op, 7);
        assert_eq!(spans[by_name("replay")].parent, NONE);
        assert_eq!(spans[by_name("replay")].op, 7);
        assert_eq!(spans[by_name("wal.sync")].parent, NONE);
        assert_eq!(spans[by_name("wal.sync")].op, NONE);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
