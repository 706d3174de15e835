//! Delta-driven incremental constraint checking.
//!
//! [`Checker::check_now`] re-evaluates the constraint over its window
//! after *every* transaction, even when the step could not possibly
//! have changed the verdict — the common case for a large
//! database with localized updates. [`IncrementalChecker`] is the
//! stateful half: a [`Checker`] plus the [`History`] it runs over and a
//! sound verdict cache driven by the deltas of the executed transactions:
//!
//! * each step's [`Delta`] updates per-relation *fingerprints* (an XOR of
//!   per-tuple hashes) in O(|delta|), so the checker always knows a
//!   digest of every state's content without rescanning it;
//! * the constraint's [`ReadSet`](crate::ReadSet) over-approximates the
//!   relations its verdict can depend on;
//! * before re-evaluating, the checker forms a **window key**: for every
//!   state in the current window, its content-dedup class (which window
//!   states are fully content-equal — this fixes the shape of the window
//!   model, because [`History`] deduplicates graph nodes by full
//!   content) and the fingerprint of its read-set projection, plus the
//!   window's transaction-label sequence. Equal keys mean the two window
//!   models are isomorphic as far as the constraint can observe, so the
//!   cached verdict is returned without building a model at all.
//!
//! Verdicts are only cached on successful evaluation; errors always
//! propagate from a real evaluation. A [`Window::Complete`] constraint is
//! checked against the whole (growing) history every time — there is no
//! window to cache against — and [`Window::NotCheckable`] is rejected at
//! construction exactly as [`Checker::new`] rejects it.
//!
//! The differential property harness (`tests/prop_incremental.rs`)
//! asserts step-for-step verdict equality — including errors — between
//! this checker and a plain [`Checker`] over randomized schemas,
//! histories, and constraints.
//!
//! [`Delta`]: txlog_relational::Delta

use crate::window::{Checker, History, Window};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use txlog_base::obs::{Counter, Hist, Metrics};
use txlog_base::{RelId, TupleId, TxResult};
use txlog_engine::Env;
use txlog_logic::{FTerm, SFormula};
use txlog_relational::{DbState, Delta, Schema};

/// Stable counter names for the cache-effectiveness metrics, for use
/// with [`Metrics::get`] / snapshot tooling.
pub mod counters {
    use txlog_base::obs::Counter;

    /// Checks answered from the verdict cache ("cache_reused").
    pub const REUSED: Counter = Counter::CacheReused;
    /// Checks that built a window model and evaluated ("cache_recomputed").
    pub const RECOMPUTED: Counter = Counter::CacheRecomputed;
    /// Checks requested in total ("checks_requested").
    pub const REQUESTED: Counter = Counter::ChecksRequested;
}

/// Per-relation content fingerprint: arity plus an XOR of tuple hashes.
#[derive(Clone, Copy, PartialEq, Eq)]
struct RelFp {
    arity: usize,
    fp: u128,
}

/// The cache key for one window: per state its dedup class and read-set
/// projection fingerprint, plus the arc labels inside the window.
#[derive(Clone, PartialEq, Eq, Hash)]
struct WindowKey {
    shape: Vec<(u32, u128)>,
    labels: Vec<String>,
}

/// Incremental enforcement of one constraint: a [`Checker`] with its
/// history and a delta-maintained verdict cache.
///
/// ```
/// use txlog_constraints::{IncrementalChecker, Window};
/// use txlog_engine::Env;
/// use txlog_logic::{parse_fterm, parse_sformula, ParseCtx};
/// use txlog_relational::Schema;
///
/// let schema = Schema::new().relation("EMP", &["e-name", "salary"]).unwrap();
/// let ctx = ParseCtx::with_relations(&["EMP"]);
/// let ic = parse_sformula(
///     "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000",
///     &ctx,
/// )
/// .unwrap();
/// let mut chk = IncrementalChecker::new(
///     schema.clone(),
///     schema.initial_state(),
///     ic,
///     Window::States(1),
/// )
/// .unwrap();
/// let hire = parse_fterm("insert(tuple('ann', 500), EMP)", &ctx, &[]).unwrap();
/// assert!(chk.step("hire", &hire, &Env::new()).unwrap());
/// ```
#[derive(Clone)]
pub struct IncrementalChecker {
    checker: Checker,
    read_ids: Option<BTreeSet<RelId>>,
    history: History,
    rel_fps: Vec<BTreeMap<RelId, RelFp>>,
    full_fps: Vec<u128>,
    proj_fps: Vec<u128>,
    cache: HashMap<WindowKey, bool>,
    metrics: Metrics,
}

impl IncrementalChecker {
    /// A checker for `constraint` over a history starting at `initial`,
    /// maintaining `window` states. Fails exactly when [`Checker::new`]
    /// fails (zero-state or not-checkable windows).
    pub fn new(
        schema: Schema,
        initial: DbState,
        constraint: SFormula,
        window: Window,
    ) -> TxResult<IncrementalChecker> {
        let checker = Checker::new("incremental", constraint, window)?;
        let read_ids = checker.read_set().names().map(|names| {
            names
                .iter()
                .filter_map(|&n| schema.by_name(n).map(|d| d.id))
                .collect::<BTreeSet<RelId>>()
        });
        let rel_fps0 = state_rel_fps(&initial);
        let full0 = combine_fps(&rel_fps0, None);
        let proj0 = combine_fps(&rel_fps0, read_ids.as_ref());
        let unobserved = IncrementalChecker {
            checker,
            read_ids,
            history: History::new(schema, initial),
            rel_fps: vec![rel_fps0],
            full_fps: vec![full0],
            proj_fps: vec![proj0],
            cache: HashMap::new(),
            metrics: Metrics::disabled(),
        };
        // Per-instance recording registry (not the process global):
        // clones share it so a cloned checker keeps accumulating into
        // the same counters.
        Ok(unobserved.with_metrics(Metrics::enabled()))
    }

    /// Replace the observability sink — e.g. with a process-global
    /// registry so this checker's cache counters aggregate with engine
    /// counters in one snapshot. The read-set observation is recorded
    /// into every sink the checker is given.
    pub fn with_metrics(mut self, metrics: Metrics) -> IncrementalChecker {
        let read_rels = self
            .read_ids
            .as_ref()
            .map_or(self.history.schema().decls().len(), BTreeSet::len);
        metrics.observe(Hist::ReadSetRels, read_rels as u64);
        self.metrics = metrics;
        self
    }

    /// The observability sink this checker reports into.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The stateless checker: the constraint, its window, and the
    /// read-set reuse is keyed on.
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// The recorded history.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Execute `tx` at the latest state, record the step, and check.
    pub fn step(&mut self, label: &str, tx: &FTerm, env: &Env) -> TxResult<bool> {
        let (next, delta) = {
            let engine = self.history.engine(self.metrics.clone())?;
            let exec = engine.execute_traced(self.history.latest(), tx, env)?;
            (exec.state, exec.delta)
        };
        self.advance(label, next, &delta);
        self.check_now()
    }

    /// Append a pre-computed state (for synthetic histories), deriving
    /// the step's delta by diffing, and check.
    pub fn push_state(&mut self, label: &str, state: DbState) -> TxResult<bool> {
        let delta = self.history.latest().diff(&state);
        self.advance(label, state, &delta);
        self.check_now()
    }

    fn advance(&mut self, label: &str, state: DbState, delta: &Delta) {
        self.metrics
            .observe(Hist::DeltaTuples, delta.tuple_changes() as u64);
        let next = update_rel_fps(self.rel_fps.last().expect("never empty"), delta);
        self.full_fps.push(combine_fps(&next, None));
        self.proj_fps
            .push(combine_fps(&next, self.read_ids.as_ref()));
        self.rel_fps.push(next);
        self.history.push_state(label, state);
    }

    /// Check the window at the history's current end, reusing a cached
    /// verdict when the window key matches an earlier successful check.
    pub fn check_now(&mut self) -> TxResult<bool> {
        self.metrics.bump(Counter::ChecksRequested);
        let _span = self.metrics.span("incremental_check");
        if self.checker.window == usize::MAX {
            // Complete window: the model is the whole growing history;
            // no later window can repeat an earlier key.
            self.metrics.bump(Counter::CacheRecomputed);
            return self.checker.check_now(&self.history);
        }
        let key = self.window_key();
        if let Some(&verdict) = self.cache.get(&key) {
            self.metrics.bump(Counter::CacheReused);
            return Ok(verdict);
        }
        let verdict = self.checker.check_now(&self.history)?;
        self.metrics.bump(Counter::CacheRecomputed);
        self.cache.insert(key, verdict);
        Ok(verdict)
    }

    fn window_key(&self) -> WindowKey {
        let len = self.history.len();
        let start = len.saturating_sub(self.checker.window);
        let fulls = &self.full_fps[start..len];
        self.metrics.observe(Hist::WindowStates, fulls.len() as u64);
        let mut shape = Vec::with_capacity(fulls.len());
        let mut compares = 0u64;
        for (i, f) in fulls.iter().enumerate() {
            let class = fulls[..i]
                .iter()
                .position(|g| {
                    compares += 1;
                    g == f
                })
                .unwrap_or(i) as u32;
            shape.push((class, self.proj_fps[start + i]));
        }
        self.metrics.add(Counter::FingerprintCompares, compares);
        WindowKey {
            shape,
            labels: self.history.labels()[start..len - 1].to_vec(),
        }
    }
}

// ---------------------------------------------------------------------
// fingerprints
// ---------------------------------------------------------------------

/// FNV-1a, used twice with different bases for a 128-bit fingerprint.
struct Fnv(u64);

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        // final avalanche (splitmix64) so near-identical inputs spread
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

fn hash128<T: Hash>(x: &T) -> u128 {
    let mut lo = Fnv(0xcbf2_9ce4_8422_2325);
    x.hash(&mut lo);
    let mut hi = Fnv(0x6c62_272e_07bb_0142);
    x.hash(&mut hi);
    (u128::from(hi.finish()) << 64) | u128::from(lo.finish())
}

fn tuple_fp(id: TupleId, fields: &[txlog_base::Atom]) -> u128 {
    hash128(&(id, fields))
}

/// Fingerprints of every relation in a state, computed by full scan
/// (used once, for the initial state).
fn state_rel_fps(state: &DbState) -> BTreeMap<RelId, RelFp> {
    let mut out = BTreeMap::new();
    for (rid, rel) in state.relations() {
        let mut fp = 0u128;
        for t in rel.iter() {
            fp ^= tuple_fp(t.id(), t.fields());
        }
        out.insert(
            rid,
            RelFp {
                arity: rel.arity(),
                fp,
            },
        );
    }
    out
}

/// Advance fingerprints by one delta, in O(|delta|). Mirrors
/// [`Delta::apply`]'s handling of dropped/created relations.
///
/// [`Delta::apply`]: txlog_relational::Delta::apply
fn update_rel_fps(prev: &BTreeMap<RelId, RelFp>, delta: &Delta) -> BTreeMap<RelId, RelFp> {
    let mut out = prev.clone();
    for (rid, rd) in delta.rels() {
        if rd.is_empty() {
            continue;
        }
        if rd.dropped {
            out.remove(&rid);
            if !rd.created {
                continue;
            }
        }
        if rd.created {
            out.insert(
                rid,
                RelFp {
                    arity: rd.arity,
                    fp: 0,
                },
            );
        }
        let entry = out.entry(rid).or_insert(RelFp {
            arity: rd.arity,
            fp: 0,
        });
        for (id, old) in &rd.deleted {
            entry.fp ^= tuple_fp(*id, old);
        }
        for (id, change) in &rd.modified {
            entry.fp ^= tuple_fp(*id, &change.old);
            entry.fp ^= tuple_fp(*id, &change.new);
        }
        for (id, fields) in &rd.inserted {
            entry.fp ^= tuple_fp(*id, fields);
        }
    }
    out
}

/// Combine per-relation fingerprints into one state fingerprint,
/// optionally projected onto a set of relations. Each relation
/// contributes a slot hash of (identity, arity, content), so presence
/// and emptiness patterns are distinguished.
fn combine_fps(fps: &BTreeMap<RelId, RelFp>, read_ids: Option<&BTreeSet<RelId>>) -> u128 {
    let mut acc = 0u128;
    for (rid, rf) in fps {
        if read_ids.map_or(true, |s| s.contains(rid)) {
            acc ^= hash128(&(*rid, rf.arity, rf.fp));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use txlog_base::Atom;
    use txlog_logic::{parse_fterm, parse_sformula, ParseCtx};

    fn schema() -> Schema {
        Schema::new()
            .relation("EMP", &["e-name", "salary"])
            .unwrap()
            .relation("LOG", &["l-name"])
            .unwrap()
    }

    fn ctx() -> ParseCtx {
        ParseCtx::with_relations(&["EMP", "LOG"])
    }

    fn start() -> (Schema, DbState) {
        let schema = schema();
        let db = schema.initial_state();
        let emp = schema.rel_id("EMP").unwrap();
        let (db, _) = db
            .insert_fields(emp, &[Atom::str("ann"), Atom::nat(500)])
            .unwrap();
        (schema, db)
    }

    fn monotone_salary() -> SFormula {
        parse_sformula(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP)
                 -> salary(s:e) <= salary((s;t):e)",
            &ctx(),
        )
        .unwrap()
    }

    fn noise() -> FTerm {
        parse_fterm("insert(tuple('noise'), LOG)", &ctx(), &[]).unwrap()
    }

    fn raise() -> FTerm {
        parse_fterm(
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 100) end",
            &ctx(),
            &[],
        )
        .unwrap()
    }

    /// Run the same steps through an IncrementalChecker and a plain
    /// Checker, asserting identical verdicts at every step.
    fn differential(
        constraint: &SFormula,
        window: Window,
        steps: &[(&str, FTerm)],
    ) -> IncrementalChecker {
        let (schema, db) = start();
        let mut inc = IncrementalChecker::new(
            schema.clone(),
            db.clone(),
            constraint.clone(),
            window.clone(),
        )
        .unwrap();
        let full = Checker::new("full", constraint.clone(), window).unwrap();
        let mut history = History::new(schema, db);
        let env = Env::new();
        for (label, tx) in steps {
            let got = inc.step(label, tx, &env).unwrap();
            history.step(label, tx, &env).unwrap();
            let want = full.check_now(&history).unwrap();
            assert_eq!(got, want, "verdict diverged after step {label}");
        }
        inc
    }

    #[test]
    fn read_set_disjoint_noise_reuses_verdicts() {
        let steps: Vec<_> = (0..6).map(|_| ("noise", noise())).collect();
        let inc = differential(&monotone_salary(), Window::States(2), &steps);
        // first two windows have fresh shapes; once the window is two
        // noise-steps deep the key repeats every step
        let reused = inc.metrics().get(counters::REUSED);
        assert!(
            reused >= 3,
            "expected cache reuse on noise-only steps, got {reused}"
        );
    }

    #[test]
    fn read_set_hits_force_recomputation() {
        let steps = vec![
            ("raise", raise()),
            ("noise", noise()),
            ("raise", raise()),
            ("noise", noise()),
        ];
        let inc = differential(&monotone_salary(), Window::States(2), &steps);
        // every window containing a raise has a fresh EMP projection
        assert!(inc.metrics().get(counters::RECOMPUTED) >= 3);
    }

    #[test]
    fn violation_verdicts_match_windowed_checker() {
        let cut = parse_fterm(
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) - 100) end",
            &ctx(),
            &[],
        )
        .unwrap();
        let steps = vec![("raise", raise()), ("cut", cut)];
        let inc = differential(&monotone_salary(), Window::States(2), &steps);
        assert_eq!(inc.metrics().get(counters::REUSED), 0);
    }

    #[test]
    fn complete_window_always_recomputes() {
        let steps: Vec<_> = (0..4).map(|_| ("noise", noise())).collect();
        let inc = differential(&monotone_salary(), Window::Complete, &steps);
        assert_eq!(inc.metrics().get(counters::REUSED), 0);
        assert_eq!(inc.metrics().get(counters::RECOMPUTED), 4);
    }

    #[test]
    fn not_checkable_rejected_like_windowed_checker() {
        let (schema, db) = start();
        assert!(IncrementalChecker::new(
            schema,
            db,
            SFormula::True,
            Window::NotCheckable("reason".into()),
        )
        .is_err());
    }

    #[test]
    fn zero_state_window_rejected() {
        let (schema, db) = start();
        assert!(IncrementalChecker::new(schema, db, SFormula::True, Window::States(0)).is_err());
    }

    #[test]
    fn push_state_matches_step() {
        // Driving the checker with pre-computed states (delta derived by
        // diffing) gives the same verdicts as executing the programs.
        let (schema, db) = start();
        let constraint = monotone_salary();
        let mut by_step = IncrementalChecker::new(
            schema.clone(),
            db.clone(),
            constraint.clone(),
            Window::States(2),
        )
        .unwrap();
        let mut by_push =
            IncrementalChecker::new(schema.clone(), db.clone(), constraint, Window::States(2))
                .unwrap();
        let engine = txlog_engine::Engine::builder(&schema).build().unwrap();
        let env = Env::new();
        let mut cur = db;
        for (label, tx) in [("raise", raise()), ("noise", noise())] {
            let next = engine.execute(&cur, &tx, &env).unwrap();
            let a = by_step.step(label, &tx, &env).unwrap();
            let b = by_push.push_state(label, next.clone()).unwrap();
            assert_eq!(a, b);
            cur = next;
        }
    }

    #[test]
    fn fingerprints_track_content() {
        let (schema, db) = start();
        let emp = schema.rel_id("EMP").unwrap();
        let (db2, _, delta) = db
            .insert_traced(
                emp,
                &txlog_relational::TupleVal::anonymous(vec![Atom::str("bob"), Atom::nat(300)]),
            )
            .unwrap();
        let scanned = state_rel_fps(&db2);
        let updated = update_rel_fps(&state_rel_fps(&db), &delta);
        assert!(scanned == updated, "incremental fp must equal full rescan");
        assert_ne!(
            combine_fps(&scanned, None),
            combine_fps(&state_rel_fps(&db), None)
        );
    }
}
