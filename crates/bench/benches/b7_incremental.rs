//! b7: incremental vs. full rechecking as the database grows.
//!
//! Every history step executes the same constant-size transaction (one
//! `obtain-skill` insert into SKILL) while the database size scales, so
//! the delta is O(1) and the full database is O(n). The constraints
//! under check read only EMP, so their [`ReadSet`] is disjoint from the
//! noise deltas and the `IncrementalChecker` answers from its verdict
//! cache; the plain `Checker` rebuilds the window model and
//! re-enumerates EMP every time. The `check` group isolates the cost of
//! one verdict at the history's current end; the `steps` group replays a
//! batch of execute-then-check steps end to end.
//!
//! [`ReadSet`]: txlog::constraints::ReadSet

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txlog::constraints::{Checker, History, IncrementalChecker, Window};
use txlog::empdb::data::emp_name;
use txlog::empdb::transactions::obtain_skill;
use txlog::empdb::{parse_ctx, populate, Sizes};
use txlog::engine::Env;
use txlog::logic::{parse_sformula, SFormula};
use txlog::prelude::{Counter, Hist};

const SIZES: [usize; 3] = [10, 100, 400];

/// A static constraint reading only EMP (`ReadSet = {EMP}`).
fn salary_cap() -> SFormula {
    parse_sformula(
        "forall s: state, e': 5tup . e' in s:EMP -> salary(e') <= 1000000",
        &parse_ctx(),
    )
    .expect("parses")
}

/// A transaction constraint reading only EMP, checkable with two states.
fn monotone_salary() -> SFormula {
    parse_sformula(
        "forall s: state, t: tx, e: 5tup .
           (s:e in s:EMP & (s;t):e in (s;t):EMP)
             -> salary(s:e) <= salary((s;t):e)",
        &parse_ctx(),
    )
    .expect("parses")
}

/// One constant-size, read-set-disjoint step: a fresh SKILL tuple.
fn noise(no: u64) -> txlog::logic::FTerm {
    obtain_skill(&emp_name(0), no)
}

/// Populate `employees` and warm both checkers with `warmup` noise steps
/// (same label every time, so the incremental window key stabilizes).
fn prepared(
    employees: usize,
    constraint: &SFormula,
    window: Window,
) -> (History, Checker, IncrementalChecker) {
    let (schema, db) = populate(Sizes::scaled(employees), 7).expect("populates");
    let mut inc = IncrementalChecker::new(
        schema.clone(),
        db.clone(),
        constraint.clone(),
        window.clone(),
    )
    .expect("checkable");
    let full = Checker::new("full", constraint.clone(), window).expect("checkable");
    let mut history = History::new(schema, db);
    let env = Env::new();
    for i in 0..4u64 {
        let tx = noise(900 + i);
        assert!(inc.step("noise", &tx, &env).expect("steps"));
        history.step("noise", &tx, &env).expect("steps");
        assert!(full.check_now(&history).expect("checks"));
    }
    (history, full, inc)
}

/// Cost of one verdict at the history's current end. The incremental
/// side hits its cache (the window holds only noise steps); the full
/// side rebuilds the window model over the n-employee database.
fn bench_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("b7_check");
    group.sample_size(10);
    let cases = [
        ("static", salary_cap(), Window::States(1)),
        ("transaction", monotone_salary(), Window::States(2)),
    ];
    for (kind, constraint, window) in &cases {
        for &n in &SIZES {
            let (history, full, mut inc) = prepared(n, constraint, window.clone());
            group.bench_function(BenchmarkId::new(format!("{kind}/full"), n), |b| {
                b.iter(|| full.check_now(&history).expect("checks"))
            });
            group.bench_function(BenchmarkId::new(format!("{kind}/incremental"), n), |b| {
                b.iter(|| inc.check_now().expect("checks"))
            });
            assert!(
                inc.metrics().get(Counter::CacheReused) > 0,
                "cache must be exercised"
            );
            // the cache behaviour behind the timing gap
            let m = inc.metrics();
            eprintln!(
                "b7_check/{kind}/{n}: reused={} recomputed={} \
                 fingerprint_compares={} window_states={:?}",
                m.get(Counter::CacheReused),
                m.get(Counter::CacheRecomputed),
                m.get(Counter::FingerprintCompares),
                m.hist(Hist::WindowStates),
            );
        }
    }
    group.finish();
}

/// End-to-end: replay a batch of execute-then-check steps from a warmed
/// checkpoint. Both sides execute identical transactions; only the
/// checking strategy differs.
fn bench_steps(c: &mut Criterion) {
    const BATCH: u64 = 8;
    let mut group = c.benchmark_group("b7_steps");
    group.sample_size(10);
    let constraint = monotone_salary();
    for &n in &SIZES {
        let (history, full, inc) = prepared(n, &constraint, Window::States(2));
        let env = Env::new();
        group.bench_function(BenchmarkId::new("full", n), |b| {
            b.iter(|| {
                let mut h = history.clone();
                let mut ok = true;
                for j in 0..BATCH {
                    h.step("noise", &noise(2000 + j), &env).expect("steps");
                    ok &= full.check_now(&h).expect("checks");
                }
                ok
            })
        });
        group.bench_function(BenchmarkId::new("incremental", n), |b| {
            b.iter(|| {
                let mut c = inc.clone();
                let mut ok = true;
                for j in 0..BATCH {
                    ok &= c.step("noise", &noise(2000 + j), &env).expect("steps");
                }
                ok
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_check, bench_steps);
criterion_main!(benches);
