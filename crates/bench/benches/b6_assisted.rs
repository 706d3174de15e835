//! B6 — ablation: verification-assisted validation vs plain windowed
//! checking (the paper's future-work claim, quantified).
//!
//! A transaction certified (by symbolic regression) to preserve a
//! constraint skips the runtime model check entirely. This measures the
//! per-step saving as database size grows — the gap is the paper's
//! "more knowledgable database systems" dividend.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txlog::constraints::{Checker, History, VerifiedRegistry, Window};
use txlog::empdb::transactions::raise_salary;
use txlog::empdb::{populate, Sizes};
use txlog::engine::Env;
use txlog::logic::parse_sformula;

fn bench_assisted_vs_windowed(c: &mut Criterion) {
    let mut group = c.benchmark_group("b6_assisted");
    group.sample_size(10);
    let ctx = txlog::empdb::parse_ctx();
    let constraint = parse_sformula(
        "forall s: state, t: tx, e: 5tup .
           (s:e in s:EMP & (s;t):e in (s;t):EMP)
             -> salary(s:e) <= salary((s;t):e)",
        &ctx,
    )
    .expect("constraint parses");

    for &n in &[20usize, 100, 400] {
        let (schema, db) = populate(Sizes::scaled(n), 13).expect("population generates");
        let mut history = History::new(schema, db);
        history
            .step("raise", &raise_salary("emp-0", 5), &Env::new())
            .expect("raise executes");
        let checker = Checker::new("monotone", constraint.clone(), Window::States(2))
            .expect("window accepted");

        // certified path: the registry says `raise` preserves the
        // constraint (as the prover's regression would conclude for a
        // monotone update)
        let mut registry = VerifiedRegistry::new();
        registry.record("raise", "monotone");
        group.bench_with_input(BenchmarkId::new("certified_skip", n), &n, |b, _| {
            b.iter(|| {
                checker
                    .check_assisted(&history, "raise", &registry)
                    .expect("check evaluates")
            })
        });

        // uncertified path: full windowed model check every step
        let empty = VerifiedRegistry::new();
        group.bench_with_input(BenchmarkId::new("windowed_check", n), &n, |b, _| {
            b.iter(|| {
                checker
                    .check_assisted(&history, "raise", &empty)
                    .expect("check evaluates")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_assisted_vs_windowed);
criterion_main!(benches);
