//! B2 — the paper's expressiveness-vs-maintainability trade-off,
//! quantified: constraint-checking latency as a function of the history
//! window (1 / 2 / 3 / complete) and of the history length.
//!
//! This regenerates the shape behind Section 3's discussion: static
//! constraints are cheap (current state only); transaction constraints
//! pay for a window; complete-history constraints grow with the
//! database's entire past.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txlog::constraints::{Checker, History, Window};
use txlog::empdb::constraints::{
    ic1_alloc_within_100, ic3_salary_needs_dept_switch, ic3_salary_never_same, ic3_skill_retention,
};
use txlog::empdb::transactions::raise_salary;
use txlog::empdb::{populate, Sizes};
use txlog::engine::Env;

fn history_of_len(len: usize, employees: usize) -> History {
    let (schema, db) = populate(Sizes::scaled(employees), 5).expect("population generates");
    let mut h = History::new(schema, db);
    let env = Env::new();
    for i in 0..len {
        h.step(
            &format!("raise-{i}"),
            &raise_salary(&format!("emp-{}", i % employees), 10),
            &env,
        )
        .expect("raise executes");
    }
    h
}

fn bench_windows(c: &mut Criterion) {
    let mut group = c.benchmark_group("b2_window_cost");
    group.sample_size(10);
    let history = history_of_len(8, 20);
    let cases: Vec<(&str, _, Window)> = vec![
        ("static_w1", ic1_alloc_within_100(), Window::States(1)),
        ("transaction_w2", ic3_skill_retention(), Window::States(2)),
        (
            "transaction_w3",
            ic3_salary_needs_dept_switch(),
            Window::States(3),
        ),
        ("complete", ic3_salary_never_same(), Window::Complete),
    ];
    for (name, constraint, window) in cases {
        let checker = Checker::new(name, constraint, window).expect("window accepted");
        group.bench_function(BenchmarkId::new("check_now", name), |b| {
            b.iter(|| checker.check_now(&history).expect("evaluates"))
        });
    }
    group.finish();
}

fn bench_history_growth(c: &mut Criterion) {
    // complete-history checking must grow with history length, while the
    // windowed check stays flat — the crossover the paper's trade-off
    // predicts.
    let mut group = c.benchmark_group("b2_history_growth");
    group.sample_size(10);
    for &len in &[2usize, 4, 8, 16] {
        let history = history_of_len(len, 10);
        let complete = Checker::new("never-same", ic3_salary_never_same(), Window::Complete)
            .expect("window accepted");
        group.bench_with_input(BenchmarkId::new("complete", len), &len, |b, _| {
            b.iter(|| complete.check_now(&history).expect("evaluates"))
        });
        let windowed = Checker::new("skill-retention", ic3_skill_retention(), Window::States(2))
            .expect("window accepted");
        group.bench_with_input(BenchmarkId::new("window2", len), &len, |b, _| {
            b.iter(|| windowed.check_now(&history).expect("evaluates"))
        });
    }
    group.finish();
}

fn bench_database_growth(c: &mut Criterion) {
    let mut group = c.benchmark_group("b2_database_growth");
    group.sample_size(10);
    for &n in &[10usize, 50, 200] {
        let history = history_of_len(3, n);
        let checker = Checker::new("skill-retention", ic3_skill_retention(), Window::States(2))
            .expect("window accepted");
        group.bench_with_input(BenchmarkId::new("window2_emps", n), &n, |b, _| {
            b.iter(|| checker.check_now(&history).expect("evaluates"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_windows,
    bench_history_growth,
    bench_database_growth
);
criterion_main!(benches);
