//! `snapshot_read` — embedded, read-only, the employee database at 300
//! employees.
//!
//! Each read takes a fresh `db.snapshot()` and evaluates one pre-parsed
//! formula: 30 % point probe, 60 % set-former scan, 10 % indexed join,
//! in a fixed order.
//! Phase A runs one reader; phase B runs two, each with its own
//! `db.engine()`.
//!
//! Why it exists: it is plan- and eval-dominated, with no commit path
//! at all. `read_scaling` — phase B's aggregate rate over twice phase
//! A's — is the number a "ratio ≥ 0.5" floor hides; the suspects (the
//! interner mutex, the span registry, per-call engine construction,
//! the head lock in `snapshot()`) all sit here.

use std::sync::Barrier;

use txlog::prelude::{Counter, Database, FFormula, Metrics};

use super::{begin_measured, emp, judge_read, read, warmup_of};
use crate::rng::SplitMix64;
use crate::round::{Ctx, Round};

const EMPLOYEES: usize = 300;
/// Reads per reader per phase.
const READS: usize = 400;

/// A query text and the answer the harness expects, worked out from
/// the generator and the raw rows rather than by the evaluator.
type Query = (String, bool);

/// The order of query kinds is fixed — of every ten reads three are
/// probes (`P`), six scans (`S`), one the join (`J`) — and the seed
/// only picks the keys. The join costs a thousand probes, so with a
/// seeded mix the number of joins among 400 reads (40 ± 6) would decide
/// the read rate, and how many fall into the warm-up would decide
/// `setup_s`.
const CYCLE: [u8; 10] = *b"PSSPSJSPSS";

fn queries(n: usize, employees: usize, married: usize, rng: &mut SplitMix64) -> Vec<Query> {
    (0..n)
        .map(|i| match CYCLE[i % CYCLE.len()] {
            b'P' => {
                // one probe in eight asks for somebody who is not there
                let k = rng.index(employees) + if rng.below(8) == 0 { employees } else { 0 };
                (emp::probe_query(k), k < employees)
            }
            b'S' => {
                let off = usize::from(rng.below(8) == 0);
                (emp::married_query(married + off), off == 0)
            }
            _ => (emp::JOIN_QUERY.to_string(), true),
        })
        .collect()
}

struct Plan {
    db: Database,
    /// Phase A's stream, then phase B's two.
    streams: [Vec<Query>; 3],
}

fn plan(seed: u64, shrink: usize, traced: bool) -> Plan {
    let employees = (EMPLOYEES / shrink).max(20);
    let reads = (READS / shrink).max(20);
    let mut rng = SplitMix64::new(seed).fork(4);
    let (schema, state) = emp::populate(employees, &mut rng);
    let married = emp::marital_split(&schema, &state).0.len();
    let streams = [0, 1, 2].map(|r| queries(reads, employees, married, &mut rng.fork(r)));
    let mut builder = Database::builder(schema).initial(state);
    if traced {
        // the plan counters need a recording handle
        builder = builder.metrics(Metrics::enabled());
    }
    Plan {
        db: builder.build().expect("database builds"),
        streams,
    }
}

#[cfg(test)]
pub fn op_stream(seed: u64, shrink: usize) -> String {
    plan(seed, shrink, false)
        .streams
        .iter()
        .enumerate()
        .flat_map(|(r, qs)| qs.iter().map(move |(q, want)| format!("{r} {want} {q}\n")))
        .collect()
}

/// One reader working through its stream; `from` reads in are timed.
fn reader(
    db: &Database,
    stream: &[(FFormula, &Query)],
    class: &str,
    ops_from: u32,
    traced: bool,
    sabotage: bool,
) -> Round {
    let mut round = Round::default();
    let engine = db.engine().expect("engine builds");
    for (i, (formula, (text, want))) in stream.iter().enumerate() {
        let (result, ns) = read(db, &engine, formula, ops_from + i as u32, traced);
        let want = *want ^ (sabotage && i == 0);
        round.record(class, judge_read(result, want, ns, text));
    }
    round
}

pub fn run(ctx: &Ctx) -> Round {
    let plan = plan(ctx.seed, ctx.shrink, ctx.traced);
    let db = &plan.db;
    let parsed: Vec<Vec<(FFormula, &Query)>> = plan
        .streams
        .iter()
        .map(|qs| qs.iter().map(|q| (emp::formula(&q.0), q)).collect())
        .collect();
    let mut round = Round::default();

    // warm-up: the head of phase A's stream, untimed (lazy indexes build)
    let warmup = warmup_of(parsed[0].len());
    let warm = reader(db, &parsed[0][..warmup], "warm-up", 0, false, false);
    for e in warm.errors {
        round.fail(|| format!("warm-up: {e}"));
    }
    let counters = |db: &Database| {
        let m = db.metrics();
        let rows = [
            Counter::ScanRows,
            Counter::ActiveRows,
            Counter::AtomRows,
            Counter::NaiveRows,
        ];
        (
            rows.iter().map(|c| m.get(*c)).sum::<u64>(),
            m.get(Counter::ProbeSteps),
        )
    };
    let (rows_before, probes_before) = counters(db);

    // phase A: one reader
    let measured = begin_measured(ctx, &mut round);
    let one = &parsed[0][warmup..];
    round.absorb(reader(
        db,
        one,
        "read_one",
        warmup as u32,
        ctx.traced,
        ctx.sabotage,
    ));
    round.add("wall.read_one", measured.wall());

    // phase B: two readers
    let start = Barrier::new(3);
    let phase_b = std::thread::scope(|s| {
        let readers: Vec<_> = [1usize, 2]
            .into_iter()
            .map(|r| {
                let (stream, start) = (&parsed[r], &start);
                s.spawn(move || {
                    start.wait();
                    reader(db, stream, "read", r as u32 * 1_000_000, ctx.traced, false)
                })
            })
            .collect();
        start.wait();
        let since = std::time::Instant::now();
        for r in readers {
            round.absorb(r.join().expect("reader thread"));
        }
        since.elapsed().as_secs_f64()
    });
    round.add("wall.read", phase_b);
    round.add("wall.op", phase_b);
    let reads = one.len() + parsed[1].len() + parsed[2].len();
    measured.finish(&mut round, reads);
    if ctx.traced {
        let (rows, probes) = counters(db);
        round.add("t.rows_scanned", (rows - rows_before) as f64);
        round.add("t.index_probes", (probes - probes_before) as f64);
        round.add("t.counted_reads", reads as f64);
    }
    round
}
