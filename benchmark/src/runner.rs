//! Running a workload: rounds in fresh child processes, pooled and
//! reduced to the catalog's metrics.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::catalog::{self, MetricDef, WorkloadDef, LAYER, SPECIFIC, UNIVERSAL};
use crate::json::Json;
use crate::round::Round;
use crate::stats;

/// `--smoke` divides every fixed count by this.
pub const SMOKE_SHRINK: usize = 50;

#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    /// Keep starting rounds until this much wall time has passed.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub sabotage: bool,
}

impl Options {
    fn shrink(&self) -> usize {
        if self.smoke {
            SMOKE_SHRINK
        } else {
            1
        }
    }
}

/// Rounds of one kind (untraced or traced), pooled.
#[derive(Default)]
struct Pool {
    all: Round,
    rounds: Vec<Round>,
}

impl Pool {
    fn push(&mut self, round: Round) {
        self.all.absorb(round.clone());
        self.rounds.push(round);
    }
}

pub struct Outcome {
    pub def: &'static WorkloadDef,
    pub rounds: usize,
    pub traced_rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Pooled latency samples per class, untraced rounds.
    pub samples: BTreeMap<String, usize>,
    /// Every metric this run can state, by catalog name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The end-to-end metrics again, one value per untraced round —
    /// the spread `compare` judges "unresolved" by.
    pub per_round: BTreeMap<&'static str, Vec<f64>>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn spawn_round(def: &WorkloadDef, opts: &Options, traced: bool) -> Result<Round, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .arg(def.name)
        .args(["--seed", &opts.seed.to_string()])
        .args(["--shrink", &opts.shrink().to_string()]);
    if traced {
        cmd.arg("--traced");
    }
    if opts.sabotage {
        cmd.arg("--sabotage");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a round of {}: {e}", def.name))?;
    if !out.status.success() {
        return Err(format!("a round of {} ended with {}", def.name, out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("a round of {} printed nothing", def.name))?;
    Round::from_json(&Json::parse(line)?)
}

/// Run `def` for `opts.seconds`: untraced rounds (never fewer than the
/// workload's minimum), then — with `--trace` — traced rounds of the
/// same seeded op stream in the second half of the time.
pub fn run_workload(def: &'static WorkloadDef, opts: &Options) -> Result<Outcome, String> {
    let begin = Instant::now();
    let (min_untraced, min_traced) = if opts.smoke {
        (1, 1)
    } else {
        (def.min_rounds, 2)
    };
    let untraced_budget = match (opts.smoke, opts.trace) {
        (true, _) => 0.0,
        (false, true) => opts.seconds / 2.0,
        (false, false) => opts.seconds,
    };
    let mut untraced = Pool::default();
    while untraced.rounds.len() < min_untraced || begin.elapsed().as_secs_f64() < untraced_budget {
        untraced.push(spawn_round(def, opts, false)?);
    }
    let mut traced = Pool::default();
    if opts.trace {
        let budget = if opts.smoke { 0.0 } else { opts.seconds };
        while traced.rounds.len() < min_traced || begin.elapsed().as_secs_f64() < budget {
            traced.push(spawn_round(def, opts, true)?);
        }
    }

    let mut metrics = end_to_end(def, &untraced.all, &untraced.rounds);
    let mut per_round: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for round in &untraced.rounds {
        for (name, value) in end_to_end(def, round, std::slice::from_ref(round)) {
            per_round.entry(name).or_default().push(value);
        }
    }
    if opts.trace {
        metrics.extend(per_layer(&untraced.all, &traced.all));
    }
    Ok(Outcome {
        def,
        rounds: untraced.rounds.len(),
        traced_rounds: traced.rounds.len(),
        attempted: untraced.all.attempted + traced.all.attempted,
        failed: untraced.all.failed + traced.all.failed,
        errors: untraced
            .all
            .errors
            .iter()
            .chain(&traced.all.errors)
            .cloned()
            .collect(),
        samples: untraced
            .all
            .lat
            .iter()
            .map(|(class, v)| (class.clone(), v.len()))
            .collect(),
        metrics,
        per_round,
    })
}

fn pooled_sorted(pool: &Round, classes: &[&str]) -> Vec<u64> {
    let mut all: Vec<u64> = classes
        .iter()
        .filter_map(|c| pool.lat.get(*c))
        .flatten()
        .copied()
        .collect();
    all.sort_unstable();
    all
}

/// Percentile `p` of the pooled classes in µs, if the sample supports
/// it (ten samples beyond, see [`stats::supports`]).
fn pct_us(pool: &Round, classes: &[&str], p: f64) -> Option<f64> {
    let sorted = pooled_sorted(pool, classes);
    stats::supports(sorted.len(), p).then(|| stats::percentile(&sorted, p) as f64 / 1e3)
}

/// Median latency of the pooled classes in µs: the median of each
/// round, averaged over the rounds. On a machine that moves between a
/// fast and a slow state under the benchmark, the median of the pooled
/// samples jumps from one state's level to the other's with whichever
/// holds the majority; the mean of per-round medians moves smoothly
/// with the share of slow rounds, and is the same number on a steady
/// machine.
fn p50_us(rounds: &[Round], classes: &[&str]) -> Option<f64> {
    let sorted: Vec<Vec<u64>> = rounds
        .iter()
        .map(|r| pooled_sorted(r, classes))
        .filter(|samples| !samples.is_empty())
        .collect();
    let samples: usize = sorted.iter().map(Vec::len).sum();
    stats::supports(samples, 50.0).then(|| {
        let medians = sorted
            .iter()
            .map(|s| stats::percentile(s, 50.0) as f64 / 1e3);
        medians.sum::<f64>() / sorted.len() as f64
    })
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// The universal and the workload's specific end-to-end metrics.
/// Rates and tails are over `pool`, the rounds' measurements taken
/// together; medians are per round, averaged ([`p50_us`]); set-up time
/// and memory are medians over `rounds`.
fn end_to_end(def: &WorkloadDef, pool: &Round, rounds: &[Round]) -> BTreeMap<&'static str, f64> {
    let count = |class: &str| pool.lat.get(class).map_or(0, Vec::len) as f64;
    let mut found: Vec<(&'static str, Option<f64>)> = vec![
        (
            "setup_s",
            Some(stats::median(
                &rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>(),
            )),
        ),
        (
            "peak_rss_mb",
            Some(stats::median(
                &rounds.iter().map(|r| r.rss_mb).collect::<Vec<_>>(),
            )),
        ),
        (
            "ops_per_s",
            ratio(def.op.iter().map(|c| count(c)).sum(), pool.sum("wall.op")),
        ),
        ("op_p50_us", p50_us(rounds, def.op)),
        ("op_tail_us", pct_us(pool, def.op, def.tail)),
        (
            "commits_per_s",
            ratio(count("commit"), pool.sum("wall.commit")),
        ),
        ("reads_per_s", ratio(count("read"), pool.sum("wall.read"))),
        ("commit_p50_us", p50_us(rounds, &["commit"])),
        ("commit_p99_us", pct_us(pool, &["commit"], 99.0)),
        ("read_p50_us", p50_us(rounds, &["read"])),
        ("read_p99_us", pct_us(pool, &["read"], 99.0)),
        ("notify_p50_us", p50_us(rounds, &["notify"])),
        ("notify_p99_us", pct_us(pool, &["notify"], 99.0)),
        (
            "read_scaling",
            ratio(count("read"), pool.sum("wall.read")).and_then(|two| {
                ratio(count("read_one"), pool.sum("wall.read_one")).map(|one| two / (2.0 * one))
            }),
        ),
        (
            "recover_ms",
            p50_us(rounds, &["recover"]).map(|us| us / 1e3),
        ),
        (
            "wal_bytes_per_commit",
            ratio(pool.sum("wal_bytes"), pool.sum("acked")),
        ),
        (
            "failed_ratio",
            ratio(pool.failed as f64, pool.attempted as f64),
        ),
    ];
    let wanted = catalog::untraced_names(def);
    found.retain(|(name, _)| wanted.contains(name));
    found
        .into_iter()
        .filter_map(|(name, value)| value.map(|v| (name, v)))
        .collect()
}

/// Every [`LAYER`] metric, from the traced pool `t` (and the untraced
/// pool `u` for the counts that cost nothing to take there). A layer a
/// workload never enters reads 0.
fn per_layer(u: &Round, t: &Round) -> BTreeMap<&'static str, f64> {
    let sum = |key: &str| t.sum(key);
    let commits = sum("t.count.op.commit");
    let roots: Vec<(String, f64)> = t
        .sums
        .iter()
        .filter_map(|(k, v)| k.strip_prefix("t.count.op.").map(|c| (c.to_string(), *v)))
        .collect();
    let ops: f64 = roots.iter().map(|(_, n)| n).sum();
    // mean µs per op of a span name: over the ops of the classes it
    // occurred under, or over commits for parentless spans
    let per = |what: &str, name: &str| {
        let den = match sum(&format!("t.denom.{name}")) {
            d if d > 0.0 => d,
            _ => commits,
        };
        ratio(sum(&format!("t.{what}.{name}")), den).unwrap_or(0.0) / 1e3
    };
    let each = |name: &str| {
        ratio(
            sum(&format!("t.self.{name}")),
            sum(&format!("t.count.{name}")),
        )
        .unwrap_or(0.0)
            / 1e3
    };
    let over = |num: f64, den: f64| ratio(num, den).unwrap_or(0.0);

    // mean op time, traced and untraced, over the classes both timed
    // (read_one is phase A of snapshot_read, the same root class)
    let (mut traced_ns, mut traced_ops, mut untraced) = (0.0, 0.0, Vec::new());
    for (class, n) in &roots {
        let lat_classes: &[&str] = if class == "read" {
            &["read", "read_one"]
        } else {
            &[class.as_str()]
        };
        let samples = pooled_sorted(u, lat_classes);
        if !samples.is_empty() {
            traced_ns += sum(&format!("t.wall.op.{class}"));
            traced_ops += n;
            untraced.extend(samples);
        }
    }
    untraced.sort_unstable();
    let traced_mean_ns = over(traced_ns, traced_ops);
    let untraced_mean_ns = over(untraced.iter().sum::<u64>() as f64, untraced.len() as f64);
    let served = sum("t.count.server.encode") > 0.0;
    let untraced_commits = u.lat.get("commit").map_or(0, Vec::len) as f64;
    let footprint = per("self", "engine.footprint");

    let values: Vec<(&'static str, f64)> = vec![
        ("server.encode_us", per("self", "server.encode")),
        ("server.decode_us", per("self", "server.decode")),
        (
            "server.transport_us",
            if served {
                (untraced_mean_ns - traced_mean_ns).max(0.0) / 1e3
            } else {
                0.0
            },
        ),
        ("server.wire_bytes_per_op", over(sum("t.wire_bytes"), ops)),
        ("logic.parse_us", per("self", "logic.parse")),
        ("logic.parse_bytes_per_op", over(sum("t.parse_bytes"), ops)),
        ("engine.footprint_us", footprint),
        // Session::prepare computes the footprint again; what is left
        // is the execution
        (
            "engine.execute_us",
            (per("self", "engine.execute") - footprint).max(0.0),
        ),
        ("engine.submit_us", per("self", "engine.submit")),
        ("engine.log_wait_us", per("self", "engine.log_wait")),
        (
            "engine.forward_ratio",
            over(u.sum("forwarded"), untraced_commits),
        ),
        (
            "engine.retry_ratio",
            over(u.sum("retries"), untraced_commits),
        ),
        (
            "engine.resubmit_ratio",
            over(u.sum("resubmits"), untraced_commits),
        ),
        ("engine.snapshot_us", per("self", "engine.snapshot")),
        ("engine.eval_us", per("self", "engine.eval")),
        (
            "engine.rows_scanned_per_read",
            over(sum("t.rows_scanned"), sum("t.counted_reads")),
        ),
        (
            "engine.index_probes_per_read",
            over(sum("t.index_probes"), sum("t.counted_reads")),
        ),
        ("relational.delta_apply_us", each("relational.delta_apply")),
        (
            "relational.state_drop_us",
            per("self", "relational.state_drop"),
        ),
        (
            "relational.delta_encode_us",
            per("self", "relational.delta_encode"),
        ),
        (
            "relational.delta_bytes_per_commit",
            over(sum("t.delta_bytes"), commits),
        ),
        (
            "relational.state_decode_us",
            each("relational.state_decode"),
        ),
        (
            "relational.state_bytes",
            over(sum("t.state_bytes"), sum("t.count.relational.state_decode")),
        ),
        (
            "wal.append_us",
            over(sum("t.self.wal.append"), sum("t.wal.commit_records")) / 1e3,
        ),
        (
            "wal.sync_us",
            over(sum("t.self.wal.sync"), sum("t.wal.commit_records")) / 1e3,
        ),
        (
            "wal.syncs_per_commit",
            over(sum("t.wal.syncs"), sum("t.wal.commit_records")),
        ),
        (
            "wal.batch_size",
            over(sum("t.wal.commit_records"), sum("t.wal.syncs")),
        ),
        (
            "wal.checkpoint_bytes",
            over(sum("t.wal.checkpoint_bytes"), sum("t.rounds")),
        ),
        ("wal.recover_us", each("wal.recover")),
        (
            "wal.replayed_deltas",
            over(sum("t.replayed"), sum("t.count.wal.recover")),
        ),
        ("constraints.check_us", per("wall", "constraints.check")),
        (
            "constraints.affected_us",
            per("self", "constraints.affected"),
        ),
        (
            "constraints.checks_per_commit",
            over(sum("t.count.constraints.check"), commits),
        ),
        (
            "constraints.skip_ratio",
            over(
                sum("t.constraint_skips"),
                sum("t.constraint_affected_calls"),
            ),
        ),
        ("events.advance_us", per("self", "events.advance")),
        ("events.matches_per_commit", over(sum("t.matches"), commits)),
        ("events.callback_us", per("self", "events.callback")),
        (
            "base.symbols_per_op",
            over(u.sum("symbols"), u.sum("symbol_ops")),
        ),
        (
            "trace.glue_us",
            over(
                roots
                    .iter()
                    .map(|(c, _)| sum(&format!("t.self.op.{c}")))
                    .sum(),
                ops,
            ) / 1e3,
        ),
        (
            "trace.overhead_ratio",
            over(traced_mean_ns, untraced_mean_ns),
        ),
        ("trace.spans_per_op", over(sum("t.spans"), ops)),
    ];
    debug_assert_eq!(values.len(), LAYER.len());
    values.into_iter().collect()
}

fn fmt_value(v: f64) -> String {
    match v.abs() {
        0.0 => "0".to_string(),
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.1}"),
        a if a >= 0.1 => format!("{v:.3}"),
        _ => format!("{v:.5}"),
    }
}

fn print_tier(out: &Outcome, title: &str, defs: &[&MetricDef]) {
    println!("  {title}");
    for m in defs {
        let arrow = format!("{} is better", m.better.word());
        let bound = m.bound.map_or(String::new(), |b| format!(", bound {b}"));
        match out.metrics.get(m.name) {
            Some(v) => println!(
                "    {:<36} {:>12} {:<6} ({arrow}{bound})",
                m.name,
                fmt_value(*v),
                m.unit
            ),
            None => println!(
                "    {:<36} {:>12} {:<6} (too few samples at this scale)",
                m.name, "n/a", m.unit
            ),
        }
    }
}

/// Every metric of the outcome by name, with its unit.
pub fn print_outcome(out: &Outcome) {
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(class, n)| format!("{n} {class}"))
        .collect();
    println!(
        "{} — {} round(s){}, samples: {}; attempted {}, failed {}",
        out.def.name,
        out.rounds,
        if out.traced_rounds > 0 {
            format!(" + {} traced", out.traced_rounds)
        } else {
            String::new()
        },
        samples.join(", "),
        out.attempted,
        out.failed,
    );
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
    print_tier(
        out,
        "every workload reports",
        &UNIVERSAL.iter().collect::<Vec<_>>(),
    );
    let specific: Vec<&MetricDef> = SPECIFIC
        .iter()
        .filter(|m| out.def.end_to_end.contains(&m.name))
        .collect();
    print_tier(out, "this workload reports", &specific);
    if out.traced_rounds > 0 {
        print_tier(
            out,
            "per layer (traced run)",
            &LAYER.iter().collect::<Vec<_>>(),
        );
    }
}

fn metric_json(m: &MetricDef, value: f64) -> Json {
    Json::obj().with("value", value).with("unit", m.unit)
}

/// The outcome as it goes into a result file.
pub fn outcome_json(out: &Outcome) -> Json {
    let mut metrics = Json::obj();
    for m in UNIVERSAL.iter().chain(SPECIFIC).chain(LAYER) {
        if let Some(v) = out.metrics.get(m.name) {
            let mut entry = metric_json(m, *v);
            if let Some(rounds) = out.per_round.get(m.name) {
                entry.set(
                    "rounds",
                    Json::Arr(rounds.iter().map(|r| Json::from(*r)).collect()),
                );
            }
            metrics.set(m.name, entry);
        }
    }
    Json::obj()
        .with("rounds", out.rounds as u64)
        .with("traced_rounds", out.traced_rounds as u64)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("correct", out.correct())
        .with("metrics", metrics)
}

/// The one line the driver reads: every end-to-end metric of
/// `BENCHMARK.json` without `--trace`, every per-layer metric with it.
pub fn contract_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let mut metrics = Json::obj();
    if trace {
        for m in SPECIFIC.iter().chain(LAYER) {
            // a metric this workload does not have reads 0
            metrics.set(
                m.name,
                metric_json(m, out.metrics.get(m.name).copied().unwrap_or(0.0)),
            );
        }
    } else {
        for m in UNIVERSAL {
            let v = out
                .metrics
                .get(m.name)
                .ok_or_else(|| format!("{}: {} could not be measured", out.def.name, m.name))?;
            metrics.set(m.name, metric_json(m, *v));
        }
    }
    Ok(Json::obj()
        .with("correct", out.correct())
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("metrics", metrics)
        .render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WORKLOADS;

    /// A round with plenty of samples in every class and every sum a
    /// formula divides by.
    fn full_round() -> Round {
        let mut r = Round {
            setup_s: 0.25,
            rss_mb: 12.5,
            ..Round::default()
        };
        for class in ["commit", "read", "read_one", "notify", "recover"] {
            for i in 0..1200u64 {
                r.record(class, Ok(1000 + i));
            }
        }
        for key in [
            "wall.op",
            "wall.commit",
            "wall.read",
            "wall.read_one",
            "wal_bytes",
            "acked",
            "symbols",
            "symbol_ops",
            "forwarded",
        ] {
            r.add(key, 2.0);
        }
        r
    }

    fn outcome(def: &'static WorkloadDef, trace: bool) -> Outcome {
        let u = full_round();
        let mut t = Round::default();
        for key in [
            "t.count.op.commit",
            "t.wall.op.commit",
            "t.self.engine.execute",
            "t.spans",
        ] {
            t.add(key, 1000.0);
        }
        let mut metrics = end_to_end(def, &u, std::slice::from_ref(&u));
        if trace {
            metrics.extend(per_layer(&u, &t));
        }
        Outcome {
            def,
            rounds: 1,
            traced_rounds: usize::from(trace),
            attempted: u.attempted,
            failed: 0,
            errors: Vec::new(),
            samples: BTreeMap::new(),
            metrics,
            per_round: BTreeMap::new(),
        }
    }

    fn emitted(line: &str) -> Vec<(String, String)> {
        let doc = Json::parse(line).expect("contract line parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        doc.get("metrics")
            .expect("metrics")
            .fields()
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                (
                    name.clone(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    fn listed(key: &str) -> Vec<(String, String)> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        doc.get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn every_workload_emits_exactly_the_metrics_benchmark_json_names() {
        for def in WORKLOADS {
            let untraced = contract_line(&outcome(def, false), false).expect("complete");
            assert_eq!(emitted(&untraced), listed("end_to_end"), "{}", def.name);
            let traced = contract_line(&outcome(def, true), true).expect("complete");
            assert_eq!(emitted(&traced), listed("per_layer"), "{}", def.name);
        }
    }

    #[test]
    fn a_run_states_every_metric_of_its_workload_and_no_other() {
        for def in WORKLOADS {
            let out = outcome(def, true);
            let mut want: Vec<&str> = catalog::untraced_names(def);
            want.extend(LAYER.iter().map(|m| m.name));
            want.sort_unstable();
            let got: Vec<&str> = out.metrics.keys().copied().collect();
            assert_eq!(got, want, "{}", def.name);
            assert!(out.metrics["ops_per_s"] > 0.0 && out.metrics["op_tail_us"] > 0.0);
        }
    }

    #[test]
    fn a_percentile_without_ten_samples_beyond_it_is_not_stated() {
        let def = catalog::workload("constrained_commit").expect("catalogued");
        let mut r = full_round();
        r.lat.get_mut("commit").expect("class").truncate(999);
        let m = end_to_end(def, &r, std::slice::from_ref(&r));
        assert!(m.contains_key("commit_p50_us") && !m.contains_key("commit_p99_us"));
        assert!(!m.contains_key("op_tail_us"));
        let mut out = outcome(def, false);
        out.metrics = m;
        assert!(
            contract_line(&out, false).is_err(),
            "the driver never gets a partial line"
        );
    }
}
