//! The fixed catalog: seven workloads, the metrics they report, units,
//! directions and regression bounds. Later issues cite these names.
//!
//! Three metric tiers:
//!
//! * [`UNIVERSAL`] — defined for *every* workload and never zero, which
//!   is what the driver contract in `BENCHMARK.json` demands of an
//!   end-to-end metric. `ops_per_s`, `op_p50_us` and `op_tail_us`
//!   describe the call each workload's waiting party blocks on
//!   ([`WorkloadDef::op`]).
//! * [`SPECIFIC`] — the end-to-end metrics named per kind of call
//!   (`commit_*`, `read_*`, `notify_*`, …). A workload reports the ones
//!   in its [`WorkloadDef::end_to_end`] list; `compare` applies their
//!   bounds. In `BENCHMARK.json` they can only appear under
//!   `per_layer` (no bound there), because they do not exist on every
//!   workload.
//! * [`LAYER`] — per-layer numbers from the traced run.
//!
//! A unit test holds `BENCHMARK.json` to this table.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before
    /// `compare` (and, for [`UNIVERSAL`], the driver) calls it a
    /// regression. Layer metrics carry none.
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

pub const UNIVERSAL: &[MetricDef] = &[
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "child process start to first timed op, median over rounds",
    ),
    e2e(
        "ops_per_s",
        "1/s",
        Higher,
        0.25,
        "the workload's own ops completed per second of measured wall time",
    ),
    e2e(
        "op_p50_us",
        "us",
        Lower,
        0.25,
        "median latency of the workload's own op at the caller",
    ),
    e2e(
        "op_tail_us",
        "us",
        Lower,
        0.25,
        "tail latency of the workload's own op: p99, or p90 where only 100 samples exist",
    ),
    e2e(
        "peak_rss_mb",
        "MiB",
        Lower,
        0.10,
        "VmHWM of the workload's child process at exit, median over rounds",
    ),
];

pub const SPECIFIC: &[MetricDef] = &[
    e2e(
        "commits_per_s",
        "1/s",
        Higher,
        0.25,
        "successful commits (incl. expected rejections) per second of measured wall time",
    ),
    e2e(
        "reads_per_s",
        "1/s",
        Higher,
        0.25,
        "successful reads per second of measured wall time (phase B in snapshot_read)",
    ),
    e2e(
        "commit_p50_us",
        "us",
        Lower,
        0.25,
        "median Client::execute / Session::commit latency",
    ),
    e2e(
        "commit_p99_us",
        "us",
        Lower,
        0.25,
        "p99 Client::execute / Session::commit latency",
    ),
    e2e(
        "read_p50_us",
        "us",
        Lower,
        0.25,
        "median Client::ask / snapshot()+eval_truth latency",
    ),
    e2e(
        "read_p99_us",
        "us",
        Lower,
        0.25,
        "p99 Client::ask / snapshot()+eval_truth latency",
    ),
    e2e(
        "notify_p50_us",
        "us",
        Lower,
        0.25,
        "median producer execute return to subscriber next_notification return",
    ),
    e2e("notify_p99_us", "us", Lower, 0.25, "p99 of the same delay"),
    e2e(
        "read_scaling",
        "ratio",
        Higher,
        0.25,
        "two-reader aggregate rate over twice the one-reader rate; 1.0 is perfect",
    ),
    e2e(
        "recover_ms",
        "ms",
        Lower,
        0.25,
        "median timed reopen from the synced prefix of the log",
    ),
    e2e(
        "wal_bytes_per_commit",
        "B",
        Lower,
        0.02,
        "final log length over acked commits, checkpoints included",
    ),
    e2e(
        "failed_ratio",
        "ratio",
        Lower,
        0.0,
        "failed or oracle-rejected ops over attempted; must stay 0",
    ),
];

pub const LAYER: &[MetricDef] = &[
    layer("server.encode_us", "us", Lower, "Request/Response::encode + encode_frame, per op"),
    layer("server.decode_us", "us", Lower, "decode_frame + Request/Response::decode, per op"),
    layer("server.transport_us", "us", Lower, "untraced mean round trip minus the traced in-process mean op: socket, hand-off, scheduling"),
    layer("server.wire_bytes_per_op", "B", Lower, "framed request + response bytes per op"),
    layer("logic.parse_us", "us", Lower, "parse_fterm / parse_fformula per op; 0 where programs are pre-parsed"),
    layer("logic.parse_bytes_per_op", "B", Lower, "program text parsed per op"),
    layer("engine.footprint_us", "us", Lower, "Footprint::of_program per commit"),
    layer("engine.execute_us", "us", Lower, "Session::prepare (execution at the pinned snapshot) per commit"),
    layer("engine.submit_us", "us", Lower, "Session::submit_prepared minus constraint and callback children: lock, certify, record encode, enqueue, install, dispatch"),
    layer("engine.log_wait_us", "us", Lower, "CommitTicket::wait per commit; 0 where durability is off"),
    layer("engine.forward_ratio", "ratio", Higher, "commits installed by delta forwarding over commits"),
    layer("engine.retry_ratio", "ratio", Lower, "engine-side conflict retries over commits"),
    layer("engine.resubmit_ratio", "ratio", Lower, "client resubmissions after RetriesExhausted over commits"),
    layer("engine.snapshot_us", "us", Lower, "Database::snapshot / Session::refresh per read"),
    layer("engine.eval_us", "us", Lower, "Engine::eval_truth per read"),
    layer("engine.rows_scanned_per_read", "count", Lower, "scan_rows + active_rows + atom_rows + naive_rows per read (exact)"),
    layer("engine.index_probes_per_read", "count", Lower, "probe_steps per read (exact)"),
    layer("relational.delta_apply_us", "us", Lower, "Delta::apply of a committed delta onto a retained pin of its base state, one commit in 16"),
    layer("relational.state_drop_us", "us", Lower, "dropping a read's snapshot, which frees the state once the head has moved on, per read"),
    layer("relational.delta_encode_us", "us", Lower, "codec::encode_delta per committed delta"),
    layer("relational.delta_bytes_per_commit", "B", Lower, "encoded delta length per commit"),
    layer("relational.state_decode_us", "us", Lower, "codec::decode_db_state of the recovered state"),
    layer("relational.state_bytes", "B", Lower, "codec::encode_db_state length of the recovered state"),
    layer("wal.append_us", "us", Lower, "LogStore::append per commit"),
    layer("wal.sync_us", "us", Lower, "LogStore::sync per commit"),
    layer("wal.syncs_per_commit", "ratio", Lower, "LogStore::sync calls over commit records appended"),
    layer("wal.batch_size", "count", Higher, "commit records appended per sync"),
    layer("wal.checkpoint_bytes", "B", Lower, "checkpoint record bytes appended during the run"),
    layer("wal.recover_us", "us", Lower, "DatabaseBuilder::open_store on the synced prefix"),
    layer("wal.replayed_deltas", "count", Lower, "RecoveryReport::replayed_deltas per reopen"),
    layer("constraints.check_us", "us", Lower, "wall time with a CommitConstraint::check running, per commit"),
    layer("constraints.affected_us", "us", Lower, "CommitConstraint::affected_by per commit"),
    layer("constraints.checks_per_commit", "count", Lower, "CommitConstraint::check calls per commit"),
    layer("constraints.skip_ratio", "ratio", Higher, "affected_by == false over affected_by calls"),
    layer("events.advance_us", "us", Lower, "Automaton::advance replayed over each committed delta, all patterns"),
    layer("events.matches_per_commit", "count", Lower, "matches the replayed automata produced per commit"),
    layer("events.callback_us", "us", Lower, "EventCallback invocations per commit"),
    layer("base.symbols_per_op", "count", Lower, "symbols interned during the measured phase per op (exact)"),
    layer("trace.glue_us", "us", Lower, "self time of the root op span: harness code between the layer calls"),
    layer("trace.overhead_ratio", "ratio", Lower, "untraced op rate over traced op rate"),
    layer("trace.spans_per_op", "count", Lower, "spans recorded per traced op"),
];

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    UNIVERSAL
        .iter()
        .chain(SPECIFIC)
        .chain(LAYER)
        .find(|m| m.name == name)
}

#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Latency classes pooled into the workload's own op — what
    /// `ops_per_s`, `op_p50_us` and `op_tail_us` describe.
    pub op: &'static [&'static str],
    /// Percentile behind `op_tail_us`.
    pub tail: f64,
    /// The [`SPECIFIC`] metrics this workload reports.
    pub end_to_end: &'static [&'static str],
    /// Rounds a full-scale run never goes below, so every reported
    /// percentile keeps ten samples beyond it whatever `--seconds` is.
    pub min_rounds: usize,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "served_oltp",
        why: "whole served path on small state: two wire clients with disjoint footprints, 80% execute / 20% ask, WAL on; frame, proto, parse, session and log wait carry the time",
        op: &["commit", "read"],
        tail: 99.0,
        end_to_end: &[
            "commits_per_s", "commit_p50_us", "commit_p99_us", "read_p50_us", "read_p99_us",
            "wal_bytes_per_commit", "failed_ratio",
        ],
        min_rounds: 3,
    },
    WorkloadDef {
        name: "constrained_commit",
        why: "embedded commits validated by the paper's Section-4 constraints plus the FIRED encoding, 5% illegal; constraint checking under the head lock carries the time, parse and WAL do nothing",
        op: &["commit"],
        tail: 99.0,
        end_to_end: &["commits_per_s", "commit_p50_us", "commit_p99_us", "failed_ratio"],
        min_rounds: 6,
    },
    WorkloadDef {
        name: "large_state_write",
        why: "unconstrained single-row commits on a 20000-row relation, no WAL; isolates install and copy-on-write cost, which a persistent map should move and protocol work should not",
        op: &["commit"],
        tail: 99.0,
        end_to_end: &["commits_per_s", "commit_p50_us", "commit_p99_us", "failed_ratio"],
        min_rounds: 3,
    },
    WorkloadDef {
        name: "snapshot_read",
        why: "read-only probe/scan/join mix on 300 employees with one then two readers; plan and eval dominated, no commit path, and read_scaling exposes shared-lock loss",
        op: &["read"],
        tail: 99.0,
        end_to_end: &["reads_per_s", "read_p50_us", "read_p99_us", "read_scaling", "failed_ratio"],
        min_rounds: 3,
    },
    WorkloadDef {
        name: "mixed_rw",
        why: "one writer swapping marital status against one scanning reader on shared state; pinned snapshots force copies and a count invariant checks snapshot consistency on every read",
        op: &["commit"],
        tail: 99.0,
        end_to_end: &["commits_per_s", "reads_per_s", "commit_p50_us", "read_p50_us", "failed_ratio"],
        min_rounds: 3,
    },
    WorkloadDef {
        name: "event_fanout",
        why: "served commits feeding two materialized patterns and eight wire subscriptions; automata, engine-internal event commits and the notification flush do the work, delay is ack to delivery",
        op: &["notify"],
        tail: 99.0,
        end_to_end: &["commits_per_s", "notify_p50_us", "notify_p99_us", "failed_ratio"],
        min_rounds: 3,
    },
    WorkloadDef {
        name: "recovery",
        why: "reopen a checkpointed log from only its synced bytes: checkpoint decode plus delta replay on realistic state, with the durability contract checked against recorded digests",
        op: &["recover"],
        tail: 90.0,
        end_to_end: &["recover_ms", "wal_bytes_per_commit", "failed_ratio"],
        min_rounds: 3,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Every metric name a workload's `run` prints without `--trace`.
pub fn untraced_names(w: &WorkloadDef) -> Vec<&'static str> {
    UNIVERSAL
        .iter()
        .map(|m| m.name)
        .chain(w.end_to_end.iter().copied())
        .collect()
}

/// Seconds one run keeps starting rounds for (`run_seconds` in
/// `BENCHMARK.json`, the default of `--seconds`).
pub const RUN_SECONDS: u64 = 12;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// What the driver runs for one measurement; it appends
    /// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    const COMMAND: [&str; 8] = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn expected(defs: &[&MetricDef], bounded: bool) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.word().to_string(),
                    m.bound.filter(|_| bounded),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_is_this_catalog() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let strings = |key: &str| -> Vec<String> {
            doc.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|s| s.as_str().expect("string").to_string())
                .collect()
        };
        assert_eq!(strings("command"), COMMAND);
        assert_eq!(strings("paths"), ["benchmark"]);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            listed(&doc, "end_to_end"),
            expected(&UNIVERSAL.iter().collect::<Vec<_>>(), true)
        );
        assert_eq!(
            listed(&doc, "per_layer"),
            expected(&SPECIFIC.iter().chain(LAYER).collect::<Vec<_>>(), false)
        );
    }

    #[test]
    fn the_catalog_fits_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in UNIVERSAL.iter().chain(SPECIFIC).chain(LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        assert!(UNIVERSAL.len() <= 16 && SPECIFIC.len() + LAYER.len() <= 128);
        assert!(UNIVERSAL.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            for m in w.end_to_end {
                assert!(SPECIFIC.iter().any(|d| d.name == *m), "{}: {m}", w.name);
            }
        }
    }
}
