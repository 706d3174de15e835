//! Result files and `compare`.
//!
//! A result file starts with a header — git commit, `nproc`, rustc,
//! seed, scale, run length — so two files are comparable or visibly
//! not, then one object per workload with its sample counts and every
//! metric. `compare` judges the end-to-end cells of two files with the
//! catalog's bounds.

use std::path::Path;
use std::process::Command;

use crate::catalog::{self, Better, MetricDef, WORKLOADS};
use crate::json::Json;
use crate::runner::{outcome_json, Options, Outcome, SMOKE_SHRINK};
use crate::stats;

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn header(opts: &Options, outcomes: &[Outcome]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut samples = Json::obj();
    for out in outcomes {
        let mut classes = Json::obj().with("rounds", out.rounds as u64);
        for (class, n) in &out.samples {
            classes.set(class, *n as u64);
        }
        samples.set(out.def.name, classes);
    }
    Json::obj()
        .with("commit", tool_line("git", &["rev-parse", "HEAD"]))
        .with("nproc", nproc as u64)
        .with("rustc", tool_line("rustc", &["--version"]))
        .with("seed", opts.seed)
        .with(
            "scale",
            if opts.smoke {
                format!("1/{SMOKE_SHRINK}")
            } else {
                "1".to_string()
            },
        )
        .with("seconds", opts.seconds)
        .with("trace", opts.trace)
        .with("samples", samples)
}

pub fn result_json(opts: &Options, outcomes: &[Outcome]) -> Json {
    let mut workloads = Json::obj();
    for out in outcomes {
        workloads.set(out.def.name, outcome_json(out));
    }
    Json::obj()
        .with("header", header(opts, outcomes))
        .with("workloads", workloads)
}

pub fn print_header(doc: &Json) {
    let header = doc.get("header").cloned().unwrap_or(Json::Null);
    let field = |k: &str| match header.get(k) {
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.render(),
        None => "?".to_string(),
    };
    println!(
        "commit {} | nproc {} | {} | seed {} | scale {} | {} s per workload | trace {}",
        field("commit"),
        field("nproc"),
        field("rustc"),
        field("seed"),
        field("scale"),
        field("seconds"),
        field("trace"),
    );
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a cell: the value and its per-round values.
pub struct Side<'a> {
    pub value: f64,
    pub rounds: &'a [f64],
}

/// Judge `b` against baseline `a`. Within the bound either way is
/// `Same`. Beyond it the direction decides — unless either side's own
/// rounds spread wider than the bound, which makes the cell
/// `Unresolved` except when every round of one side beats every round
/// of the other.
pub fn judge(m: &MetricDef, a: &Side<'_>, b: &Side<'_>) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    // positive = b is worse
    let worse_by = match m.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let share = if a.value != 0.0 {
        worse_by / a.value.abs()
    } else if worse_by == 0.0 {
        0.0
    } else {
        f64::INFINITY.copysign(worse_by)
    };
    if share.abs() <= bound {
        return Verdict::Same;
    }
    let direction = if share > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    };
    let noisy = stats::spread(a.rounds) > bound || stats::spread(b.rounds) > bound;
    if !noisy {
        return direction;
    }
    match (range(a.rounds), range(b.rounds)) {
        (Some((a_lo, a_hi)), Some((b_lo, b_hi))) if a_hi < b_lo || b_hi < a_lo => direction,
        _ => Verdict::Unresolved,
    }
}

fn range(values: &[f64]) -> Option<(f64, f64)> {
    values.iter().fold(None, |acc, x| match acc {
        None => Some((*x, *x)),
        Some((lo, hi)) => Some((lo.min(*x), hi.max(*x))),
    })
}

fn cell(doc: &Json, workload: &str, metric: &str) -> Option<(f64, Vec<f64>)> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let rounds = m
        .get("rounds")
        .map(|r| r.items().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some((m.get("value")?.as_f64()?, rounds))
}

/// Print the verdict of every workload × end-to-end cell present in
/// both files; returns how many are `worse` and how many `unresolved`.
pub fn compare(a: &Json, b: &Json) -> (usize, usize) {
    print!("a: ");
    print_header(a);
    print!("b: ");
    print_header(b);
    for key in ["nproc", "scale", "seconds"] {
        let of = |d: &Json| d.get("header").and_then(|h| h.get(key)).map(Json::render);
        if of(a) != of(b) {
            println!("note: the two files differ in {key}; the cells below are not like for like");
        }
    }
    println!(
        "{:<20} {:<22} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for w in WORKLOADS {
        for name in catalog::untraced_names(w) {
            let m = catalog::metric(name).expect("untraced names are catalogued");
            let (Some((va, ra)), Some((vb, rb))) = (cell(a, w.name, name), cell(b, w.name, name))
            else {
                continue;
            };
            let verdict = judge(
                m,
                &Side {
                    value: va,
                    rounds: &ra,
                },
                &Side {
                    value: vb,
                    rounds: &rb,
                },
            );
            worse += usize::from(verdict == Verdict::Worse);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            let ratio = if va != 0.0 {
                format!("{:.3}", vb / va)
            } else {
                "-".to_string()
            };
            println!(
                "{:<20} {:<22} {:>14.4} {:>14.4} {:>9} {:>6}  {}",
                w.name,
                name,
                va,
                vb,
                ratio,
                m.bound.unwrap_or(0.0),
                verdict.word()
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved (ratios are b over a; a is the base)");
    (worse, unresolved)
}

pub fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, rounds: &[f64]) -> Side<'_> {
        Side { value, rounds }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let with_bound = |better, bound| MetricDef {
            name: "fixture",
            unit: "us",
            better,
            bound: Some(bound),
            what: "",
        };
        let (lower, higher) = (
            &with_bound(Better::Lower, 0.10),
            &with_bound(Better::Higher, 0.10),
        );
        let tight = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(lower, &side(100.0, &tight), &side(108.0, &tight)),
            Verdict::Same
        );
        assert_eq!(
            judge(
                lower,
                &side(100.0, &tight),
                &side(120.0, &[119.0, 121.0, 120.0])
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                lower,
                &side(100.0, &tight),
                &side(80.0, &[79.0, 81.0, 80.0])
            ),
            Verdict::Better
        );
        assert_eq!(
            judge(
                higher,
                &side(100.0, &tight),
                &side(80.0, &[79.0, 81.0, 80.0])
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                higher,
                &side(100.0, &tight),
                &side(120.0, &[119.0, 121.0, 120.0])
            ),
            Verdict::Better
        );
        // rounds that spread wider than the bound and overlap: unresolved
        let wide = [80.0, 100.0, 130.0, 150.0];
        assert_eq!(
            judge(lower, &side(100.0, &tight), &side(120.0, &wide)),
            Verdict::Unresolved
        );
        // … unless every round of one side beats every round of the other
        let wide_apart = [150.0, 200.0, 260.0, 300.0];
        assert_eq!(
            judge(lower, &side(100.0, &tight), &side(230.0, &wide_apart)),
            Verdict::Worse
        );
        // bound 0 (failed_ratio): any increase from 0 is worse
        let failed = &with_bound(Better::Lower, 0.0);
        assert_eq!(
            judge(failed, &side(0.0, &[]), &side(0.0, &[])),
            Verdict::Same
        );
        assert_eq!(
            judge(failed, &side(0.0, &[]), &side(0.01, &[])),
            Verdict::Worse
        );
    }

    #[test]
    fn compare_counts_worse_cells() {
        let file = |p50: f64| {
            Json::parse(&format!(
                "{{\"header\":{{\"seed\":42}},\"workloads\":{{\"recovery\":{{\"metrics\":{{\
                 \"peak_rss_mb\":{{\"value\":{p50},\"unit\":\"MiB\",\"rounds\":[{p50},{p50}]}}}}}}}}}}"
            ))
            .expect("fixture parses")
        };
        // peak_rss_mb: lower is better, bound 0.10
        assert_eq!(compare(&file(100.0), &file(105.0)), (0, 0));
        assert_eq!(compare(&file(100.0), &file(150.0)), (1, 0));
    }
}
