//! `txlog-benchmark` — seven fixed workloads, end-to-end metrics and an
//! outside-in per-layer trace for the txlog database. See `README.md`.

mod catalog;
mod json;
mod observe;
mod report;
mod rng;
mod round;
mod runner;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use catalog::{WorkloadDef, WORKLOADS};
use runner::{Options, Outcome};

const USAGE: &str = "\
usage:
  txlog-benchmark list
  txlog-benchmark run <workload> [--seed N] [--seconds S] [--trace] [--smoke] [--out FILE]
  txlog-benchmark all [--seed N] [--seconds S] [--trace] [--smoke] [--out FILE]
  txlog-benchmark compare <a.json> <b.json>
  txlog-benchmark --workload <name> --seed N --seconds S --trace <0|1>   (driver contract)
`run` also takes --sabotage: perturb one oracle expectation, to see the run fail.";

struct Args {
    opts: Options,
    out: Option<PathBuf>,
    workload: Option<String>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        opts: Options {
            seed: 42,
            seconds: catalog::RUN_SECONDS as f64,
            trace: false,
            smoke: false,
            sabotage: false,
        },
        out: None,
        workload: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--seed" => {
                parsed.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--workload" => parsed.workload = Some(value("a name")?),
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            "--smoke" => parsed.opts.smoke = true,
            "--sabotage" => parsed.opts.sabotage = true,
            // bare in the tool's own commands, `--trace 0|1` from the driver
            "--trace" => {
                parsed.opts.trace = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn find(name: &str) -> Result<&'static WorkloadDef, String> {
    catalog::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })
}

/// Run the given workloads, print every metric, write the result file.
/// Fails when any oracle did.
fn run_and_report(defs: &[&'static WorkloadDef], args: &Args) -> Result<(), String> {
    let mut outcomes: Vec<Outcome> = Vec::new();
    for def in defs {
        let out = runner::run_workload(def, &args.opts)?;
        runner::print_outcome(&out);
        outcomes.push(out);
    }
    let doc = report::result_json(&args.opts, &outcomes);
    let path = args.out.clone().unwrap_or_else(|| {
        let what = if defs.len() == 1 { defs[0].name } else { "all" };
        round::out_dir().join(format!("{what}-seed{}.json", args.opts.seed))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    report::print_header(&doc);
    println!("result file: {}", path.display());
    let failed: Vec<&str> = outcomes
        .iter()
        .filter(|o| !o.correct())
        .map(|o| o.def.name)
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "correctness oracle failed on: {}",
            failed.join(", ")
        ))
    }
}

/// One round of one workload in this (fresh) process; the result goes
/// to the parent as one JSON line.
fn child(started: Instant, args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("child needs a workload")?;
    let flag = |f: &str| args.iter().any(|a| a == f);
    let number = |f: &str| -> Result<u64, String> {
        args.iter()
            .position(|a| a == f)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("child needs {f}"))?
            .parse()
            .map_err(|e| format!("{f}: {e}"))
    };
    let dir = round::out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = round::Ctx {
        seed: number("--seed")?,
        shrink: number("--shrink")? as usize,
        traced: flag("--traced"),
        sabotage: flag("--sabotage"),
        started,
        dir: dir.clone(),
    };
    if ctx.traced {
        spans::reserve(1 << 20);
    }
    let mut round = workloads::run(name, &ctx);
    if ctx.traced {
        let all = spans::take();
        let path = round::out_dir().join(format!("{name}.spans.jsonl"));
        spans::write_jsonl(&path, &all).map_err(|e| format!("{}: {e}", path.display()))?;
        let reduced = spans::reduce(&all);
        for (what, table) in [
            ("self", &reduced.self_ns),
            ("wall", &reduced.wall_ns),
            ("count", &reduced.count),
            ("denom", &reduced.denom),
        ] {
            for (span, v) in table {
                round.add(&format!("t.{what}.{span}"), *v as f64);
            }
        }
        round.add("t.spans", all.len() as f64);
        round.add("t.rounds", 1.0);
    }
    round.rss_mb = round::peak_rss_mb();
    let _ = std::fs::remove_dir_all(&dir);
    println!("{}", round.to_json().render());
    Ok(())
}

fn dispatch(started: Instant, argv: &[String]) -> Result<(), String> {
    let Some(command) = argv.first() else {
        return Err(USAGE.to_string());
    };
    if command == "child" {
        return child(started, &argv[1..]);
    }
    if command.starts_with("--") {
        // the driver's form: flags only, one JSON line last
        let args = parse_args(argv)?;
        let def = find(args.workload.as_deref().ok_or("--workload is required")?)?;
        let out = runner::run_workload(def, &args.opts)?;
        for e in &out.errors {
            eprintln!("{}: FAILED: {e}", def.name);
        }
        println!("{}", runner::contract_line(&out, args.opts.trace)?);
        return Ok(());
    }
    let args = parse_args(&argv[1..])?;
    match (command.as_str(), args.positional.as_slice()) {
        ("list", []) => {
            println!("workloads");
            for w in WORKLOADS {
                println!("  {:<20} {}", w.name, w.why);
            }
            for (title, tier) in [
                ("end to end, every workload", catalog::UNIVERSAL),
                ("end to end, per kind of call", catalog::SPECIFIC),
                ("per layer, traced run", catalog::LAYER),
            ] {
                println!("{title}");
                for m in tier {
                    let bound = m.bound.map_or(String::new(), |b| format!(", bound {b}"));
                    println!(
                        "  {:<34} {:<6} {} is better{bound}: {}",
                        m.name,
                        m.unit,
                        m.better.word(),
                        m.what
                    );
                }
            }
            Ok(())
        }
        ("run", [name]) => run_and_report(&[find(name)?], &args),
        ("all", []) => run_and_report(&WORKLOADS.iter().collect::<Vec<_>>(), &args),
        ("compare", [a, b]) => {
            let (a, b) = (report::load(a.as_ref())?, report::load(b.as_ref())?);
            match report::compare(&a, &b) {
                (0, _) => Ok(()),
                (worse, _) => Err(format!("{worse} cell(s) worse than the bound allows")),
            }
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(started, &argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
