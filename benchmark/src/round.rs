//! One round: what a single fresh child process measured.
//!
//! A run is a sequence of rounds, each a fresh process executing the
//! same seeded, fixed-count op stream against a freshly built
//! database. Fresh processes are load-bearing: `Symbol`'s append-only
//! process-global interner and the allocator carry state across
//! in-process repetitions (three back-to-back in-process runs of the
//! served mix measured 5677 → 5079 → 4577 ops/s; three fresh
//! processes 5589 / 5239 / 5429). The child prints its [`Round`] as one
//! JSON line; the parent pools rounds — latencies concatenate, sums
//! add, set-up time and memory take the median.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::Json;

/// Everything a workload needs to know about how it is being run.
pub struct Ctx {
    pub seed: u64,
    /// Fixed counts are divided by this: 1 for a measured run, 50 for
    /// `--smoke`.
    pub shrink: usize,
    /// Issue ops through the decomposed public calls and record spans.
    pub traced: bool,
    /// Perturb one oracle expectation, to show that a wrong answer
    /// fails the run (`--sabotage`).
    pub sabotage: bool,
    /// When the child process started; `setup_s` counts from here.
    pub started: Instant,
    /// Scratch directory of this child, inside the checkout.
    pub dir: PathBuf,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Round {
    /// Child start → first timed op.
    pub setup_s: f64,
    /// `VmHWM` at exit, MiB.
    pub rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few oracle or op failures, for the operator.
    pub errors: Vec<String>,
    /// Latency samples per class, ns.
    pub lat: BTreeMap<String, Vec<u64>>,
    /// Additive quantities (wall times, counts, span self-time sums).
    pub sums: BTreeMap<String, f64>,
}

impl Round {
    pub fn add(&mut self, key: &str, value: f64) {
        *self.sums.entry(key.to_string()).or_default() += value;
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Record a failed check outside any timed op (a warm-up op, an
    /// end-of-run oracle): one more thing attempted, and failed.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.record("", Err(what()));
    }

    /// Carry the failures of the untimed warm-up ops over from the
    /// scratch round that took their counts.
    pub fn fail_warmup(&mut self, warmup: Round) {
        for e in warmup.errors {
            self.fail(|| format!("warm-up: {e}"));
        }
    }

    /// Count one attempted op; a correct one contributes its latency
    /// to `class`, a failed one (error, refusal or oracle) its reason.
    pub fn record(&mut self, class: &str, outcome: Result<u64, String>) {
        self.attempted += 1;
        match outcome {
            Ok(ns) => self.lat.entry(class.to_string()).or_default().push(ns),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
            }
        }
    }

    /// Fold another thread's or another round's measurements in.
    pub fn absorb(&mut self, other: Round) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        for (class, samples) in other.lat {
            self.lat.entry(class).or_default().extend(samples);
        }
        for (key, value) in other.sums {
            *self.sums.entry(key).or_default() += value;
        }
    }

    pub fn to_json(&self) -> Json {
        let lat = Json::Obj(
            self.lat
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        Json::Arr(v.iter().map(|n| Json::from(*n)).collect()),
                    )
                })
                .collect(),
        );
        let sums = Json::Obj(
            self.sums
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v)))
                .collect(),
        );
        Json::obj()
            .with("setup_s", self.setup_s)
            .with("rss_mb", self.rss_mb)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::from(e.as_str())).collect()),
            )
            .with("lat", lat)
            .with("sums", sums)
    }

    pub fn from_json(doc: &Json) -> Result<Round, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("round lacks {key}"))
        };
        Ok(Round {
            setup_s: num("setup_s")?,
            rss_mb: num("rss_mb")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            errors: doc
                .get("errors")
                .map(|e| {
                    e.items()
                        .iter()
                        .filter_map(|s| s.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
            lat: doc
                .get("lat")
                .ok_or("round lacks lat")?
                .fields()
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.items()
                            .iter()
                            .filter_map(|n| n.as_f64().map(|n| n as u64))
                            .collect(),
                    )
                })
                .collect(),
            sums: doc
                .get("sums")
                .ok_or("round lacks sums")?
                .fields()
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                .collect(),
        })
    }
}

/// Where everything the benchmark writes goes: `benchmark/out/`,
/// beside the manifest, so a run touches nothing outside its checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set size of this process, MiB (`VmHWM`, Linux).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_survive_the_pipe_and_pool() {
        let mut a = Round {
            setup_s: 0.125,
            rss_mb: 40.5,
            ..Round::default()
        };
        a.record("commit", Ok(1500));
        a.record("commit", Err("refused".to_string()));
        a.add("acked", 1.0);
        let back =
            Round::from_json(&Json::parse(&a.to_json().render()).expect("json")).expect("round");
        assert_eq!(back, a);
        assert_eq!((back.attempted, back.failed), (2, 1));

        let mut pooled = back;
        pooled.absorb(a);
        assert_eq!(pooled.lat["commit"], [1500, 1500]);
        assert_eq!(pooled.sum("acked"), 2.0);
        assert_eq!((pooled.attempted, pooled.failed), (4, 2));
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mb() > 0.0);
    }
}
