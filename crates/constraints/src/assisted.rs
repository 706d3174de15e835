//! Verification-assisted validation.
//!
//! The paper's closing claim: "Transaction verification can be combined
//! with constraint validation to make more constraints checkable with
//! less amount of history maintained, which leads to more knowledgable
//! database systems." This module implements that combination:
//!
//! * transactions are registered with per-constraint **verification
//!   verdicts** (from `txlog-prover`'s pipeline, or any other proof);
//! * at each step, [`Checker::check_assisted`] skips constraints the
//!   arriving transaction *provably preserves* — no window decided, no
//!   history consulted;
//! * other constraints fall back to the ordinary windowed check.
//!
//! A transaction constraint that would need a two-state window becomes
//! maintainable with **zero** retained history along runs that only
//! execute verified transactions; each call reports which path it took
//! so the saving is measurable (bench `b6_assisted`). Certificates
//! reduce *cost*, not expressiveness: a non-checkable constraint is
//! still rejected by [`Checker::new`].

use crate::window::{Checker, History};
use std::collections::{HashMap, HashSet};
use txlog_base::obs::{Counter, Metrics};
use txlog_base::TxResult;
use txlog_logic::SFormula;

/// A registry of transactions verified to preserve given constraints.
#[derive(Clone, Default)]
pub struct VerifiedRegistry {
    /// transaction label → constraint names it provably preserves
    preserves: HashMap<String, HashSet<String>>,
}

impl VerifiedRegistry {
    /// Empty registry.
    pub fn new() -> VerifiedRegistry {
        VerifiedRegistry::default()
    }

    /// Record that the transaction labelled `tx` preserves `constraint`.
    /// Call this only with a verdict from an actual verification (e.g.
    /// [`Verdict::is_proved`]); the checker *trusts* this registry.
    ///
    /// [`Verdict::is_proved`]: ../txlog_prover/enum.Verdict.html
    pub fn record(&mut self, tx: &str, constraint: &str) {
        self.preserves
            .entry(tx.to_string())
            .or_default()
            .insert(constraint.to_string());
    }

    /// Does the registry certify `tx` for `constraint`?
    pub fn certified(&self, tx: &str, constraint: &str) -> bool {
        self.preserves
            .get(tx)
            .is_some_and(|cs| cs.contains(constraint))
    }
}

/// How [`Checker::check_assisted`] decided a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assisted {
    /// The registry certifies the transaction for this constraint: the
    /// step is accepted and no model was built.
    Certified,
    /// No certificate: the window was model-checked, with this verdict.
    Checked(bool),
}

impl Assisted {
    /// Whether the constraint holds after the step.
    pub fn holds(self) -> bool {
        self != Assisted::Checked(false)
    }
}

impl Checker {
    /// Check the newest step of `history`, whose final transition was
    /// produced by the transaction labelled `last_label`. If the registry
    /// certifies that transaction for this constraint (by
    /// [`name`](Checker::name)), the step is accepted without model
    /// checking (soundly: a proof covers every state, including this
    /// one); otherwise [`check_now`](Checker::check_now) runs.
    pub fn check_assisted(
        &self,
        history: &History,
        last_label: &str,
        registry: &VerifiedRegistry,
    ) -> TxResult<Assisted> {
        if registry.certified(last_label, self.name()) {
            // the matching `model_checks` / `lowered_checks` come from
            // the check this skips
            Metrics::current().bump(Counter::ProofSkips);
            return Ok(Assisted::Certified);
        }
        self.check_now(history).map(Assisted::Checked)
    }
}

/// One certification outcome: (transaction label, constraint name, proved).
pub type CertLog = Vec<(String, String, bool)>;

/// Convenience: populate a registry by running the prover's verification
/// pipeline for each (label, transaction) against each (name, constraint),
/// recording only symbolic proofs. Returns the registry and the verdicts.
pub fn certify<F>(
    mut verify: F,
    transactions: &[(&str, txlog_logic::FTerm)],
    constraints: &[(&str, SFormula)],
) -> TxResult<(VerifiedRegistry, CertLog)>
where
    F: FnMut(&txlog_logic::FTerm, &SFormula) -> TxResult<bool>,
{
    let mut registry = VerifiedRegistry::new();
    let mut log = Vec::new();
    for (label, tx) in transactions {
        for (cname, c) in constraints {
            let proved = verify(tx, c)?;
            if proved {
                registry.record(label, cname);
            }
            log.push((label.to_string(), cname.to_string(), proved));
        }
    }
    Ok((registry, log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::Window;
    use txlog_base::Atom;
    use txlog_engine::Env;
    use txlog_logic::{parse_fterm, parse_sformula, ParseCtx};
    use txlog_relational::Schema;

    fn schema() -> Schema {
        Schema::new()
            .relation("EMP", &["e-name", "salary"])
            .unwrap()
    }

    fn ctx() -> ParseCtx {
        ParseCtx::with_relations(&["EMP"])
    }

    fn monotone() -> SFormula {
        parse_sformula(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP)
                 -> salary(s:e) <= salary((s;t):e)",
            &ctx(),
        )
        .unwrap()
    }

    fn start() -> History {
        let schema = schema();
        let db = schema.initial_state();
        let emp = schema.rel_id("EMP").unwrap();
        let (db, _) = db
            .insert_fields(emp, &[Atom::str("ann"), Atom::nat(500)])
            .unwrap();
        History::new(schema, db)
    }

    #[test]
    fn certified_steps_skip_model_checking() {
        let mut registry = VerifiedRegistry::new();
        registry.record("raise", "monotone");
        let checker = Checker::new("monotone", monotone(), Window::States(2)).unwrap();
        let mut history = start();
        let raise = parse_fterm(
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end",
            &ctx(),
            &[],
        )
        .unwrap();
        for _ in 0..3 {
            history.step("raise", &raise, &Env::new()).unwrap();
            let step = checker.check_assisted(&history, "raise", &registry);
            assert_eq!(step.unwrap(), Assisted::Certified);
        }
    }

    #[test]
    fn uncertified_steps_fall_back_and_catch_violations() {
        let registry = VerifiedRegistry::new(); // nothing certified
        let checker = Checker::new("monotone", monotone(), Window::States(2)).unwrap();
        let mut history = start();
        let cut = parse_fterm(
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) - 10) end",
            &ctx(),
            &[],
        )
        .unwrap();
        history.step("cut", &cut, &Env::new()).unwrap();
        let step = checker.check_assisted(&history, "cut", &registry).unwrap();
        assert_eq!(step, Assisted::Checked(false));
        assert!(!step.holds());
    }

    #[test]
    fn certificates_are_per_constraint() {
        let mut registry = VerifiedRegistry::new();
        registry.record("raise", "some-other-constraint");
        let checker = Checker::new("monotone", monotone(), Window::States(2)).unwrap();
        let mut history = start();
        let raise = parse_fterm(
            "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end",
            &ctx(),
            &[],
        )
        .unwrap();
        history.step("raise", &raise, &Env::new()).unwrap();
        // falls back: the certificate names a different constraint
        let step = checker.check_assisted(&history, "raise", &registry);
        assert_eq!(step.unwrap(), Assisted::Checked(true));
    }

    #[test]
    fn certify_populates_registry() {
        let raise = parse_fterm("insert(tuple('x', 1), EMP)", &ctx(), &[]).unwrap();
        let (registry, log) = certify(
            |_tx, _c| Ok(true),
            &[("hire", raise)],
            &[("monotone", monotone())],
        )
        .unwrap();
        assert!(registry.certified("hire", "monotone"));
        assert_eq!(log.len(), 1);
    }
}
