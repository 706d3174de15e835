//! Direct Kripke semantics of temporal formulas over evolution graphs.
//!
//! This is the *independent* semantics used to validate the δ embedding:
//! it walks the graph directly, never touching the situational logic. The
//! graph is expected to be reflexively and transitively closed (call
//! `reflexive_close` / `transitive_close` first), matching the paper's
//! database evolution graphs, on which `○α ≡ ◇α`.
//!
//! `U` and `V` use the paper's decomposition reading: a transaction `t`
//! from `s` decomposes as `t = t₁ ;; t₂` through any intermediate state
//! `m` with arcs `s → m → s;t`.

use crate::ast::TFormula;
use txlog_base::{StateId, TxResult};
use txlog_engine::{Env, Model};

/// Decide a temporal formula at a state of the model.
pub fn holds(model: &Model, s: StateId, f: &TFormula) -> TxResult<bool> {
    holds_env(model, s, f, &Env::new())
}

/// As [`holds`], with an environment for free object variables in atoms.
pub fn holds_env(model: &Model, s: StateId, f: &TFormula, env: &Env) -> TxResult<bool> {
    match f {
        TFormula::Atom(p) => model.engine()?.eval_truth(model.graph.state(s), p, env),
        TFormula::Not(a) => Ok(!holds_env(model, s, a, env)?),
        TFormula::And(a, b) => Ok(holds_env(model, s, a, env)? && holds_env(model, s, b, env)?),
        TFormula::Or(a, b) => Ok(holds_env(model, s, a, env)? || holds_env(model, s, b, env)?),
        TFormula::Implies(a, b) => {
            Ok(!holds_env(model, s, a, env)? || holds_env(model, s, b, env)?)
        }
        TFormula::Always(a) => {
            for (_, dst) in model.graph.out_arcs(s) {
                if !holds_env(model, dst, a, env)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        // ○ ≡ ◇ on transitive evolution graphs (Section 3).
        TFormula::Next(a) | TFormula::Eventually(a) => {
            for (_, dst) in model.graph.out_arcs(s) {
                if holds_env(model, dst, a, env)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        TFormula::Until(a, b) => {
            // ∀t. α at s;t  ∨  ∃ decomposition t = t₁;;t₂ with β at s;t₁
            for (_, dst) in model.graph.out_arcs(s) {
                if holds_env(model, dst, a, env)? {
                    continue;
                }
                let mut witnessed = false;
                for m in intermediates(model, s, dst) {
                    if holds_env(model, m, b, env)? {
                        witnessed = true;
                        break;
                    }
                }
                if !witnessed {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        TFormula::Precedes(a, b) => {
            // ∃t. α at s;t  ∧  ∀ decompositions: ¬β at s;t₁
            'arcs: for (_, dst) in model.graph.out_arcs(s) {
                if !holds_env(model, dst, a, env)? {
                    continue;
                }
                for m in intermediates(model, s, dst) {
                    if holds_env(model, m, b, env)? {
                        continue 'arcs;
                    }
                }
                return Ok(true);
            }
            Ok(false)
        }
    }
}

/// States `m` with arcs `s → m` and `m → dst` — the intermediates of the
/// decompositions `t = t₁ ;; t₂`. On a reflexively closed graph this
/// includes `s` (via `t₁ = Λ`) and `dst` (via `t₂ = Λ`).
fn intermediates(model: &Model, s: StateId, dst: StateId) -> Vec<StateId> {
    let mut out: Vec<StateId> = model
        .graph
        .out_arcs(s)
        .map(|(_, m)| m)
        .filter(|&m| model.graph.out_arcs(m).any(|(_, d)| d == dst))
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use txlog_base::Atom;
    use txlog_engine::ModelBuilder;
    use txlog_logic::{FFormula, FTerm};
    use txlog_relational::Schema;

    /// A chain s0 → s1 → s2 where R = {} , {1}, {1,2}.
    fn chain() -> (Model, Vec<StateId>) {
        let schema = Schema::new().relation("R", &["a"]).unwrap();
        let rid = schema.rel_id("R").unwrap();
        let s0 = schema.initial_state();
        let (s1, _) = s0.insert_fields(rid, &[Atom::nat(1)]).unwrap();
        let (s2, _) = s1.insert_fields(rid, &[Atom::nat(2)]).unwrap();
        let mut b = ModelBuilder::new(schema);
        let n0 = b.add_state(s0);
        let n1 = b.add_state(s1);
        let n2 = b.add_state(s2);
        let g = b.graph_mut();
        g.add_arc(n0, txlog_relational::TxLabel::new("ins1"), n1)
            .unwrap();
        g.add_arc(n1, txlog_relational::TxLabel::new("ins2"), n2)
            .unwrap();
        g.reflexive_close();
        g.transitive_close();
        (b.finish(), vec![n0, n1, n2])
    }

    fn has(n: u64) -> FFormula {
        FFormula::member(FTerm::TupleCons(vec![FTerm::nat(n)]), FTerm::rel("R"))
    }

    #[test]
    fn eventually_and_always() {
        let (model, ns) = chain();
        let f = TFormula::atom(has(2)).eventually();
        assert!(holds(&model, ns[0], &f).unwrap());
        // □(1 ∈ R) fails at s0 (it includes s0 itself via Λ)
        let g = TFormula::atom(has(1)).always();
        assert!(!holds(&model, ns[0], &g).unwrap());
        assert!(holds(&model, ns[1], &g).unwrap());
    }

    #[test]
    fn next_equals_eventually() {
        let (model, ns) = chain();
        let f = TFormula::atom(has(2));
        for &s in &ns {
            assert_eq!(
                holds(&model, s, &f.clone().next()).unwrap(),
                holds(&model, s, &f.clone().eventually()).unwrap()
            );
        }
    }

    #[test]
    fn until_semantics() {
        let (model, ns) = chain();
        // ¬(2 ∈ R) U (1 ∈ R): along every future, absence-of-2 persists
        // unless 1 has already appeared at an intermediate.
        let f = TFormula::atom(has(2)).not().until(TFormula::atom(has(1)));
        assert!(holds(&model, ns[0], &f).unwrap());
        // (2 ∈ R) U (1 ∈ R) at s0: the Λ-arc keeps s0 itself as a future
        // where 2 ∉ R and no intermediate has 1 ∈ R → false.
        let g = TFormula::atom(has(2)).until(TFormula::atom(has(1)));
        assert!(!holds(&model, ns[0], &g).unwrap());
    }

    #[test]
    fn precedes_semantics() {
        let (model, ns) = chain();
        // (1 ∈ R) precedes (2 ∈ R) at s0: some future has 1 ∈ R with no
        // intermediate where 2 ∈ R — e.g. s1 via the direct arc.
        let f = TFormula::atom(has(1)).precedes(TFormula::atom(has(2)));
        assert!(holds(&model, ns[0], &f).unwrap());
        // (2 ∈ R) precedes (1 ∈ R) at s0: any future with 2 ∈ R passes
        // through s1 or s2 where 1 ∈ R already… but the *decomposition*
        // set also contains s0 and the endpoint itself. The endpoint s2
        // has 1 ∈ R, so every decomposition is poisoned → false.
        let g = TFormula::atom(has(2)).precedes(TFormula::atom(has(1)));
        assert!(!holds(&model, ns[0], &g).unwrap());
    }
}
