//! Compiling history constraints to event patterns.
//!
//! [`NeverReinsertEncoding`](crate::NeverReinsertEncoding) makes
//! Example 4's dynamic constraint static by *rewriting every
//! transaction* to audit its deletions — correct, but every program
//! that touches the relation must go through the rewriter, and a
//! forgotten rewrite silently breaks the encoding.
//!
//! [`ReactiveEncoding`] produces the same auxiliary relation from the
//! commit stream instead: it compiles the history constraint down to an
//! event [`Pattern`] (`delete(R, …key…)`) whose matches the engine
//! materializes into a system-maintained relation
//! ([`txlog_engine::DatabaseBuilder::event_pattern`]). Transactions
//! stay exactly as the paper writes them — `fire(ann)` is just deletes
//! — and the audit relation can never be forgotten, because the engine
//! adds each row inside the commit whose delete matched, as the paper's
//! rewritten transaction inserts into `FIRE` in the same transition.
//!
//! The enforcement half is unchanged: [`ReactiveEncoding::static_constraint`]
//! is the same window-1 formula the manual encoding uses, now over the
//! auto-maintained relation. One difference: a `modify` is a delete
//! event of the old value, so never-reinsert refuses a modify too.

use txlog_base::{Symbol, TxResult};
use txlog_events::{PTerm, Pattern, PatternDef};
use txlog_logic::{FTerm, SFormula, STerm, Var};
use txlog_relational::Schema;

use crate::window::{Checker, Hints};

/// The FIRE-style encoding compiled to an event pattern: deletions from
/// `relation` are materialized (by key) into the system relation
/// `history`, with no transaction rewriting.
pub struct ReactiveEncoding {
    /// The relation whose members must never return (e.g. `EMP`).
    pub relation: Symbol,
    /// The key attribute identifying members across deletion (e.g.
    /// `e-name`).
    pub key_attr: Symbol,
    /// The system-maintained history relation (e.g. `FIRED`).
    pub history: Symbol,
    arity: usize,
    key_index: usize,
}

impl ReactiveEncoding {
    /// Validate the relation/key pair against `schema` and build the
    /// encoding. Unlike [`NeverReinsertEncoding::install`], the schema
    /// is *not* mutated here: the engine declares the system relation
    /// when the pattern is registered
    /// ([`txlog_engine::DatabaseBuilder::event_pattern`]).
    ///
    /// [`NeverReinsertEncoding::install`]: crate::NeverReinsertEncoding::install
    pub fn define(
        schema: &Schema,
        relation: &str,
        key_attr: &str,
        history: &str,
    ) -> TxResult<ReactiveEncoding> {
        let decl = schema.expect(relation)?;
        let arity = decl.arity();
        let key_index = schema.attr_index(relation, key_attr)?;
        Ok(ReactiveEncoding {
            relation: Symbol::new(relation),
            key_attr: Symbol::new(key_attr),
            history: Symbol::new(history),
            arity,
            key_index,
        })
    }

    /// The pattern variable carrying the key — also the history
    /// relation's single attribute, so it follows
    /// [`NeverReinsertEncoding`](crate::NeverReinsertEncoding)'s
    /// `{audit}-key` convention (attribute names are globally unique,
    /// so the key attribute's own name cannot be reused).
    pub fn key_var(&self) -> Symbol {
        Symbol::new(&format!("{}-key", self.history.as_str()))
    }

    /// The compiled pattern: a deletion from the relation, binding the
    /// key attribute and ignoring every other field.
    pub fn pattern(&self) -> Pattern {
        let terms = (1..=self.arity)
            .map(|i| {
                if i == self.key_index {
                    PTerm::Var(self.key_var())
                } else {
                    PTerm::Wildcard
                }
            })
            .collect();
        Pattern::Prim(txlog_events::Prim {
            kind: txlog_events::EventKind::Delete,
            rel: self.relation,
            terms,
        })
    }

    /// The full registration: the pattern, named after the history
    /// relation (lower-cased), materialized into it.
    pub fn pattern_def(&self) -> PatternDef {
        PatternDef::materialized(
            &self.history.as_str().to_lowercase(),
            self.pattern(),
            self.history.as_str(),
            &[self.key_var().as_str()],
        )
    }

    /// The static constraint enforcing never-reinsert over the
    /// auto-maintained relation: `∀s ∀x'. x' ∈ s:H → ¬∃e'. e' ∈ s:R ∧
    /// key(e') = key-of(x')`. Window 1; same shape as
    /// [`NeverReinsertEncoding::static_constraint`](crate::NeverReinsertEncoding::static_constraint).
    pub fn static_constraint(&self) -> SFormula {
        let s = Var::state("s");
        let x = Var::tup_s("x", 1);
        let e = Var::tup_s("e", self.arity);
        let in_history = SFormula::member(
            STerm::var(x),
            STerm::var(s).eval_obj(FTerm::Rel(self.history)),
        );
        let same_key = SFormula::eq(
            STerm::Attr(self.key_attr, Box::new(STerm::var(e))),
            STerm::Select(Box::new(STerm::var(x)), 1),
        );
        let present = SFormula::exists(
            e,
            SFormula::member(
                STerm::var(e),
                STerm::var(s).eval_obj(FTerm::Rel(self.relation)),
            )
            .and(same_key),
        );
        SFormula::forall_all([s, x], in_history.implies(present.not()))
    }

    /// The static constraint packaged for commit-time validation
    /// (window 1, so sessions may stay at read-committed).
    pub fn session_constraint(&self, name: &str) -> TxResult<Checker> {
        Checker::for_session(name, self.static_constraint(), Hints::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, ConstraintClass};
    use txlog_base::Atom;
    use txlog_engine::{CommitError, Database, Env};
    use txlog_logic::{parse_fterm, ParseCtx};

    fn schema() -> Schema {
        Schema::new()
            .relation("EMP", &["e-name", "salary"])
            .unwrap()
    }

    #[test]
    fn compiles_to_a_keyed_delete_pattern() {
        let enc = ReactiveEncoding::define(&schema(), "EMP", "e-name", "FIRED").unwrap();
        assert_eq!(enc.pattern().to_string(), "delete(EMP, FIRED-key, _)");
        let def = enc.pattern_def();
        assert_eq!(def.name, "fired");
        let m = &def.materialize;
        assert_eq!(m.relation, "FIRED");
        assert_eq!(m.columns, vec!["FIRED-key".to_string()]);
    }

    #[test]
    fn define_validates_names() {
        assert!(ReactiveEncoding::define(&schema(), "NOPE", "e-name", "FIRED").is_err());
        assert!(ReactiveEncoding::define(&schema(), "EMP", "nope", "FIRED").is_err());
    }

    #[test]
    fn substituted_constraint_is_static() {
        let enc = ReactiveEncoding::define(&schema(), "EMP", "e-name", "FIRED").unwrap();
        assert_eq!(classify(&enc.static_constraint()), ConstraintClass::Static);
        assert_eq!(
            enc.session_constraint("never-rehire")
                .unwrap()
                .min_isolation(),
            txlog_engine::IsolationLevel::ReadCommitted
        );
    }

    #[test]
    fn enforces_never_reinsert_without_rewriting_transactions() {
        let enc = ReactiveEncoding::define(&schema(), "EMP", "e-name", "FIRED").unwrap();
        let mut db = Database::builder(schema())
            .event_pattern(enc.pattern_def())
            .unwrap()
            .build()
            .unwrap();
        db.add_constraint(Box::new(enc.session_constraint("never-rehire").unwrap()))
            .unwrap();
        let ctx = ParseCtx::with_relations(&["EMP", "FIRED"]);
        let t = |src: &str| parse_fterm(src, &ctx, &[]).unwrap();
        let mut s = db.session();
        s.commit("hire", &t("insert(tuple('ann', 500), EMP)"), &Env::new())
            .unwrap();
        // plain deletes — no audit bookkeeping in the transaction
        s.commit("fire", &t("delete(tuple('ann', 500), EMP)"), &Env::new())
            .unwrap();
        let fired = db.schema().rel_id("FIRED").unwrap();
        assert!(db
            .snapshot()
            .relation(fired)
            .unwrap()
            .contains_fields(&[Atom::str("ann")]));
        // the rehire violates the substituted static constraint
        s.refresh();
        let err = s
            .commit("rehire", &t("insert(tuple('ann', 700), EMP)"), &Env::new())
            .unwrap_err();
        assert!(
            matches!(&err, CommitError::ConstraintViolation { constraint }
                     if constraint == "never-rehire"),
            "{err}"
        );
        // a fresh hire is fine
        s.refresh();
        s.commit("hire2", &t("insert(tuple('bob', 400), EMP)"), &Env::new())
            .unwrap();
    }

    /// A modify is a delete event of the old value, so a raise records
    /// its employee as fired in the raise's own commit, and
    /// never-rehire refuses it. Pinned so that a change to how the
    /// encoding treats modifies shows here.
    #[test]
    fn a_modify_matches_the_delete_pattern_and_is_refused() {
        let enc = ReactiveEncoding::define(&schema(), "EMP", "e-name", "FIRED").unwrap();
        let mut db = Database::builder(schema())
            .event_pattern(enc.pattern_def())
            .unwrap()
            .build()
            .unwrap();
        db.add_constraint(Box::new(enc.session_constraint("never-rehire").unwrap()))
            .unwrap();
        let ctx = ParseCtx::with_relations(&["EMP", "FIRED"]);
        let t = |src: &str| parse_fterm(src, &ctx, &[]).unwrap();
        let mut s = db.session();
        s.commit("hire", &t("insert(tuple('ann', 500), EMP)"), &Env::new())
            .unwrap();
        let raise = t("foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end");
        let err = s.commit("raise", &raise, &Env::new()).unwrap_err();
        assert!(
            matches!(&err, CommitError::ConstraintViolation { constraint }
                     if constraint == "never-rehire"),
            "{err}"
        );
        assert_eq!(db.head_version(), 1);
    }
}
