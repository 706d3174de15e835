//! Incremental evaluation: one advance per committed delta.
//!
//! A compiled pattern is a tree of nodes mirroring the AST. Each
//! binary node keeps *binding tables* — the matches its operands have
//! produced so far, indexed by the operands' shared variables — so an
//! advance joins only this commit's new matches against the tables
//! instead of rescanning the history. The per-commit cost is therefore
//! proportional to the delta (times the join fan-out), never to the
//! number of commits already processed. `prop_events.rs`'s
//! `automaton_work_per_commit_is_independent_of_history_depth` pins
//! this as an exact `evt_steps` count.
//!
//! The node semantics mirror [`crate::naive`], the executable
//! specification, exactly:
//!
//! * `Seq` joins new right matches against the left table *before*
//!   inserting this commit's new left matches, which is precisely the
//!   strictly-earlier requirement.
//! * `And` emits `newL ⋈ rightTable ∪ leftTable ⋈ newR ∪ newL ⋈ newR`,
//!   then absorbs both new sides — a match appears at the version of
//!   its later constituent.
//! * `Without` absorbs this commit's new blockers first, then filters
//!   the new left matches — a blocker at the same version suppresses,
//!   a later blocker never retracts.

use std::collections::{BTreeSet, HashMap, HashSet};

use txlog_base::{Atom, Symbol};
use txlog_relational::{Delta, Schema};

use crate::event::{events_of_delta, merge_bindings, Binding, Event};
use crate::pattern::{EventKind, PTerm, Pattern, PatternError};

/// What one advance produced.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Fired {
    /// New matches at the advanced version, deduplicated and in
    /// deterministic order.
    pub matches: Vec<Binding>,
    /// Node visits this advance performed (the `evt_steps` metric).
    pub steps: u64,
}

/// A compiled, stateful pattern evaluator.
#[derive(Clone, Debug)]
pub struct Automaton {
    root: Node,
}

impl Automaton {
    /// Compile a pattern against a schema: relation names resolve to
    /// ids, term counts are checked against arities, and every binary
    /// node precomputes its operands' shared variables as the join
    /// key.
    pub fn compile(pattern: &Pattern, schema: &Schema) -> Result<Automaton, PatternError> {
        Ok(Automaton {
            root: compile_node(pattern, schema)?,
        })
    }

    /// Feed one committed delta; returns the pattern's new matches.
    /// Deltas must arrive in commit order (the caller holds the
    /// version ordering).
    pub fn advance(&mut self, delta: &Delta) -> Fired {
        let events = events_of_delta(delta);
        let mut steps = 0;
        let new = self.root.advance(&events, &mut steps);
        Fired {
            matches: new.into_iter().collect(),
            steps,
        }
    }
}

/// A binding table: one operand's accumulated matches, indexed by the
/// projection onto the join key (the operands' shared variables), with
/// a seen-set so duplicate bindings are stored once.
#[derive(Clone, Debug, Default)]
struct Table {
    key: Vec<Symbol>,
    by_key: HashMap<Vec<Atom>, Vec<Binding>>,
    seen: HashSet<Binding>,
}

impl Table {
    fn new(key: Vec<Symbol>) -> Table {
        Table {
            key,
            by_key: HashMap::new(),
            seen: HashSet::new(),
        }
    }

    /// The join-key projection of a binding. The key holds only
    /// *certainly bound* variables (bound by every `Or` branch of the
    /// operand), so every operand match binds all of them.
    fn project(&self, b: &Binding) -> Vec<Atom> {
        self.key
            .iter()
            .map(|v| {
                b.get(v)
                    .copied()
                    .expect("join-key variables are certainly bound")
            })
            .collect()
    }

    fn add(&mut self, b: &Binding) {
        if self.seen.insert(b.clone()) {
            self.by_key
                .entry(self.project(b))
                .or_default()
                .push(b.clone());
        }
    }

    /// Matches compatible with `b` under the join key. With an empty
    /// key this is the whole table (a cross join); `merge_bindings`
    /// still rejects clashes on shared variables outside the key
    /// (ones an `Or` branch binds only sometimes).
    fn compatible<'a>(&'a self, b: &Binding) -> impl Iterator<Item = &'a Binding> + 'a {
        self.by_key.get(&self.project(b)).into_iter().flatten()
    }
}

#[derive(Clone, Debug)]
enum Node {
    Prim {
        kind: EventKind,
        rel: txlog_base::RelId,
        terms: Vec<PTerm>,
    },
    Or {
        l: Box<Node>,
        r: Box<Node>,
    },
    And {
        l: Box<Node>,
        r: Box<Node>,
        left: Table,
        right: Table,
    },
    Seq {
        l: Box<Node>,
        r: Box<Node>,
        left: Table,
    },
    Without {
        l: Box<Node>,
        r: Box<Node>,
        blockers: Table,
    },
}

fn shared_vars(a: &Pattern, b: &Pattern) -> Vec<Symbol> {
    let va = a.certain_vars();
    let vb = b.certain_vars();
    let mut shared: Vec<Symbol> = va.intersection(&vb).copied().collect();
    shared.sort_unstable();
    shared
}

fn compile_node(pattern: &Pattern, schema: &Schema) -> Result<Node, PatternError> {
    Ok(match pattern {
        Pattern::Prim(p) => {
            let decl = schema
                .by_name(p.rel)
                .ok_or_else(|| PatternError::UnknownRelation(p.rel.as_str().to_string()))?;
            if decl.arity() != p.terms.len() {
                return Err(PatternError::Arity {
                    rel: p.rel.as_str().to_string(),
                    expected: decl.arity(),
                    got: p.terms.len(),
                });
            }
            Node::Prim {
                kind: p.kind,
                rel: decl.id,
                terms: p.terms.clone(),
            }
        }
        Pattern::Or(a, b) => Node::Or {
            l: Box::new(compile_node(a, schema)?),
            r: Box::new(compile_node(b, schema)?),
        },
        Pattern::And(a, b) => {
            let key = shared_vars(a, b);
            Node::And {
                l: Box::new(compile_node(a, schema)?),
                r: Box::new(compile_node(b, schema)?),
                left: Table::new(key.clone()),
                right: Table::new(key),
            }
        }
        Pattern::Seq(a, b) => Node::Seq {
            l: Box::new(compile_node(a, schema)?),
            r: Box::new(compile_node(b, schema)?),
            left: Table::new(shared_vars(a, b)),
        },
        Pattern::Without(a, b) => Node::Without {
            l: Box::new(compile_node(a, schema)?),
            r: Box::new(compile_node(b, schema)?),
            blockers: Table::new(shared_vars(a, b)),
        },
    })
}

/// Unify a primitive's terms with an event's fields (shared with the
/// naive evaluator so both implementations agree by construction).
pub(crate) fn unify(terms: &[PTerm], event: &Event) -> Option<Binding> {
    let mut binding = Binding::new();
    for (term, value) in terms.iter().zip(event.fields.iter()) {
        match term {
            PTerm::Wildcard => {}
            PTerm::Const(c) => {
                if c != value {
                    return None;
                }
            }
            PTerm::Var(v) => match binding.get(v) {
                Some(bound) if bound != value => return None,
                _ => {
                    binding.insert(*v, *value);
                }
            },
        }
    }
    Some(binding)
}

impl Node {
    /// New matches this commit, deduplicated. The `BTreeSet` return
    /// keeps downstream joins and the dispatch order deterministic.
    fn advance(&mut self, events: &[Event], steps: &mut u64) -> BTreeSet<Binding> {
        *steps += 1;
        match self {
            Node::Prim { kind, rel, terms } => events
                .iter()
                .filter(|e| e.kind == *kind && e.rel == *rel && e.fields.len() == terms.len())
                .filter_map(|e| unify(terms, e))
                .collect(),
            Node::Or { l, r } => {
                let mut out = l.advance(events, steps);
                out.extend(r.advance(events, steps));
                out
            }
            Node::And { l, r, left, right } => {
                let new_l = l.advance(events, steps);
                let new_r = r.advance(events, steps);
                let mut out = BTreeSet::new();
                for b in &new_l {
                    for other in right.compatible(b) {
                        if let Some(m) = merge_bindings(b, other) {
                            out.insert(m);
                        }
                    }
                }
                for b in &new_r {
                    for other in left.compatible(b) {
                        if let Some(m) = merge_bindings(b, other) {
                            out.insert(m);
                        }
                    }
                }
                for a in &new_l {
                    for b in &new_r {
                        if let Some(m) = merge_bindings(a, b) {
                            out.insert(m);
                        }
                    }
                }
                for b in &new_l {
                    left.add(b);
                }
                for b in &new_r {
                    right.add(b);
                }
                out
            }
            Node::Seq { l, r, left } => {
                let new_l = l.advance(events, steps);
                let new_r = r.advance(events, steps);
                // Join before absorbing new_l: only strictly earlier
                // left matches may pair with this commit's right
                // matches.
                let mut out = BTreeSet::new();
                for b in &new_r {
                    for other in left.compatible(b) {
                        if let Some(m) = merge_bindings(b, other) {
                            out.insert(m);
                        }
                    }
                }
                for b in &new_l {
                    left.add(b);
                }
                out
            }
            Node::Without { l, r, blockers } => {
                let new_l = l.advance(events, steps);
                let new_r = r.advance(events, steps);
                // Blockers at the same version suppress, so absorb
                // them first.
                for b in &new_r {
                    blockers.add(b);
                }
                new_l
                    .into_iter()
                    .filter(|b| {
                        !blockers
                            .compatible(b)
                            .any(|other| merge_bindings(b, other).is_some())
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txlog_base::RelId;
    use txlog_relational::DbState;

    fn schema() -> Schema {
        Schema::new()
            .relation("EMP", &["name", "sal"])
            .unwrap()
            .relation("DEPT", &["name"])
            .unwrap()
    }

    fn emp(s: &Schema) -> RelId {
        s.rel_id("EMP").unwrap()
    }

    fn insert_delta(s: &Schema, state: &DbState, rel: &str, fields: &[Atom]) -> (DbState, Delta) {
        let rid = s.rel_id(rel).unwrap();
        let (next, _) = state.insert_fields(rid, fields).unwrap();
        (next.clone(), state.diff(&next))
    }

    fn delete_delta(s: &Schema, state: &DbState, rel: &str, fields: &[Atom]) -> (DbState, Delta) {
        let rid = s.rel_id(rel).unwrap();
        let next = state
            .delete(rid, &txlog_relational::TupleVal::anonymous(fields.to_vec()))
            .unwrap();
        (next.clone(), state.diff(&next))
    }

    fn b(pairs: &[(&str, Atom)]) -> Binding {
        pairs.iter().map(|(v, a)| (Symbol::new(v), *a)).collect()
    }

    #[test]
    fn compile_rejects_unknown_relations_and_bad_arity() {
        let s = schema();
        let p = Pattern::parse("insert(NOPE, X)").unwrap();
        assert!(matches!(
            Automaton::compile(&p, &s),
            Err(PatternError::UnknownRelation(_))
        ));
        let p = Pattern::parse("insert(EMP, X)").unwrap();
        assert!(matches!(
            Automaton::compile(&p, &s),
            Err(PatternError::Arity { .. })
        ));
    }

    #[test]
    fn seq_requires_strictly_later_right() {
        let s = schema();
        let p = Pattern::parse("seq(delete(EMP, N, _), insert(EMP, N, _))").unwrap();
        let mut a = Automaton::compile(&p, &s).unwrap();

        let st0 = s.initial_state();
        let (st1, d1) = insert_delta(&s, &st0, "EMP", &[Atom::str("ann"), Atom::nat(500)]);
        assert!(a.advance(&d1).matches.is_empty());

        // delete + reinsert in ONE commit: not a sequence.
        let st2 = {
            let rid = emp(&s);
            let next = st1
                .delete(
                    rid,
                    &txlog_relational::TupleVal::anonymous(vec![Atom::str("ann"), Atom::nat(500)]),
                )
                .unwrap();
            let (next, _) = next
                .insert_fields(rid, &[Atom::str("ann"), Atom::nat(600)])
                .unwrap();
            next
        };
        let d2 = st1.diff(&st2);
        assert!(a.advance(&d2).matches.is_empty());

        // delete then, a commit later, reinsert: a sequence.
        let (st3, d3) = delete_delta(&s, &st2, "EMP", &[Atom::str("ann"), Atom::nat(600)]);
        assert!(a.advance(&d3).matches.is_empty());
        let (_st4, d4) = insert_delta(&s, &st3, "EMP", &[Atom::str("ann"), Atom::nat(700)]);
        assert_eq!(a.advance(&d4).matches, vec![b(&[("N", Atom::str("ann"))])]);
    }

    #[test]
    fn and_matches_same_commit_and_either_order() {
        let s = schema();
        let p = Pattern::parse("and(insert(EMP, N, _), insert(DEPT, D))").unwrap();
        let mut a = Automaton::compile(&p, &s).unwrap();
        let st0 = s.initial_state();
        let (st1, d1) = insert_delta(&s, &st0, "DEPT", &[Atom::str("toys")]);
        assert!(a.advance(&d1).matches.is_empty());
        let (_st2, d2) = insert_delta(&s, &st1, "EMP", &[Atom::str("bob"), Atom::nat(1)]);
        assert_eq!(
            a.advance(&d2).matches,
            vec![b(&[("N", Atom::str("bob")), ("D", Atom::str("toys"))])]
        );
    }

    #[test]
    fn without_blocks_past_and_same_version_only() {
        let s = schema();
        // EMP insert with no DEPT insert of the same name at ≤ version.
        let p = Pattern::parse("without(insert(EMP, N, _), insert(DEPT, N))").unwrap();
        let mut a = Automaton::compile(&p, &s).unwrap();
        let st0 = s.initial_state();
        let (st1, d1) = insert_delta(&s, &st0, "DEPT", &[Atom::str("ann")]);
        assert!(a.advance(&d1).matches.is_empty());
        // blocked: DEPT 'ann' already happened
        let (st2, d2) = insert_delta(&s, &st1, "EMP", &[Atom::str("ann"), Atom::nat(1)]);
        assert!(a.advance(&d2).matches.is_empty());
        // unblocked: no DEPT 'bob' yet
        let (st3, d3) = insert_delta(&s, &st2, "EMP", &[Atom::str("bob"), Atom::nat(2)]);
        assert_eq!(a.advance(&d3).matches, vec![b(&[("N", Atom::str("bob"))])]);
        // later blocker does not retract, and a NEW 'bob' match is blocked
        let (st4, d4) = insert_delta(&s, &st3, "DEPT", &[Atom::str("bob")]);
        assert!(a.advance(&d4).matches.is_empty());
        let (st5, d5) = delete_delta(&s, &st4, "EMP", &[Atom::str("bob"), Atom::nat(2)]);
        assert!(a.advance(&d5).matches.is_empty());
        let (_st6, d6) = insert_delta(&s, &st5, "EMP", &[Atom::str("bob"), Atom::nat(3)]);
        assert!(a.advance(&d6).matches.is_empty());
    }

    #[test]
    fn self_join_within_one_primitive() {
        let s = schema();
        // name equals salary: the repeated variable must unify.
        let p = Pattern::parse("insert(EMP, X, X)").unwrap();
        let mut a = Automaton::compile(&p, &s).unwrap();
        let st0 = s.initial_state();
        let (st1, d1) = insert_delta(&s, &st0, "EMP", &[Atom::nat(7), Atom::nat(7)]);
        assert_eq!(a.advance(&d1).matches, vec![b(&[("X", Atom::nat(7))])]);
        let (_st2, d2) = insert_delta(&s, &st1, "EMP", &[Atom::nat(1), Atom::nat(2)]);
        assert!(a.advance(&d2).matches.is_empty());
    }

    #[test]
    fn steps_are_counted_per_node_visit() {
        let s = schema();
        let p = Pattern::parse("seq(insert(EMP, N, _), delete(EMP, N, _))").unwrap();
        let mut a = Automaton::compile(&p, &s).unwrap();
        let st0 = s.initial_state();
        let (_, d1) = insert_delta(&s, &st0, "EMP", &[Atom::str("x"), Atom::nat(1)]);
        // Seq node + two prim children = 3 visits.
        assert_eq!(a.advance(&d1).steps, 3);
    }
}
