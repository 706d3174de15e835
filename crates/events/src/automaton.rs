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
//! * `Without` filters the new left matches against the blocker table
//!   *and* this commit's new blockers — a blocker at the same version
//!   suppresses, a later blocker never retracts.
//!
//! An advance is [`Automaton::step`], which reads the automaton only,
//! then [`Automaton::absorb`], which adds the step's table entries. The
//! commit pipeline steps a candidate's delta before validating it and
//! absorbs only what installs.

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

/// One advance computed but not taken: what the delta fires, plus the
/// binding-table entries absorbing it adds. Produced by
/// [`Automaton::step`] without touching the automaton, so dropping it
/// leaves the automaton exactly as it was.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Step {
    /// The matches and node visits of the advance.
    pub fired: Fired,
    /// New entries, by index into the automaton's tables.
    adds: Vec<(usize, Binding)>,
}

/// A compiled, stateful pattern evaluator: the node tree, and the
/// binding tables of its `seq`, `and` and `without` nodes, which the
/// nodes name by index.
#[derive(Clone, Debug)]
pub struct Automaton {
    root: Node,
    tables: Vec<Table>,
}

impl Automaton {
    /// Compile a pattern against a schema: relation names resolve to
    /// ids, term counts are checked against arities, and every binary
    /// node precomputes its operands' shared variables as the join
    /// key.
    pub fn compile(pattern: &Pattern, schema: &Schema) -> Result<Automaton, PatternError> {
        let mut tables = Vec::new();
        let root = compile_node(pattern, schema, &mut tables)?;
        Ok(Automaton { root, tables })
    }

    /// Feed one committed delta; returns the pattern's new matches.
    /// Deltas must arrive in commit order (the caller holds the
    /// version ordering). [`step`](Automaton::step) then
    /// [`absorb`](Automaton::absorb).
    pub fn advance(&mut self, delta: &Delta) -> Fired {
        let step = self.step(delta);
        self.absorb(step)
    }

    /// The advance `delta` would make, computed without changing the
    /// automaton: the next delta in commit order, whether or not it
    /// ends up committed.
    pub fn step(&self, delta: &Delta) -> Step {
        let events = events_of_delta(delta);
        let mut steps = 0;
        let mut adds = Vec::new();
        let new = self.root.step(&self.tables, &events, &mut steps, &mut adds);
        Step {
            fired: Fired {
                matches: new.into_iter().collect(),
                steps,
            },
            adds,
        }
    }

    /// Take a step computed by [`step`](Automaton::step) on this
    /// automaton with nothing absorbed since: its delta is now part of
    /// the history. Returns what the step fired.
    pub fn absorb(&mut self, step: Step) -> Fired {
        for (table, b) in step.adds {
            self.tables[table].add(b);
        }
        step.fired
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

    fn add(&mut self, b: Binding) {
        if self.seen.insert(b.clone()) {
            self.by_key.entry(self.project(&b)).or_default().push(b);
        }
    }

    /// Matches compatible with `b` under the join key. With an empty
    /// key this is the whole table (a cross join); `merge_bindings`
    /// still rejects clashes on shared variables outside the key
    /// (ones an `Or` branch binds only sometimes).
    fn compatible<'a>(&'a self, b: &Binding) -> impl Iterator<Item = &'a Binding> + 'a {
        self.by_key.get(&self.project(b)).into_iter().flatten()
    }

    /// `b` merged with each compatible match.
    fn join<'a>(&'a self, b: &'a Binding) -> impl Iterator<Item = Binding> + 'a {
        self.compatible(b)
            .filter_map(move |other| merge_bindings(b, other))
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
        left: usize,
        right: usize,
    },
    Seq {
        l: Box<Node>,
        r: Box<Node>,
        left: usize,
    },
    Without {
        l: Box<Node>,
        r: Box<Node>,
        blockers: usize,
    },
}

fn shared_vars(a: &Pattern, b: &Pattern) -> Vec<Symbol> {
    let va = a.certain_vars();
    let vb = b.certain_vars();
    let mut shared: Vec<Symbol> = va.intersection(&vb).copied().collect();
    shared.sort_unstable();
    shared
}

/// A new empty table joining on `key`, by index.
fn table(tables: &mut Vec<Table>, key: Vec<Symbol>) -> usize {
    tables.push(Table::new(key));
    tables.len() - 1
}

fn compile_node(
    pattern: &Pattern,
    schema: &Schema,
    tables: &mut Vec<Table>,
) -> Result<Node, PatternError> {
    let mut node = |p: &Pattern| compile_node(p, schema, tables).map(Box::new);
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
            l: node(a)?,
            r: node(b)?,
        },
        Pattern::And(a, b) => {
            let (l, r, key) = (node(a)?, node(b)?, shared_vars(a, b));
            let (left, right) = (table(tables, key.clone()), table(tables, key));
            Node::And { l, r, left, right }
        }
        Pattern::Seq(a, b) => {
            let (l, r) = (node(a)?, node(b)?);
            let left = table(tables, shared_vars(a, b));
            Node::Seq { l, r, left }
        }
        Pattern::Without(a, b) => {
            let (l, r) = (node(a)?, node(b)?);
            let blockers = table(tables, shared_vars(a, b));
            Node::Without { l, r, blockers }
        }
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
    /// New matches this commit, deduplicated, with the entries this
    /// commit adds to the tables pushed onto `adds`. The `BTreeSet`
    /// return keeps downstream joins and the dispatch order
    /// deterministic.
    fn step(
        &self,
        tables: &[Table],
        events: &[Event],
        steps: &mut u64,
        adds: &mut Vec<(usize, Binding)>,
    ) -> BTreeSet<Binding> {
        *steps += 1;
        let mut operands = |l: &Node, r: &Node| {
            let new_l = l.step(tables, events, steps, adds);
            (new_l, r.step(tables, events, steps, adds))
        };
        match self {
            Node::Prim { kind, rel, terms } => events
                .iter()
                .filter(|e| e.kind == *kind && e.rel == *rel && e.fields.len() == terms.len())
                .filter_map(|e| unify(terms, e))
                .collect(),
            Node::Or { l, r } => {
                let (mut out, new_r) = operands(l, r);
                out.extend(new_r);
                out
            }
            Node::And { l, r, left, right } => {
                let (new_l, new_r) = operands(l, r);
                let (left_t, right_t) = (&tables[*left], &tables[*right]);
                let mut out: BTreeSet<Binding> =
                    new_l.iter().flat_map(|b| right_t.join(b)).collect();
                out.extend(new_r.iter().flat_map(|b| left_t.join(b)));
                out.extend(
                    new_l
                        .iter()
                        .flat_map(|a| new_r.iter().filter_map(move |b| merge_bindings(a, b))),
                );
                adds.extend(new_l.into_iter().map(|b| (*left, b)));
                adds.extend(new_r.into_iter().map(|b| (*right, b)));
                out
            }
            Node::Seq { l, r, left } => {
                let (new_l, new_r) = operands(l, r);
                // Join against the table as it stands: only strictly
                // earlier left matches may pair with this commit's right
                // matches.
                let out = new_r.iter().flat_map(|b| tables[*left].join(b)).collect();
                adds.extend(new_l.into_iter().map(|b| (*left, b)));
                out
            }
            Node::Without { l, r, blockers } => {
                let (new_l, new_r) = operands(l, r);
                // Blockers at the same version suppress too: key them
                // like the table so each left match probes both once.
                let table = &tables[*blockers];
                let mut now = Table::new(table.key.clone());
                new_r.iter().for_each(|b| now.add(b.clone()));
                let out = new_l
                    .into_iter()
                    .filter(|b| {
                        !table
                            .compatible(b)
                            .chain(now.compatible(b))
                            .any(|other| merge_bindings(b, other).is_some())
                    })
                    .collect();
                adds.extend(new_r.into_iter().map(|b| (*blockers, b)));
                out
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
