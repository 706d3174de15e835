//! Differential property tests for the event subsystem.
//!
//! The incremental [`Automaton`] is pinned against [`naive_matches`],
//! the executable specification that re-evaluates the whole pattern
//! over the full recorded history on every call. Histories are random
//! op soups over two relations with a tiny atom universe, so tuples
//! recur, patterns self-join, and operand matches overlap; patterns
//! are random trees over `seq`/`and`/`or`/`without` whose primitives
//! reuse a two-variable pool for the same reason.
//!
//! The kill-and-recover property runs the same differential through a
//! real [`Database`] with a WAL: commit a prefix, drop the database,
//! reopen from the logged bytes, commit the rest — the materialized
//! history relation must equal the naive oracle's projection over the
//! *entire* history, exactly as if the crash never happened.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use txlog::events::{naive_matches, Automaton, EventKind, PTerm, Pattern, Prim};
use txlog::prelude::*;
use txlog::relational::TupleVal;

fn base_schema() -> Schema {
    Schema::new()
        .relation("R", &["r-a", "r-b"])
        .expect("R declares")
        .relation("S", &["s-a"])
        .expect("S declares")
}

/// The four-atom universe. Small on purpose: collisions are where the
/// join, dedup, and negation logic can go wrong.
fn atom(i: u8) -> Atom {
    match i % 4 {
        0 => Atom::str("a"),
        1 => Atom::str("b"),
        2 => Atom::nat(1),
        _ => Atom::nat(2),
    }
}

#[derive(Clone, Debug)]
struct Op {
    insert: bool,
    on_r: bool,
    fields: Vec<u8>,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..2, 0u8..2, prop::collection::vec(0u8..4, 2)).prop_map(|(insert, on_r, fields)| Op {
        insert: insert == 1,
        on_r: on_r == 1,
        fields,
    })
}

fn history_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec(op_strategy(), 1..4), 1..10)
}

/// Replay generated ops the way committed transactions would land:
/// one whole-commit delta per op group. No-op inserts (already
/// present) and no-op deletes (absent) are skipped, keeping the
/// replay total; the applied ops are also returned as transaction
/// source text so the engine-backed property can commit the *same*
/// history.
fn build_history(schema: &Schema, commits: &[Vec<Op>]) -> (Vec<(u64, Delta)>, Vec<String>) {
    let r = schema.rel_id("R").expect("R resolves");
    let s = schema.rel_id("S").expect("S resolves");
    let mut state = schema.initial_state();
    let mut history = Vec::new();
    let mut programs = Vec::new();
    for ops in commits {
        let before = state.clone();
        let mut stmts = Vec::new();
        for op in ops {
            let (rid, rel, arity) = if op.on_r { (r, "R", 2) } else { (s, "S", 1) };
            let fields: Vec<Atom> = op.fields[..arity].iter().map(|&i| atom(i)).collect();
            let present = state
                .relation(rid)
                .expect("relation exists")
                .contains_fields(&fields);
            let tuple = fields
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            if op.insert && !present {
                let (next, _) = state.insert_fields(rid, &fields).expect("insert applies");
                state = next;
                stmts.push(format!("insert(tuple({tuple}), {rel})"));
            } else if !op.insert && present {
                state = state
                    .delete(rid, &TupleVal::anonymous(fields))
                    .expect("delete applies");
                stmts.push(format!("delete(tuple({tuple}), {rel})"));
            }
        }
        if stmts.is_empty() {
            continue;
        }
        history.push((history.len() as u64 + 1, before.diff(&state)));
        programs.push(stmts.join(" ;; "));
    }
    (history, programs)
}

/// Primitive patterns draw from a two-variable pool, so generated
/// trees routinely self-join (the same variable on both operands) and
/// constrain fields with constants from the same universe the
/// histories use.
fn prim_strategy() -> impl Strategy<Value = Pattern> {
    (0u8..2, 0u8..2, prop::collection::vec(0u8..8, 2)).prop_map(|(ins, on_r, terms)| {
        let (ins, on_r) = (ins == 1, on_r == 1);
        let (rel, arity) = if on_r { ("R", 2) } else { ("S", 1) };
        let terms = terms[..arity]
            .iter()
            .map(|&t| match t {
                0 => PTerm::Var(Symbol::new("X")),
                1 => PTerm::Var(Symbol::new("Y")),
                2 | 3 => PTerm::Wildcard,
                other => PTerm::Const(atom(other)),
            })
            .collect();
        Pattern::Prim(Prim {
            kind: if ins {
                EventKind::Insert
            } else {
                EventKind::Delete
            },
            rel: Symbol::new(rel),
            terms,
        })
    })
}

fn pattern_strategy() -> impl Strategy<Value = Pattern> {
    prim_strategy().prop_recursive(3, 16, 2, |inner| {
        (0u8..4, inner.clone(), inner).prop_map(|(which, l, r)| {
            let (l, r) = (Box::new(l), Box::new(r));
            match which {
                0 => Pattern::Seq(l, r),
                1 => Pattern::And(l, r),
                2 => Pattern::Or(l, r),
                _ => Pattern::Without(l, r),
            }
        })
    })
}

/// The materialized patterns the recovery property cycles through —
/// each exercises a different operator, and each one's columns are
/// certainly bound.
fn materialized_defs() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        ("delete(R, X, _)", vec!["X"]),
        ("seq(insert(R, X, Y), delete(R, X, _))", vec!["X", "Y"]),
        ("and(insert(R, X, _), insert(S, X))", vec!["X"]),
        ("without(insert(S, X), insert(R, X, _))", vec!["X"]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Feeding commits one delta at a time through the automaton
    /// yields exactly the match set a full-history re-evaluation
    /// computes — same versions, same bindings, nothing extra,
    /// nothing lost. Before each advance the automaton also takes a
    /// `step` on a delta from an unrelated history and drops it, as
    /// the commit pipeline does with a refused candidate: a step that
    /// is not absorbed must change nothing.
    #[test]
    fn automaton_agrees_with_full_history_reevaluation(
        commits in history_strategy(),
        refused in history_strategy(),
        pattern in pattern_strategy(),
    ) {
        let schema = base_schema();
        let (history, _) = build_history(&schema, &commits);
        let (refused, _) = build_history(&schema, &refused);
        let naive = naive_matches(&pattern, &schema, &history)
            .expect("generated patterns are well-formed");
        let mut automaton =
            Automaton::compile(&pattern, &schema).expect("generated patterns compile");
        let mut incremental = BTreeSet::new();
        for (i, (v, delta)) in history.iter().enumerate() {
            if let Some((_, other)) = refused.get(i % refused.len().max(1)) {
                drop(automaton.step(other));
            }
            for m in automaton.advance(delta).matches {
                incremental.insert((*v, m));
            }
        }
        prop_assert_eq!(incremental, naive);
    }

    /// Every generated pattern's display form parses back to the same
    /// tree — the wire protocol ships patterns as text, so this is
    /// the subscription round-trip in miniature.
    #[test]
    fn pattern_text_round_trips(pattern in pattern_strategy()) {
        let text = pattern.to_string();
        let back = Pattern::parse(&text).expect("display output parses");
        prop_assert_eq!(back, pattern);
    }

    /// Kill-and-recover differential: commit a random prefix, drop
    /// the database mid-history, reopen from the WAL bytes, commit
    /// the rest. The auto-maintained history relation must equal the
    /// naive oracle's projection over the whole history — each row is
    /// logged in the record of the commit that matched it, and
    /// recovery rebuilds the automaton state from the replayed
    /// suffix.
    #[test]
    fn materialized_history_survives_kill_and_recover(
        commits in history_strategy(),
        cut in 0usize..16,
        which in 0usize..4,
    ) {
        let schema = base_schema();
        let (history, programs) = build_history(&schema, &commits);
        let defs = materialized_defs();
        let (text, cols) = &defs[which % defs.len()];
        let pattern = Pattern::parse(text).expect("fixed patterns parse");
        let def = || {
            PatternDef::materialized("m", pattern.clone(), "HIST", cols)
        };
        let durability = || Durability::Wal {
            sync_every: 1,
            // no checkpoint mid-run: recovery must replay every delta
            checkpoint_every: 1 << 20,
        };
        let ctx = ParseCtx::with_relations(&["R", "S"]);
        let commit_all = |db: &Database, programs: &[String]| {
            let mut s = db.session();
            for (i, p) in programs.iter().enumerate() {
                let t = parse_fterm(p, &ctx, &[]).expect("generated programs parse");
                s.refresh();
                s.commit(&format!("c{i}"), &t, &Env::new())
                    .expect("sequential commits install");
            }
        };

        let cut = cut % (programs.len() + 1);
        let store = MemStore::new();
        {
            let (db, _) = Database::builder(schema.clone())
                .event_pattern(def())
                .expect("pattern registers")
                .durability(durability())
                .open_store(Box::new(store.clone()))
                .expect("store opens");
            commit_all(&db, &programs[..cut]);
            // the database drops here: an abrupt end of process as far
            // as the log is concerned
        }
        let (db, report) = Database::builder(schema.clone())
            .event_pattern(def())
            .expect("pattern re-registers")
            .durability(durability())
            .open_store(Box::new(MemStore::from_bytes(store.contents())))
            .expect("recovery succeeds");
        prop_assert!(report.fresh == (cut == 0) || !report.fresh);
        commit_all(&db, &programs[cut..]);

        let naive = naive_matches(&pattern, &schema, &history)
            .expect("the oracle evaluates");
        let expected: BTreeSet<Vec<Atom>> = naive
            .iter()
            .map(|(_, b)| {
                cols.iter()
                    .map(|c| {
                        b.get(&Symbol::new(c))
                            .copied()
                            .expect("materialized columns are certainly bound")
                    })
                    .collect()
            })
            .collect();
        let hist = db.schema().rel_id("HIST").expect("HIST resolves");
        let got: BTreeSet<Vec<Atom>> = db
            .snapshot()
            .relation(hist)
            .expect("HIST exists")
            .iter()
            .map(|t| t.fields().to_vec())
            .collect();
        prop_assert_eq!(got, expected);
    }
}

/// How [`dispatch_work`] registers its one pattern.
#[derive(Clone, Copy, Debug)]
enum Registration {
    /// A live subscription, advanced after each commit.
    Subscribed,
    /// A build-time materialized pattern, stepped under the head lock
    /// inside each commit.
    Materialized,
}

/// Run `depth` burn-in commits, then a window of `window` commits,
/// against a fresh database whose only registration is
/// `seq(insert(R, X, Y), delete(R, X, _))`, registered as `kind`.
/// Returns the window's `(evt_steps, matches, delivered)`: `matches` is
/// what the automaton computed (`evt_matches`), `delivered` what reached
/// the subscriber's callback or became `HIST` rows.
///
/// Commit `i` inserts a unique tuple; every fourth commit also deletes
/// the tuple from two commits back (the deleted residues are 1 mod 4,
/// so nothing is deleted twice). The pattern therefore completes once
/// per fourth commit while its left-hand table grows without bound.
fn dispatch_work(kind: Registration, depth: u64, window: u64) -> (u64, u64, u64) {
    let metrics = Metrics::enabled();
    let pattern = Pattern::parse("seq(insert(R, X, Y), delete(R, X, _))").expect("pattern parses");
    let builder = Database::builder(base_schema()).metrics(metrics.clone());
    let db = match kind {
        Registration::Subscribed => builder,
        Registration::Materialized => builder
            .event_pattern(PatternDef::materialized(
                "depth",
                pattern.clone(),
                "HIST",
                &["X"],
            ))
            .expect("pattern registers"),
    }
    .build()
    .expect("database builds");
    let notified = Arc::new(AtomicU64::new(0));
    if let Registration::Subscribed = kind {
        let sink = Arc::clone(&notified);
        db.subscribe_pattern(
            "depth",
            &pattern,
            Arc::new(move |_| {
                sink.fetch_add(1, Ordering::Relaxed);
            }),
        )
        .expect("subscription registers");
    }
    let delivered = || match kind {
        Registration::Subscribed => notified.load(Ordering::Relaxed),
        Registration::Materialized => {
            let hist = db.schema().rel_id("HIST").expect("HIST resolves");
            db.snapshot().relation(hist).map_or(0, |r| r.len() as u64)
        }
    };

    let ctx = ParseCtx::with_relations(&["R", "S"]);
    let env = Env::new();
    let mut session = db.session();
    let mut commit = |i: u64| {
        let program = if i % 4 == 3 {
            let j = i - 2;
            format!("delete(tuple('k-{j}', {j}), R) ;; insert(tuple('k-{i}', {i}), R)")
        } else {
            format!("insert(tuple('k-{i}', {i}), R)")
        };
        let t = parse_fterm(&program, &ctx, &[]).expect("program parses");
        session.refresh();
        session
            .commit(&format!("c{i}"), &t, &env)
            .expect("commit lands");
    };
    for i in 0..depth {
        commit(i);
    }
    let (steps0, matches0, delivered0) = (
        metrics.get(Counter::EvtSteps),
        metrics.get(Counter::EvtMatches),
        delivered(),
    );
    for i in depth..depth + window {
        commit(i);
    }
    (
        metrics.get(Counter::EvtSteps) - steps0,
        metrics.get(Counter::EvtMatches) - matches0,
        delivered() - delivered0,
    )
}

/// The automaton advances by commit deltas, joining through tables
/// keyed on the operands' shared variables, so its work per commit is
/// O(delta), not O(history): a 256-commit window costs exactly the
/// same `evt_steps` at history depth 0 and after 4096 commits have
/// grown the partial-match table. For a materialized pattern that work
/// runs under the head lock, so this also pins the lock's share.
#[test]
fn automaton_work_per_commit_is_independent_of_history_depth() {
    const WINDOW: u64 = 256;
    const DEEP: u64 = 4096;
    for kind in [Registration::Subscribed, Registration::Materialized] {
        let (steps_shallow, matches_shallow, delivered_shallow) = dispatch_work(kind, 0, WINDOW);
        let (steps_deep, matches_deep, delivered_deep) = dispatch_work(kind, DEEP, WINDOW);
        assert_eq!(
            (matches_shallow, delivered_shallow),
            (WINDOW / 4, WINDOW / 4),
            "{kind:?}: every fourth commit matches, and each match is delivered"
        );
        assert_eq!(
            (matches_deep, delivered_deep),
            (WINDOW / 4, WINDOW / 4),
            "{kind:?}: depth does not change matching or delivery"
        );
        assert_eq!(
            steps_shallow, steps_deep,
            "{kind:?}: per-commit automaton work must not depend on history depth"
        );
    }
}
