//! Complex-event patterns over the commit stream.
//!
//! The paper's checkability analysis (Section on dynamic constraints)
//! shows that properties over unbounded histories are only enforceable
//! by *history encoding*: auxiliary relations like `FIRE` that every
//! transaction must remember to maintain. This crate automates that
//! encoding. A [`Pattern`] names the primitive change events it cares
//! about — `insert(REL, …)` / `delete(REL, …)` with variable bindings —
//! and composes them with four operators:
//!
//! * `seq(a, b)` — `a` at some commit, `b` at a *strictly later* one;
//! * `and(a, b)` — both occurred (any order, same commit allowed);
//! * `or(a, b)`  — either occurred;
//! * `without(a, b)` — `a` occurred with no compatible `b` at the same
//!   or any earlier commit (negation bounded to the past, so it is
//!   incrementally decidable and a match is never retracted).
//!
//! [`Automaton::compile`] turns a pattern into an incremental
//! automaton: one [`Automaton::advance`] per committed [`Delta`], cost
//! proportional to the delta (joins are indexed on the operands'
//! shared variables), not to the length of the history. A match is a
//! `(version, binding)` pair; the binding maps the pattern's variables
//! to atoms. [`naive_matches`] is the executable specification — a
//! full-history re-evaluation with identical semantics — kept here so
//! differential tests can pin the automaton against it.
//!
//! [`Delta`]: txlog_relational::Delta

#![warn(missing_docs)]

pub mod automaton;
pub mod event;
pub mod naive;
pub mod pattern;

pub use automaton::{Automaton, Fired, Step};
pub use event::{events_of_delta, merge_bindings, Binding, Event};
pub use naive::naive_matches;
pub use pattern::{EventKind, Materialize, PTerm, Pattern, PatternDef, PatternError, Prim};
