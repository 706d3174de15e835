//! Integrity constraints: classification, checkability, enforcement.
//!
//! The paper's Section 3 trade-off — "between the expressiveness of the
//! semantic specification and the ability of the database system to
//! properly maintain the semantics" — made executable:
//!
//! * [`classify()`](classify()) sorts constraints into static / transaction / dynamic
//!   (Definition 4 plus the transaction subclass);
//! * [`checkability`] computes the history window a database system must
//!   maintain, combining syntax with declared domain facts ([`Hints`] —
//!   the paper's transitivity arguments);
//! * [`Checker`] is the one constraint checker: a formula with its
//!   window and read-set, deciding any window of states in its partial
//!   model. It enforces a constraint over a recorded [`History`] with
//!   bounded state retention ([`find_window_unsoundness`] refutes
//!   windows that are too small), validates commits for the concurrent
//!   session layer ([`txlog_engine::Database`]), and consults a
//!   [`VerifiedRegistry`] of proofs before building any model;
//! * [`read_set()`](read_set()) over-approximates the relations a
//!   constraint's verdict can depend on, and [`IncrementalChecker`]
//!   uses it (with delta-maintained content fingerprints) to reuse
//!   verdicts across steps that the constraint cannot observe;
//! * [`NeverReinsertEncoding`] implements Example 4's FIRE encoding,
//!   converting an uncheckable dynamic constraint into a static one by
//!   auditing deletions;
//! * [`ReactiveEncoding`] compiles the same history constraint to an
//!   event pattern whose matches the engine materializes automatically
//!   from the commit stream — no transaction rewriting.

#![warn(missing_docs)]

pub mod assisted;
pub mod classify;
pub mod commit;
pub mod complexity;
pub mod encoding;
pub mod incremental;
pub mod lower;
pub mod reactive;
pub mod readset;
pub mod window;

pub use assisted::{certify, Assisted, VerifiedRegistry};
pub use classify::{classify, state_shape, ConstraintClass, StateShape};
pub use complexity::{class_cmp, measure_with_class, profile, Complexity, Profile};
pub use encoding::NeverReinsertEncoding;
pub use incremental::counters;
pub use incremental::IncrementalChecker;
pub use reactive::ReactiveEncoding;
pub use readset::{read_set, ReadSet};
pub use window::{
    checkability, find_window_unsoundness, Checker, Hints, History, HistoryOutcome, Window,
};
