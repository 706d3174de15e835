//! Transaction deltas: first-class differences between database states.
//!
//! The paper's evolution graph relates states by transaction arcs; a
//! [`Delta`] is the *extensional content* of one such arc — exactly which
//! tuples the transaction inserted, deleted, or modified in which
//! relations. Deltas support the same algebra as transactions themselves:
//! the null transaction `Λ` is [`Delta::empty`], and sequential
//! composition `;;` is [`Delta::compose`], with the evident cancellation
//! laws (inserting then deleting a tuple composes to no change, two
//! modifications fuse, a modification followed by deletion deletes the
//! *original* value).
//!
//! Two ways to obtain a delta:
//!
//! * **Accumulation** — the `*_traced` primitives on [`DbState`] return,
//!   alongside the successor state, the delta of that single step. Each
//!   is O(change), not O(state): the primitive already knows precisely
//!   which tuple it touched (`assign` is O(|old| + |new|) — proportional
//!   to the relation it replaces, which is the work `assign` itself does).
//! * **Differencing** — [`DbState::diff`] compares two arbitrary states
//!   structurally. `Arc`-shared relations are skipped by pointer equality,
//!   so diffing a state against a near-identical successor is O(changed
//!   relations), not O(database).
//!
//! The two agree: for any coherent execution `a → b → c`,
//! `diff(a,b).compose(diff(b,c)) == diff(a,c)`, and the delta accumulated
//! by a traced step equals the diff of its endpoint states. The
//! incremental constraint checker builds on exactly this agreement.

use crate::relation::Relation;
use crate::schema::Schema;
use crate::state::DbState;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use txlog_base::{Atom, RelId, Symbol, TupleId, TxResult};

/// An old/new pair of field vectors for one modified tuple.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TupleChange {
    /// Field values before the change.
    pub old: Arc<[Atom]>,
    /// Field values after the change.
    pub new: Arc<[Atom]>,
}

/// The changes one transaction made to one relation.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct RelDelta {
    /// Arity of the relation *after* the change.
    pub arity: usize,
    /// The relation did not exist before and does after.
    pub created: bool,
    /// The relation existed before and does not after (or was replaced
    /// wholesale at a different arity, in which case `created` is also
    /// set). No state-changing primitive drops a relation, but
    /// [`DbState::diff`] between arbitrary states can observe one.
    pub dropped: bool,
    /// Tuples present after but not before, by identity.
    pub inserted: BTreeMap<TupleId, Arc<[Atom]>>,
    /// Tuples present before but not after, by identity, with their
    /// final pre-deletion values.
    pub deleted: BTreeMap<TupleId, Arc<[Atom]>>,
    /// Tuples present on both sides whose fields changed.
    pub modified: BTreeMap<TupleId, TupleChange>,
}

impl RelDelta {
    fn with_arity(arity: usize) -> RelDelta {
        RelDelta {
            arity,
            ..RelDelta::default()
        }
    }

    /// True iff this records no change at all.
    pub fn is_empty(&self) -> bool {
        !self.created
            && !self.dropped
            && self.inserted.is_empty()
            && self.deleted.is_empty()
            && self.modified.is_empty()
    }

    /// Number of tuple-level changes recorded.
    pub fn tuple_changes(&self) -> usize {
        self.inserted.len() + self.deleted.len() + self.modified.len()
    }
}

/// Per-tuple net effect, the unit the composition algebra acts on.
#[derive(Clone, PartialEq, Eq)]
enum Effect {
    Ins(Arc<[Atom]>),
    Del(Arc<[Atom]>),
    Mod(Arc<[Atom]>, Arc<[Atom]>),
}

/// Sequential composition of per-tuple effects. Exact for coherent
/// sequences (where the second effect's precondition matches the first's
/// result); for incoherent inputs the later effect's values win.
fn compose_effects(first: Option<Effect>, second: Option<Effect>) -> Option<Effect> {
    use Effect::*;
    match (first, second) {
        (first, None) => first,
        (None, second) => second,
        (Some(a), Some(b)) => match (a, b) {
            // tuple was absent before the first step
            (Ins(_), Ins(n)) => Some(Ins(n)),
            (Ins(_), Del(_)) => None, // insert-then-delete cancels
            (Ins(_), Mod(_, n)) => Some(Ins(n)),
            // tuple was present with value o before the first step
            (Del(o), Ins(n)) => {
                if o == n {
                    None // delete-then-reinsert the same value cancels
                } else {
                    Some(Mod(o, n))
                }
            }
            (Del(o), Del(_)) => Some(Del(o)),
            (Del(o), Mod(_, n)) => Some(Mod(o, n)),
            (Mod(o, _), Ins(n)) | (Mod(o, _), Mod(_, n)) => {
                if o == n {
                    None // modifications that restore the original cancel
                } else {
                    Some(Mod(o, n))
                }
            }
            (Mod(o, _), Del(_)) => Some(Del(o)),
        },
    }
}

fn effects_of(rd: &RelDelta) -> BTreeMap<TupleId, Effect> {
    let mut m = BTreeMap::new();
    for (&id, f) in &rd.inserted {
        m.insert(id, Effect::Ins(Arc::clone(f)));
    }
    for (&id, f) in &rd.deleted {
        m.insert(id, Effect::Del(Arc::clone(f)));
    }
    for (&id, c) in &rd.modified {
        m.insert(id, Effect::Mod(Arc::clone(&c.old), Arc::clone(&c.new)));
    }
    m
}

fn rel_delta_from_effects(
    arity: usize,
    created: bool,
    dropped: bool,
    effects: BTreeMap<TupleId, Effect>,
) -> RelDelta {
    let mut rd = RelDelta {
        arity,
        created,
        dropped,
        ..RelDelta::default()
    };
    for (id, e) in effects {
        match e {
            Effect::Ins(f) => {
                rd.inserted.insert(id, f);
            }
            Effect::Del(f) => {
                rd.deleted.insert(id, f);
            }
            Effect::Mod(o, n) => {
                rd.modified.insert(id, TupleChange { old: o, new: n });
            }
        }
    }
    rd
}

/// Map the deleted-set of a wholesale drop back through an earlier delta:
/// tuples the first delta inserted were never in the base state; tuples it
/// modified were there with their *old* values; its own deletions were
/// already gone from the intermediate state and so join the drop's
/// casualties relative to the base.
fn backmap_drop(
    first: &RelDelta,
    drop_deleted: &BTreeMap<TupleId, Arc<[Atom]>>,
) -> BTreeMap<TupleId, Arc<[Atom]>> {
    let mut out = BTreeMap::new();
    for (&id, f) in drop_deleted {
        if first.inserted.contains_key(&id) {
            continue;
        }
        match first.modified.get(&id) {
            Some(c) => out.insert(id, Arc::clone(&c.old)),
            None => out.insert(id, Arc::clone(f)),
        };
    }
    for (&id, f) in &first.deleted {
        out.insert(id, Arc::clone(f));
    }
    out
}

fn compose_rel(first: &RelDelta, second: &RelDelta) -> Option<RelDelta> {
    // Wholesale replacement at a (possibly) different arity.
    if second.dropped && second.created {
        if first.created {
            // never existed in the base: net effect is a plain creation
            let mut rd = RelDelta::with_arity(second.arity);
            rd.created = true;
            rd.inserted = second.inserted.clone();
            return Some(rd);
        }
        let mut rd = RelDelta::with_arity(second.arity);
        rd.dropped = true;
        rd.created = true;
        rd.deleted = backmap_drop(first, &second.deleted);
        rd.inserted = second.inserted.clone();
        return Some(rd);
    }
    if second.dropped {
        if first.created {
            return None; // created then dropped: never visible
        }
        let mut rd = RelDelta::with_arity(first.arity);
        rd.dropped = true;
        rd.deleted = backmap_drop(first, &second.deleted);
        return Some(rd);
    }
    if second.created && first.dropped {
        // dropped then re-created: a content change (flags survive only
        // when the arity actually changed)
        let mut effects = effects_of(&RelDelta {
            deleted: first.deleted.clone(),
            ..RelDelta::with_arity(first.arity)
        });
        for (id, e) in effects_of(&RelDelta {
            inserted: second.inserted.clone(),
            ..RelDelta::with_arity(second.arity)
        }) {
            let prev = effects.remove(&id);
            if let Some(net) = compose_effects(prev, Some(e)) {
                effects.insert(id, net);
            }
        }
        let arity_changed = first.arity != second.arity;
        let rd = rel_delta_from_effects(second.arity, arity_changed, arity_changed, effects);
        return if rd.is_empty() { None } else { Some(rd) };
    }
    // Plain tuple-level merge.
    let mut effects = effects_of(first);
    for (id, e) in effects_of(second) {
        let prev = effects.remove(&id);
        if let Some(net) = compose_effects(prev, Some(e)) {
            effects.insert(id, net);
        }
    }
    let rd = rel_delta_from_effects(second.arity, first.created, first.dropped, effects);
    if rd.is_empty() {
        None
    } else {
        Some(rd)
    }
}

/// The extensional difference between two database states: per relation,
/// which tuples appeared, disappeared, or changed value.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Delta {
    rels: BTreeMap<RelId, RelDelta>,
}

impl Delta {
    /// The delta of the null transaction `Λ`: no change.
    pub fn empty() -> Delta {
        Delta::default()
    }

    /// True iff this delta records no change (the `Λ` delta).
    pub fn is_empty(&self) -> bool {
        self.rels.values().all(RelDelta::is_empty)
    }

    /// The change record for one relation, if it was touched.
    pub fn rel(&self, id: RelId) -> Option<&RelDelta> {
        self.rels.get(&id).filter(|rd| !rd.is_empty())
    }

    /// True iff the delta touches relation `id`.
    pub fn touches(&self, id: RelId) -> bool {
        self.rel(id).is_some()
    }

    /// Iterate `(relation, changes)` pairs in deterministic order,
    /// skipping empty records.
    pub fn rels(&self) -> impl Iterator<Item = (RelId, &RelDelta)> {
        self.rels
            .iter()
            .filter(|(_, rd)| !rd.is_empty())
            .map(|(&id, rd)| (id, rd))
    }

    /// Identities of all touched relations, in deterministic order.
    pub fn touched(&self) -> impl Iterator<Item = RelId> + '_ {
        self.rels().map(|(id, _)| id)
    }

    /// Whether this delta touches any of the named relations; `None`
    /// names every relation, so it overlaps any non-empty delta.
    /// Relations the schema does not know are treated as overlapping.
    pub fn overlaps(&self, schema: &Schema, rels: Option<&BTreeSet<Symbol>>) -> bool {
        match rels {
            None => !self.is_empty(),
            Some(rels) => self
                .touched()
                .any(|rid| schema.by_id(rid).map_or(true, |d| rels.contains(&d.name))),
        }
    }

    /// Total number of tuple-level changes across all relations.
    pub fn tuple_changes(&self) -> usize {
        self.rels.values().map(RelDelta::tuple_changes).sum()
    }

    pub(crate) fn insert_rel(&mut self, id: RelId, rd: RelDelta) {
        if !rd.is_empty() {
            self.rels.insert(id, rd);
        }
    }

    /// A delta recording a single tuple insertion.
    pub fn of_insert(rel: RelId, arity: usize, id: TupleId, fields: Arc<[Atom]>) -> Delta {
        let mut rd = RelDelta::with_arity(arity);
        rd.inserted.insert(id, fields);
        let mut d = Delta::empty();
        d.insert_rel(rel, rd);
        d
    }

    /// A delta recording a single tuple deletion.
    pub fn of_delete(rel: RelId, arity: usize, id: TupleId, fields: Arc<[Atom]>) -> Delta {
        let mut rd = RelDelta::with_arity(arity);
        rd.deleted.insert(id, fields);
        let mut d = Delta::empty();
        d.insert_rel(rel, rd);
        d
    }

    /// A delta recording a single tuple modification. Returns the empty
    /// delta when old and new values coincide.
    pub fn of_modify(
        rel: RelId,
        arity: usize,
        id: TupleId,
        old: Arc<[Atom]>,
        new: Arc<[Atom]>,
    ) -> Delta {
        if old == new {
            return Delta::empty();
        }
        let mut rd = RelDelta::with_arity(arity);
        rd.modified.insert(id, TupleChange { old, new });
        let mut d = Delta::empty();
        d.insert_rel(rel, rd);
        d
    }

    /// Sequential composition: the delta of running `self`'s transaction
    /// and then `later`'s. Mirrors the paper's `;;` on arcs:
    /// [`Delta::empty`] is a two-sided identity, and composition is
    /// associative on coherent deltas (those arising from an actual
    /// execution sequence, where each delta's preconditions match its
    /// predecessor's result). Cancellation is built in — see module docs.
    pub fn compose(&self, later: &Delta) -> Delta {
        let mut out = Delta {
            rels: self
                .rels
                .iter()
                .filter(|(_, rd)| !rd.is_empty())
                .map(|(&id, rd)| (id, rd.clone()))
                .collect(),
        };
        for (&id, rd2) in later.rels.iter().filter(|(_, rd)| !rd.is_empty()) {
            match out.rels.remove(&id) {
                None => {
                    out.rels.insert(id, rd2.clone());
                }
                Some(rd1) => {
                    if let Some(net) = compose_rel(&rd1, rd2) {
                        out.rels.insert(id, net);
                    }
                }
            }
        }
        out
    }

    /// Apply this delta to a state: the regression contract is
    /// `a.diff(&b).apply(&a)` is content-equal to `b`. Errors if the
    /// delta's preconditions do not hold in `base` (a touched relation is
    /// missing, or arities mismatch).
    pub fn apply(&self, base: &DbState) -> TxResult<DbState> {
        let mut next = base.clone();
        for (&rid, rd) in self.rels.iter().filter(|(_, rd)| !rd.is_empty()) {
            if rd.dropped {
                next.rels.remove(&rid);
                if !rd.created {
                    // the removal subsumes the recorded deletions
                    continue;
                }
            }
            if rd.created {
                next.rels
                    .insert(rid, Arc::new(Relation::empty(rid, rd.arity)));
            }
            if rd.tuple_changes() > 0 {
                let mut max_inserted = None;
                {
                    let rel = next.rel_mut(rid)?;
                    for &tid in rd.deleted.keys() {
                        rel.remove_id(tid);
                    }
                    for (&tid, c) in &rd.modified {
                        rel.insert(tid, Arc::clone(&c.new))?;
                    }
                    for (&tid, f) in &rd.inserted {
                        rel.insert(tid, Arc::clone(f))?;
                        max_inserted = max_inserted.max(Some(tid.0));
                    }
                }
                // keep the allocator ahead of every materialized identity
                if let Some(m) = max_inserted {
                    if m >= next.next_tuple {
                        next.next_tuple = m + 1;
                    }
                }
            }
        }
        Ok(next)
    }

    /// Remap the *fresh* tuple identities in this delta — those allocated
    /// by the execution that produced it, i.e. `>= base_next` where
    /// `base_next` is [`DbState::next_tuple_id`] of the snapshot the
    /// transaction ran against — onto consecutive identities starting at
    /// `alloc_from`, preserving their relative order.
    ///
    /// This is what lets an optimistic commit pipeline *forward* a delta
    /// onto a head state that moved since the snapshot: two concurrent
    /// sessions started from the same snapshot allocate overlapping fresh
    /// identities, so the second committer's inserts must be renumbered
    /// from the head's allocator (`alloc_from = head.next_tuple_id()`)
    /// before [`Delta::apply`]. The ascending remap reproduces exactly
    /// the identities a sequential re-execution at the head would have
    /// allocated whenever insertion order is identity order.
    ///
    /// In a coherent delta fresh identities can appear only as
    /// insertions: the composition algebra cancels insert-then-delete
    /// and fuses insert-then-modify into an insertion, and a fresh
    /// identity cannot be deleted or modified before being inserted.
    /// Fresh identities found in `deleted`/`modified` are a caller error
    /// (debug-asserted) and are left unmapped.
    pub fn rebase_fresh(&self, base_next: u64, alloc_from: u64) -> Delta {
        let mut fresh: Vec<TupleId> = self
            .rels
            .values()
            .flat_map(|rd| rd.inserted.keys().copied())
            .filter(|tid| tid.0 >= base_next)
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        if fresh.is_empty() {
            return self.clone();
        }
        let map: BTreeMap<TupleId, TupleId> = fresh
            .into_iter()
            .enumerate()
            .map(|(i, tid)| (tid, TupleId(alloc_from + i as u64)))
            .collect();
        let remap = |tid: TupleId| map.get(&tid).copied().unwrap_or(tid);
        let mut out = Delta::empty();
        for (&rid, rd) in &self.rels {
            debug_assert!(
                rd.deleted
                    .keys()
                    .chain(rd.modified.keys())
                    .all(|t| t.0 < base_next),
                "coherent delta cannot delete or modify a fresh tuple it never inserted"
            );
            let mut nrd = RelDelta::with_arity(rd.arity);
            nrd.created = rd.created;
            nrd.dropped = rd.dropped;
            nrd.inserted = rd
                .inserted
                .iter()
                .map(|(&tid, f)| (remap(tid), Arc::clone(f)))
                .collect();
            nrd.deleted = rd.deleted.clone();
            nrd.modified = rd.modified.clone();
            out.rels.insert(rid, nrd);
        }
        out
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "Δ∅");
        }
        write!(f, "Δ{{")?;
        for (k, (id, rd)) in self.rels().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}: ")?;
            if rd.created {
                write!(f, "+rel ")?;
            }
            if rd.dropped {
                write!(f, "-rel ")?;
            }
            write!(
                f,
                "+{} -{} ~{}",
                rd.inserted.len(),
                rd.deleted.len(),
                rd.modified.len()
            )?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl DbState {
    /// The extensional difference from `self` to `other`: applying the
    /// result to `self` reproduces `other` up to [`content_eq`].
    /// Relations shared by pointer (the common case along an execution,
    /// thanks to copy-on-write) are skipped without inspection.
    ///
    /// [`content_eq`]: DbState::content_eq
    pub fn diff(&self, other: &DbState) -> Delta {
        let mut delta = Delta::empty();
        for (&rid, ra) in &self.rels {
            match other.rels.get(&rid) {
                None => {
                    let mut rd = RelDelta::with_arity(ra.arity());
                    rd.dropped = true;
                    for t in ra.iter() {
                        rd.deleted.insert(t.id(), Arc::clone(t.fields_arc()));
                    }
                    delta.insert_rel(rid, rd);
                }
                Some(rb) if Arc::ptr_eq(ra, rb) => {}
                Some(rb) if ra.arity() != rb.arity() => {
                    let mut rd = RelDelta::with_arity(rb.arity());
                    rd.dropped = true;
                    rd.created = true;
                    for t in ra.iter() {
                        rd.deleted.insert(t.id(), Arc::clone(t.fields_arc()));
                    }
                    for t in rb.iter() {
                        rd.inserted.insert(t.id(), Arc::clone(t.fields_arc()));
                    }
                    delta.insert_rel(rid, rd);
                }
                Some(rb) => {
                    delta.insert_rel(rid, diff_relations(ra, rb));
                }
            }
        }
        for (&rid, rb) in &other.rels {
            if !self.rels.contains_key(&rid) {
                let mut rd = RelDelta::with_arity(rb.arity());
                rd.created = true;
                for t in rb.iter() {
                    rd.inserted.insert(t.id(), Arc::clone(t.fields_arc()));
                }
                delta.insert_rel(rid, rd);
            }
        }
        delta
    }

    /// [`insert`](DbState::insert) plus the delta of the step.
    pub fn insert_traced(
        &self,
        rel: RelId,
        t: &crate::tuple::TupleVal,
    ) -> TxResult<(DbState, TupleId, Delta)> {
        let before = self.expect_relation(rel)?;
        let arity = before.arity();
        let prior = t.id.and_then(|id| before.get(id).cloned());
        let (next, id) = self.insert(rel, t)?;
        let delta = match prior {
            // re-inserting an existing identity overwrites its fields
            Some(old) => Delta::of_modify(rel, arity, id, old, Arc::clone(&t.fields)),
            None => Delta::of_insert(rel, arity, id, Arc::clone(&t.fields)),
        };
        Ok((next, id, delta))
    }

    /// [`delete`](DbState::delete) plus the delta of the step. A delete
    /// that names nothing yields the empty delta.
    pub fn delete_traced(
        &self,
        rel: RelId,
        t: &crate::tuple::TupleVal,
    ) -> TxResult<(DbState, Delta)> {
        let before = self.expect_relation(rel)?;
        let arity = before.arity();
        let mut rd = RelDelta::with_arity(arity);
        match t.id {
            Some(id) => {
                if before.get(id).is_some_and(|f| *f == t.fields) {
                    rd.deleted.insert(id, Arc::clone(&t.fields));
                }
            }
            None => {
                for tup in before.iter() {
                    if **tup.fields_arc() == *t.fields {
                        rd.deleted.insert(tup.id(), Arc::clone(tup.fields_arc()));
                    }
                }
            }
        }
        let next = self.delete(rel, t)?;
        let mut delta = Delta::empty();
        delta.insert_rel(rel, rd);
        Ok((next, delta))
    }

    /// [`modify`](DbState::modify) plus the delta of the step. Modifying
    /// an attribute to its current value yields the empty delta.
    pub fn modify_traced(
        &self,
        t: &crate::tuple::TupleVal,
        i: usize,
        v: Atom,
    ) -> TxResult<(DbState, Delta)> {
        let next = self.modify(t, i, v)?;
        let tid = t.id.expect("modify succeeded, so the tuple is identified");
        let (rid, old_val) = self
            .find_tuple(tid)
            .expect("modify succeeded, so the tuple exists");
        let (_, new_val) = next
            .find_tuple(tid)
            .expect("modify preserves tuple identity");
        let arity = self.expect_relation(rid)?.arity();
        let delta = Delta::of_modify(rid, arity, tid, old_val.fields, new_val.fields);
        Ok((next, delta))
    }

    /// [`assign`](DbState::assign) plus the delta of the step: the
    /// content difference between the relation's old and new extents
    /// (creation if the relation did not exist).
    pub fn assign_traced(
        &self,
        rel: RelId,
        arity: usize,
        members: &[crate::tuple::TupleVal],
    ) -> TxResult<(DbState, Delta)> {
        let next = self.assign(rel, arity, members)?;
        let after = next.expect_relation(rel)?;
        let mut delta = Delta::empty();
        match self.relation(rel) {
            None => {
                let mut rd = RelDelta::with_arity(arity);
                rd.created = true;
                for t in after.iter() {
                    rd.inserted.insert(t.id(), Arc::clone(t.fields_arc()));
                }
                delta.insert_rel(rel, rd);
            }
            Some(before) if before.arity() != arity => {
                let mut rd = RelDelta::with_arity(arity);
                rd.dropped = true;
                rd.created = true;
                for t in before.iter() {
                    rd.deleted.insert(t.id(), Arc::clone(t.fields_arc()));
                }
                for t in after.iter() {
                    rd.inserted.insert(t.id(), Arc::clone(t.fields_arc()));
                }
                delta.insert_rel(rel, rd);
            }
            Some(before) => {
                delta.insert_rel(rel, diff_relations(before, after));
            }
        }
        Ok((next, delta))
    }
}

/// Structural diff of two same-arity relations by tuple identity.
pub(crate) fn diff_relations(a: &Relation, b: &Relation) -> RelDelta {
    debug_assert_eq!(a.arity(), b.arity());
    let mut rd = RelDelta::with_arity(b.arity());
    for t in a.iter() {
        match b.get(t.id()) {
            None => {
                rd.deleted.insert(t.id(), Arc::clone(t.fields_arc()));
            }
            Some(fb) if **fb != **t.fields_arc() => {
                rd.modified.insert(
                    t.id(),
                    TupleChange {
                        old: Arc::clone(t.fields_arc()),
                        new: Arc::clone(fb),
                    },
                );
            }
            Some(_) => {}
        }
    }
    for t in b.iter() {
        if a.get(t.id()).is_none() {
            rd.inserted.insert(t.id(), Arc::clone(t.fields_arc()));
        }
    }
    rd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleVal;

    fn fields(ns: &[u64]) -> Vec<Atom> {
        ns.iter().map(|&n| Atom::nat(n)).collect()
    }

    fn base() -> DbState {
        DbState::new().with_relation(RelId(0), 2).unwrap()
    }

    #[test]
    fn empty_delta_is_identity_of_compose() {
        let s0 = base();
        let (s1, _, d) = s0
            .insert_traced(RelId(0), &TupleVal::anonymous(fields(&[1, 2])))
            .unwrap();
        assert_eq!(Delta::empty().compose(&d), d);
        assert_eq!(d.compose(&Delta::empty()), d);
        assert!(s0.diff(&s0).is_empty());
        assert!(!s0.diff(&s1).is_empty());
    }

    #[test]
    fn insert_then_delete_cancels() {
        let s0 = base();
        let (s1, id, d1) = s0
            .insert_traced(RelId(0), &TupleVal::anonymous(fields(&[1, 2])))
            .unwrap();
        let val = s1.find_tuple(id).unwrap().1;
        let (_, d2) = s1.delete_traced(RelId(0), &val).unwrap();
        assert!(d1.compose(&d2).is_empty());
    }

    #[test]
    fn delete_then_reinsert_same_value_cancels() {
        let s0 = base();
        let (s1, id, _) = s0
            .insert_traced(RelId(0), &TupleVal::anonymous(fields(&[1, 2])))
            .unwrap();
        let val = s1.find_tuple(id).unwrap().1;
        let (s2, d1) = s1.delete_traced(RelId(0), &val).unwrap();
        let (_, _, d2) = s2.insert_traced(RelId(0), &val).unwrap();
        assert!(d1.compose(&d2).is_empty());
    }

    #[test]
    fn modifications_fuse_and_can_cancel() {
        let s0 = base();
        let (s1, id, _) = s0
            .insert_traced(RelId(0), &TupleVal::anonymous(fields(&[1, 2])))
            .unwrap();
        let v1 = s1.find_tuple(id).unwrap().1;
        let (s2, d1) = s1.modify_traced(&v1, 2, Atom::nat(9)).unwrap();
        let v2 = s2.find_tuple(id).unwrap().1;
        let (s3, d2) = s2.modify_traced(&v2, 2, Atom::nat(7)).unwrap();
        let fused = d1.compose(&d2);
        assert_eq!(fused, s1.diff(&s3));
        // modifying back to the original value cancels entirely
        let v3 = s3.find_tuple(id).unwrap().1;
        let (_, d3) = s3.modify_traced(&v3, 2, Atom::nat(2)).unwrap();
        assert!(fused.compose(&d3).is_empty());
    }

    #[test]
    fn modify_then_delete_deletes_original_value() {
        let s0 = base();
        let (s1, id, _) = s0
            .insert_traced(RelId(0), &TupleVal::anonymous(fields(&[1, 2])))
            .unwrap();
        let v1 = s1.find_tuple(id).unwrap().1;
        let (s2, d1) = s1.modify_traced(&v1, 1, Atom::nat(8)).unwrap();
        let v2 = s2.find_tuple(id).unwrap().1;
        let (s3, d2) = s2.delete_traced(RelId(0), &v2).unwrap();
        let net = d1.compose(&d2);
        assert_eq!(net, s1.diff(&s3));
        let rd = net.rel(RelId(0)).unwrap();
        assert_eq!(rd.deleted.get(&id).unwrap().as_ref(), &fields(&[1, 2])[..]);
        assert!(rd.modified.is_empty());
    }

    #[test]
    fn traced_steps_agree_with_diff() {
        let s0 = base();
        let (s1, _, d1) = s0
            .insert_traced(RelId(0), &TupleVal::anonymous(fields(&[1, 2])))
            .unwrap();
        assert_eq!(d1, s0.diff(&s1));
        let (s2, d2) = s1
            .assign_traced(
                RelId(0),
                2,
                &[
                    TupleVal::anonymous(fields(&[3, 4])),
                    TupleVal::anonymous(fields(&[5, 6])),
                ],
            )
            .unwrap();
        assert_eq!(d2, s1.diff(&s2));
        let (s3, d3) = s2
            .assign_traced(RelId(9), 1, &[TupleVal::anonymous(fields(&[7]))])
            .unwrap();
        assert_eq!(d3, s2.diff(&s3));
        assert!(d3.rel(RelId(9)).unwrap().created);
    }

    #[test]
    fn compose_is_associative_along_an_execution() {
        let s0 = base();
        let (s1, id, d1) = s0
            .insert_traced(RelId(0), &TupleVal::anonymous(fields(&[1, 2])))
            .unwrap();
        let v1 = s1.find_tuple(id).unwrap().1;
        let (s2, d2) = s1.modify_traced(&v1, 2, Atom::nat(5)).unwrap();
        let v2 = s2.find_tuple(id).unwrap().1;
        let (s3, d3) = s2.delete_traced(RelId(0), &v2).unwrap();
        assert_eq!(d1.compose(&d2).compose(&d3), d1.compose(&d2.compose(&d3)));
        assert_eq!(d1.compose(&d2).compose(&d3), s0.diff(&s3));
    }

    #[test]
    fn diff_observes_drops_and_arity_changes() {
        let s0 = base();
        let (s1, _, _) = s0
            .insert_traced(RelId(0), &TupleVal::anonymous(fields(&[1, 2])))
            .unwrap();
        // relation absent on the other side
        let bare = DbState::new();
        let d = s1.diff(&bare);
        let rd = d.rel(RelId(0)).unwrap();
        assert!(rd.dropped && !rd.created);
        assert_eq!(rd.deleted.len(), 1);
        // same id, different arity: replacement
        let other = DbState::new().with_relation(RelId(0), 3).unwrap();
        let d2 = s1.diff(&other);
        let rd2 = d2.rel(RelId(0)).unwrap();
        assert!(rd2.dropped && rd2.created);
        assert_eq!(rd2.arity, 3);
    }

    #[test]
    fn apply_round_trips_diff() {
        let s0 = base();
        let (s1, id, _) = s0
            .insert_traced(RelId(0), &TupleVal::anonymous(fields(&[1, 2])))
            .unwrap();
        let v1 = s1.find_tuple(id).unwrap().1;
        let (s2, _) = s1.modify_traced(&v1, 1, Atom::nat(6)).unwrap();
        let (s3, _) = s2
            .assign_traced(RelId(4), 1, &[TupleVal::anonymous(fields(&[9]))])
            .unwrap();
        for (a, b) in [(&s0, &s3), (&s3, &s0), (&s1, &s2), (&s2, &s1)] {
            let d = a.diff(b);
            let rebuilt = d.apply(a).unwrap();
            assert!(rebuilt.content_eq(b), "apply(diff) failed: {d}");
        }
    }

    #[test]
    fn rebase_fresh_renumbers_only_new_inserts() {
        let s0 = base();
        let (s1, old_id, _) = s0
            .insert_traced(RelId(0), &TupleVal::anonymous(fields(&[1, 2])))
            .unwrap();
        // s1 is the shared snapshot; a session inserts two fresh tuples
        // and modifies the pre-existing one
        let base_next = s1.next_tuple_id();
        let (s2, a, da) = s1
            .insert_traced(RelId(0), &TupleVal::anonymous(fields(&[3, 4])))
            .unwrap();
        let (s3, b, db) = s2
            .insert_traced(RelId(0), &TupleVal::anonymous(fields(&[5, 6])))
            .unwrap();
        let v = s3.find_tuple(old_id).unwrap().1;
        let (_, dm) = s3.modify_traced(&v, 1, Atom::nat(9)).unwrap();
        let d = da.compose(&db).compose(&dm);
        // pretend the head moved and its allocator is at 100
        let rebased = d.rebase_fresh(base_next, 100);
        let rd = rebased.rel(RelId(0)).unwrap();
        assert!(rd.inserted.contains_key(&TupleId(100)));
        assert!(rd.inserted.contains_key(&TupleId(101)));
        assert!(!rd.inserted.contains_key(&a) && !rd.inserted.contains_key(&b));
        // ascending order preserved: a (earlier) maps to 100
        assert_eq!(rd.inserted[&TupleId(100)].as_ref(), &fields(&[3, 4])[..]);
        assert_eq!(rd.inserted[&TupleId(101)].as_ref(), &fields(&[5, 6])[..]);
        // the pre-existing tuple's modification is untouched
        assert!(rd.modified.contains_key(&old_id));
        // applying the rebased delta to a moved head works
        let head = DbState {
            next_tuple: 100,
            ..s1.clone()
        };
        let next = rebased.apply(&head).unwrap();
        assert_eq!(next.total_tuples(), 3);
        assert_eq!(next.next_tuple_id(), 102);
        // no fresh inserts → clone
        assert_eq!(dm.rebase_fresh(base_next, 100), dm);
    }

    #[test]
    fn diff_composes_across_an_intermediate_state() {
        let s0 = base();
        let (s1, id, _) = s0
            .insert_traced(RelId(0), &TupleVal::anonymous(fields(&[1, 2])))
            .unwrap();
        let v1 = s1.find_tuple(id).unwrap().1;
        let (s2, _) = s1.modify_traced(&v1, 2, Atom::nat(3)).unwrap();
        assert_eq!(s0.diff(&s1).compose(&s1.diff(&s2)), s0.diff(&s2));
    }
}
