//! Static read/write footprints of transaction programs.

#[cfg(doc)]
use super::IsolationLevel;
use std::collections::BTreeSet;
use txlog_base::Symbol;
use txlog_logic::plan::find_membership_rel;
use txlog_logic::{FFormula, FTerm, ObjSort, Sort, Var};
use txlog_relational::{Delta, Schema};

/// The static read/write footprint of a transaction: an
/// over-approximation of every relation executing it can touch, split
/// into the relations it may *read* and those it may *write*.
///
/// `foreach`/quantifier/set-former variables bounded by a membership
/// conjunct (`x ∈ R ∧ …`) contribute their relation to the read set;
/// the write primitives contribute their target relation to the write
/// set, with `modify` resolved through the enumeration binding of its
/// tuple variable. Anything the analysis cannot bound — program
/// variables, tuple parameters, atom quantifiers (whose domain is every
/// atom in the state), user functions — poisons the footprint to
/// [`Footprint::all`], which conflicts with every concurrent commit
/// (always sound, never clever).
///
/// The read/write split is what the [`IsolationLevel`] spectrum prices:
/// snapshot sessions validate the *union* against concurrent deltas,
/// read-committed sessions only their write set, and serializable
/// sessions additionally certify the session's accumulated statement
/// reads at commit time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Footprint {
    /// Relations the program may read; `None` when unbounded.
    reads: Option<BTreeSet<Symbol>>,
    /// Relations the program may write; `None` when unbounded.
    writes: Option<BTreeSet<Symbol>>,
}

impl Footprint {
    /// The unbounded footprint: may read and write anything.
    pub fn all() -> Footprint {
        Footprint {
            reads: None,
            writes: None,
        }
    }

    /// The empty footprint: provably touches nothing. The identity of
    /// [`Footprint::merge`], used as the seed of a session's accumulated
    /// read set.
    pub fn empty() -> Footprint {
        Footprint {
            reads: Some(BTreeSet::new()),
            writes: Some(BTreeSet::new()),
        }
    }

    /// Analyze a transaction program.
    pub fn of_program(t: &FTerm) -> Footprint {
        let mut w = FpWalker {
            reads: BTreeSet::new(),
            writes: BTreeSet::new(),
            bound: Vec::new(),
        };
        if w.term(t) {
            Footprint {
                reads: Some(w.reads),
                writes: Some(w.writes),
            }
        } else {
            Footprint::all()
        }
    }

    /// Analyze a truth-valued formula: everything it touches is a read.
    pub fn of_formula(p: &FFormula) -> Footprint {
        let mut w = FpWalker {
            reads: BTreeSet::new(),
            writes: BTreeSet::new(),
            bound: Vec::new(),
        };
        if w.formula(p) {
            Footprint {
                reads: Some(w.reads),
                writes: Some(w.writes),
            }
        } else {
            Footprint::all()
        }
    }

    /// True iff the analysis could not bound the footprint.
    pub fn is_all(&self) -> bool {
        self.reads.is_none() || self.writes.is_none()
    }

    /// The bounded relation set — the union of reads and writes — if
    /// the analysis produced one.
    pub fn rels(&self) -> Option<BTreeSet<Symbol>> {
        match (&self.reads, &self.writes) {
            (Some(r), Some(w)) => Some(r.union(w).copied().collect()),
            _ => None,
        }
    }

    /// Everything this footprint touches, demoted to reads — how an
    /// execution shown to its caller (prepared or staged) is accounted:
    /// nothing was written yet, but the caller observed state derived
    /// from every relation the program touched (a written relation's
    /// candidate content reveals its prior content too).
    pub fn as_reads(&self) -> Footprint {
        Footprint {
            reads: self.rels(),
            writes: Some(BTreeSet::new()),
        }
    }

    /// True when the read set is non-empty (or unbounded) — i.e. there
    /// is something to certify.
    pub fn has_reads(&self) -> bool {
        self.reads.as_ref().map_or(true, |r| !r.is_empty())
    }

    /// Union `other` into this footprint; poison is absorbing.
    pub fn merge(&mut self, other: &Footprint) {
        self.reads = match (self.reads.take(), &other.reads) {
            (Some(mut mine), Some(theirs)) => {
                mine.extend(theirs.iter().copied());
                Some(mine)
            }
            _ => None,
        };
        self.writes = match (self.writes.take(), &other.writes) {
            (Some(mut mine), Some(theirs)) => {
                mine.extend(theirs.iter().copied());
                Some(mine)
            }
            _ => None,
        };
    }

    /// Whether the full footprint (reads ∪ writes) intersects the
    /// relations a delta touched — the snapshot-isolation conflict test.
    pub fn overlaps_delta(&self, schema: &Schema, delta: &Delta) -> bool {
        delta.overlaps(schema, self.reads.as_ref()) || delta.overlaps(schema, self.writes.as_ref())
    }

    /// Whether the write set intersects the relations a delta touched —
    /// the read-committed (first-committer-wins) conflict test.
    pub fn writes_overlap_delta(&self, schema: &Schema, delta: &Delta) -> bool {
        delta.overlaps(schema, self.writes.as_ref())
    }

    /// Whether the read set intersects the relations a delta touched —
    /// the serializable read-certification test.
    pub fn reads_overlap_delta(&self, schema: &Schema, delta: &Delta) -> bool {
        delta.overlaps(schema, self.reads.as_ref())
    }
}

struct FpWalker {
    reads: BTreeSet<Symbol>,
    writes: BTreeSet<Symbol>,
    /// Enumeration variables currently in scope, newest last, each with
    /// the relation its membership conjunct bounds it to.
    bound: Vec<(Var, Symbol)>,
}

impl FpWalker {
    fn lookup(&self, v: Var) -> Option<Symbol> {
        self.bound
            .iter()
            .rev()
            .find(|(b, _)| *b == v)
            .map(|(_, r)| *r)
    }

    /// Bind `v` through a membership conjunct of `cond`, recording the
    /// relation. `None` (poison) for atom variables — their fallback
    /// domain enumerates every atom in the state — and for tuple
    /// variables without a bounding conjunct.
    fn bind_through(&mut self, v: Var, cond: &FFormula) -> Option<()> {
        match v.sort {
            Sort::Obj(ObjSort::Tup(_)) => {
                let rel = find_membership_rel(cond, v)?;
                self.reads.insert(rel);
                self.bound.push((v, rel));
                Some(())
            }
            _ => None,
        }
    }

    /// Returns false when the footprint cannot be bounded; the caller
    /// discards everything, so the binding stack need not be unwound on
    /// that path.
    fn term(&mut self, t: &FTerm) -> bool {
        match t {
            FTerm::Identity | FTerm::Nat(_) | FTerm::Str(_) => true,
            FTerm::Var(v) => match v.sort {
                // an atom value comes straight from the environment
                Sort::Obj(ObjSort::Atom) => true,
                // a tuple variable re-reads its current fields from the
                // state: bounded only when we know which relation holds it
                Sort::Obj(ObjSort::Tup(_)) => self.lookup(*v).is_some(),
                // program / state / situational variables: opaque
                _ => false,
            },
            FTerm::Rel(r) => {
                self.reads.insert(*r);
                true
            }
            FTerm::Attr(_, inner) | FTerm::Select(inner, _) | FTerm::IdOf(inner) => {
                self.term(inner)
            }
            FTerm::TupleCons(ts) | FTerm::App(_, ts) => ts.iter().all(|t| self.term(t)),
            FTerm::UserApp(..) => false,
            FTerm::SetFormer { head, vars, cond } => {
                let depth = self.bound.len();
                for v in vars {
                    if self.bind_through(*v, cond).is_none() {
                        return false;
                    }
                }
                let ok = self.formula(cond) && self.term(head);
                self.bound.truncate(depth);
                ok
            }
            FTerm::Seq(a, b) => self.term(a) && self.term(b),
            FTerm::Cond(p, a, b) => self.formula(p) && self.term(a) && self.term(b),
            FTerm::Foreach(v, p, body) => {
                let depth = self.bound.len();
                if self.bind_through(*v, p).is_none() {
                    return false;
                }
                let ok = self.formula(p) && self.term(body);
                self.bound.truncate(depth);
                ok
            }
            FTerm::Insert(tup, rel) | FTerm::Delete(tup, rel) => {
                self.writes.insert(*rel);
                self.term(tup)
            }
            FTerm::Modify(tup, _, val) | FTerm::ModifyAttr(tup, _, val) => {
                // the write lands wherever the tuple lives; bounded only
                // for a tuple variable whose relation the enumeration fixed
                match &**tup {
                    FTerm::Var(v) => match self.lookup(*v) {
                        Some(rel) => {
                            self.writes.insert(rel);
                            self.term(val)
                        }
                        None => false,
                    },
                    _ => false,
                }
            }
            FTerm::Assign(rel, set) => {
                self.writes.insert(*rel);
                self.term(set)
            }
        }
    }

    fn formula(&mut self, p: &FFormula) -> bool {
        match p {
            FFormula::True | FFormula::False => true,
            FFormula::Cmp(_, a, b) | FFormula::Member(a, b) | FFormula::Subset(a, b) => {
                self.term(a) && self.term(b)
            }
            FFormula::Not(q) => self.formula(q),
            FFormula::And(a, b)
            | FFormula::Or(a, b)
            | FFormula::Implies(a, b)
            | FFormula::Iff(a, b) => self.formula(a) && self.formula(b),
            FFormula::Exists(v, body) | FFormula::Forall(v, body) => {
                let depth = self.bound.len();
                if self.bind_through(*v, body).is_none() {
                    return false;
                }
                let ok = self.formula(body);
                self.bound.truncate(depth);
                ok
            }
            FFormula::UserPred(..) => false,
        }
    }
}
