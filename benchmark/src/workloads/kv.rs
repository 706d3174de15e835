//! The two-column relation `KV(k, v)` and its seeded write mix, shared
//! by `large_state_write` and `recovery`.
//!
//! The generator keeps its own model of the relation — which keys are
//! live and what they hold — and a digest of it that updates in O(1)
//! per op (a wrapping sum of per-row hashes, so it is independent of
//! row order and of tuple identities). The oracle compares that digest
//! with one computed from the database's rows: two independent routes
//! to the same number.

use std::collections::BTreeMap;

use txlog::prelude::{parse_fterm, Atom, DbState, FTerm, ParseCtx, Schema, TupleVal};

use crate::rng::SplitMix64;

pub fn schema() -> Schema {
    Schema::new()
        .relation("KV", &["k", "v"])
        .expect("static schema is well-formed")
}

/// `rows` rows `('k-i', i)`, built in one `assign` (row-by-row inserts
/// copy the relation each time and take seconds at 20 000 rows).
pub fn preload(schema: &Schema, rows: usize) -> DbState {
    let rel = schema.rel_id("KV").expect("KV exists");
    let members: Vec<TupleVal> = (0..rows)
        .map(|i| TupleVal::anonymous(vec![Atom::str(&format!("k-{i}")), Atom::nat(i as u64)]))
        .collect();
    schema
        .initial_state()
        .assign(rel, 2, &members)
        .expect("preload assigns")
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Insert { key: usize, val: u64 },
    Modify { key: usize, val: u64 },
    Delete { key: usize },
}

impl Op {
    pub fn text(self) -> String {
        match self {
            Op::Insert { key, val } => format!("insert(tuple('k-{key}', {val}), KV)"),
            Op::Modify { key, val } => {
                format!("foreach t: 2tup | t in KV & k(t) = 'k-{key}' do modify(t, v, {val}) end")
            }
            Op::Delete { key } => {
                format!("foreach t: 2tup | t in KV & k(t) = 'k-{key}' do delete(t, KV) end")
            }
        }
    }

    pub fn parse(self) -> FTerm {
        let src = self.text();
        parse_fterm(&src, &ParseCtx::with_relations(&["KV"]), &[])
            .unwrap_or_else(|e| panic!("generated program does not parse: {e}\n{src}"))
    }
}

fn row_hash(key: usize, val: u64) -> u64 {
    let mut mixer = SplitMix64::new((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ val);
    mixer.next_u64()
}

/// 60 % insert-new-key, 30 % modify-by-key, 10 % delete-by-key.
pub struct Gen {
    rng: SplitMix64,
    next_key: usize,
    live: Vec<usize>,
    model: BTreeMap<usize, u64>,
    digest: u64,
}

impl Gen {
    pub fn new(rows: usize, rng: SplitMix64) -> Gen {
        Gen {
            rng,
            next_key: rows,
            live: (0..rows).collect(),
            model: (0..rows).map(|i| (i, i as u64)).collect(),
            digest: (0..rows).fold(0, |d, i| d.wrapping_add(row_hash(i, i as u64))),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100);
        if roll < 60 || self.live.len() < 2 {
            let (key, val) = (self.next_key, self.rng.below(1_000_000));
            self.next_key += 1;
            self.live.push(key);
            self.model.insert(key, val);
            self.digest = self.digest.wrapping_add(row_hash(key, val));
            Op::Insert { key, val }
        } else if roll < 90 {
            let key = self.live[self.rng.index(self.live.len())];
            let val = self.rng.below(1_000_000);
            let old = self.model.insert(key, val).expect("live keys are modelled");
            self.digest = self
                .digest
                .wrapping_sub(row_hash(key, old))
                .wrapping_add(row_hash(key, val));
            Op::Modify { key, val }
        } else {
            let at = self.rng.index(self.live.len());
            let key = self.live.swap_remove(at);
            let old = self.model.remove(&key).expect("live keys are modelled");
            self.digest = self.digest.wrapping_sub(row_hash(key, old));
            Op::Delete { key }
        }
    }

    /// `(rows, digest)` of the model after the ops generated so far.
    pub fn expect(&self) -> (usize, u64) {
        (self.model.len(), self.digest)
    }
}

/// `(rows, digest)` of the database's `KV` instance, from its raw rows.
pub fn observe(schema: &Schema, state: &DbState) -> Result<(usize, u64), String> {
    let rel = schema.rel_id("KV").map_err(|e| e.to_string())?;
    let rows = state.relation(rel).ok_or("state has no KV instance")?;
    let mut digest = 0u64;
    for t in rows.iter() {
        let key = t.fields()[0]
            .as_symbol()
            .ok()
            .and_then(|s| s.as_str().strip_prefix("k-")?.parse::<usize>().ok())
            .ok_or_else(|| format!("unexpected key in {t}"))?;
        let val = t.fields()[1].as_nat().map_err(|e| e.to_string())?;
        digest = digest.wrapping_add(row_hash(key, val));
    }
    Ok((rows.len(), digest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use txlog::prelude::{Engine, Env};

    #[test]
    fn the_model_digest_tracks_the_database() {
        let schema = schema();
        let mut state = preload(&schema, 50);
        let mut gen = Gen::new(50, SplitMix64::new(9));
        assert_eq!(observe(&schema, &state).expect("rows"), gen.expect());
        let engine = Engine::builder(&schema).build().expect("engine");
        let mut kinds = [0usize; 3];
        for _ in 0..200 {
            let op = gen.next_op();
            kinds[match op {
                Op::Insert { .. } => 0,
                Op::Modify { .. } => 1,
                Op::Delete { .. } => 2,
            }] += 1;
            state = engine
                .execute(&state, &op.parse(), &Env::new())
                .expect("executes");
        }
        assert!(kinds.iter().all(|k| *k > 0), "{kinds:?}");
        assert_eq!(observe(&schema, &state).expect("rows"), gen.expect());
        // and a divergent state is told apart
        let stray = Op::Insert {
            key: 999_999,
            val: 1,
        }
        .parse();
        let other = engine
            .execute(&state, &stray, &Env::new())
            .expect("executes");
        assert_ne!(observe(&schema, &other).expect("rows"), gen.expect());
    }
}
