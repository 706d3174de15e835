//! Shared pieces for the workloads over the paper's employee database.

use txlog::empdb::{self, Sizes};
use txlog::prelude::{parse_fformula, parse_fterm, DbState, FFormula, FTerm, Schema};

use crate::rng::SplitMix64;

/// `populate` at `employees`, seeded from the workload's stream.
pub fn populate(employees: usize, rng: &mut SplitMix64) -> (Schema, DbState) {
    empdb::populate(Sizes::scaled(employees), rng.next_u64()).expect("empdb populates")
}

pub fn program(src: &str) -> FTerm {
    parse_fterm(src, &empdb::parse_ctx(), &[])
        .unwrap_or_else(|e| panic!("generated program does not parse: {e}\n{src}"))
}

pub fn formula(src: &str) -> FFormula {
    parse_fformula(src, &empdb::parse_ctx(), &[])
        .unwrap_or_else(|e| panic!("generated query does not parse: {e}\n{src}"))
}

/// Point probe: is `emp-k` employed?
pub fn probe_query(k: usize) -> String {
    format!(
        "exists e: 5tup . e in EMP & e-name(e) = '{}' & salary(e) >= 0",
        empdb::data::emp_name(k)
    )
}

/// Set-former scan: exactly `count` employees are married.
pub fn married_query(count: usize) -> String {
    format!("size({{ e-name(e) | e: 5tup . e in EMP & m-status(e) = 'M' }}) = {count}")
}

/// Indexed join: every employee has an allocation.
pub const JOIN_QUERY: &str =
    "forall e: 5tup . e in EMP -> exists a: 3tup . a in ALLOC & a-emp(a) = e-name(e)";

/// Names of the married and the single employees, from the raw rows —
/// computed by the harness, not by the evaluator it is about to judge.
pub fn marital_split(schema: &Schema, state: &DbState) -> (Vec<String>, Vec<String>) {
    let mut married = Vec::new();
    let mut single = Vec::new();
    let emp = schema.rel_id("EMP").expect("EMP exists");
    let status = schema
        .attr_index("EMP", "m-status")
        .expect("m-status exists")
        - 1;
    for t in state.relation(emp).expect("EMP instance").iter() {
        let who = t.fields()[0]
            .as_symbol()
            .expect("names are strings")
            .as_str()
            .to_string();
        if t.fields()[status] == txlog::prelude::Atom::str("M") {
            married.push(who);
        } else {
            single.push(who);
        }
    }
    (married, single)
}
