//! Employee-database audit: enforce the paper's constraints over a
//! stream of transactions with bounded history.
//!
//! ```text
//! cargo run -p txlog-examples --bin employee_audit
//! ```
//!
//! Plays a day of HR activity against the Section 4 employee database,
//! with every constraint from Examples 1–3 enforced at its proper window
//! (1, 2, or 3 states). Violating transactions are reported and rolled
//! back, exactly the enforcement regime the paper's checkability
//! analysis licenses.

use txlog::constraints::{Checker, History, Window};
use txlog::empdb::constraints::{
    example1_all, ic2_marital_transaction, ic3_dept_reference_connection,
    ic3_salary_needs_dept_switch, ic3_skill_retention,
};
use txlog::empdb::transactions as tx;
use txlog::empdb::{populate, Sizes};
use txlog::engine::Env;
use txlog::logic::FTerm;
use txlog::prelude::TxResult;

struct Auditor {
    checkers: Vec<Checker>,
    history: History,
}

impl Auditor {
    fn new(history: History) -> TxResult<Auditor> {
        let mut checkers = Vec::new();
        for (name, f) in example1_all() {
            checkers.push(Checker::new(name, f, Window::States(1))?);
        }
        for (name, f, k) in [
            ("marital-status (Ex.2)", ic2_marital_transaction(), 2),
            ("skill-retention (Ex.3)", ic3_skill_retention(), 2),
            (
                "salary-needs-dept-switch (Ex.3)",
                ic3_salary_needs_dept_switch(),
                3,
            ),
            (
                "dept-reference-connection (Ex.3)",
                ic3_dept_reference_connection(),
                2,
            ),
        ] {
            checkers.push(Checker::new(name, f, Window::States(k))?);
        }
        Ok(Auditor { checkers, history })
    }

    /// Apply a transaction; roll back and report if any windowed check
    /// fails.
    fn submit(&mut self, label: &str, t: &FTerm) -> TxResult<bool> {
        let saved = self.history.clone();
        self.history.step(label, t, &Env::new())?;
        let mut violations = Vec::new();
        for checker in &self.checkers {
            if !checker.check_now(&self.history)? {
                violations.push(checker.name());
            }
        }
        if violations.is_empty() {
            println!("  ACCEPT {label}");
            Ok(true)
        } else {
            println!("  REJECT {label}  — violates {violations:?}");
            self.history = saved;
            Ok(false)
        }
    }
}

fn main() -> TxResult<()> {
    let (schema, db) = populate(Sizes::default(), 2024)?;
    println!(
        "starting database: {} employees, {} projects, {} departments",
        db.relation(schema.rel_id("EMP")?)
            .map(|r| r.len())
            .unwrap_or(0),
        db.relation(schema.rel_id("PROJ")?)
            .map(|r| r.len())
            .unwrap_or(0),
        db.relation(schema.rel_id("DEPT")?)
            .map(|r| r.len())
            .unwrap_or(0),
    );
    let mut auditor = Auditor::new(History::new(schema, db))?;

    println!("\n-- a normal day --");
    auditor.submit(
        "hire-helen",
        &tx::hire("helen", "dept-0", 520, 29, "S", "proj-0", 60),
    )?;
    auditor.submit("helen-learns-sql", &tx::obtain_skill("helen", 12))?;
    auditor.submit("raise-helen", &tx::raise_salary("helen", 40))?;
    auditor.submit(
        "helen-marries",
        &tx::marry("helen").seq(tx::birthday("helen")),
    )?;
    auditor.submit("demote-emp-1", &tx::demote("emp-1", 50, "dept-fresh"))?;

    println!("\n-- attempted violations --");
    // salary cut without a department switch (Example 3)
    auditor.submit("illegal-pay-cut", &tx::cut_salary("helen", 100))?;
    // dropping a skill while employed (Example 3)
    auditor.submit("forget-sql", &tx::drop_skill("helen", 12))?;
    // marital regression with the age clock advancing (Example 2)
    auditor.submit(
        "annul-helen",
        &tx::annul("helen").seq(tx::birthday("helen")),
    )?;
    // deleting a department that still has employees (Example 3)
    auditor.submit("dissolve-dept-0", &tx::delete_dept("dept-0"))?;
    // firing helen is legal (skills go with her) — accepted
    auditor.submit("fire-helen", &tx::fire("helen"))?;

    println!(
        "\nfinal history length: {} states, all retained constraints hold",
        auditor.history.len()
    );
    Ok(())
}
