//! A guided tour of the paper, section by section.
//!
//! ```text
//! cargo run -p txlog-examples --bin paper_tour
//! ```
//!
//! Prints the paper's own artifacts — the expression levels of Section 2,
//! the axioms, the schema of Section 3, and each Section 4 example — with
//! this implementation evaluating every claim as it goes.

use txlog::base::Atom;
use txlog::constraints::{checkability, classify, Checker, History, Window};
use txlog::empdb::constraints as ic;
use txlog::empdb::transactions as tx;
use txlog::empdb::{employee_schema, populate, Sizes};
use txlog::engine::{Engine, Env};
use txlog::logic::{axioms, parse_fterm, parse_sformula};
use txlog::prelude::TxResult;

fn heading(s: &str) {
    println!("\n════ {s} ════");
}

fn main() -> TxResult<()> {
    let schema = employee_schema();
    let ctx = txlog::empdb::parse_ctx();
    let env = Env::new();

    heading("§2  The transaction logic: two expression levels");
    let fluent = parse_fterm("salary(e)", &ctx, &[txlog::logic::Var::tup_f("e", 5)])?;
    println!("f-expression (state-implicit): {fluent}");
    let sform = parse_sformula(
        "forall s: state, e': 5tup . e' in s:EMP -> salary(e') <= 100000",
        &ctx,
    )?;
    println!("s-formula (state-explicit):    {sform}");
    println!("\nfluent combinators compose transactions:");
    let demo = parse_fterm(
        "insert(tuple('ann', 'dept-0', 500, 30, 'S'), EMP) ;;
         if exists e: 5tup . e in EMP & salary(e) > 400
         then insert(tuple('ann', 9), SKILL)
         else skip",
        &ctx,
        &[],
    )?;
    println!("  {demo}");

    heading("§2  Action and frame axioms (machine-checked in the test suite)");
    for ax in [
        axioms::identity_fluent(),
        axioms::modify_action("EMP", 5, 3),
        axioms::modify_frame("EMP", 5, 3, 3),
    ] {
        println!("  {ax}");
    }

    heading("§3  A database is a model of the theory");
    let (_, db) = populate(Sizes::small(), 7)?;
    println!(
        "generated database: {} tuples across {} relations",
        db.total_tuples(),
        db.relation_count()
    );
    let engine = Engine::builder(&schema).build().unwrap();
    let db1 = engine.execute(
        &db,
        &tx::hire("tour", "dept-0", 510, 31, "S", "proj-0", 60),
        &env,
    )?;
    println!(
        "after hire: {} tuples (the old state is untouched: {})",
        db1.total_tuples(),
        db.total_tuples()
    );

    heading("§4 Ex.1  Static constraints");
    for (name, f) in ic::example1_all() {
        println!(
            "  {name}: class {:?}, window {:?}",
            classify(&f),
            checkability(&f, Default::default())
        );
    }

    heading("§4 Ex.2–3  Transaction constraints enforced with windows");
    let mut history = History::new(schema.clone(), db1);
    let checker = Checker::new(
        "skill-retention",
        ic::ic3_skill_retention(),
        Window::States(2),
    )?;
    history.step("learn", &tx::obtain_skill("tour", 3), &env)?;
    println!(
        "  obtain-skill … skill retention holds: {}",
        checker.check_now(&history)?
    );
    history.step("forget", &tx::drop_skill("tour", 3), &env)?;
    println!(
        "  drop-skill  … skill retention holds: {} (caught with 2 states)",
        checker.check_now(&history)?
    );

    heading("§4 Ex.4  The FIRE encoding");
    println!(
        "  never-rehire unencoded: {:?}",
        checkability(&ic::ic4_never_rehire(), Default::default())
    );
    println!(
        "  FIRE-encoded:           {:?} (static, window 1)",
        checkability(&ic::ic4_fire_static(), Default::default())
    );

    heading("§4 Ex.5  cancel-project");
    let (cancel, p, v) = tx::cancel_project();
    println!("{cancel}");
    let (_, db) = populate(Sizes::small(), 8)?;
    let proj = schema.rel_id("PROJ")?;
    let first = db
        .relation(proj)
        .and_then(|r| r.iter_vals().next())
        .expect("a project exists");
    let env2 = Env::new().bind_tuple(p, first).bind_atom(v, Atom::nat(25));
    let out = engine.execute(&db, &cancel, &env2)?;
    println!(
        "  projects {} → {}",
        db.relation(proj).map(|r| r.len()).unwrap_or(0),
        out.relation(proj).map(|r| r.len()).unwrap_or(0)
    );

    heading("§4 Ex.6  Synthesis from the declarative spec");
    let (spec, _, _) = txlog::empdb::spec::cancel_project_spec();
    let statics: Vec<_> = ic::example1_all().into_iter().map(|(_, f)| f).collect();
    let synth = txlog::synthesis::synthesize(&schema, &spec, &statics, "E")?;
    println!("  derivation steps: {}", synth.derivation.len());
    println!(
        "  repairs derived from ICs: {}",
        synth
            .derivation
            .iter()
            .filter(|d| d.contains("repair"))
            .count()
    );

    heading("§3  Temporal logic embeds via δ");
    let f = txlog::temporal::parse_tformula("<>[exists e: 5tup . e in EMP]", &ctx, &[])?;
    let s = txlog::logic::Var::state("s");
    println!("  δ(s, {f}) =");
    println!(
        "    {}",
        txlog::temporal::delta(&txlog::logic::STerm::var(s), &f)
    );

    println!("\n(tour complete — run `experiments` for the full E1–E8 report)");
    Ok(())
}
