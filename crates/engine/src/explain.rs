//! EXPLAIN for compiled quantifier plans.
//!
//! [`Engine::explain_formula`] / [`Engine::explain_program`] walk a
//! fluent formula or program and compile every quantifier prefix —
//! `exists`/`forall`, set-formers, `foreach` — exactly the way the
//! evaluator will at runtime (one [`QuantPlan`] per quantifier, under
//! the same [`GuardMode`]), and return the result as an [`Explain`]
//! tree. The tree renders as human-readable text or as JSON (via the
//! dependency-free `txlog_base::obs::json` writer), and can carry a
//! runtime counter [`Snapshot`] so a report shows *both* what the
//! planner chose and what the interpreter actually did (probe counts vs
//! scan rows, filter drops, …).
//!
//! Because the planner is purely syntactic, `explain` never touches a
//! database state: the same formula explains identically everywhere,
//! which is what makes the output safe to assert on in tests.
//!
//! [`QuantPlan`]: txlog_logic::plan::QuantPlan

use crate::exec::Engine;
use txlog_base::obs::json::JsonBuf;
use txlog_base::obs::Snapshot;
use txlog_logic::plan::{plan_quantifiers, DomainSource, GuardMode};
use txlog_logic::{FFormula, FTerm};

/// The shape of one plan step's candidate source, as a closed enum so
/// tests can assert "the probe was chosen" without string matching.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SourceKind {
    /// Full scan of a membership-bounding relation.
    Scan,
    /// Secondary-index probe on one column of the bounding relation.
    IndexProbe,
    /// Active-domain fallback over all tuples of the variable's arity.
    ActiveTuples,
    /// Active-domain fallback over atoms plus the condition's constants.
    Atoms,
    /// No finite enumeration exists; interpreting errors.
    Unenumerable,
}

impl SourceKind {
    /// Stable snake_case name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            SourceKind::Scan => "scan",
            SourceKind::IndexProbe => "index_probe",
            SourceKind::ActiveTuples => "active_tuples",
            SourceKind::Atoms => "atoms",
            SourceKind::Unenumerable => "unenumerable",
        }
    }
}

/// One variable of a compiled plan: what the interpreter will enumerate
/// to bind it, and how many residual filters narrow it.
#[derive(Clone, Debug)]
pub struct ExplainStep {
    /// The variable the step binds, rendered.
    pub var: String,
    /// The candidate source's shape.
    pub kind: SourceKind,
    /// Human-readable source description, e.g.
    /// `probe ALLOC[1] = e-name(e)` or `scan EMP`.
    pub detail: String,
    /// Residual narrowing conjuncts applied after binding.
    pub filters: usize,
}

/// One quantifier (or set-former / `foreach`) in the explain tree.
#[derive(Clone, Debug)]
pub struct ExplainNode {
    /// What introduced the plan: `exists a`, `forall e`, `set-former`,
    /// `foreach x`.
    pub label: String,
    /// The guard mode the prefix compiles under.
    pub mode: GuardMode,
    /// Plan-variable-free conjuncts checked before enumerating.
    pub prefilters: usize,
    /// One step per bound variable, in binding order.
    pub steps: Vec<ExplainStep>,
    /// Nested quantifiers inside the condition/body, compiled the same
    /// way the evaluator will compile them (fresh plan per binding).
    pub children: Vec<ExplainNode>,
}

/// A compiled-plan report: the explain tree plus, optionally, runtime
/// counters recorded while the plan actually ran.
#[derive(Clone, Debug)]
pub struct Explain {
    /// Top-level plan nodes in syntactic order.
    pub nodes: Vec<ExplainNode>,
    /// Runtime counters to report alongside the tree, if any.
    pub runtime: Option<Snapshot>,
}

impl Explain {
    /// Attach a runtime counter snapshot (typically taken from the
    /// engine's [`Metrics`] after executing the explained expression).
    ///
    /// [`Metrics`]: txlog_base::obs::Metrics
    pub fn with_runtime(mut self, snapshot: Snapshot) -> Explain {
        self.runtime = Some(snapshot);
        self
    }

    /// Every step in the tree, depth-first — convenient for asserting
    /// global properties ("some probe exists", "no unenumerable step").
    pub fn steps(&self) -> Vec<&ExplainStep> {
        fn walk<'a>(n: &'a ExplainNode, out: &mut Vec<&'a ExplainStep>) {
            out.extend(n.steps.iter());
            for c in &n.children {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        for n in &self.nodes {
            walk(n, &mut out);
        }
        out
    }

    /// Render the plan tree (and the non-zero runtime counters, when
    /// attached) as indented text.
    pub fn render(&self) -> String {
        fn node(n: &ExplainNode, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            let mode = match n.mode {
                GuardMode::Positive => "positive",
                GuardMode::Guarded => "guarded",
            };
            out.push_str(&format!("{pad}{} [{mode}]", n.label));
            if n.prefilters > 0 {
                out.push_str(&format!(" prefilters={}", n.prefilters));
            }
            out.push('\n');
            for s in &n.steps {
                out.push_str(&format!("{pad}  {} <- {}", s.var, s.detail));
                if s.filters > 0 {
                    out.push_str(&format!(" | {} filter(s)", s.filters));
                }
                out.push('\n');
            }
            for c in &n.children {
                node(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        for n in &self.nodes {
            node(n, 0, &mut out);
        }
        if let Some(rt) = &self.runtime {
            out.push_str("runtime ");
            out.push_str(&rt.render());
        }
        out
    }

    /// Serialize the report as JSON:
    /// `{"plan":[<node>...],"runtime":{...}?}` where each node is
    /// `{"label","mode","prefilters","steps":[{"var","source","detail",
    /// "filters"}],"children":[...]}`.
    pub fn to_json(&self) -> String {
        fn node(n: &ExplainNode, j: &mut JsonBuf) {
            j.begin_obj();
            j.key("label");
            j.string(&n.label);
            j.key("mode");
            j.string(match n.mode {
                GuardMode::Positive => "positive",
                GuardMode::Guarded => "guarded",
            });
            j.key("prefilters");
            j.num(n.prefilters as u64);
            j.key("steps");
            j.begin_arr();
            for s in &n.steps {
                j.begin_obj();
                j.key("var");
                j.string(&s.var);
                j.key("source");
                j.string(s.kind.name());
                j.key("detail");
                j.string(&s.detail);
                j.key("filters");
                j.num(s.filters as u64);
                j.end_obj();
            }
            j.end_arr();
            j.key("children");
            j.begin_arr();
            for c in &n.children {
                node(c, j);
            }
            j.end_arr();
            j.end_obj();
        }
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("plan");
        j.begin_arr();
        for n in &self.nodes {
            node(n, &mut j);
        }
        j.end_arr();
        if let Some(rt) = &self.runtime {
            j.key("runtime");
            // Counters only: the runtime half of an explain report must
            // be as deterministic as the plan half.
            j.begin_obj();
            for (name, v) in &rt.counters {
                if *v != 0 {
                    j.key(name);
                    j.num(*v);
                }
            }
            j.end_obj();
        }
        j.end_obj();
        j.finish()
    }
}

impl Engine<'_> {
    /// Explain every quantifier plan in a fluent formula (a constraint
    /// body, say) without evaluating it.
    pub fn explain_formula(&self, f: &FFormula) -> Explain {
        let mut nodes = Vec::new();
        self.walk_formula(f, &mut nodes);
        Explain {
            nodes,
            runtime: None,
        }
    }

    /// Explain every quantifier plan in a program (set-formers,
    /// `foreach` domains, condition formulas) without executing it.
    pub fn explain_program(&self, t: &FTerm) -> Explain {
        let mut nodes = Vec::new();
        self.walk_term(t, &mut nodes);
        Explain {
            nodes,
            runtime: None,
        }
    }

    fn explain_prefix(
        &self,
        label: String,
        vars: &[txlog_logic::Var],
        cond: &FFormula,
        mode: GuardMode,
    ) -> ExplainNode {
        let plan = plan_quantifiers(&self.tables.sig, vars, cond, mode);
        let steps = plan
            .steps
            .iter()
            .map(|s| {
                let (kind, detail) = match &s.source {
                    DomainSource::Scan(rel) => (SourceKind::Scan, format!("scan {rel}")),
                    DomainSource::IndexProbe { rel, col, key } => (
                        SourceKind::IndexProbe,
                        format!("probe {rel}[{col}] = {key}"),
                    ),
                    DomainSource::ActiveTuples(n) => (
                        SourceKind::ActiveTuples,
                        format!("active tuples of arity {n}"),
                    ),
                    DomainSource::Atoms => {
                        (SourceKind::Atoms, "active atoms + constants".to_string())
                    }
                    DomainSource::Unenumerable(sort) => (
                        SourceKind::Unenumerable,
                        format!("unenumerable sort {sort}"),
                    ),
                };
                ExplainStep {
                    var: s.var.to_string(),
                    kind,
                    detail,
                    filters: s.filters.len(),
                }
            })
            .collect();
        let mut children = Vec::new();
        self.walk_formula(cond, &mut children);
        ExplainNode {
            label,
            mode,
            prefilters: plan.prefilters.len(),
            steps,
            children,
        }
    }

    fn walk_formula(&self, f: &FFormula, out: &mut Vec<ExplainNode>) {
        match f {
            FFormula::Exists(v, body) => {
                out.push(self.explain_prefix(
                    format!("exists {v}"),
                    std::slice::from_ref(v),
                    body,
                    GuardMode::Positive,
                ));
            }
            FFormula::Forall(v, body) => {
                out.push(self.explain_prefix(
                    format!("forall {v}"),
                    std::slice::from_ref(v),
                    body,
                    GuardMode::Guarded,
                ));
            }
            FFormula::Not(q) => self.walk_formula(q, out),
            FFormula::And(a, b)
            | FFormula::Or(a, b)
            | FFormula::Implies(a, b)
            | FFormula::Iff(a, b) => {
                self.walk_formula(a, out);
                self.walk_formula(b, out);
            }
            FFormula::Cmp(_, a, b) | FFormula::Member(a, b) | FFormula::Subset(a, b) => {
                self.walk_term(a, out);
                self.walk_term(b, out);
            }
            FFormula::True | FFormula::False | FFormula::UserPred(_, _) => {}
        }
    }

    fn walk_term(&self, t: &FTerm, out: &mut Vec<ExplainNode>) {
        match t {
            FTerm::SetFormer { head, vars, cond } => {
                let mut node =
                    self.explain_prefix("set-former".to_string(), vars, cond, GuardMode::Positive);
                self.walk_term(head, &mut node.children);
                out.push(node);
            }
            FTerm::Foreach(v, p, body) => {
                let mut node = self.explain_prefix(
                    format!("foreach {v}"),
                    std::slice::from_ref(v),
                    p,
                    GuardMode::Positive,
                );
                self.walk_term(body, &mut node.children);
                out.push(node);
            }
            FTerm::Seq(a, b) => {
                self.walk_term(a, out);
                self.walk_term(b, out);
            }
            FTerm::Cond(p, a, b) => {
                self.walk_formula(p, out);
                self.walk_term(a, out);
                self.walk_term(b, out);
            }
            FTerm::Attr(_, inner) | FTerm::Select(inner, _) | FTerm::IdOf(inner) => {
                self.walk_term(inner, out)
            }
            FTerm::TupleCons(ts) | FTerm::App(_, ts) | FTerm::UserApp(_, ts) => {
                for t in ts {
                    self.walk_term(t, out);
                }
            }
            FTerm::Insert(tup, _) | FTerm::Delete(tup, _) => self.walk_term(tup, out),
            FTerm::Modify(tup, _, v) | FTerm::ModifyAttr(tup, _, v) => {
                self.walk_term(tup, out);
                self.walk_term(v, out);
            }
            FTerm::Assign(_, set) => self.walk_term(set, out),
            FTerm::Var(_) | FTerm::Nat(_) | FTerm::Str(_) | FTerm::Rel(_) | FTerm::Identity => {}
        }
    }
}
