//! The analysis passes: typechecking, abstract interpretation over the
//! parameter domains, and verdict classification.

use at_csp::{CmpOp, Value};
use at_expr::ast::apply_builtin;
use at_expr::{parse_spanned, BinOp, Expr, ExprError, Span, SpanNode};
use at_searchspace::{Restriction, SearchSpaceSpec};
use rustc_hash::FxHashMap;

use crate::absdom::{binop, cmp_link, neg, Abs, AbsVal, PAIR_CAP, SET_CAP};
use crate::diag::{closest, Code, Diagnostic, Severity};

/// Maximum number of assignments the exact enumeration refinement will
/// ground out. Within it, the reference interpreter fills a restriction's
/// truth table, and its verdict and per-value support are exact, not
/// abstract. AT0008 checks a pair only when its joint scope is within it.
pub const EXACT_CAP: u128 = 4096;

/// What the analyzer concluded about one restriction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Satisfied by some assignments and violated (or errored) by others.
    Contingent,
    /// Provably satisfied by every assignment in the domains: dropping
    /// it leaves the space identical.
    Tautology,
    /// Provably satisfied by no assignment: the space is empty.
    Contradiction,
}

impl Verdict {
    /// Short lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Contingent => "contingent",
            Verdict::Tautology => "tautology",
            Verdict::Contradiction => "contradiction",
        }
    }
}

/// Values of one parameter that restrictions provably exclude.
#[derive(Debug, Clone)]
pub struct PrunableParam {
    /// The parameter name.
    pub param: String,
    /// Domain values no satisfying assignment of some restriction uses.
    pub values: Vec<Value>,
}

/// The full result of analyzing a spec.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The spec's name.
    pub spec_name: String,
    /// All findings, in restriction order.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-restriction verdicts; `None` when the restriction could not
    /// be analyzed (parse failure, unknown variables, oversized scope).
    pub verdicts: Vec<Option<Verdict>>,
    /// Parameter values provably excluded by some restriction.
    pub prunable: Vec<PrunableParam>,
}

impl CheckReport {
    /// Number of error-severity diagnostics.
    pub fn num_errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn num_warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    /// Whether any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.num_errors() > 0
    }

    /// Whether the report is completely clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Total number of prunable values across parameters.
    pub fn num_prunable_values(&self) -> usize {
        self.prunable.iter().map(|p| p.values.len()).sum()
    }

    /// Render every diagnostic plus a one-line summary, in the style of
    /// a compiler run.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s) across {} restriction(s)\n",
            self.spec_name,
            self.num_errors(),
            self.num_warnings(),
            self.verdicts.len(),
        ));
        if self.num_prunable_values() > 0 {
            out.push_str(&format!(
                "domain pre-pruning could remove {} value(s) across {} parameter(s)\n",
                self.num_prunable_values(),
                self.prunable.len()
            ));
        }
        out
    }
}

/// Run the full analysis over a spec.
pub fn check_spec(spec: &SearchSpaceSpec) -> CheckReport {
    let span = at_obs::span("check", "analyze")
        .arg("restrictions", spec.restrictions.len() as u64)
        .arg("params", spec.params.len() as u64);
    let param_names: Vec<String> = spec.params.iter().map(|p| p.name().to_string()).collect();
    let mut diagnostics = Vec::new();
    let mut verdicts: Vec<Option<Verdict>> = vec![None; spec.restrictions.len()];
    // One truth table per exactly enumerated restriction; the verdicts,
    // the pairwise checks and the pruning evidence are all read from them.
    let mut tables: Vec<Option<TruthTable>> = (0..spec.restrictions.len()).map(|_| None).collect();

    for (index, restriction) in spec.restrictions.iter().enumerate() {
        match restriction {
            Restriction::Expression(source) => {
                analyze_expression(
                    spec,
                    &param_names,
                    index,
                    source,
                    &mut diagnostics,
                    &mut verdicts,
                    &mut tables,
                );
            }
            other => {
                analyze_opaque(
                    spec,
                    &param_names,
                    index,
                    other,
                    &mut diagnostics,
                    &mut verdicts,
                    &mut tables,
                );
            }
        }
    }

    let pairs = pairwise_contradictions(spec, &verdicts, &tables, &mut diagnostics);
    let prunable = collect_prunable(spec, &verdicts, &tables);
    drop(
        span.arg_with("assignments", || {
            tables.iter().flatten().map(|t| t.len as u64).sum()
        })
        .arg("pairs", pairs),
    );

    CheckReport {
        spec_name: spec.name.clone(),
        diagnostics,
        verdicts,
        prunable,
    }
}

/// The exact enumeration of one restriction: a bitset truth table over
/// every assignment of its scope.
struct TruthTable {
    /// Parameter indices in the restriction's scope.
    scope: Vec<usize>,
    /// Bit `i` is set when assignment `i` satisfies the restriction.
    /// Assignments are numbered in odometer order, last scope entry
    /// fastest, so entry `k` has the stride [`strides`] gives it.
    bits: Vec<u64>,
    /// Number of assignments: the product of the scope's domain sizes.
    len: usize,
}

impl TruthTable {
    fn get(&self, i: usize) -> bool {
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    fn verdict(&self) -> Verdict {
        let n_sat: usize = self.bits.iter().map(|w| w.count_ones() as usize).sum();
        if n_sat == self.len {
            Verdict::Tautology
        } else if n_sat == 0 {
            Verdict::Contradiction
        } else {
            Verdict::Contingent
        }
    }

    /// For each scope entry, which of its domain values some satisfying
    /// assignment uses: one pass over the set bits.
    fn support(&self, spec: &SearchSpaceSpec) -> Vec<Vec<bool>> {
        let strides = strides(spec, &self.scope);
        let mut support: Vec<Vec<bool>> = self
            .scope
            .iter()
            .map(|&p| vec![false; spec.params[p].len()])
            .collect();
        for (w, mut word) in self.bits.iter().copied().enumerate() {
            while word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                for (used, &stride) in support.iter_mut().zip(&strides) {
                    let len = used.len();
                    used[i / stride % len] = true;
                }
            }
        }
        support
    }

    /// Strides that project an assignment of `joint` (a superset of this
    /// table's scope) onto this table: the projected index is
    /// `Σ counter[pos] * projection[pos]`. Every scope entry maps to the
    /// last joint position holding its parameter: writing a joint
    /// assignment into an env keyed by name leaves that position's value.
    fn projection(&self, spec: &SearchSpaceSpec, joint: &[usize]) -> Vec<usize> {
        let mut projection = vec![0; joint.len()];
        for (&p, stride) in self.scope.iter().zip(strides(spec, &self.scope)) {
            let pos = joint
                .iter()
                .rposition(|&q| q == p)
                .expect("the joint scope covers the table's scope");
            projection[pos] += stride;
        }
        projection
    }
}

/// Odometer strides of `scope`: entry `k` advances by the product of
/// the domain sizes after it.
fn strides(spec: &SearchSpaceSpec, scope: &[usize]) -> Vec<usize> {
    let mut strides = vec![1; scope.len()];
    for k in (1..scope.len()).rev() {
        strides[k - 1] = strides[k] * spec.params[scope[k]].len();
    }
    strides
}

/// The number of assignments of `scope`, when it is non-zero and within
/// [`EXACT_CAP`].
fn exact_len(spec: &SearchSpaceSpec, scope: &[usize]) -> Option<usize> {
    let mut total: u128 = 1;
    for &p in scope {
        total = total.saturating_mul(spec.params[p].len() as u128);
    }
    (total != 0 && total <= EXACT_CAP).then_some(total as usize)
}

#[allow(clippy::too_many_arguments)]
fn analyze_expression(
    spec: &SearchSpaceSpec,
    param_names: &[String],
    index: usize,
    source: &str,
    diagnostics: &mut Vec<Diagnostic>,
    verdicts: &mut [Option<Verdict>],
    tables: &mut [Option<TruthTable>],
) {
    let (expr, spans) = match parse_spanned(source) {
        Ok(pair) => pair,
        Err(e) => {
            let position = match &e {
                ExprError::Lex { position, .. } | ExprError::Parse { position, .. } => {
                    Some(*position)
                }
                _ => None,
            };
            diagnostics.push(Diagnostic {
                code: Code::ParseFailure,
                message: format!("restriction does not parse: {e}"),
                restriction: Some(index),
                source: Some(source.to_string()),
                // Error positions can sit at end-of-input (e.g. an empty
                // source); clamp the span into the source.
                span: position.map(|p| {
                    let start = p.min(source.len());
                    Span::new(start, (p + 1).min(source.len()).max(start))
                }),
                help: None,
            });
            return;
        }
    };

    // Layer 1: unknown variables (with did-you-mean).
    let vars = expr.variables();
    let mut any_unknown = false;
    for name in &vars {
        if !param_names.contains(name) {
            any_unknown = true;
            let span = find_var_span(&expr, &spans, name);
            let help = match closest(name, param_names) {
                Some(candidate) => format!("did you mean `{candidate}`?"),
                None => format!("parameters: {}", param_names.join(", ")),
            };
            diagnostics.push(Diagnostic {
                code: Code::UnknownVariable,
                message: format!("unknown variable `{name}`"),
                restriction: Some(index),
                source: Some(source.to_string()),
                span,
                help: Some(help),
            });
        }
    }
    if any_unknown {
        return;
    }

    // Layer 2: the abstract walk — node diagnostics plus an abstract
    // truth summary.
    let env: Env = vars
        .iter()
        .map(|name| {
            let p = &spec.params[spec.param_index(name).expect("known variable")];
            (name.clone(), domain_abs(p.values()))
        })
        .collect();
    let mut walker = Walker {
        source,
        restriction: index,
        diags: Vec::new(),
        dead: Vec::new(),
    };
    let summary = walker.eval(&expr, &spans, &env);
    let Walker { diags, dead, .. } = walker;
    diagnostics.extend(diags);

    // Exact refinement: when the scope grounds out below EXACT_CAP, the
    // reference interpreter fills the restriction's truth table, which
    // gives the precise verdict.
    let scope: Vec<usize> = vars
        .iter()
        .map(|name| spec.param_index(name).expect("known variable"))
        .collect();
    let verdict = match truth_table(
        spec,
        &scope,
        |env| matches!(expr.evaluate(env), Ok(v) if v.truthy()),
    ) {
        Some(table) => {
            let verdict = table.verdict();
            tables[index] = Some(table);
            verdict
        }
        None => {
            // Abstract verdict; sound one-sided claims only.
            if !summary.can_true() {
                Verdict::Contradiction
            } else if !summary.can_false() && !summary.may_error {
                Verdict::Tautology
            } else {
                Verdict::Contingent
            }
        }
    };
    verdicts[index] = Some(verdict);

    emit_verdict_diagnostics(verdict, index, source, &spans, diagnostics);
    if verdict == Verdict::Contingent {
        for d in dead {
            diagnostics.push(Diagnostic {
                code: Code::DeadBranch,
                message: d.message,
                restriction: Some(index),
                source: Some(source.to_string()),
                span: Some(d.span),
                help: None,
            });
        }
    }
}

/// Closure and pre-built specific restrictions: their predicate can be
/// run but not inspected, so the analysis is black-box — exact
/// enumeration when the scope is small, nothing otherwise.
#[allow(clippy::too_many_arguments)]
fn analyze_opaque(
    spec: &SearchSpaceSpec,
    param_names: &[String],
    index: usize,
    restriction: &Restriction,
    diagnostics: &mut Vec<Diagnostic>,
    verdicts: &mut [Option<Verdict>],
    tables: &mut [Option<TruthTable>],
) {
    let Some((constraint, scope_names)) = restriction.as_function_constraint() else {
        return;
    };
    let mut any_unknown = false;
    for name in &scope_names {
        if !param_names.contains(name) {
            any_unknown = true;
            let help = match closest(name, param_names) {
                Some(candidate) => format!("did you mean `{candidate}`?"),
                None => format!("parameters: {}", param_names.join(", ")),
            };
            diagnostics.push(Diagnostic {
                code: Code::UnknownVariable,
                message: format!(
                    "unknown variable `{name}` in the scope of `{}`",
                    restriction.describe()
                ),
                restriction: Some(index),
                source: None,
                span: None,
                help: Some(help),
            });
        }
    }
    if any_unknown {
        return;
    }
    let scope: Vec<usize> = scope_names
        .iter()
        .map(|name| spec.param_index(name).expect("known variable"))
        .collect();
    let mut values = Vec::with_capacity(scope.len());
    if let Some(table) = truth_table(spec, &scope, |env| {
        values.clear();
        for name in &scope_names {
            values.push(env.get(name).expect("scope variable").clone());
        }
        constraint.evaluate(&values)
    }) {
        let verdict = table.verdict();
        tables[index] = Some(table);
        verdicts[index] = Some(verdict);
        if verdict != Verdict::Contingent {
            emit_opaque_verdict(verdict, index, restriction, diagnostics);
        }
    }
}

fn emit_verdict_diagnostics(
    verdict: Verdict,
    index: usize,
    source: &str,
    spans: &SpanNode,
    diagnostics: &mut Vec<Diagnostic>,
) {
    match verdict {
        Verdict::Tautology => diagnostics.push(Diagnostic {
            code: Code::Tautology,
            message: "restriction is satisfied by every configuration in the domains".into(),
            restriction: Some(index),
            source: Some(source.to_string()),
            span: Some(spans.span),
            help: Some("it never rejects anything and can be dropped".into()),
        }),
        Verdict::Contradiction => diagnostics.push(Diagnostic {
            code: Code::Contradiction,
            message: "no configuration satisfies this restriction".into(),
            restriction: Some(index),
            source: Some(source.to_string()),
            span: Some(spans.span),
            help: Some("the search space is provably empty; no solve is needed".into()),
        }),
        Verdict::Contingent => {}
    }
}

fn emit_opaque_verdict(
    verdict: Verdict,
    index: usize,
    restriction: &Restriction,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let (code, message) = match verdict {
        Verdict::Tautology => (
            Code::Tautology,
            format!(
                "`{}` is satisfied by every configuration in the domains",
                restriction.describe()
            ),
        ),
        Verdict::Contradiction => (
            Code::Contradiction,
            format!("no configuration satisfies `{}`", restriction.describe()),
        ),
        Verdict::Contingent => return,
    };
    diagnostics.push(Diagnostic {
        code,
        message,
        restriction: Some(index),
        source: None,
        span: None,
        help: None,
    });
}

/// Fill the truth table of `scope` (by parameter index) when the
/// product of domain sizes is within [`EXACT_CAP`], feeding each
/// assignment to `satisfied`. The env holds one key per scope name,
/// inserted once; each odometer step overwrites only the values of the
/// entries it moved.
fn truth_table(
    spec: &SearchSpaceSpec,
    scope: &[usize],
    mut satisfied: impl FnMut(&FxHashMap<String, Value>) -> bool,
) -> Option<TruthTable> {
    let len = exact_len(spec, scope)?;
    let domains: Vec<&[Value]> = scope.iter().map(|&p| spec.params[p].values()).collect();
    let dims: Vec<usize> = domains.iter().map(|d| d.len()).collect();
    let names: Vec<&str> = scope.iter().map(|&p| spec.params[p].name()).collect();
    let mut env: FxHashMap<String, Value> = names
        .iter()
        .zip(&domains)
        .map(|(name, domain)| (name.to_string(), domain[0].clone()))
        .collect();
    let mut counters = vec![0usize; scope.len()];
    let mut bits = vec![0u64; len.div_ceil(64)];
    for i in 0..len {
        if satisfied(&env) {
            bits[i / 64] |= 1 << (i % 64);
        }
        let Some(moved) = odometer_step(&mut counters, &dims) else {
            break;
        };
        for m in moved..scope.len() {
            *env.get_mut(names[m]).expect("scope variable") = domains[m][counters[m]].clone();
        }
    }
    Some(TruthTable {
        scope: scope.to_vec(),
        bits,
        len,
    })
}

/// AT0008: pairs of individually satisfiable restrictions that are
/// jointly unsatisfiable. Only exactly-enumerated restrictions with
/// overlapping scopes participate (disjoint scopes are independent, so
/// individual satisfiability implies joint satisfiability), and only
/// when the joint scope is within [`EXACT_CAP`]. Returns the number of
/// pairs decided.
fn pairwise_contradictions(
    spec: &SearchSpaceSpec,
    verdicts: &[Option<Verdict>],
    tables: &[Option<TruthTable>],
    diagnostics: &mut Vec<Diagnostic>,
) -> u64 {
    let candidates: Vec<(usize, &TruthTable)> = (0..spec.restrictions.len())
        .filter(|&i| verdicts[i] == Some(Verdict::Contingent))
        .filter_map(|i| Some((i, tables[i].as_ref()?)))
        .collect();
    let mut decided = 0;
    for (a_pos, &(i, ti)) in candidates.iter().enumerate() {
        for &(j, tj) in &candidates[a_pos + 1..] {
            if !ti.scope.iter().any(|p| tj.scope.contains(p)) {
                continue;
            }
            let mut joint = ti.scope.clone();
            for &p in &tj.scope {
                if !joint.contains(&p) {
                    joint.push(p);
                }
            }
            if exact_len(spec, &joint).is_none() {
                continue;
            }
            decided += 1;
            if !jointly_satisfiable(spec, &joint, ti, tj) {
                diagnostics.push(Diagnostic {
                    code: Code::PairwiseContradiction,
                    message: format!(
                        "restrictions {i} and {j} can never hold at the same time: \
                         `{}` and `{}`",
                        spec.restrictions[i].describe(),
                        spec.restrictions[j].describe()
                    ),
                    restriction: Some(j),
                    source: None,
                    span: None,
                    help: Some("the search space is provably empty".into()),
                });
            }
        }
    }
    decided
}

/// Walk the odometer of `joint`, reading each assignment's bit in both
/// tables through their projections, and stop at the first assignment
/// both satisfy.
fn jointly_satisfiable(
    spec: &SearchSpaceSpec,
    joint: &[usize],
    a: &TruthTable,
    b: &TruthTable,
) -> bool {
    let dims: Vec<usize> = joint.iter().map(|&p| spec.params[p].len()).collect();
    let (proj_a, proj_b) = (a.projection(spec, joint), b.projection(spec, joint));
    let index = |counters: &[usize], proj: &[usize]| -> usize {
        counters.iter().zip(proj).map(|(c, s)| c * s).sum()
    };
    let mut counters = vec![0usize; joint.len()];
    loop {
        if a.get(index(&counters, &proj_a)) && b.get(index(&counters, &proj_b)) {
            return true;
        }
        if odometer_step(&mut counters, &dims).is_none() {
            return false;
        }
    }
}

/// Advance `counters` to the next assignment over domains of sizes
/// `dims`, last entry fastest. Returns the first entry that moved (every
/// entry after it reset to 0), or `None` past the last assignment.
fn odometer_step(counters: &mut [usize], dims: &[usize]) -> Option<usize> {
    let k = (0..counters.len())
        .rev()
        .find(|&k| counters[k] + 1 < dims[k])?;
    counters[k] += 1;
    counters[k + 1..].fill(0);
    Some(k)
}

/// Fold the tables' supports into per-parameter prunable value lists. A
/// value is prunable when **some** restriction's satisfying assignments
/// never use it — the conjunction then cannot either. Contradictory
/// specs are skipped (the space is empty; pruning is moot).
fn collect_prunable(
    spec: &SearchSpaceSpec,
    verdicts: &[Option<Verdict>],
    tables: &[Option<TruthTable>],
) -> Vec<PrunableParam> {
    if verdicts.contains(&Some(Verdict::Contradiction)) {
        return Vec::new();
    }
    let mut removable: Vec<Vec<usize>> = vec![Vec::new(); spec.params.len()];
    for table in tables.iter().flatten() {
        for (&p, used) in table.scope.iter().zip(table.support(spec)) {
            removable[p].extend((0..used.len()).filter(|&v| !used[v]));
        }
    }
    let mut out: Vec<PrunableParam> = removable
        .into_iter()
        .enumerate()
        .filter(|(_, indices)| !indices.is_empty())
        .map(|(p, mut indices)| {
            indices.sort_unstable();
            indices.dedup();
            let param = &spec.params[p];
            PrunableParam {
                param: param.name().to_string(),
                values: indices.iter().map(|&i| param.values()[i].clone()).collect(),
            }
        })
        .collect();
    out.sort_by(|a, b| a.param.cmp(&b.param));
    out
}

/// Find the span of the first occurrence of variable `name`.
fn find_var_span(expr: &Expr, spans: &SpanNode, name: &str) -> Option<Span> {
    match expr {
        Expr::Var(v) if v == name => Some(spans.span),
        _ => {
            let children = expr_children(expr);
            debug_assert_eq!(children.len(), spans.children.len());
            children
                .iter()
                .zip(&spans.children)
                .find_map(|(child, child_span)| find_var_span(child, child_span, name))
        }
    }
}

/// The sub-expressions of a node, in [`SpanNode`] child order.
fn expr_children(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Const(_) | Expr::Var(_) => Vec::new(),
        Expr::Neg(e) | Expr::Not(e) => vec![e.as_ref()],
        Expr::Binary { lhs, rhs, .. } => vec![lhs.as_ref(), rhs.as_ref()],
        Expr::Compare { first, rest } => {
            let mut v = vec![first.as_ref()];
            v.extend(rest.iter().map(|(_, e)| e));
            v
        }
        Expr::And(parts) | Expr::Or(parts) => parts.iter().collect(),
        Expr::In { value, set, .. } => {
            let mut v = vec![value.as_ref()];
            v.extend(set.iter());
            v
        }
        Expr::Call { args, .. } => args.iter().collect(),
    }
}

/// Abstract a parameter domain.
fn domain_abs(values: &[Value]) -> Abs {
    if values.len() > SET_CAP {
        Abs::Top
    } else {
        Abs::Set(values.to_vec())
    }
}

type Env = FxHashMap<String, Abs>;

/// A dead-branch candidate recorded during the walk.
struct DeadCandidate {
    span: Span,
    message: String,
}

/// The abstract interpreter over one restriction expression.
struct Walker<'a> {
    source: &'a str,
    restriction: usize,
    diags: Vec<Diagnostic>,
    dead: Vec<DeadCandidate>,
}

impl Walker<'_> {
    fn eval(&mut self, expr: &Expr, spans: &SpanNode, env: &Env) -> AbsVal {
        match expr {
            Expr::Const(v) => AbsVal::exact(Abs::singleton(v.clone())),
            Expr::Var(name) => match env.get(name) {
                Some(abs) => AbsVal::exact(abs.clone()),
                None => AbsVal::top(),
            },
            Expr::Neg(inner) => {
                let v = self.eval(inner, &spans.children[0], env);
                neg(&v)
            }
            Expr::Not(inner) => {
                let v = self.eval(inner, &spans.children[0], env);
                AbsVal::bools(v.can_false(), v.can_true(), v.may_error)
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs, &spans.children[0], env);
                let r = self.eval(rhs, &spans.children[1], env);
                if matches!(op, BinOp::Div | BinOp::FloorDiv | BinOp::Mod) && r.abs.can_be_zero() {
                    let rhs_span = spans.children[1].span;
                    self.diags.push(Diagnostic {
                        code: Code::PossibleDivisionByZero,
                        message: format!(
                            "`{}` can be zero here; configurations hitting `{}` with a zero \
                             divisor are rejected",
                            snippet(self.source, rhs_span),
                            op.symbol()
                        ),
                        restriction: Some(self.restriction),
                        source: Some(self.source.to_string()),
                        span: Some(rhs_span),
                        help: Some(format!(
                            "guard it, e.g. `{} == 0 or …`",
                            snippet(self.source, rhs_span)
                        )),
                    });
                }
                binop(*op, &l, &r)
            }
            Expr::Compare { first, rest } => {
                let mut operands = Vec::with_capacity(1 + rest.len());
                operands.push(self.eval(first, &spans.children[0], env));
                for (k, (_, rhs)) in rest.iter().enumerate() {
                    operands.push(self.eval(rhs, &spans.children[k + 1], env));
                }
                let may_error = operands.iter().any(|o| o.may_error);
                let mut can_true = true;
                let mut can_false = false;
                for (k, (op, _)) in rest.iter().enumerate() {
                    let (l, r) = (&operands[k], &operands[k + 1]);
                    let link_span = spans.children[k].span.to(spans.children[k + 1].span);
                    self.check_link(*op, l, r, link_span);
                    let (ct, cf) = cmp_link(*op, &l.abs, &r.abs);
                    can_true &= ct;
                    can_false |= cf;
                }
                AbsVal::bools(can_true, can_false, may_error)
            }
            Expr::In {
                value,
                set,
                negated,
            } => {
                let v = self.eval(value, &spans.children[0], env);
                let elems: Vec<AbsVal> = set
                    .iter()
                    .enumerate()
                    .map(|(k, e)| self.eval(e, &spans.children[k + 1], env))
                    .collect();
                let may_error = v.may_error || elems.iter().any(|e| e.may_error);
                let (mut can_hit, mut can_miss) = (true, true);
                let total: usize = elems
                    .iter()
                    .map(|e| e.abs.members().map_or(PAIR_CAP, <[Value]>::len))
                    .sum();
                if let Some(xs) = v.abs.members() {
                    if xs.len().saturating_mul(total.max(1)) <= PAIR_CAP
                        && elems.iter().all(|e| e.abs.members().is_some())
                    {
                        can_hit = xs.iter().any(|x| {
                            elems.iter().any(|e| {
                                e.abs
                                    .members()
                                    .expect("checked finite")
                                    .iter()
                                    .any(|y| x.py_eq(y))
                            })
                        });
                        can_miss = xs.is_empty()
                            || xs.iter().any(|x| {
                                elems.iter().all(|e| {
                                    e.abs
                                        .members()
                                        .expect("checked finite")
                                        .iter()
                                        .any(|y| !x.py_eq(y))
                                        || e.abs.is_empty_set()
                                })
                            });
                        if xs.is_empty() {
                            can_hit = false;
                            can_miss = false;
                        }
                    }
                }
                let (ct, cf) = if *negated {
                    (can_miss, can_hit)
                } else {
                    (can_hit, can_miss)
                };
                AbsVal::bools(ct, cf, may_error)
            }
            Expr::Call { func, args } => {
                let arg_vals: Vec<AbsVal> = args
                    .iter()
                    .enumerate()
                    .map(|(k, a)| self.eval(a, &spans.children[k], env))
                    .collect();
                let mut may_error = arg_vals.iter().any(|a| a.may_error);
                let mut product: usize = 1;
                for a in &arg_vals {
                    match a.abs.members() {
                        Some(m) => product = product.saturating_mul(m.len().max(1)),
                        None => return AbsVal::top(),
                    }
                }
                if product > PAIR_CAP {
                    return AbsVal::top();
                }
                if arg_vals.iter().any(|a| a.abs.is_empty_set()) {
                    return AbsVal {
                        abs: Abs::Set(Vec::new()),
                        may_error,
                    };
                }
                let members: Vec<&[Value]> = arg_vals
                    .iter()
                    .map(|a| a.abs.members().expect("checked finite"))
                    .collect();
                let mut counters = vec![0usize; members.len()];
                let mut out = Vec::new();
                'outer: loop {
                    let values: Vec<Value> = counters
                        .iter()
                        .enumerate()
                        .map(|(k, &i)| members[k][i].clone())
                        .collect();
                    match apply_builtin(*func, &values) {
                        Ok(v) => out.push(v),
                        Err(_) => may_error = true,
                    }
                    let mut k = members.len();
                    loop {
                        if k == 0 {
                            break 'outer;
                        }
                        k -= 1;
                        counters[k] += 1;
                        if counters[k] < members[k].len() {
                            break;
                        }
                        counters[k] = 0;
                    }
                    if members.is_empty() {
                        break;
                    }
                }
                AbsVal {
                    abs: Abs::from_values(out),
                    may_error,
                }
            }
            Expr::And(parts) => self.eval_connective(parts, spans, env, true),
            Expr::Or(parts) => self.eval_connective(parts, spans, env, false),
        }
    }

    /// Per-link comparison diagnostics (AT0002, AT0003).
    fn check_link(&mut self, op: CmpOp, l: &AbsVal, r: &AbsVal, link_span: Span) {
        let cross_type =
            (l.abs.all_numeric() && r.abs.all_str()) || (l.abs.all_str() && r.abs.all_numeric());
        if cross_type && op != CmpOp::Ne {
            self.diags.push(Diagnostic {
                code: Code::CrossTypeComparison,
                message: format!(
                    "`{}` between a number and a string never holds (Python semantics: \
                     numbers and strings are incomparable)",
                    op.symbol()
                ),
                restriction: Some(self.restriction),
                source: Some(self.source.to_string()),
                span: Some(link_span),
                help: None,
            });
            return;
        }
        if matches!(op, CmpOp::Eq | CmpOp::Ne)
            && (l.abs.all_float() || r.abs.all_float())
            && l.abs.all_numeric()
            && r.abs.all_numeric()
        {
            self.diags.push(Diagnostic {
                code: Code::FloatEquality,
                message: format!(
                    "`{}` on a value that is always a float; exact float equality depends \
                     on rounding",
                    op.symbol()
                ),
                restriction: Some(self.restriction),
                source: Some(self.source.to_string()),
                span: Some(link_span),
                help: Some("compare with a tolerance or use integer arithmetic".into()),
            });
        }
    }

    /// `and`/`or` with short-circuit paths: operand *k* is analyzed
    /// under the refinement implied by operands `0..k` (all true for
    /// `and`, all false for `or`), which is what makes the pervasive
    /// `luf == 0 or tile % luf == 0` guard idiom analyze cleanly.
    fn eval_connective(
        &mut self,
        parts: &[Expr],
        spans: &SpanNode,
        env: &Env,
        is_and: bool,
    ) -> AbsVal {
        let mut env = env.clone();
        let mut may_error = false;
        let mut all_parts_processed = true;
        let mut forced = true; // AND: all can_true; OR: all can_false
        let mut escape = false; // AND: any can_false; OR: any can_true
        for (k, part) in parts.iter().enumerate() {
            let v = self.eval(part, &spans.children[k], &env);
            may_error |= v.may_error;
            let (continues, decides) = if is_and {
                (v.can_true(), v.can_false())
            } else {
                (v.can_false(), v.can_true())
            };
            escape |= decides;
            forced &= continues;
            // Dead-branch candidates: an operand that can never decide
            // the connective (and never errors) is inert.
            if !decides && !v.may_error {
                self.dead.push(DeadCandidate {
                    span: spans.children[k].span,
                    message: if is_and {
                        "this `and` operand is always satisfied here; it never rejects \
                         anything"
                            .into()
                    } else {
                        "this `or` branch can never be true for any parameter value".into()
                    },
                });
            }
            if !continues {
                // Later operands are never evaluated.
                if k + 1 < parts.len() {
                    all_parts_processed = false;
                }
                break;
            }
            refine(&mut env, part, is_and);
        }
        let forced = forced && all_parts_processed;
        if is_and {
            AbsVal::bools(forced, escape, may_error)
        } else {
            AbsVal::bools(escape, forced, may_error)
        }
    }
}

/// Shrink `env` by the knowledge that `expr` evaluated to `truth`.
/// Only simple, provably-invertible shapes refine; anything else is a
/// no-op (which keeps the env an over-approximation — sound).
fn refine(env: &mut Env, expr: &Expr, truth: bool) {
    match expr {
        Expr::Not(inner) => refine(env, inner, !truth),
        Expr::Var(name) => {
            retain(env, name, |v| v.truthy() == truth);
        }
        Expr::Compare { first, rest } if rest.len() == 1 => {
            let (op, rhs) = (&rest[0].0, &rest[0].1);
            match (first.as_ref(), rhs) {
                (Expr::Var(name), Expr::Const(c)) => {
                    retain(env, name, |v| op.apply(v, c) == truth);
                }
                (Expr::Const(c), Expr::Var(name)) => {
                    retain(env, name, |v| op.apply(c, v) == truth);
                }
                _ => {}
            }
        }
        Expr::In {
            value,
            set,
            negated,
        } => {
            if let Expr::Var(name) = value.as_ref() {
                let consts: Option<Vec<&Value>> = set
                    .iter()
                    .map(|e| match e {
                        Expr::Const(c) => Some(c),
                        _ => None,
                    })
                    .collect();
                if let Some(consts) = consts {
                    retain(env, name, |v| {
                        (consts.iter().any(|c| v.py_eq(c)) != *negated) == truth
                    });
                }
            }
        }
        _ => {}
    }
}

fn retain(env: &mut Env, name: &str, keep: impl Fn(&Value) -> bool) {
    if let Some(Abs::Set(values)) = env.get_mut(name) {
        values.retain(|v| keep(v));
    }
}

fn snippet(source: &str, span: Span) -> &str {
    // Clamp into the source and snap to char boundaries (spans are byte
    // offsets and may land inside a multi-byte char on lossily-decoded
    // input).
    let mut start = span.start.min(source.len());
    while !source.is_char_boundary(start) {
        start -= 1;
    }
    let mut end = span.end.clamp(start, source.len());
    while !source.is_char_boundary(end) {
        end += 1;
    }
    &source[start..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_searchspace::TunableParameter;

    fn spec(params: &[(&str, Vec<i64>)], restrictions: &[&str]) -> SearchSpaceSpec {
        let mut s = SearchSpaceSpec::new("test");
        for (name, values) in params {
            s.add_param(TunableParameter::ints(*name, values.iter().copied()));
        }
        for r in restrictions {
            s.add_restriction(Restriction::expr(*r));
        }
        s
    }

    fn codes(report: &CheckReport) -> Vec<Code> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_spec_is_clean() {
        let s = spec(
            &[("x", vec![1, 2, 4]), ("y", vec![1, 2])],
            &["x * y <= 4", "x >= y"],
        );
        let report = check_spec(&s);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(
            report.verdicts,
            vec![Some(Verdict::Contingent), Some(Verdict::Contingent)]
        );
    }

    #[test]
    fn unknown_variable_with_suggestion() {
        let s = spec(&[("block_size_x", vec![1, 2])], &["block_size_z <= 2"]);
        let report = check_spec(&s);
        assert_eq!(codes(&report), vec![Code::UnknownVariable]);
        let d = &report.diagnostics[0];
        assert!(d.message.contains("block_size_z"));
        assert!(d.help.as_ref().unwrap().contains("block_size_x"));
        assert!(d.span.is_some());
        assert_eq!(report.verdicts, vec![None]);
    }

    #[test]
    fn parse_failure_reports_at0009() {
        let s = spec(&[("x", vec![1])], &["x >"]);
        let report = check_spec(&s);
        assert_eq!(codes(&report), vec![Code::ParseFailure]);
        assert!(report.has_errors());
    }

    #[test]
    fn tautology_and_contradiction_verdicts() {
        let s = spec(&[("x", vec![1, 2, 4])], &["x >= 1", "x > 99"]);
        let report = check_spec(&s);
        assert_eq!(report.verdicts[0], Some(Verdict::Tautology));
        assert_eq!(report.verdicts[1], Some(Verdict::Contradiction));
        assert!(codes(&report).contains(&Code::Tautology));
        assert!(codes(&report).contains(&Code::Contradiction));
        assert!(report.has_errors());
    }

    #[test]
    fn guard_idiom_produces_no_division_warning() {
        // The classic Kernel Tuner guard: the division is only reachable
        // when luf != 0, which the path refinement understands.
        let s = spec(
            &[("luf", vec![0, 1, 2, 4]), ("tile", vec![1, 2, 4, 8])],
            &["luf == 0 or tile % luf == 0"],
        );
        let report = check_spec(&s);
        assert!(
            !codes(&report).contains(&Code::PossibleDivisionByZero),
            "{}",
            report.render()
        );
        assert_eq!(report.verdicts[0], Some(Verdict::Contingent));
    }

    #[test]
    fn unguarded_division_by_zero_warns() {
        let s = spec(
            &[("luf", vec![0, 1, 2]), ("tile", vec![2, 4])],
            &["tile % luf == 0"],
        );
        let report = check_spec(&s);
        assert!(codes(&report).contains(&Code::PossibleDivisionByZero));
        // The span points at the divisor.
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::PossibleDivisionByZero)
            .unwrap();
        let span = d.span.unwrap();
        assert_eq!(&d.source.as_ref().unwrap()[span.start..span.end], "luf");
    }

    #[test]
    fn cross_type_comparison_warns() {
        let mut s = SearchSpaceSpec::new("test");
        s.add_param(TunableParameter::ints("x", [1, 2]));
        s.add_param(TunableParameter::strings("mode", &["fast", "slow"]));
        s.add_restriction(Restriction::expr("x < mode"));
        let report = check_spec(&s);
        assert!(codes(&report).contains(&Code::CrossTypeComparison));
        // `x < mode` is also never true — a contradiction.
        assert_eq!(report.verdicts[0], Some(Verdict::Contradiction));
    }

    #[test]
    fn string_equality_is_not_cross_type() {
        let mut s = SearchSpaceSpec::new("test");
        s.add_param(TunableParameter::strings("mode", &["fast", "slow"]));
        s.add_restriction(Restriction::expr("mode == 'fast'"));
        let report = check_spec(&s);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn float_equality_warns() {
        let mut s = SearchSpaceSpec::new("test");
        s.add_param(TunableParameter::new(
            "scale",
            vec![Value::Float(0.25), Value::Float(0.5)],
        ));
        s.add_restriction(Restriction::expr("scale == 0.25"));
        let report = check_spec(&s);
        assert!(codes(&report).contains(&Code::FloatEquality));
    }

    #[test]
    fn int_equality_does_not_warn_floats() {
        let s = spec(&[("x", vec![1, 2, 3])], &["x == 2"]);
        let report = check_spec(&s);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn dead_or_branch_is_flagged() {
        let s = spec(&[("x", vec![1, 2, 3])], &["x < 0 or x >= 2"]);
        let report = check_spec(&s);
        assert!(
            codes(&report).contains(&Code::DeadBranch),
            "{}",
            report.render()
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::DeadBranch)
            .unwrap();
        let span = d.span.unwrap();
        assert_eq!(&d.source.as_ref().unwrap()[span.start..span.end], "x < 0");
    }

    #[test]
    fn dead_and_operand_is_flagged() {
        let s = spec(
            &[("x", vec![1, 2, 3]), ("y", vec![1, 2])],
            &["x >= 1 and y <= x"],
        );
        let report = check_spec(&s);
        assert!(
            codes(&report).contains(&Code::DeadBranch),
            "{}",
            report.render()
        );
    }

    #[test]
    fn pairwise_contradiction_is_found() {
        let s = spec(&[("x", vec![1, 2, 3, 4])], &["x <= 2", "x >= 3"]);
        let report = check_spec(&s);
        assert_eq!(report.verdicts[0], Some(Verdict::Contingent));
        assert_eq!(report.verdicts[1], Some(Verdict::Contingent));
        assert!(codes(&report).contains(&Code::PairwiseContradiction));
        assert!(report.has_errors());
    }

    #[test]
    fn disjoint_scopes_are_never_pairwise_contradictory() {
        let s = spec(
            &[("x", vec![1, 2]), ("y", vec![1, 2])],
            &["x <= 1", "y <= 1"],
        );
        let report = check_spec(&s);
        assert!(!codes(&report).contains(&Code::PairwiseContradiction));
    }

    #[test]
    fn opposite_first_use_orders_are_projected_into_both_tables() {
        // `y < x` is tabled over (y, x) and `x < y` over (x, y). The
        // domain sizes differ, so reading either table with the other's
        // strides reads the wrong bits.
        let domains = [("x", vec![1, 2, 3]), ("y", vec![1, 2, 4, 5])];
        let report = check_spec(&spec(&domains, &["y < x", "x < y"]));
        assert_eq!(report.verdicts, vec![Some(Verdict::Contingent); 2]);
        assert_eq!(codes(&report), vec![Code::PairwiseContradiction]);
        // x == y ∈ {1, 2} satisfies both of these.
        let report = check_spec(&spec(&domains, &["y <= x", "x <= y"]));
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn expression_and_closure_scopes_in_different_orders() {
        // The expression is tabled over (a, c, b), the closure over (b, a).
        let pair = |holds: fn(i64, i64) -> bool| {
            let mut s = spec(
                &[
                    ("a", vec![1, 2, 3]),
                    ("b", vec![1, 2]),
                    ("c", vec![0, 1, 2, 3, 4]),
                ],
                &["a + c <= b"],
            );
            s.add_restriction(Restriction::func(&["b", "a"], "b vs a", move |v| {
                holds(v[0].as_i64().unwrap(), v[1].as_i64().unwrap())
            }));
            check_spec(&s)
        };
        // `a + c <= b` forces a <= b, so b < a never holds alongside it.
        let report = pair(|b, a| b < a);
        assert_eq!(report.verdicts, vec![Some(Verdict::Contingent); 2]);
        assert_eq!(codes(&report), vec![Code::PairwiseContradiction]);
        // b <= a holds alongside it at c = 0, a = b.
        let report = pair(|b, a| b <= a);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn pairs_past_the_exact_cap_are_not_decided() {
        // Each restriction grounds out at 20 × 20 = 400 assignments, but
        // their joint scope (a, b, c) has 8000 > EXACT_CAP. The pair is
        // jointly unsatisfiable (b = 1 against b >= 19) and unreported.
        let domain: Vec<i64> = (1..=20).collect();
        let s = spec(
            &[("a", domain.clone()), ("b", domain.clone()), ("c", domain)],
            &["a + b <= 2", "b + c >= 39"],
        );
        let report = check_spec(&s);
        assert_eq!(report.verdicts, vec![Some(Verdict::Contingent); 2]);
        assert!(
            !codes(&report).contains(&Code::PairwiseContradiction),
            "{}",
            report.render()
        );
    }

    #[test]
    fn analyze_span_counts_assignments_and_pairs() {
        // Five parameters keep this span apart from the spans of tests
        // running alongside while the recorder is on.
        let s = spec(
            &[
                ("x", vec![1, 2, 3]),
                ("y", vec![1, 2, 4, 5]),
                ("z", vec![1]),
                ("u", vec![1]),
                ("v", vec![1]),
            ],
            &["y < x", "x < y", "z == 1"],
        );
        at_obs::enable();
        let report = check_spec(&s);
        at_obs::disable();
        let span = at_obs::drain()
            .into_iter()
            .find(|r| r.name == "check" && r.arg("params") == Some(5))
            .expect("the analyze span");
        assert_eq!(
            codes(&report),
            vec![Code::Tautology, Code::PairwiseContradiction]
        );
        // 12 + 12 + 1 interpreter calls; the tautology `z == 1` takes no
        // part in the one decided pair.
        assert_eq!(span.arg("assignments"), Some(25));
        assert_eq!(span.arg("pairs"), Some(1));
    }

    #[test]
    fn prunable_values_are_reported() {
        // x must divide 4 → 3 is prunable.
        let s = spec(&[("x", vec![1, 2, 3, 4])], &["4 % x == 0"]);
        let report = check_spec(&s);
        assert_eq!(report.prunable.len(), 1);
        assert_eq!(report.prunable[0].param, "x");
        assert_eq!(report.prunable[0].values, vec![Value::Int(3)]);
    }

    #[test]
    fn closure_restrictions_get_exact_verdicts() {
        let mut s = SearchSpaceSpec::new("test");
        s.add_param(TunableParameter::ints("x", [1, 2, 3]));
        s.add_restriction(Restriction::func(&["x"], "x is small", |v| {
            v[0].as_i64().unwrap() <= 10
        }));
        s.add_restriction(Restriction::func(&["x"], "x is huge", |v| {
            v[0].as_i64().unwrap() > 10
        }));
        let report = check_spec(&s);
        assert_eq!(report.verdicts[0], Some(Verdict::Tautology));
        assert_eq!(report.verdicts[1], Some(Verdict::Contradiction));
    }

    #[test]
    fn oversized_scopes_fall_back_to_abstract_analysis() {
        // 17^3 = 4913 assignments: past EXACT_CAP, but the abstract
        // walk still proves the tautology (sum of three positives > 0).
        let domain: Vec<i64> = (1..=17).collect();
        let s = spec(
            &[("a", domain.clone()), ("b", domain.clone()), ("c", domain)],
            &["a + b + c > 0"],
        );
        let report = check_spec(&s);
        assert_eq!(report.verdicts[0], Some(Verdict::Tautology));
    }

    #[test]
    fn no_variable_restrictions_ground_out() {
        let s = spec(&[("x", vec![1])], &["1 > 2"]);
        let report = check_spec(&s);
        assert_eq!(report.verdicts[0], Some(Verdict::Contradiction));
    }

    #[test]
    fn in_membership_analyzes() {
        let s = spec(&[("x", vec![1, 2, 3])], &["x in [1, 2, 3]", "x in [9]"]);
        let report = check_spec(&s);
        assert_eq!(report.verdicts[0], Some(Verdict::Tautology));
        assert_eq!(report.verdicts[1], Some(Verdict::Contradiction));
    }

    #[test]
    fn builtin_calls_analyze() {
        let s = spec(
            &[("x", vec![1, 2, 3]), ("y", vec![4, 5])],
            &["min(x, y) <= 3", "max(x, y) < 2"],
        );
        let report = check_spec(&s);
        assert_eq!(report.verdicts[0], Some(Verdict::Tautology));
        assert_eq!(report.verdicts[1], Some(Verdict::Contradiction));
    }
}
