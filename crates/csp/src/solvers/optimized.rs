//! The optimized all-solutions solver (the paper's contribution).
//!
//! This implements Algorithm 1 together with the optimizations of
//! Section 4.3:
//!
//! * **iterative** stack-based backtracking (no recursion),
//! * **variable ordering**, computed once before the search: single-valued
//!   variables first (a constant column cannot reorder rows, and assigning
//!   it once at the root spares one node per solution), then by the number
//!   of constraints a variable participates in (descending), tie-broken by
//!   domain size (ascending),
//! * **domain preprocessing** driven by the specific constraints
//!   (`MaxProduct`, `MinProduct`, `MaxSum`, …) before the search starts,
//! * **forward checking** and specific-constraint partial rejection during
//!   the search,
//! * solutions emitted directly in the dense output format (Section 4.3.4).
//!
//! The hot loop works on *codes*, each value's index in its variable's
//! declared domain. Before the search, every constraint whose scope has at
//! most [`TABLE_TUPLES`] tuples of declared codes is compiled into a bit
//! table, filled by calling the constraint's own
//! [`Constraint::evaluate`](crate::Constraint::evaluate) once per tuple.
//! The search order fixes which scope variables are assigned when a
//! constraint is checked, so each check is planned once: with the whole
//! scope assigned it is one bit test, and with exactly one variable open
//! under forward checking it hides that variable's codes whose bit is 0 —
//! what the generic forward check hides. Every other check, and every
//! constraint over a larger scope, calls the constraint's own
//! [`Constraint::check`](crate::Constraint::check) on the assigned values.
//! Forward checking's hides go on the [`DomainStore`]'s one trail; a search
//! level undoes its attempt by popping the trail back to where it was when
//! the level was entered, so a node costs what it hid, not a state per
//! variable.
//!
//! Each optimization can be disabled individually through
//! [`OptimizedSolverConfig`] for the ablation benchmarks.

use super::Solver;
use crate::assignment::Assignment;
use crate::constraints::Constraint;
use crate::domain::DomainStore;
use crate::error::CspResult;
use crate::problem::Problem;
use crate::sink::RowSink;
use crate::stats::SolveStats;
use crate::value::Value;

/// The largest scope, in tuples of declared codes, that
/// [`OptimizedSolver::prepare`] compiles into a bit table. It is the
/// static analyzer's exact-enumeration cap: the restrictions it can judge
/// exhaustively are the ones the search answers by lookup.
const TABLE_TUPLES: usize = 4096;

/// Feature toggles for [`OptimizedSolver`], used by the ablation study.
#[derive(Debug, Clone, Copy)]
pub struct OptimizedSolverConfig {
    /// Sort variables by constraint degree before searching.
    pub variable_ordering: bool,
    /// Run specific-constraint domain preprocessing before searching.
    pub preprocess: bool,
    /// Forward check: prune the domain of the single unassigned variable of a
    /// constraint during search.
    pub forward_check: bool,
    /// Run an AC-3 generalized arc-consistency pass before searching
    /// (off by default: the specific-constraint preprocessing usually already
    /// captures the profitable pruning; this flag exists for the ablation
    /// study and for constraint networks dominated by generic functions).
    pub arc_consistency: bool,
}

impl Default for OptimizedSolverConfig {
    fn default() -> Self {
        OptimizedSolverConfig {
            variable_ordering: true,
            preprocess: true,
            forward_check: true,
            arc_consistency: false,
        }
    }
}

/// A constraint over a small scope, compiled into one bit per tuple of its
/// variables' declared codes.
#[derive(Debug)]
struct Table {
    scope: Vec<usize>,
    /// Mixed-radix weights: a tuple's index is the sum over scope positions
    /// `k` of `code_k * strides[k]`, the last position fastest.
    strides: Vec<usize>,
    bits: Vec<u64>,
}

impl Table {
    /// Evaluate `constraint` on every tuple of declared values of `scope`,
    /// or `None` when there are more than [`TABLE_TUPLES`] of them.
    fn build(constraint: &dyn Constraint, scope: &[usize], problem: &Problem) -> Option<Table> {
        let declared: Vec<&[Value]> = scope
            .iter()
            .map(|&v| &problem.domain(v).declared()[..])
            .collect();
        let tuples = declared.iter().try_fold(1usize, |acc, d| {
            acc.checked_mul(d.len()).filter(|&t| t <= TABLE_TUPLES)
        })?;
        let mut strides = vec![0; scope.len()];
        let mut stride = 1;
        for k in (0..scope.len()).rev() {
            strides[k] = stride;
            stride *= declared[k].len();
        }
        let mut bits = vec![0u64; tuples.div_ceil(64)];
        let mut digits = vec![0usize; scope.len()];
        let mut values: Vec<_> = declared.iter().map(|d| d[0].clone()).collect();
        for index in 0..tuples {
            if constraint.evaluate(&values) {
                bits[index / 64] |= 1 << (index % 64);
            }
            for k in (0..scope.len()).rev() {
                digits[k] = (digits[k] + 1) % declared[k].len();
                values[k] = declared[k][digits[k]].clone();
                if digits[k] != 0 {
                    break;
                }
            }
        }
        Some(Table {
            scope: scope.to_vec(),
            strides,
            bits,
        })
    }

    /// The index of the tuple `row` (codes indexed by variable) assigns to
    /// the scope.
    fn index(&self, row: &[u32]) -> usize {
        self.scope
            .iter()
            .zip(&self.strides)
            .map(|(&var, &stride)| row[var] as usize * stride)
            .sum()
    }

    fn allows(&self, index: usize) -> bool {
        self.bits[index / 64] >> (index % 64) & 1 == 1
    }
}

/// How the search checks one constraint when it assigns one of the
/// constraint's variables. Which scope variables are assigned at that
/// point depends only on the search order, so `prepare` plans it once.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// Call the constraint's own `check` on the assigned values.
    Own(usize),
    /// Every scope variable is assigned: one bit test in this table.
    Test(usize),
    /// Forward checking with exactly one scope position open: hide the
    /// open variable's codes whose tuple is not in the table.
    Hide { table: usize, open: usize },
}

/// What [`OptimizedSolver::prepare`] hands to the search: the pruned
/// domains, the search order, the checks to run when each variable is
/// assigned and the tables they read. The parallel solver shares one
/// `Prepared` read-only across its workers; each searches its own copy of
/// the domains.
#[derive(Debug)]
pub(crate) struct Prepared {
    pub(crate) domains: DomainStore,
    pub(crate) order: Vec<usize>,
    checks: Vec<Vec<Check>>,
    tables: Vec<Table>,
    forward_check: bool,
}

/// The optimized iterative backtracking solver.
#[derive(Debug, Clone, Default)]
pub struct OptimizedSolver {
    config: OptimizedSolverConfig,
}

/// One depth of the search: the variable assigned there, the codes of the
/// candidates it tries, copied from its domain when the search enters the
/// depth, and the trail length at that moment, to which every attempt is
/// undone. The buffer is allocated once per depth and reused on every
/// entry.
struct Level {
    var: usize,
    codes: Vec<u32>,
    next: usize,
    mark: usize,
}

impl Level {
    fn new(var: usize) -> Self {
        Level {
            var,
            codes: Vec::new(),
            next: 0,
            mark: 0,
        }
    }

    fn enter(&mut self, domains: &DomainStore) {
        self.codes.clear();
        self.codes
            .extend_from_slice(domains.domain(self.var).codes());
        self.next = 0;
        self.mark = domains.trail_len();
    }
}

impl OptimizedSolver {
    /// Solver with all optimizations enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solver with an explicit configuration (for ablations).
    pub fn with_config(config: OptimizedSolverConfig) -> Self {
        OptimizedSolver { config }
    }

    /// The active configuration.
    pub fn config(&self) -> OptimizedSolverConfig {
        self.config
    }

    /// The setup both optimized solvers run before searching:
    /// preprocessing, then AC-3, then the search order, the constraint
    /// tables and the plan of checks. `None` when there is nothing to
    /// search: the problem has no variables, or a pass emptied a domain.
    pub(crate) fn prepare(
        config: &OptimizedSolverConfig,
        problem: &Problem,
        stats: &mut SolveStats,
    ) -> CspResult<Option<Prepared>> {
        if problem.num_variables() == 0 {
            return Ok(None);
        }
        let span = at_obs::span("solve-prepare", "solve");
        let mut domains = problem.domain_store();
        if config.preprocess && !Self::preprocess(problem, &mut domains, stats)? {
            return Ok(None);
        }
        if config.arc_consistency {
            let report = crate::consistency::arc_consistency(problem, &mut domains)?;
            stats.preprocess_removed += report.removed as u64;
            if !report.consistent {
                return Ok(None);
            }
        }
        let order = Self::variable_order(problem, config.variable_ordering);
        let prepared = Prepared::plan(problem, domains, order, config.forward_check);
        drop(span.arg("tables", prepared.tables.len() as u64).arg(
            "value_constraints",
            (problem.num_constraints() - prepared.tables.len()) as u64,
        ));
        Ok(Some(prepared))
    }

    /// Compute the search order: single-valued variables first, then
    /// variables participating in more constraints, smaller domains first
    /// among ties (Section 4.3.1). The key uses the *declared* domain size,
    /// so analyzer-driven pre-pruning (which shrinks domains without
    /// changing the solution set) cannot perturb the order — the
    /// constructed space stays byte-identical.
    fn variable_order(problem: &Problem, enabled: bool) -> Vec<usize> {
        let mut order: Vec<usize> = (0..problem.num_variables()).collect();
        if !enabled {
            return order;
        }
        let per_var = problem.constraints_per_variable();
        order.sort_by_key(|&v| {
            let declared = problem.domain(v).declared_len();
            (
                declared != 1,
                std::cmp::Reverse(per_var[v].len()),
                declared,
                v,
            )
        });
        order
    }

    /// Run preprocessing on a domain copy. Returns `false` if some domain was
    /// emptied (the problem has no solutions).
    fn preprocess(
        problem: &Problem,
        domains: &mut DomainStore,
        stats: &mut SolveStats,
    ) -> CspResult<bool> {
        for entry in problem.constraints() {
            let removed = entry.constraint.preprocess(&entry.scope, domains)?;
            stats.preprocess_removed += removed as u64;
            // Any unary constraint — specific or not — can be resolved
            // entirely by filtering the single variable's domain up front.
            if entry.scope.len() == 1 {
                let var = entry.scope[0];
                let removed = domains
                    .domain_mut(var)
                    .retain(|v| entry.constraint.evaluate(std::slice::from_ref(v)));
                stats.preprocess_removed += removed as u64;
            }
        }
        for v in 0..problem.num_variables() {
            if domains.domain(v).is_empty() {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl Prepared {
    /// Compile the constraints over small scopes into tables and plan, for
    /// each variable, the checks to run when the search in `order`
    /// assigns it.
    fn plan(
        problem: &Problem,
        domains: DomainStore,
        order: Vec<usize>,
        forward_check: bool,
    ) -> Self {
        let mut tables = Vec::new();
        let table_of: Vec<Option<usize>> = problem
            .constraints()
            .iter()
            .map(|entry| {
                let table = Table::build(entry.constraint.as_ref(), &entry.scope, problem)?;
                tables.push(table);
                Some(tables.len() - 1)
            })
            .collect();
        let mut depth = vec![0; order.len()];
        for (d, &var) in order.iter().enumerate() {
            depth[var] = d;
        }
        let checks = problem
            .constraints_per_variable()
            .into_iter()
            .enumerate()
            .map(|(var, constraints)| {
                constraints
                    .into_iter()
                    .map(|ci| {
                        let scope = &problem.constraints()[ci].scope;
                        let mut open_positions =
                            (0..scope.len()).filter(|&k| depth[scope[k]] > depth[var]);
                        match (table_of[ci], open_positions.next(), open_positions.next()) {
                            (Some(table), None, _) => Check::Test(table),
                            (Some(table), Some(open), None) if forward_check => {
                                Check::Hide { table, open }
                            }
                            _ => Check::Own(ci),
                        }
                    })
                    .collect()
            })
            .collect();
        Prepared {
            domains,
            order,
            checks,
            tables,
            forward_check,
        }
    }

    /// Core iterative search over `domains` (these prepared domains, or a
    /// copy the parallel split narrowed), streaming each solution into
    /// `sink` as it is found: the assigned codes live in one row buffer
    /// indexed by variable, which is pushed as is.
    pub(crate) fn search(
        &self,
        problem: &Problem,
        domains: &mut DomainStore,
        sink: &mut dyn RowSink,
        stats: &mut SolveStats,
    ) -> CspResult<()> {
        let n = self.order.len();
        let mut assignment = Assignment::new(problem.num_variables());
        let mut row: Vec<u32> = vec![0; problem.num_variables()];
        let mut levels: Vec<Level> = self.order.iter().map(|&var| Level::new(var)).collect();
        levels[0].enter(domains);
        // Levels `0..live` are on the search path.
        let mut live = 1;

        while live > 0 {
            let level = &mut levels[live - 1];
            if level.next > 0 {
                // Undo the previous attempt at this level before trying
                // the next candidate (or before backtracking).
                domains.undo_to(level.mark);
                assignment.unassign(level.var);
            }
            let Some(&code) = level.codes.get(level.next) else {
                live -= 1;
                continue;
            };
            level.next += 1;
            let var = level.var;
            row[var] = code;
            assignment.assign(var, domains.domain(var).declared()[code as usize].clone());
            stats.nodes += 1;
            if !self.consistent(var, problem, &assignment, &row, domains, stats) {
                stats.backtracks += 1;
                continue;
            }
            if live == n {
                sink.push_codes(&row)?;
                stats.solutions += 1;
                continue;
            }
            levels[live].enter(domains);
            live += 1;
        }
        Ok(())
    }

    /// Run the checks planned for `var` after it was assigned; `false` at
    /// the first that fails.
    fn consistent(
        &self,
        var: usize,
        problem: &Problem,
        assignment: &Assignment,
        row: &[u32],
        domains: &mut DomainStore,
        stats: &mut SolveStats,
    ) -> bool {
        for &check in &self.checks[var] {
            stats.constraint_checks += 1;
            let ok = match check {
                Check::Own(ci) => {
                    let entry = &problem.constraints()[ci];
                    entry
                        .constraint
                        .check(&entry.scope, assignment, domains, self.forward_check)
                }
                Check::Test(table) => {
                    let table = &self.tables[table];
                    table.allows(table.index(row))
                }
                Check::Hide { table, open } => {
                    let table = &self.tables[table];
                    let open_var = table.scope[open];
                    let stride = table.strides[open];
                    // `row` still holds a stale code for the open variable;
                    // take its term back out.
                    let base = table.index(row) - row[open_var] as usize * stride;
                    domains.hide_codes_where(open_var, |code| {
                        table.allows(base + code as usize * stride)
                    })
                }
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

impl Solver for OptimizedSolver {
    fn name(&self) -> &'static str {
        "optimized"
    }

    fn solve_into(&self, problem: &Problem, sink: &mut dyn RowSink) -> CspResult<SolveStats> {
        let mut stats = SolveStats::default();
        let Some(mut prepared) = Self::prepare(&self.config, problem, &mut stats)? else {
            return Ok(stats);
        };
        let mut domains = std::mem::take(&mut prepared.domains);
        prepared.search(problem, &mut domains, sink, &mut stats)?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::super::BruteForceSolver;
    use super::*;
    use crate::constraints::MaxSum;
    use crate::solvers::Solver;
    use crate::value::int_values;

    #[test]
    fn matches_brute_force_on_block_size() {
        let p = block_size_problem();
        let bf = BruteForceSolver::new().solve(&p).unwrap();
        let opt = OptimizedSolver::new().solve(&p).unwrap();
        assert_eq!(opt.solutions.len(), expected_block_size_solutions());
        assert!(bf.solutions.same_solutions(&opt.solutions));
    }

    #[test]
    fn matches_brute_force_on_mixed() {
        let p = mixed_problem();
        let bf = BruteForceSolver::new().solve(&p).unwrap();
        let opt = OptimizedSolver::new().solve(&p).unwrap();
        assert!(bf.solutions.same_solutions(&opt.solutions));
    }

    #[test]
    fn unsatisfiable_detected_by_preprocessing() {
        let p = unsatisfiable_problem();
        let r = OptimizedSolver::new().solve(&p).unwrap();
        assert!(r.solutions.is_empty());
        // preprocessing alone empties a domain, so no nodes are explored
        assert_eq!(r.stats.nodes, 0);
    }

    #[test]
    fn every_config_combination_is_correct() {
        let p = mixed_problem();
        let reference = BruteForceSolver::new().solve(&p).unwrap();
        for ordering in [false, true] {
            for preprocess in [false, true] {
                for forward_check in [false, true] {
                    for arc_consistency in [false, true] {
                        let cfg = OptimizedSolverConfig {
                            variable_ordering: ordering,
                            preprocess,
                            forward_check,
                            arc_consistency,
                        };
                        let r = OptimizedSolver::with_config(cfg).solve(&p).unwrap();
                        assert!(
                            reference.solutions.same_solutions(&r.solutions),
                            "config {cfg:?} produced a different solution set"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn optimized_does_much_less_work_than_brute_force() {
        let p = block_size_problem();
        let bf = BruteForceSolver::new().solve(&p).unwrap();
        let opt = OptimizedSolver::new().solve(&p).unwrap();
        assert!(
            opt.stats.constraint_checks * 2 < bf.stats.constraint_checks,
            "optimized {} vs brute force {}",
            opt.stats.constraint_checks,
            bf.stats.constraint_checks
        );
    }

    #[test]
    fn variable_order_puts_constrained_variables_first() {
        let p = mixed_problem(); // a and b occur in 3 constraints, c in 1
        let order = OptimizedSolver::variable_order(&p, true);
        let c_id = p.variable_id("c").unwrap();
        assert_eq!(order[2], c_id);
    }

    #[test]
    fn variable_order_puts_single_valued_variables_first() {
        // `k` is in no constraint, so degree alone would search it last.
        let mut p = mixed_problem();
        p.add_variable("k", int_values([7])).unwrap();
        let order = OptimizedSolver::variable_order(&p, true);
        assert_eq!(order[0], p.variable_id("k").unwrap());
        assert_eq!(order[3], p.variable_id("c").unwrap());
    }

    #[test]
    fn small_scopes_become_tables_and_large_ones_stay_on_values() {
        let mut p = Problem::new();
        for name in ["x", "y", "z"] {
            p.add_variable(name, int_values(1..=20)).unwrap();
        }
        // 400 tuples: a table. 8,000 tuples: the constraint's own check.
        p.add_function_constraint(&["x", "y"], |v| {
            (v[0].as_i64().unwrap() + v[1].as_i64().unwrap()) % 3 != 0
        })
        .unwrap();
        p.add_constraint(MaxSum::new(30.0), &["x", "y", "z"])
            .unwrap();
        let reference = {
            let mut rows: Vec<u32> = Vec::new();
            BruteForceSolver::new().solve_into(&p, &mut rows).unwrap();
            rows
        };
        for forward_check in [false, true] {
            let config = OptimizedSolverConfig {
                variable_ordering: false,
                forward_check,
                ..Default::default()
            };
            let prepared = OptimizedSolver::prepare(&config, &p, &mut SolveStats::default())
                .unwrap()
                .unwrap();
            assert_eq!(prepared.tables.len(), 1);
            assert_eq!(prepared.tables[0].scope, vec![0, 1]);
            // Declaration order: y completes the table's scope; z the sum's.
            let y_checks = &prepared.checks[1];
            assert!(matches!(y_checks[..], [Check::Test(0), Check::Own(1)]));
            let x_checks = &prepared.checks[0];
            if forward_check {
                assert!(matches!(
                    x_checks[..],
                    [Check::Hide { table: 0, open: 1 }, Check::Own(1)]
                ));
            } else {
                assert!(matches!(x_checks[..], [Check::Own(0), Check::Own(1)]));
            }
            let mut rows: Vec<u32> = Vec::new();
            OptimizedSolver::with_config(config)
                .solve_into(&p, &mut rows)
                .unwrap();
            assert!(!rows.is_empty());
            assert_eq!(rows, reference, "forward_check {forward_check}");
        }
        let bf = BruteForceSolver::new().solve(&p).unwrap();
        let opt = OptimizedSolver::new().solve(&p).unwrap();
        assert!(bf.solutions.same_solutions(&opt.solutions));
    }

    #[test]
    fn ordering_disabled_is_declaration_order() {
        let p = mixed_problem();
        let order = OptimizedSolver::variable_order(&p, false);
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn solutions_are_in_declaration_column_order_regardless_of_search_order() {
        let p = mixed_problem();
        let r = OptimizedSolver::new().solve(&p).unwrap();
        // column order must match variable declaration order
        assert_eq!(r.solutions.names(), p.variable_names());
        for row in r.solutions.iter() {
            assert!(p.is_valid_configuration(row));
        }
    }
}
