//! The optimized all-solutions solver (the paper's contribution).
//!
//! This implements Algorithm 1 together with the optimizations of
//! Section 4.3:
//!
//! * **iterative** stack-based backtracking (no recursion),
//! * **variable ordering** by the number of constraints a variable
//!   participates in (descending), tie-broken by domain size (ascending),
//!   computed once before the search,
//! * **domain preprocessing** driven by the specific constraints
//!   (`MaxProduct`, `MinProduct`, `MaxSum`, …) before the search starts,
//! * **forward checking** and specific-constraint partial rejection during
//!   the search,
//! * solutions emitted directly in the dense output format (Section 4.3.4).
//!
//! Each optimization can be disabled individually through
//! [`OptimizedSolverConfig`] for the ablation benchmarks.

use super::Solver;
use crate::assignment::Assignment;
use crate::domain::{Domain, DomainStore};
use crate::error::CspResult;
use crate::problem::Problem;
use crate::sink::RowSink;
use crate::stats::SolveStats;

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

/// What [`OptimizedSolver::prepare`] hands to the search: the pruned
/// domains, the search order and the constraints of each variable.
pub(crate) type Prepared = (DomainStore, Vec<usize>, Vec<Vec<usize>>);

/// The optimized iterative backtracking solver.
#[derive(Debug, Clone, Default)]
pub struct OptimizedSolver {
    config: OptimizedSolverConfig,
}

/// One depth of the search: the variable assigned there and the codes of
/// the candidates it tries, copied from its domain when the search enters
/// the depth. The buffer is allocated once per depth and reused on every
/// entry.
struct Level {
    var: usize,
    codes: Vec<u32>,
    next: usize,
    active: bool,
}

impl Level {
    fn new(var: usize) -> Self {
        Level {
            var,
            codes: Vec::new(),
            next: 0,
            active: false,
        }
    }

    fn enter(&mut self, domain: &Domain) {
        self.codes.clear();
        self.codes.extend_from_slice(domain.codes());
        self.next = 0;
        self.active = false;
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
    /// preprocessing, then AC-3, then the search order and the constraints
    /// of each variable. `None` when there is nothing to search: the
    /// problem has no variables, or a pass emptied a domain.
    pub(crate) fn prepare(
        config: &OptimizedSolverConfig,
        problem: &Problem,
        stats: &mut SolveStats,
    ) -> CspResult<Option<Prepared>> {
        if problem.num_variables() == 0 {
            return Ok(None);
        }
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
        Ok(Some((domains, order, problem.constraints_per_variable())))
    }

    /// Compute the search order: variables participating in more constraints
    /// first, smaller domains first among ties (Section 4.3.1). Ties use
    /// the *declared* domain size, so analyzer-driven pre-pruning (which
    /// shrinks domains without changing the solution set) cannot perturb
    /// the order — the constructed space stays byte-identical.
    fn variable_order(problem: &Problem, enabled: bool) -> Vec<usize> {
        let mut order: Vec<usize> = (0..problem.num_variables()).collect();
        if !enabled {
            return order;
        }
        let per_var = problem.constraints_per_variable();
        order.sort_by_key(|&v| {
            (
                std::cmp::Reverse(per_var[v].len()),
                problem.domain(v).declared_len(),
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

    /// Core iterative search over a prepared domain store and variable
    /// order, streaming each solution into `sink` as it is found: the
    /// assigned codes live in one row buffer indexed by variable, which is
    /// pushed as is.
    pub(crate) fn search(
        problem: &Problem,
        domains: &mut DomainStore,
        order: &[usize],
        constraints_per_var: &[Vec<usize>],
        forward_check: bool,
        sink: &mut dyn RowSink,
        stats: &mut SolveStats,
    ) -> CspResult<()> {
        let n = order.len();
        if n == 0 {
            return Ok(());
        }
        let mut assignment = Assignment::new(problem.num_variables());
        let mut row: Vec<u32> = vec![0; problem.num_variables()];
        let mut levels: Vec<Level> = order.iter().map(|&var| Level::new(var)).collect();
        levels[0].enter(domains.domain(order[0]));
        // Levels `0..live` are on the search path.
        let mut live = 1;

        while live > 0 {
            let depth = live - 1;
            {
                let level = &mut levels[depth];
                if level.active {
                    // Undo the previous attempt at this level before trying
                    // the next candidate (or before backtracking).
                    if forward_check {
                        domains.pop_state_all();
                    }
                    assignment.unassign(level.var);
                    level.active = false;
                }
                if level.next >= level.codes.len() {
                    live -= 1;
                    continue;
                }
            }
            let (var, code) = {
                let level = &mut levels[depth];
                let code = level.codes[level.next];
                level.next += 1;
                level.active = true;
                (level.var, code)
            };
            row[var] = code;
            assignment.assign(var, domains.domain(var).declared()[code as usize].clone());
            stats.nodes += 1;
            if forward_check {
                domains.push_state_all();
            }
            let mut ok = true;
            for &ci in &constraints_per_var[var] {
                let entry = &problem.constraints()[ci];
                stats.constraint_checks += 1;
                if !entry
                    .constraint
                    .check(&entry.scope, &assignment, domains, forward_check)
                {
                    ok = false;
                    break;
                }
            }
            if !ok {
                stats.backtracks += 1;
                if forward_check {
                    domains.pop_state_all();
                }
                assignment.unassign(var);
                levels[depth].active = false;
                continue;
            }
            if live == n {
                sink.push_codes(&row)?;
                stats.solutions += 1;
                if forward_check {
                    domains.pop_state_all();
                }
                assignment.unassign(var);
                levels[depth].active = false;
                continue;
            }
            levels[live].enter(domains.domain(order[live]));
            live += 1;
        }
        Ok(())
    }
}

impl Solver for OptimizedSolver {
    fn name(&self) -> &'static str {
        "optimized"
    }

    fn solve_into(&self, problem: &Problem, sink: &mut dyn RowSink) -> CspResult<SolveStats> {
        let mut stats = SolveStats::default();
        let Some((mut domains, order, constraints_per_var)) =
            Self::prepare(&self.config, problem, &mut stats)?
        else {
            return Ok(stats);
        };
        Self::search(
            problem,
            &mut domains,
            &order,
            &constraints_per_var,
            self.config.forward_check,
            sink,
            &mut stats,
        )?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::super::BruteForceSolver;
    use super::*;
    use crate::solvers::Solver;

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
