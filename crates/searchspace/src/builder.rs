//! Search space construction: the method selector and build statistics.
//!
//! This is the integration point the paper's evaluation exercises: the same
//! specification can be constructed with every method (brute force, the
//! original unoptimized solver, the optimized solver, the parallel solver,
//! chain-of-trees, and the blocking-clause enumerator), and the harness
//! compares their construction times and validates that all of them produce
//! the identical set of configurations.

use std::time::{Duration, Instant};

use at_cot::{build_chain_from_problem, enumerate_chain_into};
use at_csp::sink::RowSink;
use at_csp::{
    BlockingClauseSolver, BruteForceSolver, CspError, CspResult, OptimizedSolver,
    OptimizedSolverConfig, OriginalBacktrackingSolver, ParallelSolver, SolveStats, Solver,
};

use crate::sink::EncodingSink;
use crate::space::SearchSpace;
use crate::spec::{RestrictionLowering, SearchSpaceSpec};

/// The construction method, matching the series of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Enumerate the Cartesian product and filter (paper: `brute-force`).
    BruteForce,
    /// Unoptimized backtracking over generic constraints (paper: `original`).
    Original,
    /// The optimized CSP solver (paper: `optimized`, this work).
    Optimized,
    /// The optimized solver with first-variable domain splitting over threads.
    ParallelOptimized,
    /// Chain-of-trees construction (paper: ATF / pyATF).
    ChainOfTrees,
    /// One-solution-at-a-time enumeration with blocking clauses
    /// (paper: PySMT + Z3).
    BlockingClause,
}

impl Method {
    /// All methods, in the order used by the evaluation figures.
    pub fn all() -> [Method; 6] {
        [
            Method::BruteForce,
            Method::Original,
            Method::Optimized,
            Method::ParallelOptimized,
            Method::ChainOfTrees,
            Method::BlockingClause,
        ]
    }

    /// The paper's series name for this method.
    pub fn label(&self) -> &'static str {
        match self {
            Method::BruteForce => "brute-force",
            Method::Original => "original",
            Method::Optimized => "optimized",
            Method::ParallelOptimized => "parallel-optimized",
            Method::ChainOfTrees => "chain-of-trees",
            Method::BlockingClause => "blocking-clause",
        }
    }

    /// Resolve a method from its series name (the inverse of [`Method::label`]),
    /// accepting a few common aliases.
    pub fn from_label(label: &str) -> Option<Method> {
        match label {
            "brute-force" | "bruteforce" | "brute_force" => Some(Method::BruteForce),
            "original" => Some(Method::Original),
            "optimized" => Some(Method::Optimized),
            "parallel-optimized" | "parallel" => Some(Method::ParallelOptimized),
            "chain-of-trees" | "cot" | "atf" => Some(Method::ChainOfTrees),
            "blocking-clause" | "smt" | "z3" => Some(Method::BlockingClause),
            _ => None,
        }
    }

    /// The restriction lowering the method uses by default: the optimized
    /// solver benefits from decomposition and specific constraints, the
    /// baselines see the restrictions exactly as the user wrote them.
    pub fn default_lowering(&self) -> RestrictionLowering {
        match self {
            Method::Optimized | Method::ParallelOptimized => RestrictionLowering::Optimized,
            _ => RestrictionLowering::Generic,
        }
    }
}

/// Options controlling construction, mostly used by the ablation benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildOptions {
    /// Override the restriction lowering (default: the method's own).
    pub lowering: Option<RestrictionLowering>,
    /// Solver feature toggles for the optimized/parallel methods.
    pub solver_config: Option<OptimizedSolverConfig>,
    /// Run analyzer-driven domain pre-pruning before solving (see
    /// [`SearchSpaceSpec::to_problem_with`]): domain values that
    /// provably appear in no solution are dropped up front. The
    /// constructed space is code-for-code identical either way.
    pub prune: bool,
}

/// Statistics of one construction run.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// The method used.
    pub method: Method,
    /// Wall-clock construction time (lowering + solving + indexing).
    pub duration: Duration,
    /// Solver counters (chain-of-trees reports `constraint_checks` and
    /// `solutions` only).
    pub stats: SolveStats,
    /// Number of valid configurations.
    pub num_valid: usize,
    /// Cartesian size of the unconstrained space.
    pub cartesian_size: u128,
    /// Number of constraints after lowering.
    pub num_constraints: usize,
}

/// Construct the search space for `spec` with the given method.
pub fn build_search_space(
    spec: &SearchSpaceSpec,
    method: Method,
) -> CspResult<(SearchSpace, BuildReport)> {
    build_search_space_with(spec, method, BuildOptions::default())
}

/// Construct the search space with explicit options (ablation studies).
///
/// This is the one construction pipeline: the CLI, the daemon and
/// `at_store`'s cache all build through it, and the cache persists the
/// finished space afterwards. Construction streams: the chosen solver (or
/// the chain-of-trees enumerator) pushes each solution as a row of value
/// codes into an [`EncodingSink`] the moment it is found, and the sink
/// appends the row's rank. The lowered problem declares each variable with
/// its parameter's value list, so a solver's codes are the dictionary
/// codes the ranks number, even when pre-pruning shrank the domains. No
/// decoded row of the solutions is ever materialized, and every method
/// yields the same space.
pub fn build_search_space_with(
    spec: &SearchSpaceSpec,
    method: Method,
    options: BuildOptions,
) -> CspResult<(SearchSpace, BuildReport)> {
    let start = Instant::now();
    let mut sink = EncodingSink::new(spec.name.clone(), spec.params.clone())
        .map_err(|e| CspError::Solver(format!("building the encoding sink failed: {e}")))?;
    let lowering = options
        .lowering
        .unwrap_or_else(|| method.default_lowering());
    let lower_span = at_obs::span("lower", "construct");
    let problem = spec.to_problem_with(lowering, options.prune)?;
    let num_constraints = problem.num_constraints();
    drop(
        lower_span
            .arg("variables", problem.num_variables() as u64)
            .arg("constraints", num_constraints as u64),
    );
    // Solvers emit code rows in variable declaration order, each code an
    // index into the variable's declared domain — exactly the spec's
    // parameters and their dictionaries, which the ranks number.
    debug_assert!(
        problem.num_variables() == spec.params.len()
            && spec.params.iter().enumerate().all(|(v, p)| {
                problem.variable_name(v) == p.name()
                    && problem.domain(v).declared()[..] == *p.values()
            })
    );

    let solve_span = at_obs::span("solve", "construct");
    let stats: SolveStats = match method {
        Method::BruteForce => run_into(&BruteForceSolver::new(), &problem, &mut sink)?,
        Method::Original => run_into(&OriginalBacktrackingSolver::new(), &problem, &mut sink)?,
        Method::Optimized => {
            let solver = match options.solver_config {
                Some(cfg) => OptimizedSolver::with_config(cfg),
                None => OptimizedSolver::new(),
            };
            run_into(&solver, &problem, &mut sink)?
        }
        Method::ParallelOptimized => {
            let solver = match options.solver_config {
                Some(cfg) => ParallelSolver::with_config(cfg),
                None => ParallelSolver::new(),
            };
            run_into(&solver, &problem, &mut sink)?
        }
        Method::BlockingClause => run_into(&BlockingClauseSolver::new(), &problem, &mut sink)?,
        Method::ChainOfTrees => {
            let chain = build_chain_from_problem(&problem);
            enumerate_chain_into(&chain, &mut sink)
                .map_err(|e| CspError::Solver(format!("chain-of-trees: {e}")))?;
            // The enumerator counts checks only; the sink counts the rows.
            SolveStats {
                constraint_checks: chain.constraint_checks(),
                solutions: sink.rows() as u64,
                ..Default::default()
            }
        }
    };
    drop(
        solve_span
            .arg("nodes", stats.nodes)
            .arg("checks", stats.constraint_checks)
            .arg("solutions", stats.solutions),
    );

    let num_valid = sink.rows();
    let space = sink
        .finish()
        .map_err(|e| CspError::Solver(format!("finishing the resolved space failed: {e}")))?;
    let report = BuildReport {
        method,
        duration: start.elapsed(),
        stats,
        num_valid,
        cartesian_size: spec.cartesian_size(),
        num_constraints,
    };
    Ok((space, report))
}

fn run_into<S: Solver>(
    solver: &S,
    problem: &at_csp::Problem,
    sink: &mut dyn RowSink,
) -> CspResult<SolveStats> {
    solver
        .solve_into(problem, sink)
        .map_err(|e| CspError::Solver(format!("{}: {e}", solver.name())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::TunableParameter;
    use crate::restriction::Restriction;

    fn hotspot_like_spec() -> SearchSpaceSpec {
        SearchSpaceSpec::new("hotspot-like")
            .with_param(TunableParameter::pow2("block_size_x", 8))
            .with_param(TunableParameter::pow2("block_size_y", 6))
            .with_param(TunableParameter::ints("work_per_thread", [1, 2, 4, 8]))
            .with_param(TunableParameter::switch("sh_power"))
            .with_expr("32 <= block_size_x*block_size_y <= 1024")
            .with_expr("block_size_x*block_size_y*work_per_thread*sh_power*4 <= 4096")
            .with_restriction(Restriction::func(
                &["work_per_thread", "block_size_y"],
                "wpt <= by",
                |v| v[0].as_i64().unwrap() <= v[1].as_i64().unwrap(),
            ))
    }

    #[test]
    fn all_methods_produce_the_same_space() {
        let spec = hotspot_like_spec();
        let (reference, ref_report) = build_search_space(&spec, Method::BruteForce).unwrap();
        assert!(!reference.is_empty());
        assert_eq!(ref_report.num_valid, reference.len());
        for method in Method::all() {
            let (space, report) = build_search_space(&spec, method).unwrap();
            assert_eq!(space.len(), reference.len(), "{}", method.label());
            for config in reference.iter_decoded() {
                assert!(
                    space.contains(&config),
                    "{} misses a config",
                    method.label()
                );
            }
            assert_eq!(report.cartesian_size, spec.cartesian_size());
        }
    }

    #[test]
    fn optimized_does_fewer_checks_than_brute_force() {
        let spec = hotspot_like_spec();
        let (_, bf) = build_search_space(&spec, Method::BruteForce).unwrap();
        let (_, opt) = build_search_space(&spec, Method::Optimized).unwrap();
        assert!(opt.stats.constraint_checks < bf.stats.constraint_checks);
    }

    #[test]
    fn label_round_trips_through_from_label() {
        for method in Method::all() {
            assert_eq!(Method::from_label(method.label()), Some(method));
        }
        assert_eq!(Method::from_label("atf"), Some(Method::ChainOfTrees));
        assert_eq!(Method::from_label("unknown"), None);
    }

    #[test]
    fn labels_and_lowerings() {
        assert_eq!(Method::Optimized.label(), "optimized");
        assert_eq!(
            Method::Optimized.default_lowering(),
            RestrictionLowering::Optimized
        );
        assert_eq!(
            Method::BruteForce.default_lowering(),
            RestrictionLowering::Generic
        );
        assert_eq!(Method::all().len(), 6);
    }

    #[test]
    fn ablation_options_apply() {
        let spec = hotspot_like_spec();
        let options = BuildOptions {
            lowering: Some(RestrictionLowering::Generic),
            solver_config: Some(OptimizedSolverConfig {
                variable_ordering: false,
                preprocess: false,
                forward_check: false,
                arc_consistency: false,
            }),
            ..Default::default()
        };
        let (space, _) = build_search_space_with(&spec, Method::Optimized, options).unwrap();
        let (reference, _) = build_search_space(&spec, Method::BruteForce).unwrap();
        assert_eq!(space.len(), reference.len());
    }

    #[test]
    fn pruned_construction_is_code_for_code_identical() {
        let spec = hotspot_like_spec();
        for method in Method::all() {
            let (plain, _) = build_search_space(&spec, method).unwrap();
            let (pruned, _) = build_search_space_with(
                &spec,
                method,
                BuildOptions {
                    prune: true,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(plain.len(), pruned.len(), "{method:?}");
            assert_eq!(plain.arena(), pruned.arena(), "{method:?}");
        }
    }

    #[test]
    fn empty_space_is_handled() {
        let spec = SearchSpaceSpec::new("empty")
            .with_param(TunableParameter::ints("x", [1, 2, 3]))
            .with_param(TunableParameter::ints("y", [1, 2, 3]))
            .with_expr("x * y >= 100");
        for method in Method::all() {
            let (space, _) = build_search_space(&spec, method).unwrap();
            assert!(space.is_empty(), "{}", method.label());
        }
    }
}
