//! Property-based tests: on randomly generated small constraint problems,
//! every solver and the chain-of-trees construction must agree with brute
//! force, and decomposed expression lowering must not change the space.

use proptest::prelude::*;

use autotuning_searchspaces::cot::{build_chain_from_problem, enumerate_chain};
use autotuning_searchspaces::csp::prelude::*;
use autotuning_searchspaces::csp::sink::CountingSink;
use autotuning_searchspaces::csp::solver_by_name;
use autotuning_searchspaces::csp::value::int_values;

/// A randomly generated small problem description.
#[derive(Debug, Clone)]
struct RandomProblem {
    domains: Vec<Vec<i64>>,
    max_products: Vec<(usize, usize, i64)>,
    min_sums: Vec<(usize, usize, i64)>,
    parity: Option<(usize, i64)>,
    /// `sum(all variables) % modulus != 0`, over every variable.
    sum_not_divisible: Option<i64>,
}

fn random_problem() -> impl Strategy<Value = RandomProblem> {
    problem_with_domains(proptest::collection::vec(
        proptest::collection::vec(1i64..20, 1..6),
        2..5,
    ))
}

/// Wider domains, so that the constraint over every variable often has
/// more tuples than the optimized solver compiles into a table.
fn wide_problem() -> impl Strategy<Value = RandomProblem> {
    problem_with_domains(proptest::collection::vec(
        proptest::collection::vec(1i64..60, 4..13),
        3..6,
    ))
}

fn problem_with_domains(
    domains: impl Strategy<Value = Vec<Vec<i64>>>,
) -> impl Strategy<Value = RandomProblem> {
    domains.prop_flat_map(|domains| {
        let n = domains.len();
        let max_products = proptest::collection::vec((0..n, 0..n, 1i64..200), 0..3).prop_map(|v| v);
        let min_sums = proptest::collection::vec((0..n, 0..n, 1i64..30), 0..2);
        let parity = proptest::option::of((0..n, 2i64..4));
        let sum_not_divisible = proptest::option::of(2i64..5);
        (
            Just(domains),
            max_products,
            min_sums,
            parity,
            sum_not_divisible,
        )
            .prop_map(
                |(domains, max_products, min_sums, parity, sum_not_divisible)| RandomProblem {
                    domains,
                    max_products,
                    min_sums,
                    parity,
                    sum_not_divisible,
                },
            )
    })
}

fn build(problem: &RandomProblem) -> Problem {
    let mut p = Problem::new();
    for (i, d) in problem.domains.iter().enumerate() {
        // deduplicate values to keep the Cartesian size honest
        let mut values = d.clone();
        values.sort_unstable();
        values.dedup();
        p.add_variable(format!("v{i}"), int_values(values)).unwrap();
    }
    for &(a, b, limit) in &problem.max_products {
        let names = [format!("v{a}"), format!("v{b}")];
        let scope: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        p.add_constraint(MaxProduct::new(limit as f64), &scope)
            .unwrap();
    }
    for &(a, b, minimum) in &problem.min_sums {
        let names = [format!("v{a}"), format!("v{b}")];
        let scope: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        p.add_constraint(MinSum::new(minimum as f64), &scope)
            .unwrap();
    }
    if let Some((var, modulus)) = problem.parity {
        let name = format!("v{var}");
        p.add_function_constraint(&[&name], move |vals| {
            vals[0].as_i64().unwrap() % modulus == 0
        })
        .unwrap();
    }
    if let Some(modulus) = problem.sum_not_divisible {
        let names: Vec<String> = (0..problem.domains.len())
            .map(|i| format!("v{i}"))
            .collect();
        let scope: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        p.add_function_constraint(&scope, move |vals| {
            vals.iter().map(|v| v.as_i64().unwrap()).sum::<i64>() % modulus != 0
        })
        .unwrap();
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn optimized_solver_matches_brute_force(rp in random_problem()) {
        let problem = build(&rp);
        let brute = BruteForceSolver::new().solve(&problem).unwrap();
        let optimized = OptimizedSolver::new().solve(&problem).unwrap();
        prop_assert!(brute.solutions.same_solutions(&optimized.solutions));
    }

    #[test]
    fn parallel_solver_matches_brute_force(rp in random_problem()) {
        let problem = build(&rp);
        let brute = BruteForceSolver::new().solve(&problem).unwrap();
        let parallel = ParallelSolver::new().solve(&problem).unwrap();
        prop_assert!(brute.solutions.same_solutions(&parallel.solutions));
    }

    #[test]
    fn parallel_solver_replays_the_sequential_code_rows_in_order(rp in random_problem()) {
        // Equal vectors, not equal sets: same rows, same order.
        let problem = build(&rp);
        let mut sequential: Vec<u32> = Vec::new();
        OptimizedSolver::new().solve_into(&problem, &mut sequential).unwrap();
        let mut parallel: Vec<u32> = Vec::new();
        ParallelSolver::new().solve_into(&problem, &mut parallel).unwrap();
        prop_assert_eq!(parallel, sequential);
    }

    #[test]
    fn optimized_solver_in_declaration_order_pushes_brute_force_rows(rp in wide_problem()) {
        // Equal vectors: with the search in declaration order, the table
        // checks and the value checks must accept exactly brute force's
        // rows, in its order, with forward checking on and off.
        let problem = build(&rp);
        let mut brute: Vec<u32> = Vec::new();
        BruteForceSolver::new().solve_into(&problem, &mut brute).unwrap();
        for forward_check in [false, true] {
            let config = OptimizedSolverConfig {
                variable_ordering: false,
                forward_check,
                ..Default::default()
            };
            let mut rows: Vec<u32> = Vec::new();
            OptimizedSolver::with_config(config).solve_into(&problem, &mut rows).unwrap();
            prop_assert_eq!(&rows, &brute, "forward_check {}", forward_check);
        }
    }

    #[test]
    fn chain_of_trees_matches_brute_force(rp in random_problem()) {
        let problem = build(&rp);
        let brute = BruteForceSolver::new().solve(&problem).unwrap();
        let chain = build_chain_from_problem(&problem);
        let from_chain = enumerate_chain(&chain);
        prop_assert_eq!(chain.size(), brute.solutions.len() as u128);
        prop_assert!(brute.solutions.same_solutions(&from_chain));
    }

    #[test]
    fn every_solver_reports_stats_matching_its_solution_count(rp in random_problem()) {
        // `stats.solutions` must equal the number of rows produced, on both
        // the collecting path and the streaming sink path, for all solvers.
        let problem = build(&rp);
        let mut counts: Vec<u64> = Vec::new();
        for name in ["brute-force", "original", "optimized", "parallel", "blocking-clause"] {
            let solver = solver_by_name(name).unwrap();
            let collected = solver.solve(&problem).unwrap();
            prop_assert_eq!(
                collected.stats.solutions as usize,
                collected.solutions.len(),
                "{}: collected stats disagree", name
            );
            let mut sink = CountingSink::default();
            let stats = solver.solve_into(&problem, &mut sink).unwrap();
            prop_assert_eq!(stats.solutions, sink.rows(), "{}: streamed stats disagree", name);
            prop_assert_eq!(
                stats.solutions as usize,
                collected.solutions.len(),
                "{}: streaming found a different number of solutions", name
            );
            counts.push(stats.solutions);
        }
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]), "solvers disagree: {:?}", counts);
    }

    #[test]
    fn solver_config_variants_match_brute_force(rp in random_problem()) {
        let problem = build(&rp);
        let brute = BruteForceSolver::new().solve(&problem).unwrap();
        for forward_check in [false, true] {
            let cfg = OptimizedSolverConfig {
                variable_ordering: !forward_check,
                preprocess: forward_check,
                forward_check,
                arc_consistency: forward_check,
            };
            let result = OptimizedSolver::with_config(cfg).solve(&problem).unwrap();
            prop_assert!(brute.solutions.same_solutions(&result.solutions));
        }
    }
}
