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
}

fn random_problem() -> impl Strategy<Value = RandomProblem> {
    let domain = proptest::collection::vec(1i64..20, 1..6);
    let domains = proptest::collection::vec(domain, 2..5);
    domains.prop_flat_map(|domains| {
        let n = domains.len();
        let max_products = proptest::collection::vec((0..n, 0..n, 1i64..200), 0..3).prop_map(|v| v);
        let min_sums = proptest::collection::vec((0..n, 0..n, 1i64..30), 0..2);
        let parity = proptest::option::of((0..n, 2i64..4));
        (Just(domains), max_products, min_sums, parity).prop_map(
            |(domains, max_products, min_sums, parity)| RandomProblem {
                domains,
                max_products,
                min_sums,
                parity,
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
