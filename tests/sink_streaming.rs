//! Streaming-construction equivalence: for every construction method, the
//! sink path (solver → `EncodingSink` → arena) must produce a `SearchSpace`
//! identical — row for row, code for code — to the classic collect-then-
//! index path (`solve` → `SolutionSet` → `from_solutions`), and the solver
//! statistics must agree with the number of rows streamed. Solvers push
//! declared-domain codes, so the parallel solver's arena equals the
//! sequential one's byte for byte, and so does a pre-pruned build's.

use autotuning_searchspaces::cot::{
    build_chain_from_problem, enumerate_chain, enumerate_chain_into,
};
use autotuning_searchspaces::csp::sink::CountingSink;
use autotuning_searchspaces::csp::solver_by_name;
use autotuning_searchspaces::searchspace::{
    build_search_space, build_search_space_with, BuildOptions, EncodingSink, Method,
    RestrictionLowering, SearchSpace, SearchSpaceSpec,
};
use autotuning_searchspaces::workloads::{atf_prl, dedispersion};

const SOLVER_NAMES: [&str; 5] = [
    "brute-force",
    "original",
    "optimized",
    "parallel",
    "blocking-clause",
];

/// Assert two spaces hold the same configurations in the same order with
/// the same encoding (stronger than set equality).
fn assert_identical_spaces(a: &SearchSpace, b: &SearchSpace, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: different sizes");
    assert_eq!(a.num_params(), b.num_params(), "{context}: different arity");
    for (va, vb) in a.iter().zip(b.iter()) {
        assert_eq!(va.codes(), vb.codes(), "{context}: row {} differs", va.id());
    }
}

fn workload_specs() -> Vec<SearchSpaceSpec> {
    vec![dedispersion().spec, atf_prl(2).spec]
}

#[test]
fn sink_construction_is_identical_to_from_solutions_for_every_solver() {
    for spec in workload_specs() {
        for name in SOLVER_NAMES {
            // Skip the quadratic blocking-clause enumerator on the real
            // workloads (it re-solves from scratch per solution); it is
            // covered on the small spec in
            // `solver_stats_match_streamed_counts_on_a_small_space`.
            if name == "blocking-clause" {
                continue;
            }
            let solver = solver_by_name(name).unwrap();
            let problem = spec.to_problem(Default::default()).unwrap();

            // classic path: collect a SolutionSet, then index it
            let collected = solver.solve(&problem).unwrap();
            let reference = SearchSpace::from_solutions(
                spec.name.clone(),
                spec.params.clone(),
                &collected.solutions,
            )
            .unwrap();

            // streaming path: encode rows as they are found
            let mut sink = EncodingSink::new(spec.name.clone(), spec.params.clone()).unwrap();
            let stats = solver.solve_into(&problem, &mut sink).unwrap();
            assert_eq!(
                stats.solutions as usize,
                sink.rows(),
                "{}/{name}: stats disagree with streamed rows",
                spec.name
            );
            let streamed = sink.finish().unwrap();
            assert_identical_spaces(&streamed, &reference, &format!("{}/{name}", spec.name));
        }
    }
}

#[test]
fn sink_construction_is_identical_for_the_chain_of_trees() {
    for spec in workload_specs() {
        let problem = spec.to_problem(Default::default()).unwrap();
        let chain = build_chain_from_problem(&problem);

        let collected = enumerate_chain(&chain);
        let reference =
            SearchSpace::from_solutions(spec.name.clone(), spec.params.clone(), &collected)
                .unwrap();

        let mut sink = EncodingSink::new(spec.name.clone(), spec.params.clone()).unwrap();
        enumerate_chain_into(&chain, &mut sink).unwrap();
        assert_eq!(sink.rows(), collected.len());
        let streamed = sink.finish().unwrap();
        assert_identical_spaces(&streamed, &reference, &format!("{}/chain", spec.name));
    }
}

#[test]
fn build_search_space_agrees_with_the_collected_reference_on_all_methods() {
    for spec in workload_specs() {
        let reference = {
            let problem = spec.to_problem(Default::default()).unwrap();
            let collected = solver_by_name("brute-force")
                .unwrap()
                .solve(&problem)
                .unwrap();
            SearchSpace::from_solutions(
                spec.name.clone(),
                spec.params.clone(),
                &collected.solutions,
            )
            .unwrap()
        };
        for method in [
            Method::BruteForce,
            Method::Original,
            Method::Optimized,
            Method::ParallelOptimized,
            Method::ChainOfTrees,
        ] {
            let (space, report) = build_search_space(&spec, method).unwrap();
            assert_eq!(report.num_valid, space.len());
            assert_eq!(
                space.len(),
                reference.len(),
                "{}/{}",
                spec.name,
                method.label()
            );
            // methods enumerate in different orders, so compare as sets
            // through the membership index
            for view in reference.iter() {
                assert!(
                    space
                        .index_of_codes(&space.encode(&view.to_vec()).unwrap())
                        .is_some(),
                    "{}/{} misses {:?}",
                    spec.name,
                    method.label(),
                    view
                );
            }
        }
    }
}

#[test]
fn solver_stats_match_streamed_counts_on_a_small_space() {
    let spec = SearchSpaceSpec::new("small")
        .with_param(autotuning_searchspaces::searchspace::TunableParameter::ints("x", 1..=6))
        .with_param(autotuning_searchspaces::searchspace::TunableParameter::ints("y", 1..=6))
        .with_expr("x * y <= 12");
    let problem = spec.to_problem(Default::default()).unwrap();
    let mut expected: Option<u64> = None;
    for name in SOLVER_NAMES {
        let solver = solver_by_name(name).unwrap();
        let collected = solver.solve(&problem).unwrap();
        assert_eq!(
            collected.stats.solutions as usize,
            collected.solutions.len(),
            "{name}: collected stats disagree"
        );
        let mut count = CountingSink::default();
        let stats = solver.solve_into(&problem, &mut count).unwrap();
        assert_eq!(
            stats.solutions,
            count.rows(),
            "{name}: streamed stats disagree"
        );
        match expected {
            None => expected = Some(stats.solutions),
            Some(e) => assert_eq!(stats.solutions, e, "{name}: solver disagrees on count"),
        }
    }
}

#[test]
fn from_code_rows_adopts_prebuilt_chunks() {
    use autotuning_searchspaces::searchspace::TunableParameter;
    let params = vec![
        TunableParameter::ints("x", [1, 2, 4]),
        TunableParameter::ints("y", [1, 2]),
    ];
    // two pre-encoded chunks, concatenated without re-hashing
    let mut arena: Vec<u32> = vec![0, 0, 1, 1]; // (1,1), (2,2)
    arena.extend_from_slice(&[2, 0]); // (4,1)
    let space = SearchSpace::from_code_rows("adopted", params.clone(), 3, arena).unwrap();
    assert_eq!(space.len(), 3);
    use autotuning_searchspaces::csp::value::int_values;
    assert!(space.contains(&int_values([4, 1])));
    assert!(space.contains(&int_values([2, 2])));
    assert!(!space.contains(&int_values([4, 2])));

    // out-of-range codes and ragged arenas are rejected
    assert!(SearchSpace::from_code_rows("bad", params.clone(), 1, vec![3, 0]).is_err());
    assert!(SearchSpace::from_code_rows("bad", params, 2, vec![0, 0, 1]).is_err());
}

#[test]
fn optimized_and_parallel_arenas_are_byte_identical() {
    // The parallel solver replays its workers' code rows in subproblem
    // order, which is the sequential search order: same arena, same bytes.
    for spec in [dedispersion().spec, atf_prl(4).spec] {
        let (sequential, _) = build_search_space(&spec, Method::Optimized).unwrap();
        let (parallel, _) = build_search_space(&spec, Method::ParallelOptimized).unwrap();
        assert!(!sequential.is_empty(), "{}", spec.name);
        assert!(
            parallel.arena() == sequential.arena(),
            "{}: the parallel arena differs",
            spec.name
        );
    }
}

#[test]
fn pruned_construction_is_code_for_code_identical_on_a_workload_that_prunes() {
    // Solvers emit declared-domain codes, not positions in the pruned
    // domains: on a spec where pre-pruning removes values, a position taken
    // for a code would shift every later column.
    let spec = atf_prl(4).spec;
    for lowering in [RestrictionLowering::Optimized, RestrictionLowering::Generic] {
        let plain = spec.to_problem_with(lowering, false).unwrap();
        let pruned = spec.to_problem_with(lowering, true).unwrap();
        let removed: usize = (0..plain.num_variables())
            .map(|v| plain.domain(v).len() - pruned.domain(v).len())
            .sum();
        assert!(removed >= 1, "{lowering:?}: pre-pruning removed nothing");
    }
    let pruned_problem = spec
        .to_problem_with(RestrictionLowering::Generic, true)
        .unwrap();
    for method in [
        Method::Optimized,
        Method::ParallelOptimized,
        Method::ChainOfTrees,
        Method::Original,
    ] {
        let (plain, _) = build_search_space(&spec, method).unwrap();
        let prune = BuildOptions {
            prune: true,
            ..Default::default()
        };
        let (pruned, _) = build_search_space_with(&spec, method, prune).unwrap();
        assert!(!plain.is_empty(), "{}", method.label());
        assert!(
            pruned.arena() == plain.arena(),
            "{}: the pruned arena differs",
            method.label()
        );
        for config in pruned.iter_decoded() {
            assert!(
                pruned_problem.is_valid_configuration(&config),
                "{}: {config:?} is not a solution",
                method.label()
            );
        }
    }
}
