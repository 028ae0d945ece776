//! Streaming-construction equivalence: for every construction method, the
//! sink path (solver → `EncodingSink` → ranks) must produce a `SearchSpace`
//! identical — rank for rank — to the classic collect-then-index path
//! (`solve` → `SolutionSet` → `from_solutions`), and the solver statistics
//! must agree with the number of rows streamed. Every method yields the
//! canonical row order, so all their arenas are equal byte for byte, and
//! so is a pre-pruned build's.

use at_fuzz::fnv1a;
use autotuning_searchspaces::cot::{
    build_chain_from_problem, enumerate_chain, enumerate_chain_into,
};
use autotuning_searchspaces::csp::sink::CountingSink;
use autotuning_searchspaces::csp::solver_by_name;
use autotuning_searchspaces::searchspace::{
    build_search_space, build_search_space_with, BuildOptions, EncodingSink, Method,
    RestrictionLowering, SearchSpace, SearchSpaceSpec,
};
use autotuning_searchspaces::workloads::{atf_prl, dedispersion, gemm, hotspot, microhh};

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
    assert!(a.arena() == b.arena(), "{context}: the ranks differ");
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
            // every method yields the canonical row order
            assert_identical_spaces(
                &space,
                &reference,
                &format!("{}/{}", spec.name, method.label()),
            );
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
    // two pre-encoded chunks, concatenated out of canonical order
    let mut arena: Vec<u32> = vec![2, 0]; // (4,1)
    arena.extend_from_slice(&[0, 0, 1, 1]); // (1,1), (2,2)
    let space = SearchSpace::from_code_rows("adopted", params.clone(), 3, arena).unwrap();
    assert_eq!(space.len(), 3);
    assert_eq!(space.arena(), [0, 3, 4]);
    use autotuning_searchspaces::csp::value::int_values;
    assert!(space.contains(&int_values([4, 1])));
    assert!(space.contains(&int_values([2, 2])));
    assert!(!space.contains(&int_values([4, 2])));

    // out-of-range codes, ragged arenas and repeated rows are rejected
    assert!(SearchSpace::from_code_rows("bad", params.clone(), 1, vec![3, 0]).is_err());
    assert!(SearchSpace::from_code_rows("bad", params.clone(), 2, vec![0, 0, 1]).is_err());
    assert!(SearchSpace::from_code_rows("bad", params, 2, vec![1, 1, 1, 1]).is_err());
}

#[test]
fn optimized_and_parallel_arenas_are_byte_identical() {
    // The parallel solver replays its workers' code rows in subproblem
    // order, which is the sequential search order; and both end sorted.
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

#[test]
fn arenas_are_pinned_on_the_paper_workloads_for_every_method() {
    // Row count and FNV-1a of the little-endian rank bytes: one digest per
    // workload, which every construction method must reproduce. The ranks
    // ascend, so this is the canonical row order, the order in which the
    // original solver and brute force emit rows. The search order, the
    // constraint tables and the trail must leave it as it is. Brute force
    // runs where the Cartesian product stays below 10^6 (dedispersion and
    // microhh); `solver_equivalence` and `proptest_solvers` hold it to the
    // same bytes as every other method.
    let pins = [
        (dedispersion().spec, 2_793, 0xca78_93b5_a681_e172u64),
        (hotspot().spec, 134_909, 0x81ea_958a_b14d_e064),
        (gemm().spec, 241_600, 0x55ed_19a8_a23d_0275),
        (microhh().spec, 166_110, 0xbd42_0532_0351_23dc),
        (atf_prl(4).spec, 35_952, 0xcab7_4e78_58c6_4965),
    ];
    for (spec, rows, digest) in pins {
        let brute = spec
            .params
            .iter()
            .map(|p| p.len() as u128)
            .product::<u128>()
            < 1_000_000;
        for method in Method::all() {
            if method == Method::BlockingClause || (method == Method::BruteForce && !brute) {
                continue;
            }
            let (space, _) = build_search_space(&spec, method).unwrap();
            let bytes: Vec<u8> = space.arena().iter().flat_map(|r| r.to_le_bytes()).collect();
            let context = format!("{}/{}", spec.name, method.label());
            assert_eq!(space.len(), rows, "{context}");
            assert_eq!(fnv1a(&bytes), digest, "{context}");
        }
    }
}
