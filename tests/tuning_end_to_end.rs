//! End-to-end tuning integration tests (the Section 5.4 scenario): search
//! space construction feeding into budgeted tuning with simulated kernels.

use std::time::Duration;

use autotuning_searchspaces::prelude::*;
use autotuning_searchspaces::tuner::{strategy_by_name, GeneticAlgorithm, HillClimbing};
use autotuning_searchspaces::workloads::{dedispersion, gemm, performance_model_for};

#[test]
fn construction_time_eats_into_the_tuning_budget() {
    let (space, _) = build_search_space(&dedispersion().spec, Method::Optimized).unwrap();
    let model = performance_model_for("Dedispersion", &space, 7);
    let budget = Duration::from_secs(30);

    let fast = tune(&space, &model, &RandomSampling, budget, Duration::ZERO, 11);
    let slow = tune(
        &space,
        &model,
        &RandomSampling,
        budget,
        Duration::from_secs(25),
        11,
    );
    assert!(fast.num_evaluations() > slow.num_evaluations());
    // with the same seed, the slow run's evaluations are a prefix of the fast run's
    for (a, b) in slow.evaluations.iter().zip(fast.evaluations.iter()) {
        assert_eq!(a.config_index, b.config_index);
    }
    // and its best configuration can therefore not be better
    if let (Some(slow_best), Some(fast_best)) = (slow.best_runtime_ms(), fast.best_runtime_ms()) {
        assert!(fast_best <= slow_best);
    }
}

#[test]
fn all_strategies_only_evaluate_valid_configurations_of_gemm() {
    let (space, report) = build_search_space(&gemm().spec, Method::Optimized).unwrap();
    assert!(report.num_valid > 0);
    let model = performance_model_for("GEMM", &space, 3);
    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(RandomSampling),
        Box::new(GeneticAlgorithm::default()),
        Box::new(HillClimbing::default()),
    ];
    for strategy in strategies {
        let run = tune(
            &space,
            &model,
            strategy.as_ref(),
            Duration::from_secs(20),
            Duration::ZERO,
            5,
        );
        assert!(run.num_evaluations() > 0);
        for e in &run.evaluations {
            assert!(e.config_index.index() < space.len());
            assert!(e.runtime_ms > 0.0);
            assert!(e.finished_at_ms <= run.budget_ms);
        }
    }
}

#[test]
fn tuning_on_a_store_loaded_space_matches_tuning_on_the_cold_build() {
    // The production loop the ROADMAP aims at: the space is solved once,
    // persisted, and every later tuning session loads it pre-resolved. The
    // loaded space must drive the tuner identically — same ids, same
    // evaluations — and only charge the (much cheaper) load time to the
    // budget.
    let store_dir = std::env::temp_dir().join("at-tuning-e2e-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SpaceStore::new(&store_dir).unwrap();
    let spec = dedispersion().spec;

    let (cold, outcome) = store.get_or_build(&spec, Method::Optimized).unwrap();
    assert!(!outcome.status.is_hit());
    let (warm, outcome) = store.get_or_build(&spec, Method::Optimized).unwrap();
    assert!(outcome.status.is_hit());

    let model = performance_model_for("Dedispersion", &cold, 7);
    let budget = Duration::from_secs(10);
    let on_cold = tune(&cold, &model, &RandomSampling, budget, Duration::ZERO, 42);
    let on_warm = tune(&warm, &model, &RandomSampling, budget, Duration::ZERO, 42);
    assert_eq!(on_cold.evaluations, on_warm.evaluations);

    // Charging the warm-load duration instead of a construction leaves
    // strictly more budget for evaluations than charging a slow build.
    let warm_loaded = tune(&warm, &model, &RandomSampling, budget, outcome.duration, 42);
    let slow_build = tune(
        &warm,
        &model,
        &RandomSampling,
        budget,
        Duration::from_secs(8),
        42,
    );
    assert!(warm_loaded.num_evaluations() >= slow_build.num_evaluations());
}

#[test]
fn tuning_on_a_zero_copy_mmap_space_matches_the_cold_build() {
    use autotuning_searchspaces::store::LoadOptions;

    let store_dir = std::env::temp_dir().join("at-tuning-e2e-mmap");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SpaceStore::new(&store_dir).unwrap();
    let spec = dedispersion().spec;

    let (cold, _) = store.get_or_build(&spec, Method::Optimized).unwrap();
    let (mapped, outcome) = store
        .get_or_build_with_options(
            &spec,
            Method::Optimized,
            BuildOptions::default(),
            LoadOptions::mmap_trusted(),
        )
        .unwrap();
    assert!(outcome.status.is_hit());
    if cfg!(target_os = "linux") {
        assert!(mapped.is_zero_copy());
    }

    // Same ids, same evaluations: the tuner cannot tell the storages apart.
    let model = performance_model_for("Dedispersion", &cold, 7);
    let budget = Duration::from_secs(10);
    let on_cold = tune(&cold, &model, &RandomSampling, budget, Duration::ZERO, 42);
    let on_mapped = tune(&mapped, &model, &RandomSampling, budget, Duration::ZERO, 42);
    assert_eq!(on_cold.evaluations, on_mapped.evaluations);
}

#[test]
fn parallel_fanout_reproduces_the_serial_run_on_a_real_workload() {
    // The batched pipeline's core guarantee, end to end: the same workload,
    // strategy and seed produce the identical run whether evaluations fan
    // out over 1 thread or 8 — construction feeding batches feeding the
    // virtual clock, with the eval cache in the middle.
    let (space, _) = build_search_space(&dedispersion().spec, Method::Optimized).unwrap();
    let model = performance_model_for("Dedispersion", &space, 7);
    let budget = Duration::from_secs(15);
    for strategy in [
        Box::new(RandomSampling) as Box<dyn Strategy>,
        Box::new(GeneticAlgorithm::default()),
        Box::new(HillClimbing::default()),
    ] {
        let serial = tune_with_options(
            &space,
            &model,
            strategy.as_ref(),
            budget,
            Duration::ZERO,
            21,
            EvalOptions::with_threads(1),
        );
        let parallel = tune_with_options(
            &space,
            &model,
            strategy.as_ref(),
            budget,
            Duration::ZERO,
            21,
            EvalOptions::with_threads(8),
        );
        assert_eq!(
            serial.evaluations, parallel.evaluations,
            "{}",
            serial.strategy
        );
        assert_eq!(serial.total_ms, parallel.total_ms, "{}", serial.strategy);
        assert_eq!(
            serial.metrics.cache_hits, parallel.metrics.cache_hits,
            "{}",
            serial.strategy
        );
    }
}

#[test]
fn tuning_runs_are_reproducible_per_seed() {
    let (space, _) = build_search_space(&dedispersion().spec, Method::Optimized).unwrap();
    let model = performance_model_for("Dedispersion", &space, 1);
    let a = tune(
        &space,
        &model,
        &RandomSampling,
        Duration::from_secs(10),
        Duration::ZERO,
        42,
    );
    let b = tune(
        &space,
        &model,
        &RandomSampling,
        Duration::from_secs(10),
        Duration::ZERO,
        42,
    );
    let c = tune(
        &space,
        &model,
        &RandomSampling,
        Duration::from_secs(10),
        Duration::ZERO,
        43,
    );
    assert_eq!(a.evaluations, b.evaluations);
    assert_ne!(
        a.evaluations.first().map(|e| e.config_index),
        c.evaluations.first().map(|e| e.config_index)
    );
}

#[test]
fn neighbor_strategy_trajectories_are_pinned_on_dedispersion() {
    // Recorded with `atss tune --workload dedispersion --strategy <s>
    // --budget-ms 60000 --seed <n> --construction-ms 0 --json`. Hill climbing
    // and the ILS descent evaluate whole Hamming rings, so any change to
    // which neighbors a query returns, or to their order, moves these
    // numbers. The GA mutation, the SA proposals and the ILS perturbation
    // draw one random neighbor each, so a change to the order in which
    // `random_neighbor` probes candidates moves those rows too. Each row:
    // strategy, seed, evaluations, best_config_id, best_runtime_ms.
    //
    // Since every method yields the canonical row order, these are also
    // the numbers the original solver's space gave before that order
    // became the only one (`--method original` at the parent commit).
    let pinned: [(&str, u64, usize, usize, f64); 8] = [
        ("genetic", 7, 358, 140, 9.111919477318853),
        ("genetic", 8, 322, 924, 9.295828049225149),
        ("simulated-annealing", 7, 169, 1365, 9.253845974070519),
        ("simulated-annealing", 8, 196, 136, 9.461136925182497),
        ("hill-climbing", 7, 454, 140, 9.111919477318853),
        ("hill-climbing", 8, 457, 924, 9.295828049225149),
        ("iterated-local-search", 7, 462, 140, 9.111919477318853),
        ("iterated-local-search", 8, 462, 924, 9.295828049225149),
    ];
    let workload = dedispersion();
    let (space, _) = build_search_space(&workload.spec, Method::Optimized).unwrap();
    for (name, seed, evaluations, best_id, best_ms) in pinned {
        let model = performance_model_for(&workload.spec.name, &space, seed);
        let strategy = strategy_by_name(name).unwrap();
        let run = tune(
            &space,
            &model,
            strategy.as_ref(),
            Duration::from_millis(60_000),
            Duration::ZERO,
            seed,
        );
        let best = run.best_evaluation().expect("evaluated something");
        assert_eq!(
            (
                run.num_evaluations(),
                best.config_index.index(),
                best.runtime_ms
            ),
            (evaluations, best_id, best_ms),
            "{name} seed {seed}"
        );
    }
}
