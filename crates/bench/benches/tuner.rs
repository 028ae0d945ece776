//! Batched-evaluation throughput benchmarks for the tuner.
//!
//! The batch engine's pitch is that population strategies (GA, DE, PSO)
//! submit whole generations, so the distinct uncached configurations can
//! fan out over worker threads while the virtual-clock accounting stays
//! serial and deterministic. A one-shot comparison (min-of-3, printed up
//! front, with an identity check) demonstrates this on `microhh`: each
//! strategy is tuned with 1 and 4 eval threads against a model whose
//! per-measurement *wall-clock* cost is made non-trivial by deterministic
//! spin work, and the runs must be identical — same evaluations, same
//! virtual clock — with cache hit/dedup stats printed per strategy. The
//! ≥2× eval-throughput speedup for the population strategies is asserted
//! only when the host actually has ≥4 cores (CI containers often pin 1).
//! Criterion groups then track per-strategy serial eval throughput on the
//! cheap model and the engine's batch overhead.
//!
//! * `tuner/strategy_eval` — full tuning runs per strategy, 1 thread,
//!   cheap model: the strategy + engine overhead per evaluation,
//! * `tuner/batch_engine` — `evaluate_batch` on a pre-shuffled id stream
//!   through a fresh context: resolve/fan-out/merge cost per slot.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use at_searchspace::{build_search_space, ConfigId, Method, SearchSpace};
use at_tuner::{
    strategy_by_name, tune_with_options, EvalOptions, ModelBackend, PerformanceModel,
    SyntheticKernel, TuningContext, TuningRun,
};
use at_workloads::microhh;

/// Wraps the synthetic model with deterministic spin work so a measurement
/// has a real wall-clock cost (~the hardware the virtual clock simulates).
/// The spin result feeds the output through `black_box`, so the optimizer
/// cannot delete it; the returned runtime stays bit-identical to the inner
/// model's, keeping parallel runs comparable to serial ones.
struct SpinWorkModel<'m> {
    inner: &'m SyntheticKernel,
    spin_iters: u64,
}

impl<'m> SpinWorkModel<'m> {
    fn spin(&self) -> u64 {
        let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..self.spin_iters {
            acc = black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        acc
    }
}

impl PerformanceModel for SpinWorkModel<'_> {
    fn runtime_ms(&self, config: &[at_searchspace::prelude::Value]) -> f64 {
        let noise = (self.spin() & 1) as f64 * 0.0; // always 0.0, but not to LLVM
        self.inner.runtime_ms(config) + noise
    }
}

fn eval_throughput(run: &TuningRun, wall: Duration) -> f64 {
    run.metrics.measured as f64 / wall.as_secs_f64().max(1e-9)
}

fn min_of_runs(
    runs: usize,
    space: &SearchSpace,
    model: &dyn PerformanceModel,
    strategy: &str,
    threads: usize,
) -> (Duration, TuningRun) {
    let strat = strategy_by_name(strategy).expect("strategy");
    let mut best: Option<(Duration, TuningRun)> = None;
    for _ in 0..runs {
        let start = Instant::now();
        let run = tune_with_options(
            space,
            model,
            strat.as_ref(),
            Duration::from_secs(60),
            Duration::ZERO,
            1234,
            EvalOptions::with_threads(threads),
        );
        let elapsed = start.elapsed();
        if best.as_ref().is_none_or(|(b, _)| elapsed < *b) {
            best = Some((elapsed, run));
        }
    }
    best.expect("at least one run")
}

/// The acceptance comparison: tune microhh per strategy at 1 and 4 eval
/// threads against the spin-work model, assert the runs identical, report
/// eval throughput and cache stats, and (on hosts with the cores to show
/// it) assert the ≥2× speedup for the population strategies.
fn report_serial_vs_fanout() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (space, _) = build_search_space(&microhh().spec, Method::Optimized).expect("construction");
    let inner = SyntheticKernel::for_space(&space, 1234);
    let model = SpinWorkModel {
        inner: &inner,
        spin_iters: 25_000,
    };
    println!(
        "microhh eval throughput, 1 vs 4 eval threads (min of 3, {} configs, {} cores):",
        space.len(),
        cores
    );
    for strategy in [
        "genetic",
        "differential-evolution",
        "particle-swarm",
        "random",
    ] {
        let (serial_wall, serial) = min_of_runs(3, &space, &model, strategy, 1);
        let (fanout_wall, fanout) = min_of_runs(3, &space, &model, strategy, 4);
        assert_eq!(
            serial.evaluations, fanout.evaluations,
            "{strategy}: fan-out changed the run"
        );
        assert_eq!(serial.total_ms, fanout.total_ms, "{strategy}");
        let speedup = eval_throughput(&fanout, fanout_wall) / eval_throughput(&serial, serial_wall);
        println!(
            "  {:<24} 1t {:>8.0} evals/s   4t {:>8.0} evals/s ({:>4.2}x)   {}",
            strategy,
            eval_throughput(&serial, serial_wall),
            eval_throughput(&fanout, fanout_wall),
            speedup,
            fanout.metrics.summary_line(),
        );
        let is_population = strategy != "random";
        if cores >= 4 && is_population {
            assert!(
                speedup >= 2.0,
                "{strategy}: expected >=2x eval throughput at 4 threads on a \
                 {cores}-core host, got {speedup:.2}x"
            );
        }
    }
}

fn bench_tuner(c: &mut Criterion) {
    report_serial_vs_fanout();

    let (space, _) = build_search_space(&microhh().spec, Method::Optimized).expect("construction");
    let model = SyntheticKernel::for_space(&space, 1234);

    // Eval throughput per strategy on the cheap model: strategy proposal +
    // engine overhead dominate, which is what the group tracks over time.
    let mut group = c.benchmark_group("tuner/strategy_eval");
    group.sample_size(10);
    for strategy in [
        "random",
        "genetic",
        "differential-evolution",
        "particle-swarm",
        "hill-climbing",
        "simulated-annealing",
        "iterated-local-search",
    ] {
        let strat = strategy_by_name(strategy).expect("strategy");
        group.bench_with_input(BenchmarkId::new("microhh", strategy), &space, |b, space| {
            b.iter(|| {
                tune_with_options(
                    space,
                    &model,
                    strat.as_ref(),
                    Duration::from_secs(20),
                    Duration::ZERO,
                    7,
                    EvalOptions::with_threads(1),
                )
                .num_evaluations()
            })
        });
    }
    group.finish();

    // The raw batch engine: resolve + fan-out + merge per slot, strategies
    // out of the picture.
    let backend = ModelBackend::new(&model);
    let ids: Vec<ConfigId> = (0..space.len().min(4096))
        .map(ConfigId::from_index)
        .collect();
    let mut group = c.benchmark_group("tuner/batch_engine");
    group.sample_size(20);
    for batch in [64usize, 512] {
        group.bench_with_input(
            BenchmarkId::new("evaluate_batch", batch),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let mut ctx = TuningContext::new(
                        &space,
                        &backend,
                        Duration::from_secs(3600),
                        Duration::ZERO,
                        0,
                        EvalOptions::with_threads(1),
                    );
                    let mut measured = 0usize;
                    for chunk in ids.chunks(batch) {
                        measured += ctx
                            .evaluate_batch(chunk)
                            .iter()
                            .filter(|o| o.runtime().is_some())
                            .count();
                    }
                    measured
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_tuner);
criterion_main!(benches);
