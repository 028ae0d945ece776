//! # at-tuner — a minimal auto-tuner over resolved search spaces
//!
//! This crate provides what the paper's Section 5.4 experiment needs from
//! Kernel Tuner: a budgeted tuning loop over a fully resolved
//! [`at_searchspace::SearchSpace`], driven by optimization strategies
//! (random sampling, a genetic algorithm, hill climbing, simulated
//! annealing, differential evolution, particle swarm optimization and
//! iterated local search) and a *simulated* kernel performance model
//! evaluated on a virtual clock. Construction time is charged against the
//! same budget, so the effect of slow search-space construction on tuning
//! outcomes (Figures 6 and 7) can be reproduced without GPU hardware.
//!
//! Evaluation is batch-first: strategies submit whole generations, swarms
//! or neighbor rings through [`TuningContext::evaluate_batch`], and the
//! engine dedups, serves repeats from its eval cache, fans the distinct
//! misses out over scoped threads ([`EvalOptions::threads`]) against an
//! [`EvalBackend`], and merges results deterministically — the run is
//! identical for any thread count. [`EvalMetrics`] counts that work and
//! renders it as JSON for the CLI's outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod kernel;
pub mod strategies;
pub mod tuning;

pub use eval::{
    out_of_budget, EvalBackend, EvalMetrics, EvalOptions, EvalOutcome, Measurement, ModelBackend,
};
pub use kernel::{PerformanceModel, SyntheticKernel};
pub use strategies::{
    all_strategy_names, strategy_by_name, DifferentialEvolution, GeneticAlgorithm, HillClimbing,
    IteratedLocalSearch, ParticleSwarm, RandomSampling, SimulatedAnnealing,
};
pub use tuning::{
    tune, tune_with_backend, tune_with_options, Evaluation, Strategy, TuningContext, TuningRun,
    CACHE_HIT_COST_MS,
};
