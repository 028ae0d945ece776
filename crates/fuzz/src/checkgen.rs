//! Target 4: the static analyzer (`at_check`) against brute-force ground
//! truth.
//!
//! The fuzz input is a restriction string (same input space as
//! `expr_pipeline`); the parameter domains are derived deterministically
//! from the input's FNV hash and kept small enough that the full
//! cartesian product can be enumerated with the reference interpreter.
//! That enumeration *is* the ground truth the analyzer's claims are
//! checked against — see [`check_target`] for the oracle.

use at_csp::{OptimizedSolverConfig, Value};
use at_searchspace::builder::{build_search_space_with, BuildOptions, Method};
use at_searchspace::{Restriction, SearchSpaceSpec, TunableParameter};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rustc_hash::FxHashMap;

/// The analyzer's brute-forceable universe: every generator variable gets
/// a domain, so `AT0001` only fires on genuinely unknown (mutated) names.
const DOMAIN_VARS: [&str; 5] = ["x", "y", "z", "block_size_x", "tile"];

/// Derive small, mostly-integer domains from the input hash. The product
/// stays at most 3^5 = 243, far under the analyzer's own exact-enumeration
/// cap, so the analyzer sees the same exhaustive picture the oracle does.
fn derive_domains(hash: u64) -> Vec<(String, Vec<Value>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(hash ^ 0x4348_4543); // "CHEC"
    DOMAIN_VARS
        .iter()
        .map(|name| {
            let size = rng.gen_range(1usize..=3);
            let mut values: Vec<Value> = Vec::with_capacity(size);
            while values.len() < size {
                let v = match rng.gen_range(0u32..12) {
                    0..=7 => Value::Int(rng.gen_range(0i64..7)),
                    8 => Value::Int(-1),
                    9 => Value::Float(rng.gen_range(0i64..8) as f64 / 2.0),
                    10 => Value::Bool(rng.gen_bool(0.5)),
                    _ => Value::str(if rng.gen_bool(0.5) { "half" } else { "single" }),
                };
                if !values.contains(&v) {
                    values.push(v);
                }
            }
            (name.to_string(), values)
        })
        .collect()
}

fn spec_for(source: &str, domains: &[(String, Vec<Value>)]) -> SearchSpaceSpec {
    let mut spec = SearchSpaceSpec::new("fuzz");
    for (name, values) in domains {
        spec.add_param(TunableParameter::new(name.clone(), values.clone()));
    }
    spec.add_restriction(Restriction::expr(source));
    spec
}

/// Enumerate the full cartesian product and evaluate `expr` under the
/// error→reject convention. Returns `(n_sat, n_total, support)` where
/// `support[i][j]` says whether domain value `j` of parameter `i` occurs
/// in at least one satisfying assignment.
fn brute_force(
    expr: &at_expr::Expr,
    domains: &[(String, Vec<Value>)],
) -> (u64, u64, Vec<Vec<bool>>) {
    let mut support: Vec<Vec<bool>> = domains.iter().map(|(_, v)| vec![false; v.len()]).collect();
    let mut indices = vec![0usize; domains.len()];
    let (mut n_sat, mut n_total) = (0u64, 0u64);
    loop {
        let env: FxHashMap<String, Value> = domains
            .iter()
            .zip(&indices)
            .map(|((name, values), &i)| (name.clone(), values[i].clone()))
            .collect();
        n_total += 1;
        let sat = match expr.evaluate(&env) {
            Ok(v) => v.truthy(),
            Err(_) => false,
        };
        if sat {
            n_sat += 1;
            for (row, &i) in support.iter_mut().zip(&indices) {
                row[i] = true;
            }
        }
        // Odometer step.
        let mut pos = domains.len();
        loop {
            if pos == 0 {
                return (n_sat, n_total, support);
            }
            pos -= 1;
            indices[pos] += 1;
            if indices[pos] < domains[pos].1.len() {
                break;
            }
            indices[pos] = 0;
        }
    }
}

/// Target 4: restriction strings through `at_check::check_spec` plus the
/// pre-pruning construction path. Oracle, for every input:
///
/// * **No panic, no hang** in the analyzer or in rendering, for any input
///   (including non-UTF-8 garbage and parse failures).
/// * **Diagnostics are well-formed** — every span lies inside its source
///   string, and a parse failure is reported as `AT0009`.
/// * **Contradiction soundness** — a `Contradiction` verdict implies the
///   brute-forced satisfying count is exactly 0.
/// * **Tautology soundness / drop identity** — a `Tautology` verdict
///   implies every assignment satisfies the restriction, and the space
///   built *with* the restriction is code-for-code identical (same arena
///   bytes) to the space built with the restriction dropped.
/// * **Prunable soundness** — every `(parameter, value)` the analyzer
///   reports as prunable occurs in no satisfying assignment.
/// * **Pruned ≡ unpruned** — constructing with analyzer-driven domain
///   pre-pruning yields byte-identical arenas to constructing without it
///   (or both fail), for a deterministic and a search-based method.
/// * **Optimized ≡ brute force** — the optimized solver searching in
///   declaration order builds brute force's arena byte for byte, and in
///   its default order the same rows.
pub fn check_target(input: &[u8]) -> Result<(), String> {
    let input = &input[..input.len().min(2048)];
    let source = String::from_utf8_lossy(input).into_owned();
    let hash = crate::harness::fnv1a(input);
    let domains = derive_domains(hash);
    let spec = spec_for(&source, &domains);

    let report = at_check::check_spec(&spec);

    // Well-formedness: rendering must not panic, spans must be in bounds.
    let _ = report.render();
    for d in &report.diagnostics {
        if let (Some(src), Some(span)) = (&d.source, d.span) {
            if span.start > span.end || span.end > src.len() {
                return Err(format!(
                    "diagnostic {} has out-of-bounds span {}..{} for source {src:?}",
                    d.code, span.start, span.end
                ));
            }
        }
    }

    let Ok(expr) = at_expr::parse(&source) else {
        // Unparseable restriction: the analyzer must say so.
        if !report
            .diagnostics
            .iter()
            .any(|d| d.code == at_check::Code::ParseFailure)
        {
            return Err(format!(
                "restriction {source:?} fails to parse but check_spec reported no AT0009"
            ));
        }
        return Ok(());
    };

    let (n_sat, n_total, support) = brute_force(&expr, &domains);

    if let Some(verdict) = &report.verdicts[0] {
        match verdict {
            at_check::Verdict::Contradiction if n_sat != 0 => {
                return Err(format!(
                    "analyzer called {source:?} a contradiction but brute force \
                     finds {n_sat}/{n_total} satisfying assignments"
                ));
            }
            at_check::Verdict::Tautology if n_sat != n_total => {
                return Err(format!(
                    "analyzer called {source:?} a tautology but brute force \
                     finds only {n_sat}/{n_total} satisfying assignments"
                ));
            }
            _ => {}
        }
    }

    for p in &report.prunable {
        let idx = domains
            .iter()
            .position(|(name, _)| *name == p.param)
            .ok_or_else(|| format!("prunable report names unknown parameter {:?}", p.param))?;
        for value in &p.values {
            let vi = domains[idx]
                .1
                .iter()
                .position(|v| v == value)
                .ok_or_else(|| {
                    format!("prunable value {value:?} is not in {}'s domain", p.param)
                })?;
            if support[idx][vi] {
                return Err(format!(
                    "analyzer claims {}={value:?} is prunable for {source:?}, but a \
                     satisfying assignment uses it",
                    p.param
                ));
            }
        }
    }

    // Tautology-drop identity, under the brute-force method (declaration-
    // order enumeration, so row order cannot differ between the variants).
    if matches!(report.verdicts[0], Some(at_check::Verdict::Tautology)) {
        let mut dropped = SearchSpaceSpec::new("fuzz");
        for (name, values) in &domains {
            dropped.add_param(TunableParameter::new(name.clone(), values.clone()));
        }
        let options = BuildOptions::default();
        match (
            build_search_space_with(&spec, Method::BruteForce, options),
            build_search_space_with(&dropped, Method::BruteForce, options),
        ) {
            (Ok((kept, _)), Ok((bare, _))) => {
                if kept.arena() != bare.arena() {
                    return Err(format!(
                        "dropping tautology {source:?} changed the constructed space"
                    ));
                }
            }
            // The lowering may cleanly refuse shapes the analyzer can still
            // reason about (e.g. non-constant membership sets); that is not
            // an analyzer bug. An unconstrained spec must always build.
            (Err(_), Ok(_)) => {}
            (_, bare) => {
                return Err(format!(
                    "constructing the restriction-free spec failed: {:?}",
                    bare.err()
                ));
            }
        }
    }

    // Pre-pruning identity: byte-identical arenas with and without
    // analyzer-driven domain pruning, or the same failure.
    for method in [Method::BruteForce, Method::Optimized] {
        let plain = build_search_space_with(&spec, method, BuildOptions::default());
        let pruned = build_search_space_with(
            &spec,
            method,
            BuildOptions {
                prune: true,
                ..Default::default()
            },
        );
        match (plain, pruned) {
            (Ok((plain, _)), Ok((pruned, _))) => {
                if plain.arena() != pruned.arena() {
                    return Err(format!(
                        "domain pre-pruning changed the {method:?} space for {source:?}"
                    ));
                }
            }
            (Err(_), Err(_)) => {}
            (plain, pruned) => {
                return Err(format!(
                    "pre-pruning changed constructibility for {source:?} under \
                     {method:?}: plain={:?} pruned={:?}",
                    plain.as_ref().err(),
                    pruned.as_ref().err()
                ));
            }
        }
    }

    solver_differential(&spec, &source)
}

/// The optimized solver against brute force on the same spec. Its one
/// restriction spans at most 243 tuples, so every constraint the lowering
/// makes of it becomes one of the solver's bit tables: the tables must
/// accept exactly the tuples brute force's evaluation accepts. In
/// declaration order and in its default order alike, the optimized arena
/// must equal brute force's byte for byte: every method yields the
/// canonical row order.
fn solver_differential(spec: &SearchSpaceSpec, source: &str) -> Result<(), String> {
    let in_declaration_order = BuildOptions {
        solver_config: Some(OptimizedSolverConfig {
            variable_ordering: false,
            ..Default::default()
        }),
        ..Default::default()
    };
    let ordered = build_search_space_with(spec, Method::Optimized, in_declaration_order);
    let optimized = build_search_space_with(spec, Method::Optimized, BuildOptions::default());
    let (ordered, optimized) = match (ordered, optimized) {
        (Ok((ordered, _)), Ok((optimized, _))) => (ordered, optimized),
        (Err(_), Err(_)) => return Ok(()),
        (ordered, optimized) => {
            return Err(format!(
                "the search order changed constructibility for {source:?}: \
                 declaration order={:?} default={:?}",
                ordered.as_ref().err(),
                optimized.as_ref().err()
            ));
        }
    };
    // The two methods lower the restriction differently, and a lowering
    // may cleanly refuse a shape; the expression target holds the
    // lowerings to the interpreter.
    let Ok((brute, _)) = build_search_space_with(spec, Method::BruteForce, BuildOptions::default())
    else {
        return Ok(());
    };
    if ordered.arena() != brute.arena() {
        return Err(format!(
            "the optimized solver in declaration order built a different arena \
             than brute force for {source:?}: {} vs {} rows",
            ordered.len(),
            brute.len()
        ));
    }
    if optimized.arena() != brute.arena() {
        return Err(format!(
            "the optimized solver built a different arena than brute force for {source:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_target_accepts_generated_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(4242);
        for _ in 0..60 {
            let source = crate::exprgen::generate(&mut rng);
            check_target(source.as_bytes()).unwrap();
        }
    }

    #[test]
    fn check_target_accepts_garbage_and_parse_failures() {
        check_target(b"").unwrap();
        check_target(&[0xff, 0xfe, 0x00, 0x41]).unwrap();
        check_target(b"1 +").unwrap();
        check_target(b"x % y == 0 or y == 0").unwrap();
    }

    #[test]
    fn derived_domains_are_deterministic_and_small() {
        let a = derive_domains(7);
        let b = derive_domains(7);
        assert_eq!(a.len(), DOMAIN_VARS.len());
        for ((name_a, vals_a), (name_b, vals_b)) in a.iter().zip(&b) {
            assert_eq!(name_a, name_b);
            assert_eq!(vals_a, vals_b);
            assert!((1..=3).contains(&vals_a.len()));
        }
    }

    #[test]
    fn brute_force_counts_and_support_are_exact() {
        let domains = vec![
            ("x".to_string(), vec![Value::Int(1), Value::Int(2)]),
            ("y".to_string(), vec![Value::Int(0), Value::Int(3)]),
        ];
        let expr = at_expr::parse("x < y").unwrap();
        let (n_sat, n_total, support) = brute_force(&expr, &domains);
        assert_eq!((n_sat, n_total), (2, 4)); // (1,3) and (2,3)
        assert_eq!(support[0], vec![true, true]);
        assert_eq!(support[1], vec![false, true]);
    }
}
