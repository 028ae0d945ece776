//! Property-based tests for the static analyzer (`at_check`) and
//! analyzer-driven domain pre-pruning.
//!
//! Two properties, on randomly generated small specs:
//!
//! 1. **Pruned ≡ unpruned**: constructing with `BuildOptions { prune: true }`
//!    yields a byte-identical arena to constructing without it (or both
//!    fail identically), for **all six** construction methods.
//! 2. **Differential soundness**: every claim `check_spec` makes —
//!    per-restriction tautology/contradiction verdicts, prunable domain
//!    values and AT0008 pairwise contradictions — is checked against
//!    exhaustive enumeration with the reference interpreter under the
//!    error→reject convention.

use proptest::prelude::*;
use rustc_hash::FxHashMap;

use autotuning_searchspaces::check::{check_spec, Code, Verdict};
use autotuning_searchspaces::csp::value::Value;
use autotuning_searchspaces::expr;
use autotuning_searchspaces::searchspace::builder::{
    build_search_space_with, BuildOptions, Method,
};
use autotuning_searchspaces::searchspace::{Restriction, SearchSpaceSpec, TunableParameter};

/// One randomly generated restriction over parameters `p0..pN`.
#[derive(Debug, Clone)]
enum RandomRestriction {
    /// `pA * pB <= K` — lowered to the specific `MaxProduct` constraint.
    MaxProduct(usize, usize, i64),
    /// `pA + pB >= K` — lowered to the specific `MinSum` constraint.
    MinSum(usize, usize, i64),
    /// The pervasive guard idiom `pA % pB == 0 or pB == 0`.
    ModGuard(usize, usize),
    /// `pA <= pB`.
    Compare(usize, usize),
    /// `pA < pB` — jointly unsatisfiable with `pB <= pA`.
    Less(usize, usize),
    /// `pA in [..constants..]`.
    Membership(usize, Vec<i64>),
    /// `pA >= K` — tautological, contradictory, or contingent depending
    /// on how `K` relates to the generated domain.
    Threshold(usize, i64),
    /// `pA < K` — jointly unsatisfiable with `pA >= K'` when `K <= K'`.
    Below(usize, i64),
}

impl RandomRestriction {
    fn source(&self) -> String {
        match self {
            RandomRestriction::MaxProduct(a, b, k) => format!("p{a} * p{b} <= {k}"),
            RandomRestriction::MinSum(a, b, k) => format!("p{a} + p{b} >= {k}"),
            RandomRestriction::ModGuard(a, b) => format!("p{a} % p{b} == 0 or p{b} == 0"),
            RandomRestriction::Compare(a, b) => format!("p{a} <= p{b}"),
            RandomRestriction::Less(a, b) => format!("p{a} < p{b}"),
            RandomRestriction::Membership(a, set) => {
                let items: Vec<String> = set.iter().map(|v| v.to_string()).collect();
                format!("p{a} in [{}]", items.join(", "))
            }
            RandomRestriction::Threshold(a, k) => format!("p{a} >= {k}"),
            RandomRestriction::Below(a, k) => format!("p{a} < {k}"),
        }
    }
}

#[derive(Debug, Clone)]
struct RandomSpec {
    domains: Vec<Vec<i64>>,
    restrictions: Vec<RandomRestriction>,
}

fn random_restriction(n: usize) -> impl Strategy<Value = RandomRestriction> {
    prop_oneof![
        (0..n, 0..n, 1i64..100).prop_map(|(a, b, k)| RandomRestriction::MaxProduct(a, b, k)),
        (0..n, 0..n, 1i64..20).prop_map(|(a, b, k)| RandomRestriction::MinSum(a, b, k)),
        (0..n, 0..n).prop_map(|(a, b)| RandomRestriction::ModGuard(a, b)),
        (0..n, 0..n).prop_map(|(a, b)| RandomRestriction::Compare(a, b)),
        (0..n, 0..n).prop_map(|(a, b)| RandomRestriction::Less(a, b)),
        (0..n, proptest::collection::vec(0i64..10, 1..4))
            .prop_map(|(a, set)| RandomRestriction::Membership(a, set)),
        (0..n, -3i64..12).prop_map(|(a, k)| RandomRestriction::Threshold(a, k)),
        (0..n, -3i64..12).prop_map(|(a, k)| RandomRestriction::Below(a, k)),
    ]
}

fn random_spec() -> impl Strategy<Value = RandomSpec> {
    let domain = proptest::collection::vec(-2i64..10, 1..6);
    let domains = proptest::collection::vec(domain, 2..5);
    domains.prop_flat_map(|domains| {
        let n = domains.len();
        let restrictions = proptest::collection::vec(random_restriction(n), 1..6);
        (Just(domains), restrictions).prop_map(|(domains, restrictions)| RandomSpec {
            domains,
            restrictions,
        })
    })
}

fn build_spec(rs: &RandomSpec) -> SearchSpaceSpec {
    let mut spec = SearchSpaceSpec::new("proptest-check");
    for (i, d) in rs.domains.iter().enumerate() {
        // Deduplicate, preserving generation order: domains are ordered
        // lists, and the identity property is about that exact order.
        let mut values: Vec<Value> = Vec::new();
        for &v in d {
            if !values.contains(&Value::Int(v)) {
                values.push(Value::Int(v));
            }
        }
        spec.add_param(TunableParameter::new(format!("p{i}"), values));
    }
    for r in &rs.restrictions {
        spec.add_restriction(Restriction::expr(r.source()));
    }
    spec
}

/// Exhaustively evaluate the conjunction of `exprs` over the full
/// cartesian product of the spec's parameter domains, under the
/// error→reject convention. Returns `(n_sat, n_total, support)` where
/// `support[i][j]` records whether domain value `j` of parameter `i`
/// appears in a satisfying assignment.
fn brute_force(exprs: &[&expr::Expr], spec: &SearchSpaceSpec) -> (u64, u64, Vec<Vec<bool>>) {
    let domains: Vec<(&str, &[Value])> =
        spec.params.iter().map(|p| (p.name(), p.values())).collect();
    let mut support: Vec<Vec<bool>> = domains.iter().map(|(_, v)| vec![false; v.len()]).collect();
    let mut indices = vec![0usize; domains.len()];
    let (mut n_sat, mut n_total) = (0u64, 0u64);
    loop {
        let env: FxHashMap<String, Value> = domains
            .iter()
            .zip(&indices)
            .map(|((name, values), &i)| (name.to_string(), values[i].clone()))
            .collect();
        n_total += 1;
        let sat = exprs
            .iter()
            .all(|expr| matches!(expr.evaluate(&env), Ok(v) if v.truthy()));
        if sat {
            n_sat += 1;
            for (row, &i) in support.iter_mut().zip(&indices) {
                row[i] = true;
            }
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Analyzer-driven pre-pruning must not change the constructed space —
    /// byte-for-byte — under any of the six construction methods.
    #[test]
    fn pruning_preserves_the_space_for_every_method(rs in random_spec()) {
        let spec = build_spec(&rs);
        for method in Method::all() {
            let plain = build_search_space_with(&spec, method, BuildOptions::default());
            let pruned = build_search_space_with(
                &spec,
                method,
                BuildOptions { prune: true, ..Default::default() },
            );
            match (plain, pruned) {
                (Ok((plain, _)), Ok((pruned, _))) => {
                    prop_assert!(
                        plain.arena() == pruned.arena(),
                        "{method:?}: pre-pruning changed the arena for {:?}",
                        rs.restrictions.iter().map(|r| r.source()).collect::<Vec<_>>()
                    );
                    prop_assert_eq!(plain.len(), pruned.len());
                }
                (Err(_), Err(_)) => {}
                (plain, pruned) => prop_assert!(
                    false,
                    "{method:?}: pre-pruning changed constructibility: \
                     plain={:?} pruned={:?}",
                    plain.as_ref().err(),
                    pruned.as_ref().err()
                ),
            }
        }
    }
}

proptest! {
    // More cases than above: about one generated spec in seven has an
    // AT0008 finding.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every claim the analyzer makes must agree with exhaustive
    /// enumeration by the reference interpreter.
    #[test]
    fn analyzer_claims_match_brute_force(rs in random_spec()) {
        let spec = build_spec(&rs);
        let report = check_spec(&spec);
        prop_assert_eq!(report.verdicts.len(), rs.restrictions.len());

        // Per-restriction verdict soundness.
        let exprs: Vec<expr::Expr> = rs
            .restrictions
            .iter()
            .map(|r| expr::parse(&r.source()).expect("generated restrictions parse"))
            .collect();
        let mut contingent = vec![false; exprs.len()];
        let mut conjunction_support: Option<Vec<Vec<bool>>> = None;
        for (i, r) in rs.restrictions.iter().enumerate() {
            let source = r.source();
            let (n_sat, n_total, support) = brute_force(&[&exprs[i]], &spec);
            contingent[i] = 0 < n_sat && n_sat < n_total;
            match report.verdicts[i] {
                Some(Verdict::Contradiction) => {
                    prop_assert_eq!(
                        n_sat, 0,
                        "{source:?} called a contradiction but {n_sat}/{n_total} satisfy it"
                    );
                    // A contradiction anywhere makes the whole space empty.
                    if let Ok((space, _)) =
                        build_search_space_with(&spec, Method::BruteForce, BuildOptions::default())
                    {
                        prop_assert_eq!(
                            space.len(), 0,
                            "{source:?} called a contradiction but the space is non-empty"
                        );
                    }
                }
                Some(Verdict::Tautology) => {
                    prop_assert_eq!(
                        n_sat, n_total,
                        "{source:?} called a tautology but only {n_sat}/{n_total} satisfy it"
                    );
                    // Dropping a proven tautology must leave the space
                    // byte-identical (under declaration-order enumeration).
                    let mut dropped = RandomSpec {
                        domains: rs.domains.clone(),
                        restrictions: rs.restrictions.clone(),
                    };
                    dropped.restrictions.remove(i);
                    let dropped = build_spec(&dropped);
                    // The lowering may refuse shapes the analyzer can
                    // still reason about, so only compare when both build.
                    if let (Ok((kept, _)), Ok((bare, _))) = (
                        build_search_space_with(&spec, Method::BruteForce, BuildOptions::default()),
                        build_search_space_with(&dropped, Method::BruteForce, BuildOptions::default()),
                    ) {
                        prop_assert!(
                            kept.arena() == bare.arena(),
                            "dropping tautology {source:?} changed the constructed space"
                        );
                    }
                }
                _ => {}
            }
            // Intersect per-restriction support into support for the
            // conjunction of all restrictions.
            conjunction_support = Some(match conjunction_support {
                None => support,
                Some(acc) => acc
                    .into_iter()
                    .zip(support)
                    .map(|(a, b)| a.into_iter().zip(b).map(|(x, y)| x && y).collect())
                    .collect(),
            });
        }

        // AT0008 against brute force: for every pair of contingent
        // restrictions with overlapping scopes, the analyzer names the
        // pair exactly when no assignment satisfies both. Joint scopes
        // here stay under EXACT_CAP (at most 4 parameters of at most 5
        // values), so the analyzer decides every such pair.
        let named: Vec<(usize, usize)> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::PairwiseContradiction)
            .map(|d| {
                let words: Vec<&str> = d.message.split_whitespace().collect();
                let pair: (usize, usize) = (
                    words[1].parse().expect("first restriction index"),
                    words[3].parse().expect("second restriction index"),
                );
                assert_eq!(d.restriction, Some(pair.1), "{}", d.message);
                pair
            })
            .collect();
        let mut expected = Vec::new();
        for i in 0..exprs.len() {
            for j in i + 1..exprs.len() {
                let (vars_i, vars_j) = (exprs[i].variables(), exprs[j].variables());
                let overlap = vars_i.iter().any(|v| vars_j.contains(v));
                if contingent[i]
                    && contingent[j]
                    && overlap
                    && brute_force(&[&exprs[i], &exprs[j]], &spec).0 == 0
                {
                    expected.push((i, j));
                }
            }
        }
        prop_assert_eq!(
            &named,
            &expected,
            "AT0008 pairs differ from brute force for {:?}",
            rs.restrictions.iter().map(|r| r.source()).collect::<Vec<_>>()
        );

        // Prunable soundness: a value the analyzer prunes is excluded by
        // at least one restriction, hence by their conjunction. (The
        // converse need not hold — the analyzer only claims what it can
        // prove — so this checks soundness, not completeness.)
        let conjunction_support = conjunction_support.expect("at least one restriction");
        for p in &report.prunable {
            let idx = spec
                .params
                .iter()
                .position(|param| param.name() == p.param)
                .expect("prunable report names a spec parameter");
            for value in &p.values {
                let vi = spec.params[idx]
                    .values()
                    .iter()
                    .position(|v| v == value)
                    .expect("prunable value is in the parameter's domain");
                prop_assert!(
                    !conjunction_support[idx][vi],
                    "analyzer claims {}={value:?} is prunable, but a satisfying \
                     assignment of every restriction uses it (restrictions: {:?})",
                    p.param,
                    rs.restrictions.iter().map(|r| r.source()).collect::<Vec<_>>()
                );
            }
        }
    }
}
