//! Constraint trait and the built-in constraint library.
//!
//! Constraints are predicates over a *scope* (an ordered list of variables).
//! The solver calls [`Constraint::check`] with a partial assignment during
//! search and [`Constraint::evaluate`] with a complete value tuple when brute
//! forcing or validating. *Specific* constraints (products, sums, set
//! membership, comparisons) additionally implement
//! [`Constraint::preprocess`], which prunes variable domains once before the
//! search starts — one of the key optimizations of the paper (Section 4.3.2).

use std::fmt::Debug;
use std::sync::Arc;

use crate::assignment::Assignment;
use crate::domain::DomainStore;
use crate::error::CspResult;
use crate::value::Value;

mod compare;
mod divisibility;
mod function;
mod membership;
mod product;
mod sum;
mod table;
mod uniqueness;

pub use compare::{CmpOp, PairCompare, VarCompare};
pub use divisibility::{Divides, ModuloEquals};
pub use function::FunctionConstraint;
pub use membership::{FixedValue, InSet, NotInSet};
pub use product::{ExactProduct, MaxProduct, MinProduct};
pub use sum::{ExactSum, MaxSum, MinSum};
pub use table::{AllowedTuples, ForbiddenTuples};
pub use uniqueness::{AllDifferent, AllEqual};

/// A constraint over a scope of variables.
///
/// Implementations must be cheap to share across threads: the parallel
/// solvers evaluate the same constraint objects concurrently.
pub trait Constraint: Send + Sync + Debug {
    /// Short human-readable kind, e.g. `"MaxProduct"`.
    fn kind(&self) -> &'static str;

    /// Evaluate the constraint against a complete tuple of values, given in
    /// scope order.
    ///
    /// Brute force calls this on every tuple of the variables' domains, and
    /// the optimized solver's table build on every tuple of their declared
    /// values over a small scope, including tuples that preprocessing
    /// would have removed. So it must be defined for all of them: return
    /// `false` for a tuple it cannot judge, never panic.
    fn evaluate(&self, values: &[Value]) -> bool;

    /// Check the constraint under a (possibly partial) assignment.
    ///
    /// Must return `false` only when the constraint is certainly violated by
    /// every completion of the assignment. When `forward_check` is set and
    /// exactly one scope variable is unassigned, implementations may hide
    /// incompatible values from that variable's domain and return `false` if
    /// the domain becomes empty.
    fn check(
        &self,
        scope: &[usize],
        assignment: &Assignment,
        domains: &mut DomainStore,
        forward_check: bool,
    ) -> bool {
        generic_check(self, scope, assignment, domains, forward_check)
    }

    /// Prune domains once before search. Returns the number of removed values.
    ///
    /// The default does nothing; specific constraints override this.
    fn preprocess(&self, _scope: &[usize], _domains: &mut DomainStore) -> CspResult<usize> {
        Ok(0)
    }

    /// Whether this is a *specific* constraint (i.e. not a generic function
    /// constraint). Used for reporting and ablation studies.
    fn is_specific(&self) -> bool {
        true
    }
}

/// Shared, dynamically typed constraint handle.
pub type ConstraintRef = Arc<dyn Constraint>;

/// Generic partial-assignment check built on [`Constraint::evaluate`].
///
/// * all scope variables assigned → evaluate the tuple;
/// * exactly one unassigned and `forward_check` → hide the values of that
///   variable that would violate the constraint, fail if none remain;
/// * otherwise → the constraint cannot be decided yet, return `true`.
///
/// The open scope positions are counted first, so an undecidable call
/// returns before it copies a value.
pub fn generic_check<C: Constraint + ?Sized>(
    constraint: &C,
    scope: &[usize],
    assignment: &Assignment,
    domains: &mut DomainStore,
    forward_check: bool,
) -> bool {
    let mut missing: Option<(usize, usize)> = None;
    for (pos, &var) in scope.iter().enumerate() {
        if assignment.get(var).is_none() {
            if missing.is_some() || !forward_check {
                return true;
            }
            missing = Some((pos, var));
        }
    }
    let mut values: Vec<Value> = scope
        .iter()
        .map(|&var| assignment.get(var).cloned().unwrap_or(Value::Int(0)))
        .collect();
    match missing {
        None => constraint.evaluate(&values),
        Some((pos, var)) => domains.hide_where(var, |candidate| {
            values[pos] = candidate.clone();
            constraint.evaluate(&values)
        }),
    }
}

/// Sum of the numeric interpretations of `values`; `None` if any is non-numeric.
pub(crate) fn numeric_sum(values: &[Value]) -> Option<f64> {
    values
        .iter()
        .try_fold(0.0, |acc, v| Some(acc + v.as_f64()?))
}

/// Product of the numeric interpretations of `values`; `None` if any is non-numeric.
pub(crate) fn numeric_product(values: &[Value]) -> Option<f64> {
    values
        .iter()
        .try_fold(1.0, |acc, v| Some(acc * v.as_f64()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::value::int_values;

    #[derive(Debug)]
    struct SumIsEven;

    impl Constraint for SumIsEven {
        fn kind(&self) -> &'static str {
            "SumIsEven"
        }
        fn evaluate(&self, values: &[Value]) -> bool {
            let s: i64 = values.iter().map(|v| v.as_i64().unwrap_or(1)).sum();
            s % 2 == 0
        }
        fn is_specific(&self) -> bool {
            false
        }
    }

    fn store(domains: Vec<Vec<i64>>) -> DomainStore {
        let mut s = DomainStore::new();
        for d in domains {
            s.push(Domain::new(int_values(d)));
        }
        s
    }

    #[test]
    fn generic_check_complete_assignment() {
        let c = SumIsEven;
        let mut doms = store(vec![vec![1, 2], vec![1, 2]]);
        let mut a = Assignment::new(2);
        a.assign(0, Value::Int(1));
        a.assign(1, Value::Int(3));
        assert!(c.check(&[0, 1], &a, &mut doms, false));
        a.assign(1, Value::Int(2));
        assert!(!c.check(&[0, 1], &a, &mut doms, false));
    }

    #[test]
    fn generic_check_partial_without_fc_is_true() {
        let c = SumIsEven;
        let mut doms = store(vec![vec![1, 2], vec![1, 2]]);
        let mut a = Assignment::new(2);
        a.assign(0, Value::Int(1));
        assert!(c.check(&[0, 1], &a, &mut doms, false));
    }

    #[test]
    fn generic_check_forward_checks_single_missing() {
        let c = SumIsEven;
        let mut doms = store(vec![vec![1, 2], vec![1, 2, 3, 4]]);
        let mut a = Assignment::new(2);
        a.assign(0, Value::Int(1));
        assert!(c.check(&[0, 1], &a, &mut doms, true));
        // only odd values remain compatible with x=1
        assert_eq!(doms.domain(1).values(), &int_values([1, 3])[..]);
        doms.undo_to(0);
        assert_eq!(doms.domain(1).len(), 4);
    }

    #[test]
    fn generic_check_forward_check_wipeout_fails() {
        let c = SumIsEven;
        let mut doms = store(vec![vec![1], vec![2, 4, 6]]);
        let mut a = Assignment::new(2);
        a.assign(0, Value::Int(1));
        assert!(!c.check(&[0, 1], &a, &mut doms, true));
    }

    #[test]
    fn numeric_helpers() {
        assert_eq!(numeric_sum(&int_values([1, 2, 3])), Some(6.0));
        assert_eq!(numeric_product(&int_values([2, 3, 4])), Some(24.0));
        assert_eq!(numeric_sum(&[Value::str("a")]), None);
    }
}
