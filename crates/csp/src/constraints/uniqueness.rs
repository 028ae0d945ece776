//! Uniqueness constraints: `AllDifferent` and `AllEqual`.

use std::collections::HashSet;

use super::Constraint;
use crate::assignment::Assignment;
use crate::domain::DomainStore;
use crate::value::Value;

/// All variables in the scope must take pairwise distinct values.
#[derive(Debug, Default)]
pub struct AllDifferent;

impl AllDifferent {
    /// Create the constraint.
    pub fn new() -> Self {
        AllDifferent
    }
}

impl Constraint for AllDifferent {
    fn kind(&self) -> &'static str {
        "AllDifferent"
    }

    fn evaluate(&self, values: &[Value]) -> bool {
        let mut seen: HashSet<&Value> = HashSet::with_capacity(values.len());
        values.iter().all(|v| seen.insert(v))
    }

    fn check(
        &self,
        scope: &[usize],
        assignment: &Assignment,
        domains: &mut DomainStore,
        forward_check: bool,
    ) -> bool {
        // Any duplicate among the already-assigned values is already fatal.
        let mut seen: HashSet<&Value> = HashSet::with_capacity(scope.len());
        let mut unassigned: Vec<usize> = Vec::new();
        for &var in scope {
            match assignment.get(var) {
                Some(v) => {
                    if !seen.insert(v) {
                        return false;
                    }
                }
                None => unassigned.push(var),
            }
        }
        if unassigned.is_empty() {
            return true;
        }
        if forward_check {
            for var in unassigned {
                let ok = domains.hide_where(var, |v| !seen.contains(v));
                if !ok {
                    return false;
                }
            }
        }
        true
    }
}

/// All variables in the scope must take the same value.
#[derive(Debug, Default)]
pub struct AllEqual;

impl AllEqual {
    /// Create the constraint.
    pub fn new() -> Self {
        AllEqual
    }
}

impl Constraint for AllEqual {
    fn kind(&self) -> &'static str {
        "AllEqual"
    }

    fn evaluate(&self, values: &[Value]) -> bool {
        values.windows(2).all(|w| w[0] == w[1])
    }

    fn check(
        &self,
        scope: &[usize],
        assignment: &Assignment,
        domains: &mut DomainStore,
        forward_check: bool,
    ) -> bool {
        let mut first: Option<&Value> = None;
        let mut unassigned: Vec<usize> = Vec::new();
        for &var in scope {
            match assignment.get(var) {
                Some(v) => match first {
                    Some(f) => {
                        if f != v {
                            return false;
                        }
                    }
                    None => first = Some(v),
                },
                None => unassigned.push(var),
            }
        }
        if unassigned.is_empty() {
            return true;
        }
        if forward_check {
            if let Some(f) = first {
                let f = f.clone();
                for var in unassigned {
                    let ok = domains.hide_where(var, |v| *v == f);
                    if !ok {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::value::int_values;

    fn store(domains: Vec<Vec<i64>>) -> DomainStore {
        let mut s = DomainStore::new();
        for d in domains {
            s.push(Domain::new(int_values(d)));
        }
        s
    }

    #[test]
    fn all_different_evaluate() {
        let c = AllDifferent::new();
        assert!(c.evaluate(&int_values([1, 2, 3])));
        assert!(!c.evaluate(&int_values([1, 2, 1])));
    }

    #[test]
    fn all_different_partial_rejection_and_fc() {
        let c = AllDifferent::new();
        let mut doms = store(vec![vec![1], vec![1, 2], vec![1, 2, 3]]);
        let mut a = Assignment::new(3);
        a.assign(0, Value::Int(1));
        a.assign(1, Value::Int(1));
        assert!(!c.check(&[0, 1, 2], &a, &mut doms, false));
        a.assign(1, Value::Int(2));
        assert!(c.check(&[0, 1, 2], &a, &mut doms, true));
        // forward checking removed 1 and 2 from var 2
        assert_eq!(doms.domain(2).values(), &int_values([3])[..]);
    }

    #[test]
    fn all_different_fc_wipeout() {
        let c = AllDifferent::new();
        let mut doms = store(vec![vec![1], vec![2], vec![1, 2]]);
        let mut a = Assignment::new(3);
        a.assign(0, Value::Int(1));
        a.assign(1, Value::Int(2));
        assert!(!c.check(&[0, 1, 2], &a, &mut doms, true));
    }

    #[test]
    fn all_equal_evaluate() {
        let c = AllEqual::new();
        assert!(c.evaluate(&int_values([4, 4, 4])));
        assert!(!c.evaluate(&int_values([4, 4, 5])));
        assert!(c.evaluate(&int_values([7])));
    }

    #[test]
    fn all_equal_partial_and_fc() {
        let c = AllEqual::new();
        let mut doms = store(vec![vec![4], vec![4, 5], vec![3, 4, 5]]);
        let mut a = Assignment::new(3);
        a.assign(0, Value::Int(4));
        a.assign(1, Value::Int(5));
        assert!(!c.check(&[0, 1, 2], &a, &mut doms, false));
        a.assign(1, Value::Int(4));
        assert!(c.check(&[0, 1, 2], &a, &mut doms, true));
        assert_eq!(doms.domain(2).values(), &int_values([4])[..]);
    }
}
