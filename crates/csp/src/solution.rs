//! Solution sets: the fully resolved search space.
//!
//! The paper stresses output formats that are "close to the internal
//! representation" (Section 4.3.4): the solver produces a dense matrix of
//! values (one row per solution, columns in variable order) instead of one
//! dictionary per solution, avoiding expensive per-solution rearrangement.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

use crate::value::Value;

/// Structural total order on values: numerics (including booleans) compare
/// by numeric value and sort before strings; strings compare bytewise.
/// Unlike a rendered-display key, no separator characters are involved, so
/// values containing arbitrary strings can never collide. The order
/// *refines* [`Value`]'s Python-style equality: Python-equal but
/// structurally distinct values (`Int(2)` vs `Float(2.0)`) get a
/// deterministic relative order via a variant-rank tiebreak, so a sort by
/// this comparator is canonical regardless of input order.
fn cmp_values(a: &Value, b: &Value) -> Ordering {
    fn variant_rank(v: &Value) -> u8 {
        match v {
            Value::Bool(_) => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
    match (a.as_f64(), b.as_f64()) {
        // Numerics order by f64 first, then break rounded-to-equal ties by
        // a lexicographic (is-integer-like, exact i64, variant) key:
        // integers that differ only above 2^53 stay distinguishable, the
        // composite key remains a genuine total order (plain
        // exact-i64-first comparison is not: near `i64::MAX` two unequal
        // ints both round to the same f64 as a large float, breaking
        // transitivity and with it `sort_by`'s strict-weak-ordering
        // contract), and numerically-equal values of different variants
        // still order deterministically.
        (Some(x), Some(y)) => x
            .total_cmp(&y)
            .then_with(|| match (a.as_i64(), b.as_i64()) {
                (Some(i), Some(j)) => i.cmp(&j),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => Ordering::Equal,
            })
            .then_with(|| variant_rank(a).cmp(&variant_rank(b))),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        // `as_f64` is `None` only for strings.
        (None, None) => a.as_str().unwrap_or("").cmp(b.as_str().unwrap_or("")),
    }
}

/// Lexicographic row comparison using [`cmp_values`].
fn cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        match cmp_values(x, y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

/// The set of all valid configurations found by a solver.
///
/// Rows are stored densely in variable order; the variable names are shared
/// so that name-keyed views can be produced on demand.
#[derive(Debug, Clone, Default)]
pub struct SolutionSet {
    names: Arc<[String]>,
    rows: Vec<Vec<Value>>,
}

impl SolutionSet {
    /// Create from pre-computed rows.
    pub fn from_rows(names: Vec<String>, rows: Vec<Vec<Value>>) -> Self {
        SolutionSet {
            names: names.into(),
            rows,
        }
    }

    /// The variable names, in column order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The raw rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// A single row.
    pub fn row(&self, i: usize) -> &[Value] {
        &self.rows[i]
    }

    /// Iterate over rows.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter().map(|r| r.as_slice())
    }

    /// Produce a `(name, value)` view of row `i`.
    pub fn named_row(&self, i: usize) -> Vec<(&str, &Value)> {
        self.names
            .iter()
            .map(|n| n.as_str())
            .zip(self.rows[i].iter())
            .collect()
    }

    /// Merge another solution set (same column order assumed).
    pub fn extend(&mut self, other: SolutionSet) {
        debug_assert_eq!(self.names.len(), other.names.len());
        self.rows.extend(other.rows);
    }

    /// Sort rows lexicographically by a *structural* per-value key,
    /// producing a canonical order for set comparisons in tests.
    ///
    /// Earlier versions sorted by the rows' display strings joined with a
    /// separator character, which let two distinct rows collide when a
    /// string value contained the separator itself; the structural
    /// comparison has no separators to collide with.
    pub fn canonicalize(&mut self) {
        self.rows.sort_by(|a, b| cmp_rows(a, b));
    }

    /// Compare two solution sets as *sets* (order independent).
    ///
    /// Rows are compared structurally through [`Value`]'s Python-style
    /// equality and hashing (so `Int(2)`, `Float(2.0)` and a `Bool` used as
    /// an int still match across construction methods), never through
    /// rendered display strings.
    pub fn same_solutions(&self, other: &SolutionSet) -> bool {
        if self.len() != other.len() || self.names.len() != other.names.len() {
            return false;
        }
        // Column order may differ between construction methods; align by name.
        let perm: Option<Vec<usize>> = self
            .names
            .iter()
            .map(|n| other.names.iter().position(|m| m == n))
            .collect();
        let perm = match perm {
            Some(p) => p,
            None => return false,
        };
        let ours: HashSet<&[Value]> = self.rows.iter().map(|r| r.as_slice()).collect();
        let theirs: HashSet<Vec<Value>> = other
            .rows
            .iter()
            .map(|r| perm.iter().map(|&j| r[j].clone()).collect())
            .collect();
        ours.len() == theirs.len() && theirs.iter().all(|row| ours.contains(row.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::int_values;

    fn names(n: &[&str]) -> Vec<String> {
        n.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn views() {
        let s = SolutionSet::from_rows(
            names(&["x", "y"]),
            vec![int_values([1, 2]), int_values([3, 4])],
        );
        assert!(!s.is_empty());
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(1), &int_values([3, 4])[..]);
        let named = s.named_row(0);
        assert_eq!(named[0], ("x", &Value::Int(1)));
        assert_eq!(s.iter().count(), 2);
        assert!(SolutionSet::from_rows(names(&["x"]), Vec::new()).is_empty());
    }

    #[test]
    fn same_solutions_order_independent() {
        let a = SolutionSet::from_rows(
            names(&["x", "y"]),
            vec![int_values([1, 2]), int_values([3, 4])],
        );
        let b = SolutionSet::from_rows(
            names(&["x", "y"]),
            vec![int_values([3, 4]), int_values([1, 2])],
        );
        assert!(a.same_solutions(&b));
        let c = SolutionSet::from_rows(
            names(&["x", "y"]),
            vec![int_values([3, 4]), int_values([1, 2]), int_values([5, 6])],
        );
        assert!(!a.same_solutions(&c));
    }

    #[test]
    fn same_solutions_handles_column_permutation() {
        let a = SolutionSet::from_rows(names(&["x", "y"]), vec![int_values([1, 2])]);
        let b = SolutionSet::from_rows(names(&["y", "x"]), vec![int_values([2, 1])]);
        assert!(a.same_solutions(&b));
    }

    #[test]
    fn canonicalize_sorts() {
        let mut s = SolutionSet::from_rows(
            names(&["x"]),
            vec![int_values([3]), int_values([1]), int_values([2])],
        );
        s.canonicalize();
        let vals: Vec<i64> = s.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn separator_strings_do_not_collide() {
        // Regression: the old display-join key `"a\u{1}" + SEP + "b"` equals
        // `"a" + SEP + "\u{1}b"`, so these two distinct rows compared equal
        // and sets containing them were conflated.
        let r1 = vec![Value::str("a\u{1}"), Value::str("b")];
        let r2 = vec![Value::str("a"), Value::str("\u{1}b")];
        let a = SolutionSet::from_rows(names(&["x", "y"]), vec![r1.clone(), r2.clone()]);
        let b = SolutionSet::from_rows(names(&["x", "y"]), vec![r2.clone(), r2.clone()]);
        assert!(!a.same_solutions(&b), "distinct rows must not collide");
        let c = SolutionSet::from_rows(names(&["x", "y"]), vec![r2, r1]);
        assert!(a.same_solutions(&c), "same rows in another order match");
    }

    #[test]
    fn canonicalize_orders_adversarial_strings_structurally() {
        let mut s = SolutionSet::from_rows(
            names(&["x", "y"]),
            vec![
                vec![Value::str("a"), Value::str("\u{1}b")],
                vec![Value::str("a\u{1}"), Value::str("b")],
                vec![Value::str("a"), Value::str("b")],
            ],
        );
        let mut t = s.clone();
        // shuffle t's rows, canonicalize both: identical order must result
        t.rows.reverse();
        s.canonicalize();
        t.canonicalize();
        assert_eq!(s.rows(), t.rows());
        // numerics sort before strings, and mixed int/float compare by value
        let mut n = SolutionSet::from_rows(
            names(&["x"]),
            vec![
                vec![Value::str("0")],
                vec![Value::Float(2.5)],
                vec![Value::Int(3)],
            ],
        );
        n.canonicalize();
        assert_eq!(n.row(0), &[Value::Float(2.5)][..]);
        assert_eq!(n.row(1), &[Value::Int(3)][..]);
        assert_eq!(n.row(2), &[Value::str("0")][..]);
    }

    #[test]
    fn canonicalize_distinguishes_integers_beyond_f64_precision() {
        // 2^53 and 2^53 + 1 round to the same f64; integer-like pairs must
        // compare exactly on i64 so the canonical order is truly canonical.
        let big = 1i64 << 53;
        let mut a = SolutionSet::from_rows(
            names(&["x"]),
            vec![vec![Value::Int(big + 1)], vec![Value::Int(big)]],
        );
        let mut b = SolutionSet::from_rows(
            names(&["x"]),
            vec![vec![Value::Int(big)], vec![Value::Int(big + 1)]],
        );
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.row(0), &[Value::Int(big)][..]);
    }

    #[test]
    fn canonicalize_orders_python_equal_variants_deterministically() {
        // Int(2) and Float(2.0) are Python-equal but structurally distinct;
        // the canonical order must not depend on the input order.
        let mut a = SolutionSet::from_rows(
            names(&["x"]),
            vec![
                vec![Value::Float(2.0)],
                vec![Value::Int(2)],
                vec![Value::Bool(true)],
                vec![Value::Int(1)],
            ],
        );
        let mut b = SolutionSet::from_rows(names(&["x"]), a.rows().iter().rev().cloned().collect());
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.row(0), &[Value::Bool(true)][..]);
        assert_eq!(a.row(1), &[Value::Int(1)][..]);
        assert_eq!(a.row(2), &[Value::Int(2)][..]);
        assert_eq!(a.row(3), &[Value::Float(2.0)][..]);
    }

    #[test]
    fn canonicalize_stays_a_total_order_near_i64_max() {
        // Int(i64::MAX) and Int(i64::MAX - 1) both round to the same f64 as
        // Float(2^63); the comparator must stay transitive there (or
        // `sort_by` may panic) and the canonical order must not depend on
        // the input order.
        let rows = [
            vec![Value::Int(i64::MAX)],
            vec![Value::Int(i64::MAX - 1)],
            vec![Value::Float(9.223372036854776e18)],
        ];
        let mut reference: Option<Vec<Vec<Value>>> = None;
        // all 6 permutations of 3 rows
        for perm in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let permuted = perm.iter().map(|&i| rows[i].clone()).collect();
            let mut s = SolutionSet::from_rows(names(&["x"]), permuted);
            s.canonicalize();
            let got: Vec<Vec<Value>> = s.rows().to_vec();
            match &reference {
                None => reference = Some(got),
                Some(expected) => assert_eq!(&got, expected, "permutation {perm:?}"),
            }
        }
    }

    #[test]
    fn extend_merges() {
        let mut a = SolutionSet::from_rows(names(&["x"]), vec![int_values([1])]);
        let b = SolutionSet::from_rows(names(&["x"]), vec![int_values([2])]);
        a.extend(b);
        assert_eq!(a.len(), 2);
    }
}
