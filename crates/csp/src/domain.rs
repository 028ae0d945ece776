//! Finite variable domains with hide/restore support for forward checking.
//!
//! A [`Domain`] is an ordered list of candidate [`Value`]s for one variable.
//! During search, forward checking temporarily *hides* values that are
//! incompatible with the current partial assignment; on backtrack the hidden
//! values are restored. python-constraint gives every `Domain` its own
//! `pushState` / `popState` stack, so a search node saves and restores a
//! state on every domain. Here the [`DomainStore`] keeps one *trail* of
//! hidden `(variable, position, code)` entries instead: a search level
//! records [`DomainStore::trail_len`] when it assigns and hands it back to
//! [`DomainStore::undo_to`], so a node costs what it hid, not one state per
//! variable. Restoration puts every value back at the position it was
//! hidden from, so the visible order never depends on search history.
//! Solvers therefore enumerate solutions in a canonical order — which is
//! what makes analyzer-driven domain pre-pruning produce byte-identical
//! spaces.

use std::sync::Arc;

use crate::value::Value;

/// The domain of a single variable.
///
/// Every visible value carries its *code*: its index in the domain's
/// declared value list ([`Domain::declared`]). Codes survive every
/// permanent removal and every hide/restore unchanged, so a solver can emit
/// a solution as the codes of its assigned values, and a pruned domain
/// still emits the codes of the unpruned one.
#[derive(Debug, Clone)]
pub struct Domain {
    values: Vec<Value>,
    /// `codes[i]` is the code of `values[i]`.
    codes: Vec<u32>,
    /// The value list at construction, before any permanent removal: it
    /// decodes a code, and search-order heuristics tie-break on its length
    /// instead of [`Domain::len`] so that pre-pruning (which shrinks
    /// domains without changing the solution set) cannot perturb the
    /// enumeration order.
    declared: Arc<[Value]>,
}

impl Domain {
    /// Create a domain from a list of values; value `i` gets code `i`.
    /// Duplicate values are retained (problem construction is responsible
    /// for deduplication if desired).
    pub fn new(values: Vec<Value>) -> Self {
        let len = u32::try_from(values.len()).expect("a domain holds fewer than 2^32 values");
        let codes = (0..len).collect();
        Domain {
            declared: values.as_slice().into(),
            values,
            codes,
        }
    }

    /// The domain size at construction, unaffected by permanent removals
    /// (pre-pruning, preprocessing). See [`Domain::declared`] for why search
    /// heuristics use this rather than the live [`Domain::len`].
    pub fn declared_len(&self) -> usize {
        self.declared.len()
    }

    /// The value list at construction: `declared()[code]` is the value a
    /// code stands for. Clones of the domain share it.
    pub fn declared(&self) -> &Arc<[Value]> {
        &self.declared
    }

    /// Currently visible values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The codes of the currently visible values, in the same order as
    /// [`Domain::values`].
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of currently visible values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no values are currently visible.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the (visible) domain contains `value`.
    pub fn contains(&self, value: &Value) -> bool {
        self.values.iter().any(|v| v == value)
    }

    /// Permanently retain only values for which the predicate holds (called
    /// once per value, in order). Returns the number of removed values.
    pub fn retain<F: FnMut(&Value) -> bool>(&mut self, mut pred: F) -> usize {
        let before = self.values.len();
        self.compact(|d, i| pred(&d.values[i]), |_, _| {});
        before - self.values.len()
    }

    /// Keep the entries at the positions `keep` accepts, in order, and
    /// report each dropped one to `dropped` as (position, code). The
    /// position is the one a sequence of single removals would see: the
    /// number of entries kept before it, so reinserting the dropped
    /// entries in reverse order restores the domain exactly.
    fn compact(
        &mut self,
        mut keep: impl FnMut(&Domain, usize) -> bool,
        mut dropped: impl FnMut(usize, u32),
    ) {
        let mut kept = 0;
        for i in 0..self.values.len() {
            if keep(self, i) {
                self.values.swap(kept, i);
                self.codes.swap(kept, i);
                kept += 1;
            } else {
                dropped(kept, self.codes[i]);
            }
        }
        self.values.truncate(kept);
        self.codes.truncate(kept);
    }

    /// Minimum numeric value in the visible domain, if all values are numeric.
    pub fn numeric_min(&self) -> Option<f64> {
        self.values
            .iter()
            .map(|v| v.as_f64())
            .try_fold(f64::INFINITY, |acc, v| v.map(|v| acc.min(v)))
            .filter(|_| !self.values.is_empty())
    }

    /// Maximum numeric value in the visible domain, if all values are numeric.
    pub fn numeric_max(&self) -> Option<f64> {
        self.values
            .iter()
            .map(|v| v.as_f64())
            .try_fold(f64::NEG_INFINITY, |acc, v| v.map(|v| acc.max(v)))
            .filter(|_| !self.values.is_empty())
    }
}

/// The set of domains of all variables in a problem, indexed by variable
/// id, with the trail that undoes forward checking's hides.
#[derive(Debug, Clone, Default)]
pub struct DomainStore {
    domains: Vec<Domain>,
    /// Hidden entries as (variable, position it was hidden from, code),
    /// oldest first. The value is the domain's `declared[code]`.
    trail: Vec<(usize, usize, u32)>,
}

impl DomainStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a store from per-variable domains in variable-id order.
    pub fn from_domains(domains: Vec<Domain>) -> Self {
        DomainStore {
            domains,
            trail: Vec::new(),
        }
    }

    /// Add a domain, returning its variable id.
    pub fn push(&mut self, domain: Domain) -> usize {
        self.domains.push(domain);
        self.domains.len() - 1
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// True when the store holds no variables.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Domain of variable `var`.
    pub fn domain(&self, var: usize) -> &Domain {
        &self.domains[var]
    }

    /// Mutable domain of variable `var`, for permanent removals.
    pub fn domain_mut(&mut self, var: usize) -> &mut Domain {
        &mut self.domains[var]
    }

    /// Iterate over `(variable id, domain)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Domain)> {
        self.domains.iter().enumerate()
    }

    /// The number of hides [`DomainStore::undo_to`] can still undo: a
    /// restore point.
    pub fn trail_len(&self) -> usize {
        self.trail.len()
    }

    /// Restore every value hidden since the trail was `mark` long, newest
    /// first. Each goes back to the position it was hidden from (LIFO
    /// reinsertion exactly inverts the removals), so the visible order is
    /// independent of what the search hid in between.
    pub fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (var, pos, code) = self.trail.pop().expect("trail longer than mark");
            let domain = &mut self.domains[var];
            domain
                .values
                .insert(pos, domain.declared[code as usize].clone());
            domain.codes.insert(pos, code);
        }
    }

    /// Hide the values of `var` for which `keep` returns `false`, until
    /// [`DomainStore::undo_to`] restores them. Returns `true` if at least
    /// one value remains visible.
    pub fn hide_where<F: FnMut(&Value) -> bool>(&mut self, var: usize, mut keep: F) -> bool {
        self.hide(var, |d, i| keep(&d.values[i]))
    }

    /// [`DomainStore::hide_where`] over codes instead of values.
    pub(crate) fn hide_codes_where<F: FnMut(u32) -> bool>(
        &mut self,
        var: usize,
        mut keep: F,
    ) -> bool {
        self.hide(var, |d, i| keep(d.codes[i]))
    }

    fn hide(&mut self, var: usize, keep: impl FnMut(&Domain, usize) -> bool) -> bool {
        let trail = &mut self.trail;
        let domain = &mut self.domains[var];
        domain.compact(keep, |pos, code| trail.push((var, pos, code)));
        !domain.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::int_values;

    fn store(domains: &[&[i64]]) -> DomainStore {
        DomainStore::from_domains(
            domains
                .iter()
                .map(|d| Domain::new(int_values(d.iter().copied())))
                .collect(),
        )
    }

    #[test]
    fn basic_accessors() {
        let d = Domain::new(int_values([1, 2, 3]));
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert!(d.contains(&Value::Int(2)));
        assert!(!d.contains(&Value::Int(9)));
        assert_eq!(d.numeric_min(), Some(1.0));
        assert_eq!(d.numeric_max(), Some(3.0));
    }

    #[test]
    fn hide_and_restore() {
        let mut s = store(&[&[1, 2, 3, 4]]);
        let mark = s.trail_len();
        assert!(s.hide_where(0, |v| v.as_i64().unwrap() % 2 == 1));
        assert_eq!(s.domain(0).values(), &int_values([1, 3])[..]);
        assert_eq!(s.trail_len(), mark + 2);
        s.undo_to(mark);
        assert_eq!(s.domain(0).values(), &int_values([1, 2, 3, 4])[..]);
        assert_eq!(s.trail_len(), mark);
    }

    #[test]
    fn nested_marks_across_variables() {
        let mut s = store(&[&[1, 2, 3, 4, 5], &[7, 8]]);
        let outer = s.trail_len();
        s.hide_where(0, |v| *v != Value::Int(1));
        let inner = s.trail_len();
        s.hide_where(0, |v| v.as_i64().unwrap() > 3);
        s.hide_codes_where(1, |code| code == 1);
        assert_eq!(s.domain(0).len(), 2);
        assert_eq!(s.domain(1).codes(), &[1]);
        s.undo_to(inner);
        assert_eq!(s.domain(0).len(), 4);
        assert_eq!(s.domain(1).len(), 2);
        s.undo_to(outer);
        assert_eq!(s.domain(0).values(), &int_values([1, 2, 3, 4, 5])[..]);
    }

    #[test]
    fn hide_where_can_empty_domain() {
        let mut s = store(&[&[1, 3, 5]]);
        assert!(!s.hide_where(0, |v| v.as_i64().unwrap() % 2 == 0));
        assert!(s.domain(0).is_empty());
        s.undo_to(0);
        assert_eq!(s.domain(0).len(), 3);
    }

    #[test]
    fn permanent_removal_keeps_codes_and_declared_values() {
        let mut d = Domain::new(int_values([1, 2, 3, 4]));
        assert_eq!(d.retain(|v| v.as_i64().unwrap() != 3), 1);
        assert_eq!(d.retain(|v| v.as_i64().unwrap() < 4), 1);
        assert_eq!(d.values(), &int_values([1, 2])[..]);
        assert_eq!(d.codes(), &[0, 1]);
        let mut d = Domain::new(int_values([1, 2, 3, 4]));
        d.retain(|v| v.as_i64().unwrap() % 2 == 0);
        assert_eq!(d.codes(), &[1, 3]);
        assert_eq!(d.declared_len(), 4);
        assert_eq!(&d.declared()[..], &int_values([1, 2, 3, 4])[..]);
    }

    #[test]
    fn codes_survive_hiding_and_restoring_after_pruning() {
        let mut s = store(&[&[10, 20, 30, 40, 50, 60]]);
        s.domain_mut(0).retain(|v| v.as_i64().unwrap() != 20);
        s.hide_where(0, |v| *v != Value::Int(40));
        let mark = s.trail_len();
        assert!(s.hide_codes_where(0, |code| code != 0));
        assert_eq!(s.domain(0).codes(), &[2, 4, 5]);
        s.undo_to(mark);
        assert_eq!(s.domain(0).codes(), &[0, 2, 4, 5]);
        s.undo_to(0);
        assert_eq!(s.domain(0).codes(), &[0, 2, 3, 4, 5]);
        let d = s.domain(0);
        assert_eq!(d.values(), &int_values([10, 30, 40, 50, 60])[..]);
        for (&code, value) in d.codes().iter().zip(d.values()) {
            assert_eq!(&d.declared()[code as usize], value);
        }
    }

    #[test]
    fn python_equal_values_keep_distinct_codes() {
        // Int(2) and Float(2.0) compare equal; pinning by position must keep
        // the code of the entry at that position.
        let mut d = Domain::new(vec![Value::Int(2), Value::Float(2.0), Value::Int(3)]);
        let mut position = 0;
        d.retain(|_| {
            position += 1;
            position == 2
        });
        assert_eq!(d.codes(), &[1]);
        assert!(matches!(d.values()[0], Value::Float(_)));
    }

    #[test]
    fn non_numeric_min_max() {
        let d = Domain::new(vec![Value::str("a"), Value::str("b")]);
        assert_eq!(d.numeric_min(), None);
        assert_eq!(d.numeric_max(), None);
    }
}
