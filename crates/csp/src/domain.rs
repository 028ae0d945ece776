//! Finite variable domains with hide/restore support for forward checking.
//!
//! A [`Domain`] is an ordered list of candidate [`Value`]s for one variable.
//! During search, forward checking temporarily *hides* values that are
//! incompatible with the current partial assignment; on backtrack the hidden
//! values are restored. This mirrors the `Domain` class of python-constraint
//! (`pushState` / `popState` / `hideValue`), with one deliberate difference:
//! restoration puts every value back at the position it was hidden from, so
//! the visible order never depends on search history. Solvers therefore
//! enumerate solutions in a canonical order — which is what makes
//! analyzer-driven domain pre-pruning produce byte-identical spaces.

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
    /// Hidden entries as (position they were removed from, code); restored
    /// LIFO, which exactly inverts the removals. The value is
    /// `declared[code]`.
    hidden: Vec<(usize, u32)>,
    states: Vec<usize>,
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
            hidden: Vec::new(),
            states: Vec::new(),
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
        let mut kept = 0;
        for i in 0..before {
            if pred(&self.values[i]) {
                self.values.swap(kept, i);
                self.codes.swap(kept, i);
                kept += 1;
            }
        }
        self.values.truncate(kept);
        self.codes.truncate(kept);
        before - kept
    }

    /// Record a restore point for [`Domain::pop_state`].
    pub fn push_state(&mut self) {
        self.states.push(self.hidden.len());
    }

    /// Restore all values hidden since the matching [`Domain::push_state`].
    /// Values go back to the positions they were hidden from (LIFO
    /// reinsertion exactly inverts the removals), so the visible order is
    /// independent of what the search hid in between.
    pub fn pop_state(&mut self) {
        let mark = self.states.pop().unwrap_or(0);
        while self.hidden.len() > mark {
            let (pos, code) = self.hidden.pop().expect("hidden not empty");
            let pos = pos.min(self.values.len());
            self.values
                .insert(pos, self.declared[code as usize].clone());
            self.codes.insert(pos, code);
        }
    }

    /// Temporarily hide `value` until the enclosing state is popped.
    /// Returns `true` if the value was present and is now hidden.
    pub fn hide_value(&mut self, value: &Value) -> bool {
        if let Some(pos) = self.values.iter().position(|v| v == value) {
            self.hide_at(pos);
            true
        } else {
            false
        }
    }

    /// Hide all values for which the predicate returns `false`.
    /// Returns `true` if at least one value remains visible afterwards.
    pub fn hide_where<F: FnMut(&Value) -> bool>(&mut self, mut keep: F) -> bool {
        let mut i = 0;
        while i < self.values.len() {
            if keep(&self.values[i]) {
                i += 1;
            } else {
                self.hide_at(i);
            }
        }
        !self.values.is_empty()
    }

    fn hide_at(&mut self, pos: usize) {
        self.values.remove(pos);
        let code = self.codes.remove(pos);
        self.hidden.push((pos, code));
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

/// The set of domains of all variables in a problem, indexed by variable id.
#[derive(Debug, Clone, Default)]
pub struct DomainStore {
    domains: Vec<Domain>,
}

impl DomainStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a store from per-variable domains in variable-id order.
    pub fn from_domains(domains: Vec<Domain>) -> Self {
        DomainStore { domains }
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

    /// Mutable domain of variable `var`.
    pub fn domain_mut(&mut self, var: usize) -> &mut Domain {
        &mut self.domains[var]
    }

    /// Iterate over `(variable id, domain)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Domain)> {
        self.domains.iter().enumerate()
    }

    /// Push a restore state on every domain.
    pub fn push_state_all(&mut self) {
        for d in &mut self.domains {
            d.push_state();
        }
    }

    /// Pop a restore state from every domain.
    pub fn pop_state_all(&mut self) {
        for d in &mut self.domains {
            d.pop_state();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::int_values;

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
        let mut d = Domain::new(int_values([1, 2, 3, 4]));
        d.push_state();
        assert!(d.hide_value(&Value::Int(2)));
        assert!(d.hide_value(&Value::Int(4)));
        assert!(!d.hide_value(&Value::Int(9)));
        assert_eq!(d.len(), 2);
        d.pop_state();
        assert_eq!(d.len(), 4);
        assert!(d.contains(&Value::Int(2)));
        assert!(d.contains(&Value::Int(4)));
    }

    #[test]
    fn nested_states() {
        let mut d = Domain::new(int_values([1, 2, 3, 4, 5]));
        d.push_state();
        d.hide_value(&Value::Int(1));
        d.push_state();
        d.hide_value(&Value::Int(2));
        d.hide_value(&Value::Int(3));
        assert_eq!(d.len(), 2);
        d.pop_state();
        assert_eq!(d.len(), 4);
        d.pop_state();
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn hide_where_keeps_matching() {
        let mut d = Domain::new(int_values([1, 2, 3, 4, 5, 6]));
        d.push_state();
        let nonempty = d.hide_where(|v| v.as_i64().unwrap() % 2 == 0);
        assert!(nonempty);
        assert_eq!(d.values(), &int_values([2, 4, 6])[..]);
        d.pop_state();
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn hide_where_can_empty_domain() {
        let mut d = Domain::new(int_values([1, 3, 5]));
        d.push_state();
        let nonempty = d.hide_where(|v| v.as_i64().unwrap() % 2 == 0);
        assert!(!nonempty);
        assert!(d.is_empty());
        d.pop_state();
        assert_eq!(d.len(), 3);
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
        let mut d = Domain::new(int_values([10, 20, 30, 40, 50, 60]));
        d.retain(|v| v.as_i64().unwrap() != 20);
        d.push_state();
        assert!(d.hide_value(&Value::Int(40)));
        d.push_state();
        assert!(d.hide_where(|v| v.as_i64().unwrap() > 10));
        assert_eq!(d.codes(), &[2, 4, 5]);
        d.pop_state();
        assert_eq!(d.codes(), &[0, 2, 4, 5]);
        d.pop_state();
        assert_eq!(d.codes(), &[0, 2, 3, 4, 5]);
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
    fn store_push_and_pop_all() {
        let mut s = DomainStore::new();
        s.push(Domain::new(int_values([1, 2, 3])));
        s.push(Domain::new(int_values([1, 2])));
        assert_eq!(s.len(), 2);
        s.push_state_all();
        s.domain_mut(1).hide_value(&Value::Int(1));
        assert_eq!(s.domain(1).codes(), &[1]);
        s.pop_state_all();
        assert_eq!(s.domain(1).codes(), &[0, 1]);
    }

    #[test]
    fn non_numeric_min_max() {
        let d = Domain::new(vec![Value::str("a"), Value::str("b")]);
        assert_eq!(d.numeric_min(), None);
        assert_eq!(d.numeric_max(), None);
    }
}
