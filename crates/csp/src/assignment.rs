//! Partial assignments of values to variables during search.

use crate::value::Value;

/// A partial assignment of values to variables, indexed by variable id.
///
/// The solver keeps exactly one `Assignment` alive during the search and
/// mutates it in place; constraints read the assigned values from it.
#[derive(Debug, Clone)]
pub struct Assignment {
    values: Vec<Option<Value>>,
}

impl Assignment {
    /// Create an empty assignment over `n` variables.
    pub fn new(n: usize) -> Self {
        Assignment {
            values: vec![None; n],
        }
    }

    /// Number of variables (assigned or not).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the assignment covers zero variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of variable `var`, if assigned.
    #[inline]
    pub fn get(&self, var: usize) -> Option<&Value> {
        self.values[var].as_ref()
    }

    /// Assign `value` to variable `var` (replacing any previous value).
    pub fn assign(&mut self, var: usize, value: Value) {
        self.values[var] = Some(value);
    }

    /// Remove the value of variable `var`.
    pub fn unassign(&mut self, var: usize) {
        self.values[var] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_unassign_cycle() {
        let mut a = Assignment::new(3);
        assert_eq!(a.len(), 3);
        a.assign(0, Value::Int(1));
        a.assign(2, Value::Int(3));
        assert_eq!(a.get(1), None);
        a.assign(0, Value::Int(5));
        assert_eq!(a.get(0), Some(&Value::Int(5)));
        a.unassign(0);
        a.unassign(0); // idempotent
        assert_eq!(a.get(0), None);
        assert_eq!(a.get(2), Some(&Value::Int(3)));
    }
}
