//! Constraint problem definition.
//!
//! A [`Problem`] collects variables (each with a finite domain) and
//! constraints over subsets of those variables, mirroring the
//! `python-constraint` `Problem` API used in Listing 3 of the paper:
//!
//! ```text
//! p = Problem()
//! p.addVariable("block_size_x", [1,2,4,8,16] + [32*i for i in range(1,33)])
//! p.addVariable("block_size_y", [2**i for i in range(6)])
//! p.addConstraint(MinProd(32, ["block_size_x", "block_size_y"]))
//! p.addConstraint(MaxProd(1024, ["block_size_x", "block_size_y"]))
//! ```

use std::sync::Arc;

use rustc_hash::FxHashMap;

use crate::constraints::{Constraint, ConstraintRef, FunctionConstraint};
use crate::domain::{Domain, DomainStore};
use crate::error::{CspError, CspResult};
use crate::solution::SolutionSet;
use crate::value::Value;

/// Index of a variable within a [`Problem`], in insertion order.
pub type VarId = usize;

/// A constraint together with the variables it ranges over.
#[derive(Clone)]
pub struct ConstraintEntry {
    /// The constraint predicate.
    pub constraint: ConstraintRef,
    /// The variables the constraint ranges over, in the order the constraint
    /// expects its values.
    pub scope: Vec<VarId>,
}

impl std::fmt::Debug for ConstraintEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConstraintEntry")
            .field("kind", &self.constraint.kind())
            .field("scope", &self.scope)
            .finish()
    }
}

/// A complete constraint satisfaction problem over finite domains.
#[derive(Debug, Default, Clone)]
pub struct Problem {
    names: Vec<String>,
    index: FxHashMap<String, VarId>,
    domains: Vec<Domain>,
    constraints: Vec<ConstraintEntry>,
}

impl Problem {
    /// Create an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable with the given domain values. Returns its [`VarId`].
    ///
    /// Errors if the name is already taken or the domain is empty.
    pub fn add_variable(
        &mut self,
        name: impl Into<String>,
        values: Vec<Value>,
    ) -> CspResult<VarId> {
        let name = name.into();
        if self.index.contains_key(&name) {
            return Err(CspError::DuplicateVariable(name));
        }
        if values.is_empty() {
            return Err(CspError::EmptyDomain(name));
        }
        let id = self.names.len();
        self.index.insert(name.clone(), id);
        self.names.push(name);
        self.domains.push(Domain::new(values));
        Ok(id)
    }

    /// Add a constraint over the named variables.
    pub fn add_constraint<C: Constraint + 'static>(
        &mut self,
        constraint: C,
        variables: &[&str],
    ) -> CspResult<()> {
        let scope = self.resolve_scope(variables)?;
        self.add_constraint_scoped(Arc::new(constraint), scope)
    }

    /// Add an already shared constraint over variable ids.
    pub fn add_constraint_scoped(
        &mut self,
        constraint: ConstraintRef,
        scope: Vec<VarId>,
    ) -> CspResult<()> {
        if scope.is_empty() {
            return Err(CspError::InvalidScope(
                "constraint scope must not be empty".to_string(),
            ));
        }
        for &v in &scope {
            if v >= self.names.len() {
                return Err(CspError::InvalidScope(format!(
                    "variable id {v} out of range"
                )));
            }
        }
        self.constraints.push(ConstraintEntry { constraint, scope });
        Ok(())
    }

    /// Add a predicate constraint over the named variables (the values are
    /// passed to the closure in the same order as `variables`).
    pub fn add_function_constraint<F>(&mut self, variables: &[&str], func: F) -> CspResult<()>
    where
        F: Fn(&[Value]) -> bool + Send + Sync + 'static,
    {
        self.add_constraint(FunctionConstraint::new(func), variables)
    }

    /// Resolve variable names to ids.
    pub fn resolve_scope(&self, variables: &[&str]) -> CspResult<Vec<VarId>> {
        variables
            .iter()
            .map(|name| {
                self.index
                    .get(*name)
                    .copied()
                    .ok_or_else(|| CspError::UnknownVariable((*name).to_string()))
            })
            .collect()
    }

    /// Id of a named variable.
    pub fn variable_id(&self, name: &str) -> Option<VarId> {
        self.index.get(name).copied()
    }

    /// Name of a variable id.
    pub fn variable_name(&self, id: VarId) -> &str {
        &self.names[id]
    }

    /// All variable names, in id order.
    pub fn variable_names(&self) -> &[String] {
        &self.names
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.names.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Domain of a variable.
    pub fn domain(&self, id: VarId) -> &Domain {
        &self.domains[id]
    }

    /// All constraints.
    pub fn constraints(&self) -> &[ConstraintEntry] {
        &self.constraints
    }

    /// A fresh, independent copy of all domains (solvers mutate their copy).
    pub fn domain_store(&self) -> DomainStore {
        DomainStore::from_domains(self.domains.clone())
    }

    /// Shrink a variable's domain to the values satisfying `keep`,
    /// preserving their relative order.
    ///
    /// Refuses to empty a domain: when no value would survive, the
    /// domain is left untouched and `None` is returned (an empty domain
    /// would violate the [`Problem`] invariant; emptiness is the
    /// solver's discovery to make). Otherwise returns the number of
    /// values removed.
    pub fn retain_domain(&mut self, id: VarId, keep: impl Fn(&Value) -> bool) -> Option<usize> {
        let domain = &self.domains[id];
        if !domain.values().iter().any(&keep) {
            return None;
        }
        Some(self.domains[id].retain(keep))
    }

    /// For each variable, the indices of the constraints whose scope contains it.
    pub fn constraints_per_variable(&self) -> Vec<Vec<usize>> {
        let mut per_var = vec![Vec::new(); self.names.len()];
        for (ci, entry) in self.constraints.iter().enumerate() {
            for &v in &entry.scope {
                if !per_var[v].contains(&ci) {
                    per_var[v].push(ci);
                }
            }
        }
        per_var
    }

    /// Cartesian product size of the unconstrained space.
    pub fn cartesian_size(&self) -> u128 {
        self.domains
            .iter()
            .map(|d| d.len() as u128)
            .fold(1, |a, b| a.saturating_mul(b))
    }

    /// Decode a flat arena of code rows (variable-id order, as a solver
    /// pushes them into a [`RowSink`](crate::sink::RowSink)) through the
    /// declared domains.
    pub fn decode_rows(&self, codes: &[u32]) -> SolutionSet {
        let rows = codes
            .chunks_exact(self.domains.len().max(1))
            .map(|row| {
                row.iter()
                    .zip(&self.domains)
                    .map(|(&code, domain)| domain.declared()[code as usize].clone())
                    .collect()
            })
            .collect();
        SolutionSet::from_rows(self.names.clone(), rows)
    }

    /// Check a complete configuration (values in variable-id order) against
    /// every constraint. Used for validation and by brute-force solvers.
    pub fn is_valid_configuration(&self, values: &[Value]) -> bool {
        let mut scope_buf: Vec<Value> = Vec::new();
        for entry in &self.constraints {
            scope_buf.clear();
            scope_buf.extend(entry.scope.iter().map(|&v| values[v].clone()));
            if !entry.constraint.evaluate(&scope_buf) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{MaxProduct, MinProduct};
    use crate::value::int_values;

    fn block_size_problem() -> Problem {
        let mut p = Problem::new();
        let mut xs: Vec<i64> = vec![1, 2, 4, 8, 16];
        xs.extend((1..=32).map(|i| 32 * i));
        p.add_variable("block_size_x", int_values(xs)).unwrap();
        p.add_variable("block_size_y", int_values((0..6).map(|i| 1 << i)))
            .unwrap();
        p.add_constraint(MinProduct::new(32.0), &["block_size_x", "block_size_y"])
            .unwrap();
        p.add_constraint(MaxProduct::new(1024.0), &["block_size_x", "block_size_y"])
            .unwrap();
        p
    }

    #[test]
    fn listing3_problem_builds() {
        let p = block_size_problem();
        assert_eq!(p.num_variables(), 2);
        assert_eq!(p.num_constraints(), 2);
        assert_eq!(p.cartesian_size(), 37 * 6);
        assert_eq!(p.variable_name(0), "block_size_x");
        assert_eq!(p.variable_id("block_size_y"), Some(1));
    }

    #[test]
    fn duplicate_and_empty_domain_errors() {
        let mut p = Problem::new();
        p.add_variable("x", int_values([1])).unwrap();
        assert!(matches!(
            p.add_variable("x", int_values([2])),
            Err(CspError::DuplicateVariable(_))
        ));
        assert!(matches!(
            p.add_variable("y", vec![]),
            Err(CspError::EmptyDomain(_))
        ));
    }

    #[test]
    fn unknown_variable_in_scope() {
        let mut p = Problem::new();
        p.add_variable("x", int_values([1, 2])).unwrap();
        let err = p.add_constraint(MaxProduct::new(4.0), &["x", "zz"]);
        assert!(matches!(err, Err(CspError::UnknownVariable(_))));
    }

    #[test]
    fn empty_scope_rejected() {
        let mut p = Problem::new();
        p.add_variable("x", int_values([1, 2])).unwrap();
        let err = p.add_constraint(MaxProduct::new(4.0), &[]);
        assert!(matches!(err, Err(CspError::InvalidScope(_))));
    }

    #[test]
    fn valid_configuration_check() {
        let p = block_size_problem();
        assert!(p.is_valid_configuration(&int_values([32, 2])));
        assert!(!p.is_valid_configuration(&int_values([1, 2]))); // product 2 < 32
        assert!(!p.is_valid_configuration(&int_values([1024, 2]))); // product 2048 > 1024
    }

    #[test]
    fn constraints_per_variable() {
        let p = block_size_problem();
        let per_var = p.constraints_per_variable();
        assert_eq!(per_var[0], vec![0, 1]);
        assert_eq!(per_var[1], vec![0, 1]);
    }

    #[test]
    fn function_constraint_api() {
        let mut p = Problem::new();
        p.add_variable("a", int_values([1, 2, 3])).unwrap();
        p.add_variable("b", int_values([1, 2, 3])).unwrap();
        p.add_function_constraint(&["a", "b"], |vals| {
            vals[0].as_i64().unwrap() < vals[1].as_i64().unwrap()
        })
        .unwrap();
        assert!(p.is_valid_configuration(&int_values([1, 2])));
        assert!(!p.is_valid_configuration(&int_values([3, 2])));
    }
}
