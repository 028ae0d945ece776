//! Multi-level domain splitting for the data-parallel solver.
//!
//! Splitting the search tree on the first variable alone load-balances
//! badly when its domain is small (two values on an eight-core machine
//! leave six cores idle). Instead [`super::ParallelSolver`] splits on as
//! many leading variables of the search order as it takes to produce at least
//! [`split_target`] independent subproblems, each identified by a *prefix*
//! of per-variable value indices.

/// Desired number of subproblems: a small multiple of the worker count so
/// uneven subtrees still fill all cores.
pub(crate) fn split_target() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        * 8
}

/// Choose the split depth `k` (number of leading variables of `order` to
/// pin) and enumerate the Cartesian prefixes over their domains.
///
/// Each prefix holds, for levels `0..k`, the *index* of the pinned value
/// within that variable's domain (`domain_len(order[level])` values). An
/// empty result means some split domain is empty, i.e. the problem has no
/// solutions; `k == 0` yields one empty prefix (a single subproblem).
pub(crate) fn split_prefixes(
    order: &[usize],
    domain_len: impl Fn(usize) -> usize,
    target: usize,
) -> Vec<Vec<usize>> {
    let mut k = 0usize;
    let mut count = 1usize;
    while k < order.len() && count < target {
        let len = domain_len(order[k]);
        if len == 0 {
            return Vec::new();
        }
        count = count.saturating_mul(len);
        k += 1;
    }
    let mut prefixes: Vec<Vec<usize>> = vec![Vec::new()];
    for &var in &order[..k] {
        let len = domain_len(var);
        let mut next = Vec::with_capacity(prefixes.len() * len);
        for prefix in &prefixes {
            for value_index in 0..len {
                let mut extended = Vec::with_capacity(k);
                extended.extend_from_slice(prefix);
                extended.push(value_index);
                next.push(extended);
            }
        }
        prefixes = next;
    }
    prefixes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_deep_enough_to_reach_the_target() {
        // first domain has 2 values: a first-variable split would yield 2
        // tasks; multi-level splitting keeps going.
        let sizes = [2usize, 3, 4, 5];
        let order = [0usize, 1, 2, 3];
        let prefixes = split_prefixes(&order, |v| sizes[v], 10);
        assert_eq!(prefixes.len(), 2 * 3 * 4);
        assert!(prefixes.iter().all(|p| p.len() == 3));
        // prefixes enumerate the full Cartesian product, no duplicates
        let mut sorted = prefixes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 24);
    }

    #[test]
    fn small_target_keeps_the_split_shallow() {
        let sizes = [6usize, 3];
        let order = [0usize, 1];
        let prefixes = split_prefixes(&order, |v| sizes[v], 4);
        assert_eq!(prefixes.len(), 6);
        assert!(prefixes.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn target_of_one_yields_a_single_empty_prefix() {
        let prefixes = split_prefixes(&[0, 1], |_| 5, 1);
        assert_eq!(prefixes, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn exhausting_all_variables_stops_the_split() {
        let prefixes = split_prefixes(&[0, 1], |_| 2, 1000);
        assert_eq!(prefixes.len(), 4);
        assert!(prefixes.iter().all(|p| p.len() == 2));
    }

    #[test]
    fn empty_domain_reports_no_prefixes() {
        let sizes = [3usize, 0];
        let prefixes = split_prefixes(&[0, 1], |v| sizes[v], 100);
        assert!(prefixes.is_empty());
    }
}
