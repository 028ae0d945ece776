//! Storage of the rank array: owned, or borrowed from a shared backing.
//!
//! [`SearchSpace`](crate::SearchSpace) stores configurations as one
//! strictly ascending `u64` rank per row. [`RankStorage`] abstracts the
//! backing so the ranks can be **borrowed from a memory-mapped store
//! file** instead of copied out of it: the persistence layer (`at_store`)
//! maps the file, wraps the aligned rank section in a [`RankBacking`], and
//! hands the space a [`RankStorage::Shared`] view. Every accessor
//! ([`SearchSpace::arena`](crate::SearchSpace::arena), `codes_into`,
//! `ConfigView`) is backing-agnostic, so consumers compile and behave
//! identically either way.
//!
//! Cloning is cheap for shared storage (an `Arc` bump) and deep for owned
//! storage, which preserves `SearchSpace: Clone` semantics unchanged.

use std::fmt;
use std::sync::Arc;

/// An immutable, shareable buffer of `u64` ranks.
///
/// The implementor guarantees the slice returned by [`RankBacking::ranks`]
/// is stable for the backing's lifetime (the bytes never change and never
/// move). `at_store` implements this over an 8-byte-aligned section of a
/// memory-mapped `ATSS` file; a test double can simply wrap a `Vec<u64>`.
pub trait RankBacking: Send + Sync + fmt::Debug {
    /// The ranks this backing holds.
    fn ranks(&self) -> &[u64];
}

impl RankBacking for Vec<u64> {
    fn ranks(&self) -> &[u64] {
        self
    }
}

/// The storage of one rank array: owned, or a view into a shared backing
/// (typically a memory-mapped store file). See the [module docs](self).
#[derive(Debug, Clone)]
pub enum RankStorage {
    /// A plain owned vector (the result of in-process construction, or of a
    /// copying load).
    Owned(Vec<u64>),
    /// A borrowed view into a shared backing. The backing is kept alive by
    /// the `Arc`, so the view can never dangle; cloning shares the backing.
    Shared(Arc<dyn RankBacking>),
}

impl RankStorage {
    /// The ranks, whatever the backing.
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        match self {
            RankStorage::Owned(ranks) => ranks,
            RankStorage::Shared(backing) => backing.ranks(),
        }
    }

    /// Number of ranks.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the storage holds no ranks.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// True when the ranks are borrowed from a shared backing (a zero-copy
    /// load) rather than owned.
    pub fn is_shared(&self) -> bool {
        matches!(self, RankStorage::Shared(_))
    }
}

impl From<Vec<u64>> for RankStorage {
    fn from(ranks: Vec<u64>) -> Self {
        RankStorage::Owned(ranks)
    }
}

impl Default for RankStorage {
    fn default() -> Self {
        RankStorage::Owned(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_and_shared_expose_the_same_slice() {
        let ranks = vec![1u64, 2, 3, 4];
        let owned = RankStorage::from(ranks.clone());
        let shared = RankStorage::Shared(Arc::new(ranks.clone()));
        assert_eq!(owned.as_slice(), shared.as_slice());
        assert_eq!(owned.len(), 4);
        assert!(!owned.is_shared());
        assert!(shared.is_shared());
        assert!(!shared.is_empty());
        assert!(RankStorage::default().is_empty());
    }

    #[test]
    fn cloning_shared_storage_shares_the_backing() {
        let backing: Arc<dyn RankBacking> = Arc::new(vec![7u64; 8]);
        let storage = RankStorage::Shared(Arc::clone(&backing));
        let clone = storage.clone();
        assert_eq!(Arc::strong_count(&backing), 3);
        assert_eq!(clone.as_slice(), storage.as_slice());
    }
}
