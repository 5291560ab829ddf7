//! Lazily materialized per-node/per-link storage.
//!
//! The machine model is sized to the whole torus (Hopper: 6,384 nodes;
//! datacenter scenarios: millions of PEs), but any one run usually touches
//! a thin slice of it. These containers keep the *logical* dense-vector
//! semantics — every index reads as a default value until written — while
//! only allocating fixed-size pages on first write, so an untouched
//! PE/node/link costs one `Option` discriminant instead of its full state.
//! Used by the fabric's link/engine/registration tables, the trace's
//! per-PE accumulators, and the machine layers' per-PE arming state.
//!
//! Determinism: reads never allocate and writes materialize whole pages
//! filled with the same default the dense representation started from, so
//! a lazy table is observationally equivalent to its eager twin (proven by
//! the `lazy_matches_eager` proptest in `gemini-net`'s `fabric.rs`). The
//! eager constructors exist for exactly that differential comparison.

/// Entries per page. Pages are the allocation unit: big enough to amortize
/// the `Box` header, small enough that a sparse traffic pattern touching a
/// handful of nodes stays within a few pages.
pub const PAGE_LEN: usize = 1024;

/// A fixed-length vector of `Copy` values, default-initialized, allocated
/// in pages on first mutable touch. `PAGE` is the entries-per-page
/// allocation grain: the default suits per-node tables with clustered
/// access; tables indexed by PE with *scattered* access (a sparse job
/// touching a handful of PEs per page) want a much smaller grain, or one
/// touched entry drags in a thousand dead neighbors.
pub struct LazyVec<T: Copy, const PAGE: usize = PAGE_LEN> {
    pages: Vec<Option<Box<[T]>>>,
    len: usize,
    default: T,
}

impl<T: Copy, const PAGE: usize> LazyVec<T, PAGE> {
    pub fn new(len: usize, default: T) -> Self {
        LazyVec {
            pages: vec![None; len.div_ceil(PAGE)],
            len,
            default,
        }
    }

    /// Eager twin: every page materialized up front. Same observable
    /// behavior as `new`; exists so tests can compare the two.
    pub fn new_eager(len: usize, default: T) -> Self {
        let mut v = Self::new(len, default);
        for i in 0..v.pages.len() {
            v.pages[i] = Some(v.fresh_page());
        }
        v
    }

    fn fresh_page(&self) -> Box<[T]> {
        vec![self.default; PAGE].into_boxed_slice()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read without materializing: untouched entries are the default.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        match &self.pages[i / PAGE] {
            Some(p) => p[i % PAGE],
            None => self.default,
        }
    }

    /// Write access; materializes the containing page.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        let page = i / PAGE;
        if self.pages[page].is_none() {
            self.pages[page] = Some(self.fresh_page());
        }
        // panic-ok: page materialized just above
        let p = self.pages[page].as_mut().unwrap();
        // panic-ok: i % PAGE is within the fixed page length
        p.get_mut(i % PAGE).unwrap()
    }

    /// Materialized pages as `(start_index, entries)`, in index order.
    /// Untouched pages hold only defaults, so aggregations whose identity
    /// element is the default (sums of 0, maxes over 0-floored values) can
    /// skip them without changing the result.
    pub fn iter_pages(&self) -> impl Iterator<Item = (usize, &[T])> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(move |(pi, p)| p.as_deref().map(|s| (pi * PAGE, &s[..self.page_used(pi)])))
    }

    fn page_used(&self, page: usize) -> usize {
        (self.len - page * PAGE).min(PAGE)
    }

    /// How many pages have been materialized (diagnostics / memory tests).
    pub fn materialized_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

impl<T: Copy, const PAGE: usize> std::fmt::Debug for LazyVec<T, PAGE> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyVec")
            .field("len", &self.len)
            .field("pages", &self.pages.len())
            .field("materialized", &self.materialized_pages())
            .finish()
    }
}

/// Page size for non-`Copy` slabs (bigger per-entry footprint, e.g. a
/// node's registration table), kept smaller so one touched node doesn't
/// drag in a thousand neighbors.
pub const SLAB_PAGE_LEN: usize = 64;

/// A fixed-length slab of `Default` values, allocated in pages on first
/// mutable touch. Shared reads of untouched slots see a pristine fallback
/// instance — valid because `T::default()` carries no per-slot identity.
/// `PAGE` is the entries-per-page grain, as for [`LazyVec`].
pub struct LazySlab<T: Default, const PAGE: usize = SLAB_PAGE_LEN> {
    pages: Vec<Option<Box<[T]>>>,
    len: usize,
    fallback: T,
}

impl<T: Default, const PAGE: usize> LazySlab<T, PAGE> {
    pub fn new(len: usize) -> Self {
        let mut pages = Vec::new();
        pages.resize_with(len.div_ceil(PAGE), || None);
        LazySlab {
            pages,
            len,
            fallback: T::default(),
        }
    }

    /// Eager twin for differential tests.
    pub fn new_eager(len: usize) -> Self {
        let mut s = Self::new(len);
        for i in 0..s.pages.len() {
            s.pages[i] = Some(Self::fresh_page());
        }
        s
    }

    fn fresh_page() -> Box<[T]> {
        let mut v = Vec::new();
        v.resize_with(PAGE, T::default);
        v.into_boxed_slice()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read-only access; untouched slots alias the shared default instance.
    #[inline]
    pub fn get_ref(&self, i: usize) -> &T {
        debug_assert!(i < self.len);
        match &self.pages[i / PAGE] {
            Some(p) => &p[i % PAGE],
            None => &self.fallback,
        }
    }

    /// Write access; materializes the containing page.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        let page = i / PAGE;
        if self.pages[page].is_none() {
            self.pages[page] = Some(Self::fresh_page());
        }
        // panic-ok: page materialized just above
        let p = self.pages[page].as_mut().unwrap();
        // panic-ok: i % PAGE is within the fixed page length
        p.get_mut(i % PAGE).unwrap()
    }

    pub fn materialized_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

impl<T: Default, const PAGE: usize> std::fmt::Debug for LazySlab<T, PAGE> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazySlab")
            .field("len", &self.len)
            .field("pages", &self.pages.len())
            .field("materialized", &self.materialized_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_never_materialize() {
        let v: LazyVec<u64> = LazyVec::new(10 * PAGE_LEN, 7);
        for i in [0, PAGE_LEN, 5 * PAGE_LEN + 3, 10 * PAGE_LEN - 1] {
            assert_eq!(v.get(i), 7);
        }
        assert_eq!(v.materialized_pages(), 0);
    }

    #[test]
    fn writes_materialize_only_their_page() {
        let mut v: LazyVec<u64> = LazyVec::new(10 * PAGE_LEN, 0);
        *v.get_mut(3 * PAGE_LEN + 5) = 42;
        assert_eq!(v.materialized_pages(), 1);
        assert_eq!(v.get(3 * PAGE_LEN + 5), 42);
        assert_eq!(v.get(3 * PAGE_LEN + 4), 0);
    }

    #[test]
    fn lazy_and_eager_agree_pointwise() {
        let mut a: LazyVec<u32> = LazyVec::new(2500, 9);
        let mut b: LazyVec<u32> = LazyVec::new_eager(2500, 9);
        for (i, val) in [(0usize, 1u32), (700, 2), (7, 4)] {
            *a.get_mut(i) = val;
            *b.get_mut(i) = val;
        }
        for i in 0..2500 {
            assert_eq!(a.get(i), b.get(i), "index {i}");
        }
        assert!(a.materialized_pages() < b.materialized_pages());
    }

    #[test]
    fn iter_pages_covers_partial_tail() {
        let mut v: LazyVec<u64> = LazyVec::new(PAGE_LEN + 10, 0);
        *v.get_mut(PAGE_LEN + 9) = 5;
        let pages: Vec<(usize, usize)> = v.iter_pages().map(|(s, p)| (s, p.len())).collect();
        assert_eq!(pages, vec![(PAGE_LEN, 10)]);
        let total: u64 = v.iter_pages().flat_map(|(_, p)| p.iter().copied()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn slab_fallback_is_pristine_default() {
        #[derive(Default)]
        struct Counter {
            n: u64,
        }
        let mut s: LazySlab<Counter> = LazySlab::new(1000);
        assert_eq!(s.get_ref(999).n, 0);
        assert_eq!(s.materialized_pages(), 0);
        s.get_mut(999).n = 3;
        assert_eq!(s.get_ref(999).n, 3);
        assert_eq!(s.get_ref(998).n, 0);
        assert_eq!(s.materialized_pages(), 1);
    }
}
