//! A paged software address space.
//!
//! FlexVec's first-faulting instructions need a memory in which some
//! addresses *fault*: an access to an unmapped page raises [`MemFault`].
//! This module provides a 64-bit byte-addressed space of 4 KiB pages, an
//! array allocator that separates allocations with unmapped guard pages
//! (so out-of-bounds speculation faults rather than silently reading
//! another array), and element-level convenience accessors.
//!
//! The space stores 8-byte elements at 8-byte-aligned addresses — the lane
//! granularity of the `flexvec-isa` functional model. Every page below the
//! allocation frontier lives in one flat element buffer next to one mapped
//! flag per page, so a translation is an alignment check, a flag load and
//! an index, and a span whose pages are all mapped is one slice copy.

use std::fmt;
use std::ops::Range;

use crate::{MemFault, PAGE_BYTES, PAGE_ELEMS};

/// Identifies an array allocated in an [`AddressSpace`].
///
/// Array ids are dense indices (0, 1, 2, ...) in allocation order, which
/// lets compilers use them directly as table keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "array#{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct ArrayInfo {
    name: String,
    base: u64,
    len: u64,
}

/// Always-zero stand-in for the counters of the inline page cache that
/// translation used to go through.
///
/// Translation has no cache any more, so there is nothing to count. The
/// type and [`AddressSpace::cache_stats`] / [`AddressSpace::reset_cache_stats`]
/// stay only because the flexbench harness still reads them for its
/// `vm.vector.pagecache_hit_frac` row; they go together with that row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageCacheStats;

impl PageCacheStats {
    /// Always 0.0: there is no cache to hit.
    pub fn hit_rate(&self) -> f64 {
        0.0
    }
}

/// A byte-addressed, paged address space with fault semantics.
///
/// Page 0 is never mapped, so address 0 behaves like a null page. Arrays
/// start at page 1, and each one is followed by an unmapped guard page and
/// an unmapped slack page.
///
/// # Examples
///
/// ```
/// use flexvec_mem::AddressSpace;
///
/// let mut space = AddressSpace::new();
/// let a = space.alloc("data", 100);
/// space.write_elem(a, 3, 42)?;
/// assert_eq!(space.read_elem(a, 3)?, 42);
///
/// // Reading past the guard page faults.
/// let base = space.base(a);
/// assert!(space.read(base + 100 * 8 + 4096 * 2).is_err());
/// # Ok::<(), flexvec_mem::MemFault>(())
/// ```
#[derive(Clone, Debug)]
pub struct AddressSpace {
    /// Every page below the allocation frontier, flat: the element at byte
    /// address `a` is `elems[a / 8]`. Unmapped pages are backed too, but
    /// no access reaches them.
    elems: Vec<i64>,
    /// One flag per page. Pages are handed out upward and never reused,
    /// so `mapped.len()` is the next free page, and
    /// `elems.len() == mapped.len() * PAGE_ELEMS`.
    mapped: Vec<bool>,
    arrays: Vec<ArrayInfo>,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Creates an empty address space. Page 0 is never mapped, so address 0
    /// behaves like a null page.
    pub fn new() -> Self {
        AddressSpace {
            elems: vec![0; PAGE_ELEMS],
            mapped: vec![false],
            arrays: Vec::new(),
        }
    }

    /// Allocates a zero-initialized array of `len` 8-byte elements, mapped
    /// on fresh pages and followed by at least one unmapped guard page.
    ///
    /// Returns the array's id. `len == 0` is allowed (the array occupies no
    /// mapped page but still has a base address).
    pub fn alloc(&mut self, name: &str, len: u64) -> ArrayId {
        let base_page = self.mapped.len();
        let pages = len.div_ceil(PAGE_ELEMS as u64) as usize;
        self.mapped.resize(base_page + pages, true);
        // One guard page plus one slack page keeps allocations apart.
        self.mapped.extend([false, false]);
        self.elems.resize(self.mapped.len() * PAGE_ELEMS, 0);
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayInfo {
            name: name.to_owned(),
            base: base_page as u64 * PAGE_BYTES,
            len,
        });
        id
    }

    /// Always [`PageCacheStats`], which reports zero (see there).
    pub fn cache_stats(&self) -> PageCacheStats {
        PageCacheStats
    }

    /// Does nothing; kept with [`PageCacheStats`].
    pub fn reset_cache_stats(&self) {}

    /// Allocates an array and copies `data` into it.
    pub fn alloc_from(&mut self, name: &str, data: &[i64]) -> ArrayId {
        let id = self.alloc(name, data.len() as u64);
        self.load_array(id, data);
        id
    }

    /// Base byte address of an array.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not allocated in this space.
    pub fn base(&self, id: ArrayId) -> u64 {
        self.arrays[id.0 as usize].base
    }

    /// Element length of an array.
    pub fn len(&self, id: ArrayId) -> u64 {
        self.arrays[id.0 as usize].len
    }

    /// Whether the array has zero elements.
    pub fn is_empty(&self, id: ArrayId) -> bool {
        self.len(id) == 0
    }

    /// The name the array was allocated under.
    pub fn name(&self, id: ArrayId) -> &str {
        &self.arrays[id.0 as usize].name
    }

    /// Number of arrays allocated so far.
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// Looks up an array by name (first match in allocation order).
    pub fn find(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArrayId(i as u32))
    }

    /// Reads the 8-byte element at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Faults if `addr` is not 8-byte aligned or the page is unmapped.
    pub fn read(&self, addr: u64) -> Result<i64, MemFault> {
        self.index(addr).map(|i| self.elems[i])
    }

    /// Writes the 8-byte element at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Faults if `addr` is not 8-byte aligned or the page is unmapped.
    pub fn write(&mut self, addr: u64, value: i64) -> Result<(), MemFault> {
        let i = self.index(addr)?;
        self.elems[i] = value;
        Ok(())
    }

    /// Reads `dst.len()` consecutive elements starting at byte address
    /// `base`: one slice copy when every page the span touches is mapped.
    ///
    /// This is the unit-stride fast path behind
    /// [`LaneMemory::load_span`](flexvec_isa::LaneMemory::load_span): a
    /// contiguous vector load checks one or two page flags instead of
    /// translating every lane, whatever the ambient vector length.
    ///
    /// # Errors
    ///
    /// Faults at the address of the first misaligned or unmapped element
    /// in increasing address order; `dst` elements before the fault may
    /// already be written.
    pub fn read_span(&self, base: u64, dst: &mut [i64]) -> Result<(), MemFault> {
        if !base.is_multiple_of(8) {
            return Err(MemFault { addr: base });
        }
        if let Some(range) = self.mapped_range(base, dst.len()) {
            dst.copy_from_slice(&self.elems[range]);
            return Ok(());
        }
        for (i, slot) in dst.iter_mut().enumerate() {
            *slot = self.read(base.wrapping_add(i as u64 * 8))?;
        }
        Ok(())
    }

    /// Writes `src.len()` consecutive elements starting at byte address
    /// `base` (the store analogue of [`AddressSpace::read_span`]).
    ///
    /// # Errors
    ///
    /// Faults at the address of the first misaligned or unmapped element
    /// in increasing address order; earlier elements are already stored
    /// (matching the restartable per-lane store order).
    pub fn write_span(&mut self, base: u64, src: &[i64]) -> Result<(), MemFault> {
        if !base.is_multiple_of(8) {
            return Err(MemFault { addr: base });
        }
        if let Some(range) = self.mapped_range(base, src.len()) {
            self.elems[range].copy_from_slice(src);
            return Ok(());
        }
        for (i, &value) in src.iter().enumerate() {
            self.write(base.wrapping_add(i as u64 * 8), value)?;
        }
        Ok(())
    }

    /// Whether the page containing `addr` is mapped.
    pub fn is_mapped(&self, addr: u64) -> bool {
        usize::try_from(addr / PAGE_BYTES).is_ok_and(|page| self.mapped.get(page) == Some(&true))
    }

    /// Byte address of element `idx` of array `id` (no bounds check — the
    /// guard pages provide the faulting behaviour).
    pub fn elem_addr(&self, id: ArrayId, idx: i64) -> u64 {
        self.base(id).wrapping_add_signed(idx.wrapping_mul(8))
    }

    /// Reads element `idx` of array `id`.
    ///
    /// # Errors
    ///
    /// Faults when the index lands on an unmapped page (e.g. past the guard
    /// page). Indices within the final partial page but past `len` read the
    /// zero padding, exactly like real memory past the end of a `malloc`.
    pub fn read_elem(&self, id: ArrayId, idx: i64) -> Result<i64, MemFault> {
        self.read(self.elem_addr(id, idx))
    }

    /// Writes element `idx` of array `id`.
    ///
    /// # Errors
    ///
    /// Faults when the index lands on an unmapped page.
    pub fn write_elem(&mut self, id: ArrayId, idx: i64, value: i64) -> Result<(), MemFault> {
        self.write(self.elem_addr(id, idx), value)
    }

    /// The array's `len` elements, borrowed in place.
    ///
    /// # Panics
    ///
    /// Panics if a page of the array has been unmapped.
    pub fn array_slice(&self, id: ArrayId) -> &[i64] {
        let info = &self.arrays[id.0 as usize];
        let range = self
            .mapped_range(info.base, info.len as usize)
            .expect("array interior is mapped");
        &self.elems[range]
    }

    /// Copies the array's `len` elements out to a vector.
    ///
    /// # Panics
    ///
    /// Panics if a page of the array has been unmapped.
    pub fn snapshot_array(&self, id: ArrayId) -> Vec<i64> {
        self.array_slice(id).to_vec()
    }

    /// Overwrites the array's prefix with `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` exceeds the array length, or if a page the
    /// prefix covers has been unmapped.
    pub fn load_array(&mut self, id: ArrayId, data: &[i64]) {
        assert!(
            data.len() as u64 <= self.len(id),
            "data longer than array {}",
            self.name(id)
        );
        self.write_span(self.base(id), data)
            .expect("interior mapped");
    }

    /// Unmaps the page containing `addr`, making future accesses fault.
    /// Used by tests to create fault points inside an array.
    pub fn unmap_page_of(&mut self, addr: u64) {
        if let Some(flag) = usize::try_from(addr / PAGE_BYTES)
            .ok()
            .and_then(|page| self.mapped.get_mut(page))
        {
            *flag = false;
        }
    }

    /// Index into `elems` of the element at `addr`, or the fault an access
    /// there raises.
    #[inline]
    fn index(&self, addr: u64) -> Result<usize, MemFault> {
        if addr.is_multiple_of(8) && self.is_mapped(addr) {
            Ok((addr / 8) as usize)
        } else {
            Err(MemFault { addr })
        }
    }

    /// The `elems` range of the `len` elements from the 8-byte-aligned
    /// address `base`, if every page they touch is mapped. `None` sends the
    /// caller to the per-element path, which finds the first fault.
    fn mapped_range(&self, base: u64, len: usize) -> Option<Range<usize>> {
        if len == 0 {
            return Some(0..0);
        }
        let end = base.checked_add(len as u64 * 8)?;
        let first = usize::try_from(base / PAGE_BYTES).ok()?;
        let last = usize::try_from((end - 1) / PAGE_BYTES).ok()?;
        let all_mapped = self.mapped.get(first..=last)?.iter().all(|&m| m);
        all_mapped.then_some((base / 8) as usize..(end / 8) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_roundtrip() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 10);
        s.write_elem(a, 0, 5).unwrap();
        s.write_elem(a, 9, -3).unwrap();
        assert_eq!(s.read_elem(a, 0).unwrap(), 5);
        assert_eq!(s.read_elem(a, 9).unwrap(), -3);
        assert_eq!(s.snapshot_array(a), vec![5, 0, 0, 0, 0, 0, 0, 0, 0, -3]);
    }

    #[test]
    fn zero_initialized() {
        let mut s = AddressSpace::new();
        let a = s.alloc("z", 600); // spans two pages
        for i in 0..600 {
            assert_eq!(s.read_elem(a, i).unwrap(), 0);
        }
    }

    #[test]
    fn guard_pages_fault() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 512); // exactly one page
        let b = s.alloc("b", 512);
        // Element 512 is on the guard page.
        assert!(s.read_elem(a, 512).is_err());
        assert!(s.write_elem(a, 512, 1).is_err());
        // Negative index from b's base lands on unmapped slack.
        assert!(s.read_elem(b, -1).is_err());
        // And arrays don't overlap.
        assert_ne!(s.base(a), s.base(b));
    }

    #[test]
    fn partial_page_padding_is_readable() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 10);
        // Elements 10..511 are on the same mapped page: no fault, zero.
        assert_eq!(s.read_elem(a, 10).unwrap(), 0);
        assert_eq!(s.read_elem(a, 511).unwrap(), 0);
        // Element 512 is past the page: fault.
        assert!(s.read_elem(a, 512).is_err());
    }

    #[test]
    fn null_page_faults() {
        let s = AddressSpace::new();
        assert!(s.read(0).is_err());
        assert!(s.read(8).is_err());
    }

    #[test]
    fn default_space_keeps_the_null_page_unmapped() {
        let mut s = AddressSpace::default();
        let a = s.alloc("a", 4);
        assert_eq!(s.base(a), PAGE_BYTES);
        assert!(s.read(0).is_err());
    }

    #[test]
    fn misaligned_access_faults() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 4);
        assert!(s.read(s.base(a) + 1).is_err());
        assert!(s.write(s.base(a) + 4, 0).is_err());
    }

    #[test]
    fn find_by_name() {
        let mut s = AddressSpace::new();
        let a = s.alloc("alpha", 1);
        let b = s.alloc("beta", 1);
        assert_eq!(s.find("alpha"), Some(a));
        assert_eq!(s.find("beta"), Some(b));
        assert_eq!(s.find("gamma"), None);
        assert_eq!(s.name(b), "beta");
        assert_eq!(s.array_count(), 2);
    }

    #[test]
    fn alloc_from_and_load() {
        let mut s = AddressSpace::new();
        let a = s.alloc_from("a", &[1, 2, 3]);
        assert_eq!(s.snapshot_array(a), vec![1, 2, 3]);
        s.load_array(a, &[9, 8]);
        assert_eq!(s.snapshot_array(a), vec![9, 8, 3]);
        assert_eq!(s.array_slice(a), &[9, 8, 3]);
    }

    #[test]
    fn zero_length_array() {
        let mut s = AddressSpace::new();
        let a = s.alloc("empty", 0);
        assert!(s.is_empty(a));
        assert!(s.read_elem(a, 0).is_err());
        assert!(s.array_slice(a).is_empty());
    }

    #[test]
    fn read_span_matches_per_element_reads() {
        let mut s = AddressSpace::new();
        let data: Vec<i64> = (0..600).map(|i| i * 3 - 700).collect();
        let a = s.alloc_from("a", &data);
        // Straddles the page boundary at element 512.
        let mut out = [0i64; 32];
        s.read_span(s.elem_addr(a, 500), &mut out).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, data[500 + i], "element {i}");
        }
    }

    #[test]
    fn write_span_roundtrip_and_fault_position() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 512);
        let vals: Vec<i64> = (0..16).collect();
        s.write_span(s.elem_addr(a, 100), &vals).unwrap();
        assert_eq!(s.read_elem(a, 100).unwrap(), 0);
        assert_eq!(s.read_elem(a, 115).unwrap(), 15);

        // A span running off the mapped page faults at the first unmapped
        // element (element 512 == start of the guard page).
        let mut buf = [0i64; 16];
        let err = s.read_span(s.elem_addr(a, 504), &mut buf).unwrap_err();
        assert_eq!(err.addr, s.elem_addr(a, 512));
        // The mapped prefix was still read.
        assert_eq!(buf[0], 0);

        let err = s.write_span(s.elem_addr(a, 504), &vals).unwrap_err();
        assert_eq!(err.addr, s.elem_addr(a, 512));
    }

    #[test]
    fn span_rejects_misaligned_base() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8);
        let mut buf = [0i64; 2];
        let err = s.read_span(s.base(a) + 4, &mut buf).unwrap_err();
        assert_eq!(err.addr, s.base(a) + 4);
    }

    #[test]
    fn unmap_page_creates_fault_point() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 1024);
        let addr = s.elem_addr(a, 600);
        assert!(s.read(addr).is_ok());
        s.unmap_page_of(addr);
        assert!(s.read(addr).is_err());
        // First page still mapped.
        assert!(s.read_elem(a, 0).is_ok());
    }
}
