//! # flexvec-mem
//!
//! The memory substrate for the FlexVec reproduction:
//!
//! * [`AddressSpace`] — a byte-addressed software memory with *fault*
//!   semantics, required by the first-faulting FlexVec instructions:
//!   one flat element buffer plus a mapped flag per 4 KiB page, where
//!   the null page and the guard page after every array fault.
//! * [`Transaction`] — rollback-only transactions (the Intel-RTM-style
//!   facility the paper's alternative code-generation path relies on).
//! * [`CacheSim`] — the Table 1 cache-hierarchy timing model used by the
//!   out-of-order simulator in `flexvec-sim`.
//!
//! The crate re-exports [`MemFault`] from
//! `flexvec-isa` and implements the [`LaneMemory`](flexvec_isa::LaneMemory)
//! trait for [`AddressSpace`], so every vector memory instruction of the
//! ISA model can run directly against this space.
//!
//! ```
//! use flexvec_isa::{vgather_ff, Mask, Vector};
//! use flexvec_mem::AddressSpace;
//!
//! let mut space = AddressSpace::new();
//! let table = space.alloc_from("table", &[10, 20, 30, 40]);
//! let base = space.base(table) as i64;
//! // Lane i reads table[40*i]; lanes past the array run into the guard
//! // page and are clipped by the first-faulting gather instead of
//! // trapping.
//! let addrs = Vector::from_fn(|i| base + 8 * 40 * i as i64);
//! let out = vgather_ff(&space, Mask::full(), Vector::ZERO, addrs)?;
//! assert!(out.mask.count() < flexvec_isa::vlen());
//! assert_eq!(out.value.lane(0), 10);
//! # Ok::<(), flexvec_isa::MemFault>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod space;
mod txn;

pub use cache::{Access, CacheLevelConfig, CacheSim, CacheStats, HierarchyConfig, LINE_BYTES};
pub use flexvec_isa::MemFault;
pub use space::{AddressSpace, ArrayId, PageCacheStats};
pub use txn::{AbortReason, Transaction, DEFAULT_TXN_CAPACITY};

/// Page size in bytes.
pub const PAGE_BYTES: u64 = 4096;

/// Elements (8-byte lanes) per page.
pub const PAGE_ELEMS: usize = (PAGE_BYTES / 8) as usize;

impl flexvec_isa::LaneMemory for AddressSpace {
    fn load_lane(&self, addr: u64) -> Result<i64, MemFault> {
        self.read(addr)
    }

    fn store_lane(&mut self, addr: u64, value: i64) -> Result<(), MemFault> {
        self.write(addr, value)
    }

    fn load_span(&self, base: u64, dst: &mut [i64]) -> Result<(), MemFault> {
        self.read_span(base, dst)
    }

    fn store_span(&mut self, base: u64, src: &[i64]) -> Result<(), MemFault> {
        self.write_span(base, src)
    }
}

impl flexvec_isa::LaneMemory for Transaction<'_> {
    fn load_lane(&self, addr: u64) -> Result<i64, MemFault> {
        self.peek(addr)
    }

    fn store_lane(&mut self, addr: u64, value: i64) -> Result<(), MemFault> {
        self.write(addr, value).map_err(|abort| match abort {
            AbortReason::Fault(f) => f,
            // Surface capacity overflow as a fault at the target address;
            // the RTM runtime treats any fault inside a transaction as an
            // abort anyway.
            AbortReason::CapacityOverflow | AbortReason::Explicit => MemFault { addr },
        })
    }

    fn load_span(&self, base: u64, dst: &mut [i64]) -> Result<(), MemFault> {
        self.peek_span(base, dst)
    }

    fn store_span(&mut self, base: u64, src: &[i64]) -> Result<(), MemFault> {
        self.write_span(base, src).map_err(|abort| match abort {
            AbortReason::Fault(f) => f,
            AbortReason::CapacityOverflow | AbortReason::Explicit => MemFault { addr: base },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvec_isa::{vgather, vscatter, LaneMemory, Mask, Vector};

    #[test]
    fn address_space_is_lane_memory() {
        let mut s = AddressSpace::new();
        let a = s.alloc_from("a", &[1, 2, 3, 4]);
        let base = s.base(a) as i64;
        let addrs = Vector::from_fn(|i| base + 8 * (3 - (i as i64 % 4)));
        let out = vgather(&s, Mask::first_n(4), Vector::ZERO, addrs).unwrap();
        assert_eq!(out.lane(0), 4);
        assert_eq!(out.lane(3), 1);
        vscatter(
            &mut s,
            Mask::first_n(1),
            Vector::splat(base),
            Vector::splat(9),
        )
        .unwrap();
        assert_eq!(s.read_elem(a, 0).unwrap(), 9);
    }

    #[test]
    fn transaction_is_lane_memory_with_rollback() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 16);
        let base = s.base(a);
        {
            let mut txn = Transaction::begin(&mut s);
            txn.store_lane(base, 5).unwrap();
            assert_eq!(txn.load_lane(base).unwrap(), 5);
        }
        assert_eq!(s.read(base).unwrap(), 0);
    }

    #[test]
    fn page_constants_agree() {
        assert_eq!(PAGE_ELEMS as u64 * 8, PAGE_BYTES);
    }
}
