//! Rollback-only transactions over an [`AddressSpace`].
//!
//! The FlexVec paper's alternative code-generation path (Section 3.3.2)
//! wraps speculative vector code in a restricted transaction (Intel RTM /
//! POWER8 rollback-only transactions): changes to memory are speculative
//! until the transaction commits; on an exception the transaction aborts,
//! all tentative writes are discarded, and a scalar fallback handler runs.
//!
//! This module models that usage: a [`Transaction`] buffers writes in a
//! redo log and exposes the same read/write interface as the underlying
//! space; `commit` publishes the log, dropping the transaction discards it
//! (abort). A capacity limit models hardware write-set overflow — the
//! reason the paper strip-mines candidate loops into 128–256-iteration
//! tiles before wrapping them in a transaction.

use std::collections::HashMap;

use crate::{AddressSpace, MemFault, PAGE_BYTES, PAGE_ELEMS};

/// Why a transaction aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// A memory access faulted inside the transactional region.
    Fault(MemFault),
    /// The write set exceeded the hardware capacity.
    CapacityOverflow,
    /// The code inside the region requested an explicit abort (`XABORT`).
    Explicit,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Fault(fault) => write!(f, "transaction aborted: {fault}"),
            AbortReason::CapacityOverflow => write!(f, "transaction aborted: write-set overflow"),
            AbortReason::Explicit => write!(f, "transaction aborted: explicit abort"),
        }
    }
}

impl std::error::Error for AbortReason {}

/// A speculative region over an [`AddressSpace`].
///
/// Reads see the transaction's own writes; writes are buffered until
/// [`Transaction::commit`]. Dropping the transaction without committing
/// discards the buffered writes (rollback).
///
/// # Examples
///
/// ```
/// use flexvec_mem::{AddressSpace, Transaction};
///
/// let mut space = AddressSpace::new();
/// let a = space.alloc("a", 8);
/// let addr = space.elem_addr(a, 0);
///
/// // Abort path: writes vanish.
/// {
///     let mut txn = Transaction::begin(&mut space);
///     txn.write(addr, 1)?;
///     assert_eq!(txn.read(addr)?, 1);
///     // dropped without commit => rollback
/// }
/// assert_eq!(space.read(addr)?, 0);
///
/// // Commit path: writes publish.
/// let mut txn = Transaction::begin(&mut space);
/// txn.write(addr, 2)?;
/// txn.commit();
/// assert_eq!(space.read(addr)?, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Transaction<'a> {
    space: &'a mut AddressSpace,
    write_log: HashMap<u64, i64>,
    // Inclusive byte-address bounds of the write set (min > max when the
    // log is empty). Reads outside this range cannot hit the log, so they
    // skip the hash probe and go straight to the underlying space —
    // modeling how real RTM reads outside the speculative write set are
    // plain cache reads.
    write_min: u64,
    write_max: u64,
    capacity: usize,
    reads: u64,
    writes: u64,
}

/// Default modeled write-set capacity, in 8-byte elements. Haswell's RTM
/// write set is bounded by the L1 data cache (32 KiB = 4096 elements).
pub const DEFAULT_TXN_CAPACITY: usize = 4096;

impl<'a> Transaction<'a> {
    /// Starts a transaction with the default write-set capacity
    /// ([`DEFAULT_TXN_CAPACITY`]).
    pub fn begin(space: &'a mut AddressSpace) -> Self {
        Self::with_capacity(space, DEFAULT_TXN_CAPACITY)
    }

    /// Starts a transaction with an explicit write-set capacity (in
    /// elements). Exceeding it makes the next write fail with
    /// [`AbortReason::CapacityOverflow`].
    pub fn with_capacity(space: &'a mut AddressSpace, capacity: usize) -> Self {
        Transaction {
            space,
            write_log: HashMap::new(),
            write_min: u64::MAX,
            write_max: 0,
            capacity,
            reads: 0,
            writes: 0,
        }
    }

    /// Reads through the transaction (sees buffered writes first).
    ///
    /// # Errors
    ///
    /// Returns the fault for unmapped or misaligned accesses; the caller
    /// (the RTM runtime in `flexvec-vm`) converts it into an abort.
    pub fn read(&mut self, addr: u64) -> Result<i64, MemFault> {
        self.reads += 1;
        self.peek(addr)
    }

    /// Reads without updating the traffic counters (used by the
    /// `LaneMemory` impl, which only has `&self`).
    pub fn peek(&self, addr: u64) -> Result<i64, MemFault> {
        if addr >= self.write_min && addr <= self.write_max {
            if let Some(&v) = self.write_log.get(&addr) {
                return Ok(v);
            }
        }
        self.space.read(addr)
    }

    /// Reads `dst.len()` consecutive elements starting at `base` through
    /// the transaction. Spans disjoint from the write set take the
    /// underlying space's span fast path; overlapping spans fall back
    /// to per-lane reads so buffered writes stay visible.
    ///
    /// # Errors
    ///
    /// Same contract as [`AddressSpace::read_span`]: faults at the first
    /// unreadable element in increasing address order.
    pub fn peek_span(&self, base: u64, dst: &mut [i64]) -> Result<(), MemFault> {
        if dst.is_empty() {
            return Ok(());
        }
        let last = base.wrapping_add((dst.len() as u64 - 1) * 8);
        if last < self.write_min || base > self.write_max {
            return self.space.read_span(base, dst);
        }
        for (i, slot) in dst.iter_mut().enumerate() {
            *slot = self.peek(base.wrapping_add(i as u64 * 8))?;
        }
        Ok(())
    }

    /// Buffers a write.
    ///
    /// # Errors
    ///
    /// * [`AbortReason::Fault`] if the target address would fault.
    /// * [`AbortReason::CapacityOverflow`] if the write set is full.
    pub fn write(&mut self, addr: u64, value: i64) -> Result<(), AbortReason> {
        // Validate the address eagerly: a fault inside a transaction aborts
        // it rather than surfacing after commit.
        self.space.read(addr).map_err(AbortReason::Fault)?;
        self.buffer(addr, value)
    }

    /// Logs one validated write, or refuses it once the write set is full.
    fn buffer(&mut self, addr: u64, value: i64) -> Result<(), AbortReason> {
        if self.write_log.len() >= self.capacity && !self.write_log.contains_key(&addr) {
            return Err(AbortReason::CapacityOverflow);
        }
        self.writes += 1;
        self.write_log.insert(addr, value);
        self.write_min = self.write_min.min(addr);
        self.write_max = self.write_max.max(addr);
        Ok(())
    }

    /// Buffers `src.len()` consecutive writes starting at `base`,
    /// validating whole target pages instead of probing the space once
    /// per lane (the journal insert itself is inherent to the rollback
    /// model and stays per element).
    ///
    /// # Errors
    ///
    /// Same contract as per-lane [`Transaction::write`]: faults at the
    /// first unwritable element in increasing address order (no elements
    /// are buffered when the span faults), or
    /// [`AbortReason::CapacityOverflow`] once the write set fills (earlier
    /// elements of the span are already buffered — the caller aborts the
    /// transaction anyway).
    pub fn write_span(&mut self, base: u64, src: &[i64]) -> Result<(), AbortReason> {
        if src.is_empty() {
            return Ok(());
        }
        if !base.is_multiple_of(8) {
            return Err(AbortReason::Fault(MemFault { addr: base }));
        }
        // Validate eagerly, one page run at a time: the base is aligned
        // and the stride is 8, so only page mapping can fault.
        let mut i = 0usize;
        while i < src.len() {
            let addr = base.wrapping_add(i as u64 * 8);
            if !self.space.is_mapped(addr) {
                return Err(AbortReason::Fault(MemFault { addr }));
            }
            let offset = ((addr % PAGE_BYTES) / 8) as usize;
            i += (PAGE_ELEMS - offset).min(src.len() - i);
        }
        for (k, &value) in src.iter().enumerate() {
            self.buffer(base.wrapping_add(k as u64 * 8), value)?;
        }
        Ok(())
    }

    /// Number of distinct addresses in the write set.
    pub fn write_set_len(&self) -> usize {
        self.write_log.len()
    }

    /// Dynamic read/write operation counts (for the timing model).
    pub fn op_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Publishes all buffered writes to the underlying space.
    pub fn commit(self) {
        for (addr, value) in self.write_log {
            self.space
                .write(addr, value)
                .expect("validated at write time");
        }
    }

    /// Discards the buffered writes. Equivalent to dropping the
    /// transaction, but explicit at call sites.
    pub fn abort(self) {
        drop(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with_array() -> (AddressSpace, u64) {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 64);
        let base = s.base(a);
        (s, base)
    }

    #[test]
    fn commit_publishes_in_full() {
        let (mut s, base) = space_with_array();
        let mut txn = Transaction::begin(&mut s);
        for i in 0..10 {
            txn.write(base + i * 8, i as i64 + 1).unwrap();
        }
        txn.commit();
        for i in 0..10 {
            assert_eq!(s.read(base + i * 8).unwrap(), i as i64 + 1);
        }
    }

    #[test]
    fn abort_discards_everything() {
        let (mut s, base) = space_with_array();
        let mut txn = Transaction::begin(&mut s);
        txn.write(base, 99).unwrap();
        txn.abort();
        assert_eq!(s.read(base).unwrap(), 0);
    }

    #[test]
    fn reads_see_own_writes() {
        let (mut s, base) = space_with_array();
        let mut txn = Transaction::begin(&mut s);
        txn.write(base, 7).unwrap();
        assert_eq!(txn.read(base).unwrap(), 7);
        assert_eq!(txn.read(base + 8).unwrap(), 0);
    }

    #[test]
    fn faulting_write_reports_abort() {
        let (mut s, _) = space_with_array();
        let mut txn = Transaction::begin(&mut s);
        let err = txn.write(0, 1).unwrap_err();
        assert!(matches!(err, AbortReason::Fault(_)));
    }

    #[test]
    fn capacity_overflow() {
        let (mut s, base) = space_with_array();
        let mut txn = Transaction::with_capacity(&mut s, 2);
        txn.write(base, 1).unwrap();
        txn.write(base + 8, 2).unwrap();
        // Rewriting an address in the set is fine...
        txn.write(base, 3).unwrap();
        // ...a third distinct address overflows.
        assert_eq!(
            txn.write(base + 16, 4).unwrap_err(),
            AbortReason::CapacityOverflow
        );
    }

    #[test]
    fn peek_span_sees_buffered_writes_and_disjoint_reads() {
        let (mut s, base) = space_with_array();
        let mut txn = Transaction::begin(&mut s);
        txn.write(base + 16, 7).unwrap();
        // Overlapping span: merges the log with the underlying space.
        let mut dst = [0i64; 4];
        txn.peek_span(base, &mut dst).unwrap();
        assert_eq!(dst, [0, 0, 7, 0]);
        // Disjoint span: serviced entirely by the space fast path.
        let mut tail = [99i64; 2];
        txn.peek_span(base + 32, &mut tail).unwrap();
        assert_eq!(tail, [0, 0]);
    }

    #[test]
    fn write_span_buffers_and_rolls_back() {
        let (mut s, base) = space_with_array();
        {
            let mut txn = Transaction::begin(&mut s);
            txn.write_span(base, &[1, 2, 3]).unwrap();
            assert_eq!(txn.peek(base + 8).unwrap(), 2);
            // rollback on drop
        }
        assert_eq!(s.read(base).unwrap(), 0);
        let mut txn = Transaction::begin(&mut s);
        txn.write_span(base, &[4, 5]).unwrap();
        assert_eq!(txn.op_counts(), (0, 2));
        txn.commit();
        assert_eq!(s.read(base + 8).unwrap(), 5);
    }

    #[test]
    fn write_span_faults_without_buffering() {
        let (mut s, base) = space_with_array();
        let mut txn = Transaction::begin(&mut s);
        // A span running off the end of the mapped pages faults eagerly
        // and leaves the write set empty.
        let far = base + crate::PAGE_BYTES * 64;
        let err = txn.write_span(far, &[1, 2]).unwrap_err();
        assert!(matches!(err, AbortReason::Fault(_)));
        assert_eq!(txn.write_set_len(), 0);
        // Misaligned base faults at the base address.
        assert!(matches!(
            txn.write_span(base + 4, &[1]),
            Err(AbortReason::Fault(MemFault { addr })) if addr == base + 4
        ));
    }

    #[test]
    fn write_span_respects_capacity() {
        let (mut s, base) = space_with_array();
        let mut txn = Transaction::with_capacity(&mut s, 2);
        assert_eq!(
            txn.write_span(base, &[1, 2, 3]).unwrap_err(),
            AbortReason::CapacityOverflow
        );
        // The prefix buffered before the overflow is tracked like any
        // other write.
        assert_eq!(txn.write_set_len(), 2);
        assert_eq!(txn.peek(base).unwrap(), 1);
        let mut dst = [0i64; 3];
        txn.peek_span(base, &mut dst).unwrap();
        assert_eq!(dst, [1, 2, 0]);
        assert_eq!(txn.op_counts(), (0, 2));
    }

    #[test]
    fn op_counts_track_traffic() {
        let (mut s, base) = space_with_array();
        let mut txn = Transaction::begin(&mut s);
        txn.write(base, 1).unwrap();
        let _ = txn.read(base);
        let _ = txn.read(base + 8);
        assert_eq!(txn.op_counts(), (2, 1));
        assert_eq!(txn.write_set_len(), 1);
    }
}
