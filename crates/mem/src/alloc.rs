//! Simulated-heap allocation.
//!
//! The paper's pointer-compression rule fires when a stored pointer and its
//! storage address share a 17-bit prefix, i.e. live in the same 32 KB chunk.
//! Real allocators make this common: consecutive `malloc`s of small objects
//! are packed into the same region ([Chilimbi et al.]'s cache-conscious
//! layouts strengthen it further). [`ChunkAllocator`] is a deterministic bump
//! allocator over a region of the simulated address space that reproduces
//! that behaviour, with explicit alignment control so workloads can mimic
//! the paper's "memory allocator would align the address allocation"
//! example.
//!
//! [Chilimbi et al.]: https://doi.org/10.1145/301618.301633

use crate::Addr;

/// Size of the compression scheme's pointer chunk (2^15 bytes).
pub const CHUNK_BYTES: u32 = 32 * 1024;

/// Deterministic bump allocator over `[base, base + capacity)`.
///
/// # Examples
///
/// ```
/// use ccp_mem::alloc::{same_chunk, ChunkAllocator};
///
/// let mut heap = ChunkAllocator::new(0x1000_0000, 64 * 1024);
/// let a = heap.alloc(16);
/// let b = heap.alloc(16);
/// assert_eq!(b, a + 16, "bump allocation is contiguous");
/// assert!(same_chunk(a, b), "neighbours share the 32 KB pointer chunk");
/// ```
#[derive(Debug, Clone)]
pub struct ChunkAllocator {
    base: Addr,
    next: Addr,
    end: Addr,
}

impl ChunkAllocator {
    /// Creates an allocator over `capacity` bytes starting at `base`
    /// (word-aligned).
    ///
    /// # Panics
    /// Panics if `base` is not word-aligned or the region wraps the 32-bit
    /// address space.
    pub fn new(base: Addr, capacity: u32) -> Self {
        assert_eq!(base & 0x3, 0, "allocator base must be word-aligned");
        #[expect(
            clippy::expect_used,
            reason = "a wrapping region is a workload-construction bug (see # Panics)"
        )]
        let end = base
            .checked_add(capacity)
            .expect("allocator region wraps address space");
        ChunkAllocator {
            base,
            next: base,
            end,
        }
    }

    /// Allocates `bytes` with word alignment. Returns the block's address.
    ///
    /// # Panics
    /// Panics when the region is exhausted — workload generators size their
    /// heaps up front, so exhaustion is a bug, not a recoverable condition.
    pub fn alloc(&mut self, bytes: u32) -> Addr {
        self.alloc_aligned(bytes, 4)
    }

    /// Allocates `bytes` aligned to `align` (a power of two ≥ 4).
    pub fn alloc_aligned(&mut self, bytes: u32, align: u32) -> Addr {
        assert!(
            align.is_power_of_two() && align >= 4,
            "bad alignment {align}"
        );
        let aligned = (self.next + (align - 1)) & !(align - 1);
        #[expect(
            clippy::expect_used,
            reason = "heaps are sized up front, so a wrap is a bug (see # Panics on `alloc`)"
        )]
        let new_next = aligned
            .checked_add(bytes.max(4))
            .expect("allocation wraps address space");
        assert!(
            new_next <= self.end,
            "simulated heap exhausted: {} of {} bytes used",
            aligned - self.base,
            self.end - self.base
        );
        self.next = new_next;
        aligned
    }

    /// Skips `bytes` of address space, emulating fragmentation or foreign
    /// allocations between objects (reduces pointer compressibility).
    pub fn skip(&mut self, bytes: u32) {
        self.next = (self.next + bytes).min(self.end);
    }

    /// Advances to the start of the next 32 KB chunk, guaranteeing the next
    /// allocation shares no chunk with previous ones.
    pub fn next_chunk(&mut self) {
        let bumped = (self.next | (CHUNK_BYTES - 1)) + 1;
        self.next = bumped.min(self.end);
    }

    /// Bytes allocated (or skipped) so far.
    pub fn used(&self) -> u32 {
        self.next - self.base
    }

    /// Bytes still available.
    pub fn remaining(&self) -> u32 {
        self.end - self.next
    }

    /// The region's base address.
    pub fn base(&self) -> Addr {
        self.base
    }
}

/// Returns `true` when two addresses fall in the same 32 KB pointer chunk
/// (share the 17-bit prefix the compression scheme keys on).
#[inline]
pub fn same_chunk(a: Addr, b: Addr) -> bool {
    (a ^ b) >> 15 == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_allocations_are_contiguous() {
        let mut a = ChunkAllocator::new(0x1000_0000, 1 << 20);
        let p1 = a.alloc(16);
        let p2 = a.alloc(16);
        let p3 = a.alloc(8);
        assert_eq!(p1, 0x1000_0000);
        assert_eq!(p2, p1 + 16);
        assert_eq!(p3, p2 + 16);
        assert_eq!(a.used(), 40);
    }

    #[test]
    fn small_neighbours_share_a_chunk() {
        let mut a = ChunkAllocator::new(0x1000_0000, 1 << 20);
        let p1 = a.alloc(64);
        let p2 = a.alloc(64);
        assert!(same_chunk(p1, p2));
    }

    #[test]
    fn alignment_is_respected() {
        let mut a = ChunkAllocator::new(0x2000_0000, 1 << 16);
        a.alloc(4);
        let p = a.alloc_aligned(16, 64);
        assert_eq!(p % 64, 0);
        let q = a.alloc_aligned(16, 128);
        assert_eq!(q % 128, 0);
        assert!(q > p);
    }

    #[test]
    fn zero_byte_alloc_still_advances() {
        let mut a = ChunkAllocator::new(0x3000_0000, 1 << 12);
        let p1 = a.alloc(0);
        let p2 = a.alloc(0);
        assert_ne!(p1, p2, "distinct objects need distinct addresses");
    }

    #[test]
    fn next_chunk_breaks_prefix_sharing() {
        let mut a = ChunkAllocator::new(0x1000_0000, 1 << 20);
        let p1 = a.alloc(16);
        a.next_chunk();
        let p2 = a.alloc(16);
        assert!(!same_chunk(p1, p2));
        assert_eq!(p2 % CHUNK_BYTES, 0);
    }

    #[test]
    fn skip_introduces_gaps() {
        let mut a = ChunkAllocator::new(0x1000_0000, 1 << 20);
        let p1 = a.alloc(8);
        a.skip(1000);
        let p2 = a.alloc(8);
        assert!(p2 >= p1 + 8 + 1000);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut a = ChunkAllocator::new(0x1000_0000, 64);
        a.alloc(32);
        a.alloc(32);
        a.alloc(4); // 68 > 64
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn unaligned_base_panics() {
        ChunkAllocator::new(0x1000_0002, 64);
    }

    #[test]
    fn same_chunk_matches_pointer_rule_width() {
        assert!(same_chunk(0x0000_0000, 0x0000_7FFF));
        assert!(!same_chunk(0x0000_7FFF, 0x0000_8000));
        assert!(same_chunk(0xABCD_8000, 0xABCD_FFFC));
    }

    #[test]
    fn remaining_plus_used_is_capacity() {
        let mut a = ChunkAllocator::new(0x1000_0000, 4096);
        a.alloc(100);
        a.alloc_aligned(10, 64);
        assert_eq!(a.used() + a.remaining(), 4096);
    }
}
