//! Bus-traffic accounting in half-word (16-bit) units.
//!
//! The paper's Figure 10 reports traffic on the L2↔memory bus normalized to
//! the baseline cache. Because the BCC design transfers compressible words in
//! 16 bits, the natural integer unit is the half-word: an uncompressed word
//! costs 2 units, a compressed word costs 1.

/// Half-words per uncompressed 32-bit word.
pub const HALFWORDS_PER_WORD: u64 = 2;

crate::counters! {
    /// Counters for one bus (e.g. L2↔memory or L1↔L2).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct TrafficMeter {
        /// Half-words moved toward the CPU (fetches / fills).
        pub in_halfwords: u64,
        /// Half-words moved away from the CPU (write-backs).
        pub out_halfwords: u64,
        /// Number of fetch transactions.
        pub in_transactions: u64,
        /// Number of write-back transactions.
        pub out_transactions: u64,
    }
}

impl TrafficMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a fetch of `words` uncompressed words.
    #[inline]
    pub fn fetch_words(&mut self, words: u64) {
        self.in_halfwords += words * HALFWORDS_PER_WORD;
        self.in_transactions += 1;
    }

    /// Records a fetch of `halfwords` (compressed-bus accounting).
    #[inline]
    pub fn fetch_halfwords(&mut self, halfwords: u64) {
        self.in_halfwords += halfwords;
        self.in_transactions += 1;
    }

    /// Records a write-back of `words` uncompressed words.
    #[inline]
    pub fn writeback_words(&mut self, words: u64) {
        self.out_halfwords += words * HALFWORDS_PER_WORD;
        self.out_transactions += 1;
    }

    /// Records a write-back of `halfwords` (compressed-bus accounting).
    #[inline]
    pub fn writeback_halfwords(&mut self, halfwords: u64) {
        self.out_halfwords += halfwords;
        self.out_transactions += 1;
    }

    /// Total half-words moved in both directions.
    pub fn total_halfwords(&self) -> u64 {
        self.in_halfwords + self.out_halfwords
    }

    /// Total traffic expressed in (possibly fractional) words.
    pub fn total_words(&self) -> f64 {
        self.total_halfwords() as f64 / HALFWORDS_PER_WORD as f64
    }

    /// Total traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_halfwords() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_meter_is_zero() {
        let t = TrafficMeter::new();
        assert_eq!(t.total_halfwords(), 0);
        assert_eq!(t.total_words(), 0.0);
        assert_eq!(t.total_bytes(), 0);
    }

    #[test]
    fn fetch_words_counts_two_halfwords_each() {
        let mut t = TrafficMeter::new();
        t.fetch_words(16); // one 64-byte line
        assert_eq!(t.in_halfwords, 32);
        assert_eq!(t.in_transactions, 1);
        assert_eq!(t.total_bytes(), 64);
    }

    #[test]
    fn compressed_fetch_can_be_odd_halfwords() {
        let mut t = TrafficMeter::new();
        t.fetch_halfwords(21); // e.g. 5 compressed + 8 uncompressed words
        assert_eq!(t.in_halfwords, 21);
        assert_eq!(t.total_words(), 10.5);
    }

    #[test]
    fn writebacks_accumulate_separately() {
        let mut t = TrafficMeter::new();
        t.fetch_words(4);
        t.writeback_words(2);
        t.writeback_halfwords(3);
        assert_eq!(t.in_halfwords, 8);
        assert_eq!(t.out_halfwords, 7);
        assert_eq!(t.out_transactions, 2);
        assert_eq!(t.total_halfwords(), 15);
    }
}
