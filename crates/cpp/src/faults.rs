//! Fault injection and exhaustive invariant validation for the CPP
//! hierarchy.
//!
//! Production memory-compression systems treat metadata corruption as a
//! first-class failure mode: a flipped flag bit or a corrupted compressed
//! word must be *detected*, not silently decoded into wrong data. This
//! module provides the two halves of that argument for the simulator:
//!
//! * [`FaultInjector`] — deterministic, seeded injection of each corruption
//!   class the paper's metadata admits: `PA`/`VCP`/`AA` flag corruption,
//!   compressed-word bit flips, and affiliated-pairing (one-copy)
//!   violations.
//! * [`InvariantChecker`] — the one statement of the paper's §3.3 line
//!   invariants, for a hierarchy under any compression scheme. It walks
//!   both levels and reports *every* violation
//!   ([`crate::CppHierarchy::check_invariants`] returns its first):
//!   flag-structure consistency, flag/value agreement, the `tag ^ 0x1`
//!   one-copy rule, and encode/decode round trips of every word held in a
//!   compressed half-slot.
//!
//! The chaos harness (`repro chaos`) runs a clean workload, asserts
//! the checker reports nothing (no false positives), then injects each
//! fault class and asserts the checker reports it (no false negatives).

use crate::level::scheme_compress_mask;
use crate::{CppHierarchy, CppLevel};
use ccp_cache::Addr;
use ccp_errors::{SimError, SimResult};
use ccp_mem::MainMemory;
use ccp_schemes::CompressionScheme;

/// The corruption classes the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Corrupt a primary-availability (`PA`) bit.
    PaFlag,
    /// Corrupt a value-compressed (`VCP`) bit.
    VcpFlag,
    /// Corrupt an affiliated-availability (`AA`) bit.
    AaFlag,
    /// Flip a high bit of a word held in compressed form, so its stored
    /// 16-bit encoding can no longer represent it.
    BitFlip,
    /// Violate the affiliated-pairing one-copy rule: mark a line's pair as
    /// affiliated content while the pair is also primary-resident.
    Pairing,
}

impl FaultKind {
    /// Every fault class, in injection-report order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::PaFlag,
        FaultKind::VcpFlag,
        FaultKind::AaFlag,
        FaultKind::BitFlip,
        FaultKind::Pairing,
    ];

    /// Short CLI name (`pa`, `vcp`, `aa`, `bitflip`, `pairing`).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::PaFlag => "pa",
            FaultKind::VcpFlag => "vcp",
            FaultKind::AaFlag => "aa",
            FaultKind::BitFlip => "bitflip",
            FaultKind::Pairing => "pairing",
        }
    }

    /// Resolves a CLI name, case-insensitively.
    pub fn by_name(name: &str) -> SimResult<FaultKind> {
        Self::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name.trim()))
            .ok_or_else(|| SimError::unknown("fault class", name))
    }
}

/// What a successful injection did.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// The injected class.
    pub kind: FaultKind,
    /// The level injected into: `"L1"`, the strict-checked level, except
    /// for a pairing fault when L1 holds no site — that one goes into
    /// `"L2"`, whose structural check covers the pairing rule.
    pub level: &'static str,
    /// Base address of the corrupted line.
    pub line_base: Addr,
    /// Word slot involved.
    pub word: u32,
    /// Human-readable description of the corruption.
    pub description: String,
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} @ {} line {:#x} word {}: {}",
            self.kind.name(),
            self.level,
            self.line_base,
            self.word,
            self.description
        )
    }
}

/// The invariant family a [`Violation`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationClass {
    /// Per-line flag-structure rules (`VCP ⊆ PA`, `AA ⊆ VCP ∪ ¬PA`,
    /// no bits beyond the line's words).
    FlagStructure,
    /// Flags disagree with architectural values (`VCP` claims an
    /// incompressible word, or `AA` holds an incompressible pair word).
    ValueMismatch,
    /// The `tag ^ 0x1` one-copy rule: a line is primary-resident and
    /// affiliated-resident at once.
    Pairing,
    /// A word held in compressed form does not survive a
    /// compress → decompress round trip.
    RoundTrip,
}

impl ViolationClass {
    /// Short report name.
    pub fn name(self) -> &'static str {
        match self {
            ViolationClass::FlagStructure => "flag-structure",
            ViolationClass::ValueMismatch => "value-mismatch",
            ViolationClass::Pairing => "pairing",
            ViolationClass::RoundTrip => "round-trip",
        }
    }
}

/// One invariant violation found by the checker.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The level it was found in (`"L1"` / `"L2"`).
    pub level: &'static str,
    /// Base address of the offending line.
    pub line_base: Addr,
    /// The invariant family.
    pub class: ViolationClass,
    /// The specific inconsistency.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} {} line {:#x}] {}",
            self.level,
            self.class.name(),
            self.line_base,
            self.detail
        )
    }
}

/// Exhaustive invariant validator over a [`CppHierarchy`] under any
/// compression scheme `S`: flag/value agreement uses `S`'s line mask and
/// round trips use `S::encode`/`S::decode`.
///
/// [`CppHierarchy::check_invariants`] returns the *first* violation as a
/// [`SimError`] (the cheap gate simulation tests use); the checker
/// collects every violation with its class, so the chaos harness can
/// attribute detection to the right invariant family.
pub struct InvariantChecker;

impl InvariantChecker {
    /// Collects every violation in both levels. L1 is checked strictly
    /// (flags vs. current values); L2 structurally only, since its flags
    /// describe the line as of its last fill/write-back.
    pub fn check<S: CompressionScheme>(h: &CppHierarchy<S>) -> Vec<Violation> {
        let mut v = Self::check_level(&h.l1, &h.mem, true, "L1");
        v.extend(Self::check_level(&h.l2, &h.mem, false, "L2"));
        v
    }

    /// Asserts a clean hierarchy, converting the first violation into a
    /// [`SimError::Invariant`].
    pub fn assert_clean<S: CompressionScheme>(h: &CppHierarchy<S>) -> SimResult<()> {
        match Self::check(h).into_iter().next() {
            None => Ok(()),
            Some(v) => Err(SimError::invariant(
                format!("{} line {:#x}", v.level, v.line_base),
                format!("{}: {}", v.class.name(), v.detail),
            )),
        }
    }

    /// Checks one level: flag structure and the one-copy rule always;
    /// with `strict_values` — right for a level that observes every store
    /// (L1) — also flag/value agreement and round trips.
    pub fn check_level<S: CompressionScheme>(
        level: &CppLevel<S>,
        mem: &MainMemory,
        strict_values: bool,
        name: &'static str,
    ) -> Vec<Violation> {
        let words = level.words();
        let mut out = Vec::new();
        let mut push = |base: Addr, class: ViolationClass, detail: String| {
            out.push(Violation {
                level: name,
                line_base: base,
                class,
                detail,
            });
        };
        for (idx, base) in level.valid_lines() {
            let f = level.flags(idx);
            for rule in f.broken_rules(words) {
                push(base, ViolationClass::FlagStructure, rule);
            }
            let pair = level.pair_base(base);
            if f.aa != 0 && level.lookup_primary(pair).is_some() {
                push(
                    base,
                    ViolationClass::Pairing,
                    format!("one-copy violated: {pair:#x} is primary but also affiliated here"),
                );
            }
            if !strict_values {
                continue;
            }
            let comp = scheme_compress_mask::<S>(mem, base, words);
            if f.vcp & !comp != 0 {
                push(
                    base,
                    ViolationClass::ValueMismatch,
                    format!(
                        "VCP claims incompressible words (vcp={:#x} comp={comp:#x})",
                        f.vcp
                    ),
                );
            }
            let pair_comp = scheme_compress_mask::<S>(mem, pair, words);
            if f.aa & !pair_comp != 0 {
                push(
                    base,
                    ViolationClass::ValueMismatch,
                    format!(
                        "AA holds incompressible pair words (aa={:#x} comp={pair_comp:#x})",
                        f.aa
                    ),
                );
            }
            // Every word a compressed half-slot claims must decode back to
            // its architectural value.
            for (what, line, held) in [("VCP", base, f.vcp), ("AA", pair, f.aa)] {
                for i in 0..words {
                    let a = line + i * 4;
                    if held & (1 << i) != 0 && !roundtrips::<S>(mem, a, line) {
                        push(
                            base,
                            ViolationClass::RoundTrip,
                            format!("{what} word {i} at {a:#x} fails compress round-trip"),
                        );
                    }
                }
            }
        }
        out
    }
}

/// Whether the word at `addr` in the line at `base` survives `S`'s
/// encode → decode round trip. An incompressible word passes: holding it
/// compressed is a value mismatch, reported as such.
fn roundtrips<S: CompressionScheme>(mem: &MainMemory, addr: Addr, base: Addr) -> bool {
    let (value, base_val) = (mem.read(addr), mem.read(base));
    match S::encode(value, addr, base, base_val) {
        Some(half) => S::decode(half, addr, base, base_val) == value,
        None => true,
    }
}

/// SplitMix64 — a tiny deterministic generator so injection sites are
/// reproducible from a seed without pulling `rand` into the library.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index into `0..n` (`n > 0`).
    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Deterministic seeded fault injector, for a hierarchy under any
/// compression scheme.
///
/// Each injection targets the L1 level (the strictly-checked one, so every
/// class is detectable by [`InvariantChecker`]) and picks its site
/// pseudo-randomly from the candidates the current cache state offers,
/// judging compressibility by the hierarchy's scheme. The same seed over
/// the same hierarchy state always corrupts the same site.
pub struct FaultInjector {
    rng: SplitMix64,
}

impl FaultInjector {
    /// A new injector with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: SplitMix64(seed),
        }
    }

    /// Injects one fault of `kind` into `h`'s L1 (a pairing fault falls
    /// back to L2), returning what was done.
    ///
    /// Fails with [`SimError::Invariant`] when the current cache state
    /// offers no site for the class (e.g. a pairing violation needs a
    /// resident primary/affiliated pair) — run a workload first.
    pub fn inject<S: CompressionScheme>(
        &mut self,
        h: &mut CppHierarchy<S>,
        kind: FaultKind,
    ) -> SimResult<FaultReport> {
        match kind {
            FaultKind::PaFlag => self.inject_pa(h),
            FaultKind::VcpFlag => self.inject_vcp(h),
            FaultKind::AaFlag => self.inject_aa(h),
            FaultKind::BitFlip => self.inject_bitflip(h),
            FaultKind::Pairing => self.inject_pairing(h),
        }
    }

    fn no_site(kind: FaultKind) -> SimError {
        SimError::invariant(
            "fault injection",
            format!("no site for fault class {:?} — run a workload first", kind),
        )
    }

    /// Picks one element of a non-empty candidate list.
    fn choose<T: Copy>(&mut self, candidates: &[T]) -> Option<T> {
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[self.rng.pick(candidates.len())])
        }
    }

    /// Clear a `PA` bit that has `VCP` set, breaking `VCP ⊆ PA`; if no line
    /// holds a compressed word, set a `PA` bit beyond the line's words.
    fn inject_pa<S: CompressionScheme>(
        &mut self,
        h: &mut CppHierarchy<S>,
    ) -> SimResult<FaultReport> {
        let words = h.l1.words();
        let mut with_vcp = Vec::new();
        let mut any = Vec::new();
        for (idx, base) in h.l1.valid_lines() {
            let f = h.l1.flags(idx);
            any.push((idx, base));
            for i in 0..words {
                if f.vcp & (1 << i) != 0 {
                    with_vcp.push((idx, base, i));
                }
            }
        }
        if let Some((idx, base, i)) = self.choose(&with_vcp) {
            h.l1.flags_mut(idx).pa &= !(1 << i);
            return Ok(FaultReport {
                kind: FaultKind::PaFlag,
                level: "L1",
                line_base: base,
                word: i,
                description: format!("cleared PA bit {i} under a set VCP bit"),
            });
        }
        let (idx, base) = self
            .choose(&any)
            .ok_or_else(|| Self::no_site(FaultKind::PaFlag))?;
        h.l1.flags_mut(idx).pa |= 1 << words;
        Ok(FaultReport {
            kind: FaultKind::PaFlag,
            level: "L1",
            line_base: base,
            word: words,
            description: format!("set PA bit {words} beyond the {words}-word line"),
        })
    }

    /// Set a `VCP` bit over an absent word (`VCP ⊄ PA`), or over a present
    /// but incompressible word (flag/value mismatch), or beyond the line.
    fn inject_vcp<S: CompressionScheme>(
        &mut self,
        h: &mut CppHierarchy<S>,
    ) -> SimResult<FaultReport> {
        let words = h.l1.words();
        let mut absent = Vec::new();
        let mut incompressible = Vec::new();
        let mut any = Vec::new();
        for (idx, base) in h.l1.valid_lines() {
            let f = h.l1.flags(idx);
            let comp = scheme_compress_mask::<S>(&h.mem, base, words);
            any.push((idx, base));
            for i in 0..words {
                let bit = 1u32 << i;
                if f.pa & bit == 0 {
                    absent.push((idx, base, i));
                } else if f.vcp & bit == 0 && comp & bit == 0 {
                    incompressible.push((idx, base, i));
                }
            }
        }
        if let Some((idx, base, i)) = self.choose(&absent) {
            h.l1.flags_mut(idx).vcp |= 1 << i;
            return Ok(FaultReport {
                kind: FaultKind::VcpFlag,
                level: "L1",
                line_base: base,
                word: i,
                description: format!("set VCP bit {i} over an absent primary word"),
            });
        }
        if let Some((idx, base, i)) = self.choose(&incompressible) {
            h.l1.flags_mut(idx).vcp |= 1 << i;
            return Ok(FaultReport {
                kind: FaultKind::VcpFlag,
                level: "L1",
                line_base: base,
                word: i,
                description: format!("set VCP bit {i} over an incompressible word"),
            });
        }
        let (idx, base) = self
            .choose(&any)
            .ok_or_else(|| Self::no_site(FaultKind::VcpFlag))?;
        h.l1.flags_mut(idx).vcp |= 1 << words;
        Ok(FaultReport {
            kind: FaultKind::VcpFlag,
            level: "L1",
            line_base: base,
            word: words,
            description: format!("set VCP bit {words} beyond the {words}-word line"),
        })
    }

    /// Set an `AA` bit in a slot with no free half (occupied by an
    /// uncompressed primary word), or beyond the line.
    fn inject_aa<S: CompressionScheme>(
        &mut self,
        h: &mut CppHierarchy<S>,
    ) -> SimResult<FaultReport> {
        let words = h.l1.words();
        let mut no_slot = Vec::new();
        let mut any = Vec::new();
        for (idx, base) in h.l1.valid_lines() {
            let f = h.l1.flags(idx);
            any.push((idx, base));
            for i in 0..words {
                let bit = 1u32 << i;
                if f.pa & bit != 0 && f.vcp & bit == 0 && f.aa & bit == 0 {
                    no_slot.push((idx, base, i));
                }
            }
        }
        if let Some((idx, base, i)) = self.choose(&no_slot) {
            h.l1.flags_mut(idx).aa |= 1 << i;
            return Ok(FaultReport {
                kind: FaultKind::AaFlag,
                level: "L1",
                line_base: base,
                word: i,
                description: format!("set AA bit {i} in a slot with no free half"),
            });
        }
        let (idx, base) = self
            .choose(&any)
            .ok_or_else(|| Self::no_site(FaultKind::AaFlag))?;
        h.l1.flags_mut(idx).aa |= 1 << words;
        Ok(FaultReport {
            kind: FaultKind::AaFlag,
            level: "L1",
            line_base: base,
            word: words,
            description: format!("set AA bit {words} beyond the {words}-word line"),
        })
    }

    /// Flip a high bit of a word some line holds in compressed form, so the
    /// stored 16-bit encoding no longer represents the architectural value.
    fn inject_bitflip<S: CompressionScheme>(
        &mut self,
        h: &mut CppHierarchy<S>,
    ) -> SimResult<FaultReport> {
        let words = h.l1.words();
        let mut compressed = Vec::new();
        for (idx, base) in h.l1.valid_lines() {
            let f = h.l1.flags(idx);
            for i in 0..words {
                let bit = 1u32 << i;
                if f.vcp & bit != 0 {
                    compressed.push((base, i));
                }
                if f.aa & bit != 0 {
                    compressed.push((h.l1.pair_base(base), i));
                }
            }
        }
        // Deterministically rotate the candidate list, then take the first
        // word where some high-bit flip lands outside the compressible set.
        if !compressed.is_empty() {
            let start = self.rng.pick(compressed.len());
            for k in 0..compressed.len() {
                let (line, word) = compressed[(start + k) % compressed.len()];
                let addr = line + word * 4;
                let old = h.mem.read(addr);
                for b in [30u32, 29, 28, 26, 24, 22, 20, 18] {
                    let new = old ^ (1 << b);
                    // Flipping the base word moves the base with it.
                    let base_val = if word == 0 { new } else { h.mem.read(line) };
                    if !S::word_compressible(new, addr, line, base_val) {
                        h.store_word(addr, new);
                        return Ok(FaultReport {
                            kind: FaultKind::BitFlip,
                            level: "L1",
                            line_base: line,
                            word,
                            description: format!(
                                "flipped bit {b} of compressed word at {addr:#x} ({old:#x} → {new:#x})"
                            ),
                        });
                    }
                }
            }
        }
        Err(Self::no_site(FaultKind::BitFlip))
    }

    /// Mark a line as holding its pair's words while the pair is also
    /// primary-resident — a one-copy violation. L1 is tried first; a run
    /// that leaves no such pair in L1 (a pointer chase, say) takes its site
    /// from L2, which the checker holds to the same pairing rule.
    fn inject_pairing<S: CompressionScheme>(
        &mut self,
        h: &mut CppHierarchy<S>,
    ) -> SimResult<FaultReport> {
        for (level, name) in [(&mut h.l1, "L1"), (&mut h.l2, "L2")] {
            let words = level.words();
            let mut candidates = Vec::new();
            for (idx, base) in level.valid_lines() {
                let pair = level.pair_base(base);
                if level.lookup_primary(pair).is_some() {
                    candidates.push((idx, base, pair));
                }
            }
            let Some((idx, base, pair)) = self.choose(&candidates) else {
                continue;
            };
            // Prefer a structurally-legal slot holding a compressible pair
            // word, so the *pairing* rule is the only invariant broken.
            let f = level.flags(idx);
            let capacity = f.affiliated_capacity(words) & !f.aa;
            let pair_comp = scheme_compress_mask::<S>(&h.mem, pair, words);
            let mask = if capacity & pair_comp != 0 {
                capacity & pair_comp
            } else if capacity != 0 {
                capacity
            } else {
                1
            };
            let word = mask.trailing_zeros();
            level.flags_mut(idx).aa |= 1 << word;
            return Ok(FaultReport {
                kind: FaultKind::Pairing,
                level: name,
                line_base: base,
                word,
                description: format!(
                    "set AA bit {word} for pair {pair:#x} which is also primary-resident"
                ),
            });
        }
        Err(Self::no_site(FaultKind::Pairing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CppFlags;
    use ccp_cache::geometry::CacheGeometry;
    use ccp_cache::CacheSim;
    use ccp_schemes::{BdiScheme, CppScheme};

    /// Populates a hierarchy with neighbouring compressible/incompressible
    /// lines so every fault class has a site.
    fn populated() -> CppHierarchy {
        let mut c = CppHierarchy::paper();
        for i in 0..64u32 {
            c.mem_mut().write(0x1_0000 + i * 4, i % 7); // small values
        }
        for i in 0..32u32 {
            c.mem_mut()
                .write(0x2_0000 + i * 4, 0xDEAD_0000 | (i * 0x11)); // big
        }
        for i in 0..(64 * 16) {
            c.read(0x1_0000 + (i % 64) * 4);
        }
        // Two incompressible sibling lines: no affiliated copy can hold
        // their words, so both stay primary-resident — the state the
        // pairing fault class needs (their L1 sets don't clash with the
        // compressed lines kept above: 0x1_0080/0x1_00c0 survive).
        for i in 0..32u32 {
            c.read(0x2_0000 + i * 4);
        }
        c
    }

    #[test]
    fn clean_hierarchy_has_no_violations() {
        let c = populated();
        let v = InvariantChecker::check(&c);
        assert!(v.is_empty(), "false positives: {v:?}");
        assert!(InvariantChecker::assert_clean(&c).is_ok());
    }

    #[test]
    fn every_fault_class_is_detected() {
        for kind in FaultKind::ALL {
            let mut c = populated();
            let mut inj = FaultInjector::new(42);
            let report = inj.inject(&mut c, kind).expect("site available");
            let violations = InvariantChecker::check(&c);
            assert!(
                !violations.is_empty(),
                "{kind:?} went undetected ({report})"
            );
            assert!(
                InvariantChecker::assert_clean(&c).is_err(),
                "{kind:?}: assert_clean missed it"
            );
        }
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        for kind in FaultKind::ALL {
            let mut c1 = populated();
            let mut c2 = populated();
            let r1 = FaultInjector::new(7).inject(&mut c1, kind).unwrap();
            let r2 = FaultInjector::new(7).inject(&mut c2, kind).unwrap();
            assert_eq!(r1.line_base, r2.line_base, "{kind:?}");
            assert_eq!(r1.word, r2.word, "{kind:?}");
            assert_eq!(r1.description, r2.description, "{kind:?}");
        }
    }

    #[test]
    fn empty_hierarchy_offers_no_sites() {
        let mut c = CppHierarchy::paper();
        let mut inj = FaultInjector::new(1);
        for kind in FaultKind::ALL {
            assert!(inj.inject(&mut c, kind).is_err(), "{kind:?}");
        }
    }

    #[test]
    fn fault_kind_names_roundtrip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::by_name(kind.name()).unwrap(), kind);
        }
        assert!(FaultKind::by_name("nonesuch").is_err());
    }

    #[test]
    fn pairing_injection_reports_pairing_class() {
        let mut c = populated();
        FaultInjector::new(3)
            .inject(&mut c, FaultKind::Pairing)
            .unwrap();
        let v = InvariantChecker::check(&c);
        assert!(
            v.iter().any(|v| v.class == ViolationClass::Pairing),
            "{v:?}"
        );
    }

    #[test]
    fn invariant_checker_catches_one_copy_violation() {
        let mut l: CppLevel = CppLevel::new(CacheGeometry::new(8 * 1024, 1, 64));
        let mem = MainMemory::new();
        let mut f = CppFlags::full_primary(16, 0xFFFF, 0);
        f.aa = 1; // claims pair 0x2040 affiliated
        l.install_primary(0x2000, f, false);
        // Force 0x2040 primary WITHOUT the install-time cleanup by abusing
        // flags_mut to re-add aa afterwards.
        l.install_primary(0x2040, CppFlags::full_primary(16, 0, 0), false);
        let idx = l.lookup_primary(0x2000).unwrap();
        l.flags_mut(idx).aa = 1;
        let v = InvariantChecker::check_level(&l, &mem, true, "L1");
        assert!(
            v.iter().any(|v| v.class == ViolationClass::Pairing),
            "{v:?}"
        );
    }

    #[test]
    fn checker_judges_values_by_the_hierarchy_scheme() {
        // 0x0400_0000 is a BDI immediate nowhere, but a delta off a base
        // word of 0x0400_0001; under CPP it is incompressible everywhere.
        let mut c = CppHierarchy::<BdiScheme>::paper_scheme();
        c.mem_mut().write(0x1000, 0x0400_0001);
        for i in 1..16u32 {
            c.mem_mut().write(0x1000 + i * 4, 0x0400_0000);
        }
        c.read(0x1000);
        assert!(InvariantChecker::check(&c).is_empty());
        let idx = c.l1.lookup_primary(0x1000).unwrap();
        assert_eq!(c.l1.flags(idx).vcp & 0b10, 0b10, "word 1 is a BDI delta");
        // Change the base so word 1's delta no longer fits.
        c.mem_mut().write(0x1000, 0x7000_0000);
        let v = InvariantChecker::check(&c);
        assert!(
            v.iter().any(|v| v.class == ViolationClass::ValueMismatch),
            "{v:?}"
        );
    }

    #[test]
    fn bitflip_reaches_the_next_classification() {
        let mut c = populated();
        let r = FaultInjector::new(9)
            .inject(&mut c, FaultKind::BitFlip)
            .unwrap();
        let mem = c.mem().clone();
        let l1_base = r.line_base;
        let l2_base = c.l2_level().geometry().line_base(l1_base);
        let l1 = c.l1_level_mut().line_mask(&mem, l1_base);
        assert_eq!(l1, scheme_compress_mask::<CppScheme>(&mem, l1_base, 16));
        assert_eq!(l1 >> r.word & 1, 0, "{r}");
        let l2 = c.l2_level_mut().line_mask(&mem, l2_base);
        assert_eq!(l2, scheme_compress_mask::<CppScheme>(&mem, l2_base, 32));
    }

    #[test]
    fn bitflip_injection_reports_value_mismatch() {
        let mut c = populated();
        FaultInjector::new(9)
            .inject(&mut c, FaultKind::BitFlip)
            .unwrap();
        let v = InvariantChecker::check(&c);
        assert!(
            v.iter().any(|v| v.class == ViolationClass::ValueMismatch),
            "{v:?}"
        );
    }
}
