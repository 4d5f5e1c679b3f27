//! The result store's disk tier: one verified `.ccpz` file per completed
//! cell.
//!
//! A cell of `repro sweep --store DIR` and a job of `ccp-served --store
//! DIR` are the same computation ([`crate::job`]), so both persist through
//! this one tier and each answers the other: an entry is keyed by the
//! FNV-1a [`fnv1a`] of its [`JobSpec::canonical`](crate::JobSpec::canonical)
//! text, which names every input that determines the result.
//!
//! One file per key — `{key:016x}.ccpz` — written atomically (temp file +
//! `rename`, via [`crate::json::write_atomic_bytes`]) so a crash mid-put
//! can never leave a torn entry. Every load re-verifies the entry: magic,
//! version, the key both as stored *and* recomputed from the stored
//! canonical text, the payload checksum, and the exact payload length;
//! [`DiskTier::get_stats`] also requires every stats counter. Anything
//! that fails verification is treated as a miss (and counted), never
//! served — a corrupt or colliding entry costs a recompute, not a wrong
//! answer.

use crate::json::{counters_from_json, counters_to_json, write_atomic_bytes, Json};
use ccp_errors::{SimError, SimResult};
use ccp_pipeline::RunStats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic prefix of every entry file.
pub const MAGIC: [u8; 4] = *b"CCPZ";

/// Entry format version. Version 1 entries (which could hold an
/// LZ-compressed payload) fail verification and are quarantined.
pub const VERSION: u8 = 2;

/// Fixed-size portion of an entry before the canonical text and payload.
const HEADER_LEN: usize = 4 + 1 + 3 + 8 + 8 + 8 + 4;

/// FNV-1a over arbitrary bytes: the store's content address (over
/// canonical job text), its payload checksum, and the workspace's stats
/// fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Serializes one entry: header, canonical text, payload. Pure so it can
/// be tested against [`decode_entry`].
pub fn encode_entry(key: u64, canonical: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + canonical.len() + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(&(canonical.len() as u32).to_le_bytes());
    out.extend_from_slice(canonical.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes and fully verifies one entry against the key and canonical
/// text the caller asked for. Returns the payload.
pub fn decode_entry(bytes: &[u8], key: u64, canonical: &str) -> SimResult<Vec<u8>> {
    let bad = |detail: String| SimError::corrupt("store entry", detail);
    if bytes.len() < HEADER_LEN {
        return Err(bad(format!(
            "{} bytes is shorter than the header",
            bytes.len()
        )));
    }
    if bytes[0..4] != MAGIC {
        return Err(bad("bad magic".into()));
    }
    if bytes[4] != VERSION {
        return Err(bad(format!("unsupported version {}", bytes[4])));
    }
    let stored_key = u64::from_le_bytes(bytes[8..16].try_into().unwrap_or_default());
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap_or_default()) as usize;
    let checksum = u64::from_le_bytes(bytes[24..32].try_into().unwrap_or_default());
    let canon_len = u32::from_le_bytes(bytes[32..36].try_into().unwrap_or_default()) as usize;
    let canon_end = HEADER_LEN
        .checked_add(canon_len)
        .ok_or_else(|| bad("canonical length overflow".into()))?;
    if canon_end > bytes.len() {
        return Err(bad("canonical text truncated".into()));
    }
    let stored_canon = std::str::from_utf8(&bytes[HEADER_LEN..canon_end])
        .map_err(|_| bad("canonical text is not utf-8".into()))?;
    // The key check proper: stored key, recomputed key, and the caller's
    // expectation must all agree, and the canonical text must match the
    // request exactly (a hash collision is detected here, not served).
    if stored_key != key {
        return Err(bad(format!(
            "key {stored_key:016x} != requested {key:016x}"
        )));
    }
    if fnv1a(stored_canon.as_bytes()) != stored_key {
        return Err(bad("stored key does not hash from stored canonical".into()));
    }
    if stored_canon != canonical {
        return Err(bad(format!(
            "canonical collision: stored {stored_canon:?}, requested {canonical:?}"
        )));
    }
    let payload = &bytes[canon_end..];
    if payload.len() != payload_len {
        return Err(bad(format!(
            "payload is {} bytes, header says {payload_len}",
            payload.len()
        )));
    }
    if fnv1a(payload) != checksum {
        return Err(bad("payload checksum mismatch".into()));
    }
    Ok(payload.to_vec())
}

/// Monotonic counters describing disk-tier traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounters {
    /// Entries served (fully verified) from disk.
    pub hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Entries that failed verification or I/O on load (each also counts
    /// as a miss).
    pub errors: u64,
    /// Entries that failed verification and were renamed aside to
    /// `*.ccpz.quarantine` (a subset of `errors`). Quarantined files are
    /// kept for forensics — a corrupt entry's disappearance is never
    /// silent — while the live path is freed so the next put heals it.
    pub quarantined: u64,
}

/// The on-disk content-addressed tier. All methods take `&self` — the
/// counters are atomics and the filesystem provides put/get atomicity —
/// so sweep and served workers can share one instance without a lock.
#[derive(Debug)]
pub struct DiskTier {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    errors: AtomicU64,
    quarantined: AtomicU64,
}

impl DiskTier {
    /// Opens (creating if needed) the store directory at `root`.
    pub fn open(root: impl Into<PathBuf>) -> SimResult<DiskTier> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| SimError::io(root.display().to_string(), &e))?;
        Ok(DiskTier {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The directory this tier stores entries in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The entry file path for `key`.
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.root.join(format!("{key:016x}.ccpz"))
    }

    /// Writes (or overwrites) the entry for `key` atomically.
    pub fn put(&self, key: u64, canonical: &str, payload: &[u8]) -> SimResult<()> {
        let entry = encode_entry(key, canonical, payload);
        write_atomic_bytes(&self.path_for(key), &entry)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The quarantine path a corrupt entry for `key` is renamed to.
    pub fn quarantine_path_for(&self, key: u64) -> PathBuf {
        self.root.join(format!("{key:016x}.ccpz.quarantine"))
    }

    /// Loads and verifies the entry for `key`. Absent, unreadable, or
    /// failed-verification entries all return `None` (the latter two also
    /// count as errors); a verification failure quarantines the bad file
    /// (renames it aside, counted in `quarantined`) so the next put heals
    /// the live path without the corruption vanishing untraceably.
    pub fn get(&self, key: u64, canonical: &str) -> Option<Vec<u8>> {
        self.load(key, canonical, Ok)
    }

    /// [`DiskTier::get`] with a payload decoder: an entry whose payload
    /// fails to decode is quarantined exactly like one that fails
    /// verification.
    fn load<T>(
        &self,
        key: u64,
        canonical: &str,
        decode: impl FnOnce(Vec<u8>) -> SimResult<T>,
    ) -> Option<T> {
        let path = self.path_for(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_entry(&bytes, key, canonical).and_then(decode) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            Err(_) => {
                // Quarantine, don't delete: rename preserves the bytes
                // for inspection (overwriting any previous quarantine of
                // the same key) and still frees the live path. Fall back
                // to removal only if the rename itself fails.
                if std::fs::rename(&path, self.quarantine_path_for(key)).is_ok() {
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                } else {
                    let _ = std::fs::remove_file(&path);
                }
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a result as its canonical stats JSON.
    pub fn put_stats(&self, key: u64, canonical: &str, stats: &RunStats) -> SimResult<()> {
        self.put(key, canonical, stats_to_json(stats).to_string().as_bytes())
    }

    /// Loads a result back, verifying the entry end to end. A payload
    /// that is not a complete stats document is quarantined.
    pub fn get_stats(&self, key: u64, canonical: &str) -> Option<RunStats> {
        self.load(key, canonical, |payload| {
            let text = String::from_utf8(payload)
                .map_err(|e| SimError::corrupt("store payload", e.to_string()))?;
            stats_from_json(&Json::parse(&text)?)
        })
    }

    /// Number of entry files currently on disk.
    pub fn entry_count(&self) -> u64 {
        std::fs::read_dir(&self.root)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".ccpz"))
                    .count() as u64
            })
            .unwrap_or(0)
    }

    /// Snapshot of the traffic counters.
    pub fn counters(&self) -> DiskCounters {
        DiskCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// Serializes full [`RunStats`] (every counter the report and figure
/// pipelines read) to JSON through the [`Counters`](ccp_mem::Counters)
/// codec.
pub fn stats_to_json(s: &RunStats) -> Json {
    counters_to_json(s)
}

/// Parses JSON produced by [`stats_to_json`] back to exact [`RunStats`].
pub fn stats_from_json(j: &Json) -> SimResult<RunStats> {
    counters_from_json(j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_cell_source_scheme;
    use ccp_cache::DesignKind;
    use ccp_mem::Counters;
    use ccp_schemes::SchemeKind;
    use ccp_trace::{benchmark_by_name, BenchSource};

    fn sample_stats() -> RunStats {
        let b = benchmark_by_name("health").unwrap();
        let src = BenchSource::new(b, 1_500, 3);
        run_cell_source_scheme(&src, DesignKind::Cpp, SchemeKind::Cpp, false)
    }

    /// `RunStats` with every counter set to a different value.
    fn distinct_stats() -> RunStats {
        let mut s = RunStats::default();
        let mut next = 0;
        s.visit_mut(&mut Vec::new(), &mut |_, v| {
            next += 1;
            *v = next;
        });
        s
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ccp-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn stats_roundtrip_is_exact() {
        for s in [sample_stats(), distinct_stats()] {
            let j = stats_to_json(&s);
            let back = stats_from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
            assert_eq!(format!("{s:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn missing_counter_error_names_its_path() {
        let s = distinct_stats();
        let l2_reads = format!("\"reads\":{},", s.hierarchy.l2.reads);
        let text = stats_to_json(&s).to_string().replacen(&l2_reads, "", 1);
        let e = stats_from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert_eq!(e.class(), "corrupt");
        assert!(e.to_string().contains("\"hierarchy.l2.reads\""), "{e}");
    }

    #[test]
    fn entry_roundtrips_and_key_checks() {
        let canonical = "workload=olden.health|design=CPP|budget=2000|seed=7";
        let key = fnv1a(canonical.as_bytes());
        let payload = b"{\"cycles\":42}".repeat(10);
        let entry = encode_entry(key, canonical, &payload);
        assert_eq!(entry.len(), HEADER_LEN + canonical.len() + payload.len());
        assert_eq!(decode_entry(&entry, key, canonical).unwrap(), payload);
        // Wrong key, wrong canonical, flipped bytes: all rejected.
        assert!(decode_entry(&entry, key ^ 1, canonical).is_err());
        assert!(decode_entry(&entry, key, "workload=other").is_err());
        for i in [0usize, 4, 9, 20, 30, entry.len() - 1] {
            let mut bad = entry.clone();
            bad[i] ^= 0xFF;
            assert!(decode_entry(&bad, key, canonical).is_err(), "byte {i}");
        }
        assert!(decode_entry(&entry[..HEADER_LEN - 1], key, canonical).is_err());
        assert!(decode_entry(&entry[..entry.len() - 1], key, canonical).is_err());
    }

    #[test]
    fn version_one_entries_quarantine_as_misses() {
        let dir = tmp_dir("v1");
        let tier = DiskTier::open(&dir).unwrap();
        let canonical = "workload=olden.health|design=BCP|budget=2000|seed=7";
        let key = fnv1a(canonical.as_bytes());
        let payload = stats_to_json(&distinct_stats()).to_string();
        // A well-formed entry in every field but its version byte: the
        // layout an older store wrote for a raw (uncompressed) payload.
        let mut entry = encode_entry(key, canonical, payload.as_bytes());
        entry[4] = 1;
        std::fs::write(tier.path_for(key), &entry).unwrap();
        assert!(tier.get_stats(key, canonical).is_none(), "never served");
        let c = tier.counters();
        assert_eq!((c.hits, c.misses, c.errors, c.quarantined), (0, 1, 1, 1));
        assert_eq!(std::fs::read(tier.quarantine_path_for(key)).unwrap(), entry);
        assert_eq!(tier.entry_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_tier_put_get_and_counters() {
        let dir = tmp_dir("putget");
        let tier = DiskTier::open(&dir).unwrap();
        let canonical = "workload=mst|design=BC|budget=2000|seed=7";
        let key = fnv1a(canonical.as_bytes());
        assert!(tier.get(key, canonical).is_none());
        tier.put(key, canonical, b"hello store hello store")
            .unwrap();
        assert_eq!(
            tier.get(key, canonical).as_deref(),
            Some(b"hello store hello store".as_slice())
        );
        assert_eq!(tier.entry_count(), 1);
        let c = tier.counters();
        assert_eq!((c.hits, c.misses, c.writes, c.errors), (1, 1, 1, 0));
        // No temp files linger after atomic writes.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entries_quarantine_as_misses() {
        let dir = tmp_dir("heal");
        let tier = DiskTier::open(&dir).unwrap();
        let canonical = "workload=mst|design=CPP|budget=1000|seed=1";
        let key = fnv1a(canonical.as_bytes());
        tier.put(key, canonical, b"payload payload payload")
            .unwrap();
        // Corrupt the file in place.
        let path = tier.path_for(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(tier.get(key, canonical).is_none(), "corrupt entry rejected");
        // The bad bytes move aside rather than disappearing: the live
        // path is free, the quarantine file holds the evidence, and the
        // counter makes the event observable in `stats`.
        assert!(!path.exists(), "live path freed");
        let qpath = tier.quarantine_path_for(key);
        assert!(qpath.exists(), "bad entry quarantined, not deleted");
        assert_eq!(std::fs::read(&qpath).unwrap(), bytes, "evidence intact");
        let c = tier.counters();
        assert_eq!((c.errors, c.misses, c.quarantined), (1, 1, 1));
        // Quarantined files never count as live entries.
        assert_eq!(tier.entry_count(), 0);
        // The next put heals the live path.
        tier.put(key, canonical, b"payload payload payload")
            .unwrap();
        assert!(tier.get(key, canonical).is_some());
        assert_eq!(tier.entry_count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_payload_missing_a_counter_is_quarantined() {
        let dir = tmp_dir("partial");
        let tier = DiskTier::open(&dir).unwrap();
        let canonical = "workload=olden.health|design=BCP|budget=2000|seed=7";
        let key = fnv1a(canonical.as_bytes());
        let full = stats_to_json(&distinct_stats()).to_string();
        let partial = full.replacen("\"victim_hits\":", "\"victim_hit\":", 1);
        assert_ne!(partial, full);
        let entry = encode_entry(key, canonical, partial.as_bytes());
        std::fs::write(tier.path_for(key), &entry).unwrap();
        assert!(tier.get_stats(key, canonical).is_none());
        let c = tier.counters();
        assert_eq!((c.hits, c.errors, c.misses, c.quarantined), (0, 1, 1, 1));
        assert!(tier.quarantine_path_for(key).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_roundtrip_through_disk() {
        let dir = tmp_dir("stats");
        let tier = DiskTier::open(&dir).unwrap();
        let canonical = "workload=olden.health|design=CPP|budget=2000|seed=7";
        let key = fnv1a(canonical.as_bytes());
        let stats = sample_stats();
        tier.put_stats(key, canonical, &stats).unwrap();
        let back = tier.get_stats(key, canonical).expect("stats load");
        assert_eq!(format!("{back:?}"), format!("{stats:?}"), "exact roundtrip");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv_matches_job_cache_key() {
        let spec = crate::JobSpec::new("health", "CPP");
        assert_eq!(fnv1a(spec.canonical().as_bytes()), spec.cache_key());
    }
}
