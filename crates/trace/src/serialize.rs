//! Trace serialization: a compact little-endian binary container so
//! generated workloads can be saved once and replayed across machines and
//! simulator versions (the role SimpleScalar's EIO trace files played).
//!
//! Layout:
//!
//! ```text
//! magic    "CCPT"            4 bytes
//! version  u32               format version (1)
//! name     u32 len + bytes   benchmark name (UTF-8)
//! pages    u32 count, then per page: u32 page number + 1024 × u32 words
//! insts    u64 count, then per instruction a fixed 21-byte record:
//!          tag u8 | payload u64 (op-specific) | pc u32 | dep1 u32 | dep2 u32
//! ```
//!
//! A dependence on disk is absolute, the producer's index + 1 with 0 for
//! none (an [`H`] handle), while an [`Inst`] holds the distance back to
//! its producer. Decoding converts each dependence and drops one that
//! reaches [`DEP_WINDOW`](crate::DEP_WINDOW) or more instructions back,
//! which no timing model sees; encoding converts back, so such a
//! dependence is written again as 0. A dependence on the instruction
//! itself or a later one is refused.

use crate::{Inst, Op, Trace, H};
use ccp_mem::MainMemory;
use std::io::{self, Read, Write};

/// Format magic.
pub const MAGIC: [u8; 4] = *b"CCPT";

/// Current format version.
pub const VERSION: u32 = 1;

const TAG_IALU: u8 = 0;
const TAG_FALU: u8 = 1;
const TAG_LOAD: u8 = 2;
const TAG_STORE: u8 = 3;
const TAG_BRANCH: u8 = 4;

fn w32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn r32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Writes `trace` to `w` in the container format.
pub fn write_trace<W: Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w32(w, VERSION)?;
    let name = trace.name.as_bytes();
    w32(w, name.len() as u32)?;
    w.write_all(name)?;

    let pages = trace.initial_mem.page_numbers();
    w32(w, pages.len() as u32)?;
    for pg in pages {
        w32(w, pg)?;
        #[expect(
            clippy::expect_used,
            reason = "page_numbers() lists only resident pages"
        )]
        let words = trace.initial_mem.page_words(pg).expect("resident");
        for &word in words.iter() {
            w32(w, word)?;
        }
    }

    w64(w, trace.insts.len() as u64)?;
    for (n, inst) in (0u32..).zip(&trace.insts) {
        let (tag, payload): (u8, u64) = match inst.op() {
            Op::IAlu { lat } => (TAG_IALU, u64::from(lat)),
            Op::FAlu { lat } => (TAG_FALU, u64::from(lat)),
            Op::Load { addr } => (TAG_LOAD, u64::from(addr)),
            Op::Store { addr, value } => (TAG_STORE, u64::from(addr) | (u64::from(value) << 32)),
            Op::Branch { taken } => (TAG_BRANCH, u64::from(taken)),
        };
        w.write_all(&[tag])?;
        w64(w, payload)?;
        w32(w, inst.pc)?;
        // A distance reaching before the first instruction (which
        // `Trace::validate` rejects) is written as a forward dependence,
        // which `read_trace` refuses.
        for d in inst.deps() {
            let handle = match d {
                0 => 0,
                _ => n.checked_sub(d).map_or(u32::MAX, |p| p + 1),
            };
            w32(w, handle)?;
        }
    }
    Ok(())
}

/// Reads a trace previously written by [`write_trace`].
pub fn read_trace<R: Read>(r: &mut R) -> io::Result<Trace> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(bad("not a CCPT trace (bad magic)"));
    }
    let version = r32(r)?;
    if version != VERSION {
        return Err(bad(&format!("unsupported trace version {version}")));
    }
    let name_len = r32(r)? as usize;
    if name_len > 4096 {
        return Err(bad("implausible name length"));
    }
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|_| bad("name is not UTF-8"))?;

    let mut mem = MainMemory::new();
    let page_count = r32(r)?;
    for _ in 0..page_count {
        let pg = r32(r)?;
        let mut words = [0u32; 1024];
        for word in words.iter_mut() {
            *word = r32(r)?;
        }
        mem.write_page(pg, words);
    }

    let n = r64(r)? as usize;
    let mut insts = Vec::with_capacity(n.min(1 << 24));
    for i in 0..n as u64 {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let payload = r64(r)?;
        let pc = r32(r)?;
        let dep1 = r32(r)?;
        let dep2 = r32(r)?;
        let op = match tag[0] {
            TAG_IALU => Op::IAlu { lat: payload as u8 },
            TAG_FALU => Op::FAlu { lat: payload as u8 },
            TAG_LOAD => Op::Load {
                addr: payload as u32,
            },
            TAG_STORE => Op::Store {
                addr: payload as u32,
                value: (payload >> 32) as u32,
            },
            TAG_BRANCH => Op::Branch {
                taken: payload != 0,
            },
            t => return Err(bad(&format!("unknown op tag {t}"))),
        };
        for d in [dep1, dep2] {
            if u64::from(d) > i {
                return Err(bad(&format!(
                    "inst {i}: dependence {d} is not strictly earlier"
                )));
            }
        }
        let deps = [H(dep1).back_from(i), H(dep2).back_from(i)];
        insts.push(Inst::new(op, pc, deps));
    }
    let trace = Trace {
        name,
        initial_mem: mem,
        insts,
    };
    trace.validate().map_err(|e| bad(&e.to_string()))?;
    Ok(trace)
}

impl Trace {
    /// Serializes the trace to a byte vector.
    ///
    /// # Examples
    ///
    /// ```
    /// use ccp_trace::{benchmark_by_name, Trace};
    ///
    /// let trace = benchmark_by_name("olden.health").unwrap().trace(1000, 1);
    /// let bytes = trace.to_bytes();
    /// let back = Trace::from_bytes(&bytes).unwrap();
    /// assert_eq!(back.len(), trace.len());
    /// assert_eq!(back.name, "olden.health");
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        #[expect(clippy::expect_used, reason = "writing to a Vec cannot fail")]
        write_trace(self, &mut out).expect("writing to Vec cannot fail");
        out
    }

    /// Deserializes a trace from bytes.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Trace> {
        read_trace(&mut io::Cursor::new(bytes))
    }

    /// Saves the trace to `path`.
    pub fn save(&self, path: &std::path::Path) -> io::Result<()> {
        #[expect(
            clippy::disallowed_methods,
            reason = "`.ccpt` binary container, not a JSON artifact; readers validate the magic header"
        )]
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        write_trace(self, &mut f)
    }

    /// Loads a trace from `path`.
    pub fn load(path: &std::path::Path) -> io::Result<Trace> {
        let mut f = io::BufReader::new(std::fs::File::open(path)?);
        read_trace(&mut f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ProgramCtx, H};
    use crate::profile_source_values;

    fn sample_trace() -> Trace {
        let mut ctx = ProgramCtx::new("serialize-sample");
        ctx.init_write(0x1000, 0xABCD_1234);
        ctx.init_write(0x9_F000, 77);
        let (a, _) = ctx.load(0x1000, H::NONE);
        let b = ctx.mult(a, H::NONE);
        ctx.store(0x1004, 0xFFFF_0001, a, b);
        ctx.fdiv(b, a);
        ctx.branch(true, b);
        ctx.branch(false, H::NONE);
        ctx.finish()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        let t2 = Trace::from_bytes(&bytes).expect("well-formed");
        assert_eq!(t2.name, t.name);
        assert_eq!(t2.len(), t.len());
        assert_eq!(t2.insts, t.insts);
        assert_eq!(t2.initial_mem.read(0x1000), 0xABCD_1234);
        assert_eq!(t2.initial_mem.read(0x9_F000), 77);
        assert_eq!(t2.initial_mem.read(0x2000), 0);
    }

    #[test]
    fn roundtrip_of_generated_benchmark() {
        let b = crate::benchmark_by_name("130.li").unwrap();
        let t = b.trace(5_000, 9);
        let t2 = Trace::from_bytes(&t.to_bytes()).expect("roundtrip");
        assert_eq!(t2.len(), t.len());
        // Same value profile ⇒ same memory image and mem-op stream.
        let mut p1 = Vec::new();
        let mut p2 = Vec::new();
        profile_source_values(&t, |v, a| p1.push((v, a)));
        profile_source_values(&t2, |v, a| p2.push((v, a)));
        assert_eq!(p1, p2);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_trace().to_bytes();
        bytes[0] = b'X';
        assert!(Trace::from_bytes(&bytes).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample_trace().to_bytes();
        bytes[4] = 99;
        assert!(Trace::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = sample_trace().to_bytes();
        for cut in [3, 8, 20, bytes.len() - 1] {
            assert!(
                Trace::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    /// Bytes before the first instruction record: magic, version, name,
    /// the page count and pages, and the instruction count.
    fn header_len(t: &Trace) -> usize {
        4 + 4 + 4 + t.name.len() + 4 + t.initial_mem.page_numbers().len() * (4 + 4096) + 8
    }

    #[test]
    fn encoded_length_is_header_pages_and_21_bytes_per_instruction() {
        let t = sample_trace();
        assert_eq!(t.initial_mem.page_numbers().len(), 2);
        assert_eq!(t.to_bytes().len(), header_len(&t) + 21 * t.len());
    }

    #[test]
    fn corrupt_dependence_rejected_by_validation() {
        let bytes = sample_trace().to_bytes();
        // Instruction 2's dep1 field, 13 bytes into its 21-byte record,
        // made a dependence on itself (handle 3) and then on a later
        // instruction.
        let at = header_len(&sample_trace()) + 2 * 21 + 13;
        assert_eq!(&bytes[at..at + 4], &1u32.to_le_bytes(), "the store's dep1");
        for handle in [3u32, 999] {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&handle.to_le_bytes());
            let err = Trace::from_bytes(&bad).expect_err("must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("inst 2:"), "{err}");
        }
    }

    #[test]
    fn a_dependence_before_the_first_instruction_is_written_as_refused() {
        let mut t = sample_trace();
        t.insts[0] = Inst::new(Op::IAlu { lat: 1 }, t.insts[0].pc, [1, 0]);
        assert!(t.validate().is_err());
        let err = Trace::from_bytes(&t.to_bytes()).expect_err("refused");
        assert!(err.to_string().contains("inst 0:"), "{err}");
    }

    #[test]
    fn file_save_load() {
        let dir = std::env::temp_dir().join("ccp-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.ccpt");
        let t = sample_trace();
        t.save(&path).unwrap();
        let t2 = Trace::load(&path).unwrap();
        assert_eq!(t2.len(), t.len());
        std::fs::remove_file(&path).ok();
    }
}
