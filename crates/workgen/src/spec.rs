//! Workload specifications: the address × value × mix parameter space,
//! with a compact `key=value` text form so specs travel through CLIs and
//! sweep configs (`workgen:addr=zipf,small=0.6,footprint=65536`).

use ccp_errors::{SimError, SimResult};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the generator picks effective addresses within its data footprint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AddrModel {
    /// Word-by-word walk through the footprint, wrapping at the end.
    Sequential,
    /// Constant-stride walk (in words), wrapping at the end.
    Strided {
        /// Stride between consecutive accesses, in words (≥ 1).
        stride: u32,
    },
    /// Independent uniform-random words of the footprint.
    Uniform,
    /// Zipfian hot set: rank `r` is accessed with weight `1/(r+1)^skew`;
    /// ranks are scattered across the footprint so the skew is temporal,
    /// not spatial.
    Zipf {
        /// Zipf exponent (≥ 0; 0 degenerates to uniform).
        skew: f64,
    },
    /// Pointer chasing over a synthetic bump-allocated heap of 32-byte
    /// nodes linked in one random cycle (Sattolo's algorithm), the Olden
    /// access signature distilled.
    Chase {
        /// Number of heap nodes (≥ 2); the footprint is `nodes` × 32 B.
        nodes: u32,
    },
}

impl AddrModel {
    /// Short tag used in the text form (`seq`, `stride`, `uniform`,
    /// `zipf`, `chase`).
    pub fn tag(&self) -> &'static str {
        match self {
            AddrModel::Sequential => "seq",
            AddrModel::Strided { .. } => "stride",
            AddrModel::Uniform => "uniform",
            AddrModel::Zipf { .. } => "zipf",
            AddrModel::Chase { .. } => "chase",
        }
    }
}

/// What the generator stores (and pre-fills memory with): the knobs that
/// set the stream's compressibility profile under the paper's scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValueModel {
    /// Fraction of values drawn from `[-16384, 16383]` (the small-value
    /// rule's range).
    pub small_fraction: f64,
    /// Fraction of values that are pointers into the 32 KB chunk of their
    /// own storage address (the pointer rule).
    pub pointer_fraction: f64,
    /// Entropy of the incompressible remainder in `[0, 1]`: 0 repeats a
    /// single incompressible word, 1 draws from ~2²⁴ distinct ones.
    /// Irrelevant to the paper's scheme (incompressible is
    /// incompressible) but it shapes what frequent-value style extensions
    /// see.
    pub entropy: f64,
}

impl Default for ValueModel {
    fn default() -> Self {
        ValueModel {
            // Paper §2.1: on average ~59% of accessed values compress;
            // default near that split.
            small_fraction: 0.45,
            pointer_fraction: 0.15,
            entropy: 1.0,
        }
    }
}

/// Instruction interleave around the memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixModel {
    /// Fraction of instructions that touch memory.
    pub mem_fraction: f64,
    /// Fraction of memory operations that are stores.
    pub store_fraction: f64,
    /// Fraction of instructions that are conditional branches.
    pub branch_fraction: f64,
    /// Fraction of instructions that are FP operations.
    pub falu_fraction: f64,
}

impl Default for MixModel {
    fn default() -> Self {
        MixModel {
            // Centre of the benchmark suite's observed ranges.
            mem_fraction: 0.35,
            store_fraction: 0.30,
            branch_fraction: 0.10,
            falu_fraction: 0.05,
        }
    }
}

/// A complete generator specification. The seed and instruction budget are
/// *not* part of the spec — they are run parameters, so one spec can fan
/// out across seeds and lengths.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkgenSpec {
    /// Address-stream shape.
    pub addr: AddrModel,
    /// Value distribution.
    pub value: ValueModel,
    /// Instruction interleave.
    pub mix: MixModel,
    /// Data footprint in words (ignored by `chase`, whose footprint is
    /// `nodes` × 8 words).
    pub footprint_words: u32,
}

impl Default for WorkgenSpec {
    fn default() -> Self {
        WorkgenSpec {
            addr: AddrModel::Uniform,
            value: ValueModel::default(),
            mix: MixModel::default(),
            // 256 KB: larger than L1+L2 so the hierarchy actually works.
            footprint_words: 64 * 1024,
        }
    }
}

impl WorkgenSpec {
    /// Checks every parameter is in range; returns the first problem.
    pub fn validate(&self) -> SimResult<()> {
        let frac = |name: &str, v: f64| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(SimError::spec(format!("{name} must be in [0, 1], got {v}")))
            }
        };
        frac("small", self.value.small_fraction)?;
        frac("ptr", self.value.pointer_fraction)?;
        frac("entropy", self.value.entropy)?;
        frac("mem", self.mix.mem_fraction)?;
        frac("store", self.mix.store_fraction)?;
        frac("branch", self.mix.branch_fraction)?;
        frac("falu", self.mix.falu_fraction)?;
        if self.value.small_fraction + self.value.pointer_fraction > 1.0 + 1e-12 {
            return Err(SimError::spec(format!(
                "small + ptr must not exceed 1, got {}",
                self.value.small_fraction + self.value.pointer_fraction
            )));
        }
        let ctl = self.mix.mem_fraction + self.mix.branch_fraction + self.mix.falu_fraction;
        if ctl > 1.0 + 1e-12 {
            return Err(SimError::spec(format!(
                "mem + branch + falu must not exceed 1, got {ctl}"
            )));
        }
        if self.footprint_words == 0 {
            return Err(SimError::spec("footprint must be at least 1 word"));
        }
        if self.footprint_words > (1 << 26) {
            return Err(SimError::spec(
                "footprint above 2^26 words (256 MB) is unsupported",
            ));
        }
        match self.addr {
            AddrModel::Strided { stride: 0 } => {
                Err(SimError::spec("stride must be at least 1 word"))
            }
            AddrModel::Zipf { skew } if !(0.0..=8.0).contains(&skew) => Err(SimError::spec(
                format!("skew must be in [0, 8], got {skew}"),
            )),
            AddrModel::Chase { nodes } if nodes < 2 => {
                Err(SimError::spec("chase needs at least 2 nodes"))
            }
            AddrModel::Chase { nodes } if nodes > (1 << 23) => Err(SimError::spec(
                "chase above 2^23 nodes (256 MB) is unsupported",
            )),
            _ => Ok(()),
        }
    }

    /// Parses the compact text form: comma-separated `key=value` pairs,
    /// with or without a leading `workgen:`. Unspecified keys keep their
    /// defaults. Keys: `addr` (seq|stride|uniform|zipf|chase), `stride`,
    /// `skew`, `nodes`, `small`, `ptr`, `entropy`, `mem`, `store`,
    /// `branch`, `falu`, `footprint`.
    pub fn parse(text: &str) -> SimResult<WorkgenSpec> {
        let body = text.strip_prefix("workgen:").unwrap_or(text).trim();
        let mut spec = WorkgenSpec::default();
        // Structural params remembered until the addr kind is known, so
        // key order doesn't matter.
        let mut stride: Option<u32> = None;
        let mut skew: Option<f64> = None;
        let mut nodes: Option<u32> = None;
        let mut addr_tag: Option<String> = None;
        for pair in body.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, val) = pair
                .split_once('=')
                .ok_or_else(|| SimError::spec(format!("expected key=value, got {pair:?}")))?;
            let (key, val) = (key.trim(), val.trim());
            let as_f64 = |v: &str| -> SimResult<f64> {
                v.parse().map_err(|e| SimError::spec(format!("{key}: {e}")))
            };
            let as_u32 = |v: &str| -> SimResult<u32> {
                v.parse().map_err(|e| SimError::spec(format!("{key}: {e}")))
            };
            match key {
                "addr" => addr_tag = Some(val.to_string()),
                "stride" => stride = Some(as_u32(val)?),
                "skew" => skew = Some(as_f64(val)?),
                "nodes" => nodes = Some(as_u32(val)?),
                "small" => spec.value.small_fraction = as_f64(val)?,
                "ptr" => spec.value.pointer_fraction = as_f64(val)?,
                "entropy" => spec.value.entropy = as_f64(val)?,
                "mem" => spec.mix.mem_fraction = as_f64(val)?,
                "store" => spec.mix.store_fraction = as_f64(val)?,
                "branch" => spec.mix.branch_fraction = as_f64(val)?,
                "falu" => spec.mix.falu_fraction = as_f64(val)?,
                "footprint" => spec.footprint_words = as_u32(val)?,
                _ => return Err(SimError::spec(format!("unknown workgen key {key:?}"))),
            }
        }
        spec.addr = match addr_tag.as_deref().unwrap_or("uniform") {
            "seq" | "sequential" => AddrModel::Sequential,
            "stride" | "strided" => AddrModel::Strided {
                stride: stride.unwrap_or(8),
            },
            "uniform" | "random" => AddrModel::Uniform,
            "zipf" => AddrModel::Zipf {
                skew: skew.unwrap_or(1.1),
            },
            "chase" | "ptrchase" => AddrModel::Chase {
                nodes: nodes.unwrap_or(16 * 1024),
            },
            other => return Err(SimError::spec(format!("unknown addr model {other:?}"))),
        };
        spec.validate()?;
        Ok(spec)
    }
}

impl fmt::Display for WorkgenSpec {
    /// The canonical text form; `parse` of the output reproduces the spec.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workgen:addr={}", self.addr.tag())?;
        match self.addr {
            AddrModel::Strided { stride } => write!(f, ",stride={stride}")?,
            AddrModel::Zipf { skew } => write!(f, ",skew={skew}")?,
            AddrModel::Chase { nodes } => write!(f, ",nodes={nodes}")?,
            _ => {}
        }
        write!(
            f,
            ",small={},ptr={},entropy={},mem={},store={},branch={},falu={},footprint={}",
            self.value.small_fraction,
            self.value.pointer_fraction,
            self.value.entropy,
            self.mix.mem_fraction,
            self.mix.store_fraction,
            self.mix.branch_fraction,
            self.mix.falu_fraction,
            self.footprint_words
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_through_display() {
        for text in [
            "workgen:addr=zipf,skew=1.3,small=0.6,ptr=0.2",
            "addr=chase,nodes=4096,store=0.5",
            "addr=stride,stride=16,footprint=1024",
            "",
        ] {
            let spec = WorkgenSpec::parse(text).unwrap();
            let again = WorkgenSpec::parse(&spec.to_string()).unwrap();
            assert_eq!(spec, again, "{text}");
        }
    }

    #[test]
    fn parse_defaults_match_default_spec() {
        assert_eq!(WorkgenSpec::parse("").unwrap(), WorkgenSpec::default());
        assert_eq!(
            WorkgenSpec::parse("workgen:").unwrap(),
            WorkgenSpec::default()
        );
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(WorkgenSpec::parse("addr=bogus").is_err());
        assert!(WorkgenSpec::parse("smal=0.5").is_err());
        assert!(WorkgenSpec::parse("small=1.5").is_err());
        assert!(WorkgenSpec::parse("small=0.8,ptr=0.4").is_err());
        assert!(WorkgenSpec::parse("mem=0.9,branch=0.2").is_err());
        assert!(WorkgenSpec::parse("addr=stride,stride=0").is_err());
        assert!(WorkgenSpec::parse("addr=chase,nodes=1").is_err());
        assert!(WorkgenSpec::parse("footprint=0").is_err());
        assert!(WorkgenSpec::parse("small").is_err());
    }

    #[test]
    fn validate_accepts_defaults() {
        assert!(WorkgenSpec::default().validate().is_ok());
    }

    #[test]
    fn parse_errors_are_typed_spec_errors() {
        for text in ["addr=bogus", "small=2.0", "smal=0.5", "small"] {
            let e = WorkgenSpec::parse(text).unwrap_err();
            assert_eq!(e.class(), "spec", "{text}");
        }
    }
}
