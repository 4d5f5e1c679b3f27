//! The traced mode: spans recorded around calls into each layer, plus
//! timing wrappers for the two traits the layers meet at.
//!
//! Spans are recorded only from this package, around public calls; nothing
//! inside the program is instrumented. Untraced runs never construct a
//! [`Tracer`] or a wrapper, so they pay nothing for this module.
//!
//! The hierarchy and stream wrappers would cost more than the work they
//! time if they emitted one span per access, so they accumulate busy time
//! and counts per cell and the caller records them as one *aggregate*
//! child span of the cell.

use ccp_cache::{AccessResult, CacheSim, HierarchyStats, LatencyConfig};
use ccp_mem::MainMemory;
use ccp_trace::{Inst, Trace, TraceMix, TraceSource};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One span: a named interval with a parent and the cell or request it
/// belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Cell index or request id the span belongs to.
    pub id: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Aggregate spans hold busy time accumulated inside their parent;
    /// `start_ns` is the parent's start and the interval is not contiguous.
    pub aggregate: bool,
    /// Work items the span covers (accesses, instructions, lines, calls).
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store, shared by the load generator's threads.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Records a finished interval and returns its index (a parent handle).
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> usize {
        self.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
            aggregate: false,
            count,
        })
    }

    /// Opens a span at the current time; [`Tracer::close`] ends it.
    pub fn open(&self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.record(name, id, parent, now, now, 0)
    }

    /// Ends an opened span now, with `count` work items.
    pub fn close(&self, span: usize, count: u64) {
        let now = self.now_ns();
        let mut v = self.lock();
        v[span].end_ns = now;
        v[span].count = count;
    }

    /// Records busy time accumulated inside `parent`.
    pub fn aggregate(&self, name: &'static str, id: u64, parent: usize, busy_ns: u64, count: u64) {
        let start = self.lock()[parent].start_ns;
        self.push(Span {
            name,
            id,
            parent: Some(parent),
            start_ns: start,
            end_ns: start + busy_ns,
            aggregate: true,
            count,
        });
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &'static str, n: u64) {
        *self
            .counters
            .lock()
            .expect("counters poisoned: a traced thread panicked")
            .entry(name)
            .or_default() += n;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("counters poisoned: a traced thread panicked")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        self.record(name, id, parent, start, self.now_ns(), 1);
        out
    }

    fn push(&self, s: Span) -> usize {
        let mut v = self.lock();
        v.push(s);
        v.len() - 1
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned: a traced thread panicked")
    }

    /// `(total duration ns, total count, spans)` over spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64, u64) {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0, 0), |(d, c, n), s| {
                (d + s.dur_ns(), c + s.count, n + 1)
            })
    }

    /// Durations in ns of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Summed self time of every span named `name`: each span's duration
    /// minus the time its children cover. Interval children are merged
    /// into a union first, so overlapping children are not subtracted
    /// twice; aggregate children are busy time disjoint from every other
    /// child of the same parent (they time calls made one at a time on
    /// the parent's thread), so they subtract directly.
    pub fn self_total(&self, name: &str) -> u64 {
        let spans = self.lock();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut total = 0u64;
        for (i, s) in spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let mut busy: u64 = 0;
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            for &c in &children[i] {
                let cs = &spans[c];
                if cs.aggregate {
                    busy += cs.dur_ns();
                } else {
                    intervals.push((cs.start_ns.max(s.start_ns), cs.end_ns.min(s.end_ns)));
                }
            }
            intervals.sort_unstable();
            let (mut cur_s, mut cur_e) = (0u64, 0u64);
            for (a, b) in intervals {
                if b <= a {
                    continue;
                }
                if a > cur_e {
                    busy += cur_e - cur_s;
                    (cur_s, cur_e) = (a, b);
                } else {
                    cur_e = cur_e.max(b);
                }
            }
            busy += cur_e - cur_s;
            total += s.dur_ns().saturating_sub(busy);
        }
        total
    }

    /// Renders every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"aggregate\":{},\"count\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns, s.aggregate, s.count
            );
        }
        out
    }
}

/// Busy time and access counts of one hierarchy, accumulated by
/// [`TimedCache`].
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheTiming {
    pub reads: u64,
    pub writes: u64,
    pub probes: u64,
    pub busy_ns: u64,
}

/// A [`CacheSim`] that forwards every method to the wrapped hierarchy and
/// times the access methods. Every trait method is forwarded explicitly,
/// defaulted ones included: the PC-indexed designs override `read_pc` and
/// `write_pc`, and a default that fell back to `read`/`write` would change
/// their results.
pub struct TimedCache {
    inner: Box<dyn CacheSim>,
    reads: u64,
    writes: u64,
    // `probe_l1` takes `&self`, so the counters it bumps are cells.
    probes: Cell<u64>,
    busy_ns: Cell<u64>,
}

impl TimedCache {
    pub fn new(inner: Box<dyn CacheSim>) -> Self {
        TimedCache {
            inner,
            reads: 0,
            writes: 0,
            probes: Cell::new(0),
            busy_ns: Cell::new(0),
        }
    }

    pub fn timing(&self) -> CacheTiming {
        CacheTiming {
            reads: self.reads,
            writes: self.writes,
            probes: self.probes.get(),
            busy_ns: self.busy_ns.get(),
        }
    }

    #[inline]
    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn CacheSim) -> T) -> T {
        let t = Instant::now();
        let out = f(self.inner.as_mut());
        self.busy_ns
            .set(self.busy_ns.get() + t.elapsed().as_nanos() as u64);
        out
    }
}

impl CacheSim for TimedCache {
    fn read(&mut self, addr: u32) -> AccessResult {
        self.reads += 1;
        self.timed(|c| c.read(addr))
    }

    fn write(&mut self, addr: u32, value: u32) -> AccessResult {
        self.writes += 1;
        self.timed(|c| c.write(addr, value))
    }

    fn read_pc(&mut self, addr: u32, pc: u32) -> AccessResult {
        self.reads += 1;
        self.timed(|c| c.read_pc(addr, pc))
    }

    fn write_pc(&mut self, addr: u32, value: u32, pc: u32) -> AccessResult {
        self.writes += 1;
        self.timed(|c| c.write_pc(addr, value, pc))
    }

    fn probe_l1(&self, addr: u32) -> bool {
        let t = Instant::now();
        let hit = self.inner.probe_l1(addr);
        self.busy_ns
            .set(self.busy_ns.get() + t.elapsed().as_nanos() as u64);
        self.probes.set(self.probes.get() + 1);
        hit
    }

    fn stats(&self) -> &HierarchyStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn latencies(&self) -> LatencyConfig {
        self.inner.latencies()
    }

    fn set_latencies(&mut self, lat: LatencyConfig) {
        self.inner.set_latencies(lat)
    }

    fn mem(&self) -> &MainMemory {
        self.inner.mem()
    }

    fn mem_mut(&mut self) -> &mut MainMemory {
        self.inner.mem_mut()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn shard_region_bits(&self) -> Option<(u32, u32)> {
        self.inner.shard_region_bits()
    }
}

/// Image-copy and stream-pull time of one source, accumulated by
/// [`TimedSource`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SourceTiming {
    pub image_ns: u64,
    pub image_calls: u64,
    pub stream_ns: u64,
    pub stream_items: u64,
}

/// A [`TraceSource`] that forwards every method to the wrapped source and
/// times `initial_mem` (the per-cell memory-image copy) and each
/// instruction pulled from `stream`.
pub struct TimedSource<'a> {
    inner: &'a dyn TraceSource,
    image_ns: AtomicU64,
    image_calls: AtomicU64,
    stream_ns: AtomicU64,
    stream_items: AtomicU64,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a dyn TraceSource) -> Self {
        TimedSource {
            inner,
            image_ns: AtomicU64::new(0),
            image_calls: AtomicU64::new(0),
            stream_ns: AtomicU64::new(0),
            stream_items: AtomicU64::new(0),
        }
    }

    pub fn timing(&self) -> SourceTiming {
        SourceTiming {
            image_ns: self.image_ns.load(Ordering::Relaxed),
            image_calls: self.image_calls.load(Ordering::Relaxed),
            stream_ns: self.stream_ns.load(Ordering::Relaxed),
            stream_items: self.stream_items.load(Ordering::Relaxed),
        }
    }
}

impl TraceSource for TimedSource<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_mem(&self) -> MainMemory {
        let t = Instant::now();
        let m = self.inner.initial_mem();
        self.image_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.image_calls.fetch_add(1, Ordering::Relaxed);
        m
    }

    fn stream(&self) -> Box<dyn Iterator<Item = Inst> + '_> {
        Box::new(TimedIter {
            inner: self.inner.stream(),
            owner: self,
            ns: 0,
            items: 0,
        })
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn materialize(&self) -> Trace {
        self.inner.materialize()
    }

    fn mix(&self) -> TraceMix {
        self.inner.mix()
    }
}

/// Times each `next()`; publishes its totals to the owning source when
/// dropped, so the hot loop touches no atomics.
struct TimedIter<'a> {
    inner: Box<dyn Iterator<Item = Inst> + 'a>,
    owner: &'a TimedSource<'a>,
    ns: u64,
    items: u64,
}

impl Iterator for TimedIter<'_> {
    type Item = Inst;

    #[inline]
    fn next(&mut self) -> Option<Inst> {
        let t = Instant::now();
        let out = self.inner.next();
        self.ns += t.elapsed().as_nanos() as u64;
        self.items += u64::from(out.is_some());
        out
    }
}

impl Drop for TimedIter<'_> {
    fn drop(&mut self) {
        self.owner.stream_ns.fetch_add(self.ns, Ordering::Relaxed);
        self.owner
            .stream_items
            .fetch_add(self.items, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_cache::{DesignKind, HierarchyConfig, StrideHierarchy};
    use ccp_pipeline::{run_source, PipelineConfig};
    use ccp_schemes::SchemeKind;
    use ccp_trace::benchmark_by_name;

    #[test]
    fn self_time_subtracts_interval_union_and_aggregates() {
        let t = Tracer::default();
        let p = t.record("cell", 0, None, 100, 200, 1);
        t.record("a", 0, Some(p), 110, 140, 1);
        t.record("b", 0, Some(p), 130, 150, 1); // overlaps a: union is 40
        t.aggregate("hier", 0, p, 25, 10);
        assert_eq!(t.self_total("cell"), 100 - 40 - 25);
    }

    #[test]
    fn wrappers_leave_every_design_bit_identical() {
        let trace = benchmark_by_name("health").unwrap().trace(4_000, 3);
        for design in DesignKind::ALL {
            for halved in [false, true] {
                let direct =
                    ccp_sim::sweep::run_cell_source_scheme(&trace, design, SchemeKind::Cpp, halved);
                let src = TimedSource::new(&trace);
                let mut cache = TimedCache::new(ccp_sim::build_design_scheme(
                    HierarchyConfig::paper(design),
                    SchemeKind::Cpp,
                ));
                if halved {
                    let lat = cache.latencies().halved_miss_penalty();
                    cache.set_latencies(lat);
                }
                let wrapped = run_source(&src, &mut cache, &PipelineConfig::paper());
                assert_eq!(format!("{direct:?}"), format!("{wrapped:?}"), "{design:?}");
                assert_eq!(src.timing().image_calls, 1);
                assert_eq!(src.timing().stream_items, trace.insts.len() as u64);
                assert!(cache.timing().reads + cache.timing().writes > 0);
            }
        }
    }

    #[test]
    fn pc_indexed_design_sees_the_pc_through_the_wrapper() {
        // The stride prefetcher is indexed by load PC: forwarding
        // `read_pc` as `read` would change its statistics.
        let spec = ccp_workgen::WorkgenSpec::parse("workgen:addr=strided").unwrap();
        let trace = ccp_workgen::SynthSource::new(spec, 1, 20_000).materialize();
        let cfg = HierarchyConfig::paper(DesignKind::Bc);
        let mut direct = StrideHierarchy::new(cfg, 64);
        let d = ccp_sim::fastsim::run_functional(&trace, &mut direct, 0);
        let mut wrapped = TimedCache::new(Box::new(StrideHierarchy::new(cfg, 64)));
        let w = ccp_sim::fastsim::run_functional(&trace, &mut wrapped, 0);
        assert_eq!(d.hierarchy, w.hierarchy);
    }
}
