//! In-memory span recording for traced runs, and pass-through timing
//! wrappers around the public `TraceSource` and `WindowScorer` traits.
//!
//! Spans are recorded from the benchmark's own code, around the calls into
//! each layer. Each span has a name, start, end, parent span and request
//! id; a span's self time is its duration minus the part of it that its
//! child spans cover. Spans stay in memory and are written out at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sca_locator::WindowScorer;
use sca_trace::TraceSource;
use tinynn::{Tensor, Workspace};

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u64>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for a parent span recorded after its children.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a preassigned id.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<u64>,
        request: u64,
    ) {
        let span = Span { id, name, start, end: end.max(start), parent, request };
        self.spans.lock().expect("span recorder poisoned").push(span);
    }

    /// Records a finished span; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<u64>,
        request: u64,
    ) -> u64 {
        let id = self.id();
        self.record_as(id, name, start, end, parent, request);
        id
    }

    /// Adds to a named count, recorded at the same boundary as the spans.
    pub fn add(&self, name: &'static str, v: f64) {
        *self.counters.lock().expect("span recorder poisoned").entry(name).or_default() += v;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.lock().expect("span recorder poisoned").get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span recorder poisoned").clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

/// Total length of the union of `[start, end)` intervals, clipped to
/// `[lo, hi)`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per span name: count, total time and self time, in ms.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |c| covered_ns(c, s.start, s.end));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns() as f64 / 1e6;
        e.2 += (s.dur_ns() - covered) as f64 / 1e6;
    }
    out
}

/// Writes the spans as JSON lines, then one summary line per span name.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.id, s.name, s.start, s.end, s.request
        )?;
    }
    for (name, (n, total, own)) in self_times(spans) {
        writeln!(
            w,
            "{{\"summary\":\"{name}\",\"count\":{n},\"total_ms\":{total:.3},\"self_ms\":{own:.3}}}"
        )?;
    }
    w.flush()
}

/// A [`TraceSource`] that records a `fill` span per call and counts the
/// bytes it reads, passing every call through unchanged.
pub struct TimedSource<'a, T: ?Sized> {
    pub inner: &'a T,
    pub rec: &'a Recorder,
    pub parent: u64,
    pub request: u64,
    pub bytes: AtomicU64,
}

impl<'a, T: TraceSource + ?Sized> TimedSource<'a, T> {
    pub fn new(inner: &'a T, rec: &'a Recorder, parent: u64, request: u64) -> Self {
        Self { inner, rec, parent, request, bytes: AtomicU64::new(0) }
    }
}

impl<T: TraceSource + ?Sized> TraceSource for TimedSource<'_, T> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn fill(&self, start: usize, out: &mut [f32]) -> sca_trace::Result<()> {
        let t0 = self.rec.now();
        let r = self.inner.fill(start, out);
        self.rec.record("fill", t0, self.rec.now(), Some(self.parent), self.request);
        self.bytes.fetch_add(4 * out.len() as u64, Ordering::Relaxed);
        r
    }
}

/// A [`WindowScorer`] that records a `score` span per batch and counts the
/// windows it scores, passing every call through unchanged.
pub struct TimedScorer<'a, S: ?Sized> {
    pub inner: &'a S,
    pub rec: &'a Recorder,
    pub parent: u64,
    pub request: u64,
    pub windows: AtomicU64,
}

impl<'a, S: WindowScorer + ?Sized> TimedScorer<'a, S> {
    pub fn new(inner: &'a S, rec: &'a Recorder, parent: u64, request: u64) -> Self {
        Self { inner, rec, parent, request, windows: AtomicU64::new(0) }
    }
}

impl<S: WindowScorer + ?Sized> WindowScorer for TimedScorer<'_, S> {
    fn score_windows_into(&self, input: &Tensor, ws: &mut Workspace, scores: &mut Vec<f32>) {
        let t0 = self.rec.now();
        self.inner.score_windows_into(input, ws, scores);
        self.rec.record("score", t0, self.rec.now(), Some(self.parent), self.request);
        self.windows.fetch_add(scores.len() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sca_locator::{CnnConfig, CoLocatorCnn, LocatorEngine, Segmenter, SlidingWindowClassifier};
    use sca_trace::Trace;

    #[test]
    fn timing_wrappers_leave_scores_bit_identical() {
        let engine = LocatorEngine::new(
            CoLocatorCnn::new(CnnConfig { base_filters: 4, kernel_size: 5, seed: 3 }),
            SlidingWindowClassifier::new(32, 4).with_batch_size(16),
            Segmenter::default(),
        );
        let trace =
            Trace::from_samples((0..5_000).map(|x| ((x * x) as f32 * 1e-4).sin()).collect());
        for engine in [engine.clone(), engine.quantize()] {
            let plain = engine.sliding().classify_source(engine.model(), &trace, 700).unwrap();
            let rec = Recorder::default();
            let source = TimedSource::new(&trace, &rec, 0, 0);
            let scorer = TimedScorer::new(engine.model(), &rec, 0, 0);
            let timed = engine.sliding().classify_source(&scorer, &source, 700).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&plain), bits(&timed));
            assert_eq!(scorer.windows.load(Ordering::Relaxed) as usize, timed.len());
            assert!(source.bytes.load(Ordering::Relaxed) >= 4 * 5_000);
            let spans = rec.spans();
            assert!(
                spans.iter().any(|s| s.name == "fill") && spans.iter().any(|s| s.name == "score")
            );
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let rec = Recorder::default();
        let root = rec.record("root", 0, 100, None, 1);
        rec.record("a", 10, 40, Some(root), 1);
        rec.record("b", 30, 60, Some(root), 1);
        rec.record("c", 90, 150, Some(root), 1);
        let t = self_times(&rec.spans());
        // Children cover [10, 60) and [90, 100) of the root: 60 ns.
        assert!((t["root"].2 - 40e-6).abs() < 1e-12);
        assert!((t["a"].2 - 30e-6).abs() < 1e-12);
    }
}
