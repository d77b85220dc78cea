//! `bulk-files`: an out-of-core campaign. Every RD-4 trace file is located
//! with the f32 engine's `LocatorEngine::locate_streamed` over a
//! `FileTraceSource`, one file at a time, in whole passes over the files.
//! A traced run also locates the files with the i8 twin, for the `qsimd`
//! figures.

use std::sync::atomic::Ordering;
use std::time::Instant;

use sca_locator::{LocatorEngine, StreamingSegmenter};

use crate::report::{Check, Metrics};
use crate::setup::{open, BulkFile, Inputs, Setup, BULK_CHUNK};
use crate::spans::{covered_ns, Recorder, TimedScorer, TimedSource};
use crate::stats::median;
use crate::steal::{self, StealClock};

/// Passes measured, and kept, at the least: 3 passes of the 8 files give
/// the 20 latencies a median needs.
const MIN_PASSES: usize = 3;

/// One whole pass over the files.
pub struct Pass {
    pub start: Instant,
    pub end: Instant,
    /// Windows per second.
    pub rate: f64,
    pub files_per_s: f64,
    /// Latency of each file locate, ms.
    pub latencies: Vec<f64>,
}

/// What one measured phase produced.
pub struct Phase {
    pub passes: Vec<Pass>,
    pub attempted: usize,
    pub failed: usize,
    /// Starts of every file, from the first pass.
    pub starts: Vec<Vec<usize>>,
}

impl Phase {
    /// The passes the machine did not disturb (see [`steal::keep`]).
    pub fn kept(&self, clock: &StealClock) -> Vec<&Pass> {
        let steal: Vec<f64> = self.passes.iter().map(|p| clock.fraction(p.start, p.end)).collect();
        let kept = steal::keep(&steal, MIN_PASSES);
        self.passes.iter().zip(kept).filter(|(_, k)| *k).map(|(p, _)| p).collect()
    }
}

fn files(setup: &Setup) -> (&[BulkFile], usize, &[usize]) {
    match &setup.inputs {
        Inputs::Bulk { files, ref_index, ref_starts } => (files, *ref_index, ref_starts),
        Inputs::Captures(_) => unreachable!("bulk workloads are set up with trace files"),
    }
}

/// One untimed pass of `engine`: pages the files in, starts the engine's
/// threads and fixes the starts every later pass must reproduce. Checks
/// the streamed starts of the reference file against `reference`, its
/// in-memory starts.
pub fn warm_up(
    setup: &Setup,
    engine: &LocatorEngine,
    reference: &[usize],
    check: &mut Check,
) -> Vec<Vec<usize>> {
    let (files, ref_index, _) = files(setup);
    let starts: Vec<Vec<usize>> = files
        .iter()
        .map(|f| engine.locate_streamed(&open(f), BULK_CHUNK).expect("warm-up locate"))
        .collect();
    check.expect(
        starts[ref_index] == reference,
        "streamed starts differ from in-memory starts on the reference file",
    );
    starts
}

/// Locates the files with `engine` in whole passes until `seconds` have
/// elapsed and at least `MIN_PASSES` passes are done. With a recorder,
/// each locate is rebuilt from public parts with timing wrappers instead
/// of calling `locate_streamed`.
pub fn run(
    setup: &Setup,
    engine: &LocatorEngine,
    expected: &[Vec<usize>],
    seconds: f64,
    rec: Option<&Recorder>,
    check: &mut Check,
) -> Phase {
    let (files, _, _) = files(setup);
    let mut phase = Phase { passes: Vec::new(), attempted: 0, failed: 0, starts: Vec::new() };
    let t_phase = Instant::now();
    let mut request = 0u64;
    while t_phase.elapsed().as_secs_f64() < seconds || phase.passes.len() < MIN_PASSES {
        let (mut windows, mut secs) = (0usize, 0.0f64);
        let (start, mut latencies) = (Instant::now(), Vec::new());
        for (i, file) in files.iter().enumerate() {
            request += 1;
            phase.attempted += 1;
            let t0 = Instant::now();
            let result = match rec {
                None => engine.locate_streamed(&open(file), BULK_CHUNK),
                Some(rec) => traced_locate(engine, file, rec, request),
            };
            let dt = t0.elapsed().as_secs_f64();
            match result {
                Ok(starts) => {
                    check.expect(
                        starts == expected[i],
                        "a pass located different starts than the first pass",
                    );
                    if phase.starts.len() < files.len() {
                        phase.starts.push(starts);
                    }
                }
                Err(_) => phase.failed += 1,
            }
            latencies.push(dt * 1e3);
            windows += file.windows;
            secs += dt;
        }
        phase.passes.push(Pass {
            start,
            end: Instant::now(),
            rate: windows as f64 / secs,
            files_per_s: files.len() as f64 / secs,
            latencies,
        });
    }
    phase
}

/// `locate_streamed` rebuilt from `classify_source_with` and a
/// `StreamingSegmenter`, with the source and the scorer wrapped in
/// pass-through timers.
fn traced_locate(
    engine: &LocatorEngine,
    file: &BulkFile,
    rec: &Recorder,
    request: u64,
) -> sca_trace::Result<Vec<usize>> {
    let id = rec.id();
    let start = rec.now();
    let inner = open(file);
    let source = TimedSource::new(&inner, rec, id, request);
    let scorer = TimedScorer::new(engine.model(), rec, id, request);
    let mut segmenter =
        StreamingSegmenter::new(*engine.segmenter().config(), engine.sliding().stride());
    engine.sliding().classify_source_with(&scorer, &source, BULK_CHUNK, |span| {
        let t0 = rec.now();
        segmenter.push(span);
        rec.record("segment", t0, rec.now(), Some(id), request);
    })?;
    let t0 = rec.now();
    let starts = segmenter.finish();
    rec.record("segment_finish", t0, rec.now(), Some(id), request);
    rec.record_as(id, "locate_file", start, rec.now(), None, request);
    rec.add("windows", scorer.windows.load(Ordering::Relaxed) as f64);
    rec.add("read_bytes", source.bytes.load(Ordering::Relaxed) as f64);
    rec.add("starts", starts.len() as f64);
    Ok(starts)
}

/// Windows per second of scoring time in a traced phase: the wall time
/// during which at least one scoring batch ran.
fn score_rate(rec: &Recorder) -> f64 {
    let spans = rec.spans();
    let mut score_ns = 0;
    for locate in spans.iter().filter(|s| s.name == "locate_file") {
        let mut scores: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == Some(locate.id) && s.name == "score")
            .map(|s| (s.start, s.end))
            .collect();
        score_ns += covered_ns(&mut scores, locate.start, locate.end);
    }
    if score_ns > 0 {
        rec.counter("windows") / (score_ns as f64 / 1e9)
    } else {
        0.0
    }
}

/// Per-layer figures of the traced f32 phase, from its spans and counters.
pub fn layers(setup: &Setup, rec: &Recorder, layer: &mut Metrics) {
    let spans = rec.spans();
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let sum_ms = |name: &'static str| named(name).map(|s| s.dur_ns() as f64 / 1e6).sum::<f64>();

    let (mut wall, mut score_union, mut wait) = (0u64, 0u64, 0u64);
    for locate in named("locate_file") {
        wall += locate.dur_ns();
        let kids: Vec<_> = spans.iter().filter(|s| s.parent == Some(locate.id)).collect();
        let mut scores: Vec<(u64, u64)> =
            kids.iter().filter(|s| s.name == "score").map(|s| (s.start, s.end)).collect();
        score_union += covered_ns(&mut scores, locate.start, locate.end);
        // The scorer waits from the start until its first batch (opening
        // the file and the first fill) and, after each chunk, from its last
        // batch until the sink is called (the join with the reader that
        // prefetches the next chunk).
        wait += scores.first().map_or(locate.end, |s| s.0) - locate.start;
        let mut ends: Vec<u64> = scores.iter().map(|s| s.1).collect();
        ends.sort_unstable();
        for push in kids.iter().filter(|s| s.name == "segment") {
            let n = ends.partition_point(|&e| e <= push.start);
            if n > 0 {
                wait += push.start.saturating_sub(ends[n - 1]);
            }
        }
    }
    let windows = rec.counter("windows");
    let batches = named("score").count() as f64;
    let per_batch = |v: f64| if batches > 0.0 { v / batches } else { 0.0 };
    let score_ms = score_union as f64 / 1e6;
    let fill_ms = sum_ms("fill");
    let segment_ms = sum_ms("segment") + sum_ms("segment_finish");
    let wait_ms = wait as f64 / 1e6;

    layer.set("trace.fill_calls", named("fill").count() as f64);
    layer.set("trace.fill_ms", fill_ms);
    let mb = rec.counter("read_bytes") / 1e6;
    layer.set("trace.read_mb_per_s", if fill_ms > 0.0 { mb / (fill_ms / 1e3) } else { 0.0 });
    layer.set("trace.wait_ms", wait_ms);
    layer.set("sliding.batches", batches);
    layer.set("sliding.windows_per_batch", per_batch(windows));
    layer.set("sliding.score_ms", score_ms);
    layer.set("sliding.score_us_per_batch", per_batch(sum_ms("score") * 1e3));
    layer.set("sliding.other_ms", (wall as f64 / 1e6 - score_ms - wait_ms - segment_ms).max(0.0));
    let ops = crate::report::work_per_window(setup).ops;
    layer.set("tinynn.gflop_per_s", ops * score_rate(rec) / 1e9);
    layer.set("segment.ms", segment_ms);
    layer.set("segment.starts", rec.counter("starts"));
}

/// The whole workload: warm-up and the measured phase. A traced run
/// splits its seconds in three: the measured phase, a traced phase of the
/// f32 engine and a traced phase of its i8 twin.
pub fn workload(
    setup: &Setup,
    seconds: f64,
    traced: bool,
    clock: &StealClock,
    out: &mut crate::Outcome,
) {
    let seconds = if traced { seconds / 3.0 } else { seconds };
    let check = &mut out.check;
    let (_, _, ref_starts) = files(setup);
    let expected = warm_up(setup, &setup.engine, ref_starts, check);
    let plain = run(setup, &setup.engine, &expected, seconds, None, check);
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    let kept = plain.kept(clock);
    let plain_rate = median(&kept.iter().map(|p| p.rate).collect::<Vec<_>>());
    out.e2e.set("windows_per_s", plain_rate);
    out.e2e.set("max_rps", median(&kept.iter().map(|p| p.files_per_s).collect::<Vec<_>>()));
    out.latencies = kept.iter().flat_map(|p| p.latencies.iter().copied()).collect();
    out.context.push(("passes", plain.passes.len().to_string()));
    out.context.push(("passes_kept", kept.len().to_string()));
    if traced {
        let rec = Recorder::default();
        let phase = run(setup, &setup.engine, &expected, seconds, Some(&rec), check);
        out.attempted += phase.attempted;
        out.failed += phase.failed;
        check.expect(
            phase.starts == plain.starts,
            "the traced run located different starts than the untraced run",
        );
        layers(setup, &rec, &mut out.layer);
        let traced_rate = median(&phase.kept(clock).iter().map(|p| p.rate).collect::<Vec<_>>());
        out.layer.set("tracing.overhead_pct", 100.0 * (plain_rate - traced_rate) / plain_rate);
        out.spans = rec.spans();

        // The i8 twin over the same files: its starts are checked the same
        // way, against the twin's own in-memory and first-pass starts.
        let twin = &setup.twin;
        let (files, ref_index, _) = files(setup);
        let twin_ref = twin.locate(&open(&files[ref_index]).read_all().expect("read a trace file"));
        let check = &mut out.check;
        let twin_expected = warm_up(setup, twin, &twin_ref, check);
        let rec = Recorder::default();
        let phase = run(setup, twin, &twin_expected, seconds, Some(&rec), check);
        out.attempted += phase.attempted;
        out.failed += phase.failed;
        let ops = crate::report::work_per_window(setup).ops;
        out.layer.set("qsimd.gop_per_s", ops * score_rate(&rec) / 1e9);
    }
}
