//! `serve-open`: open-loop, seeded Poisson arrivals from one generator
//! thread into an in-process `LocatorService` running the i8 engine, with
//! a collector thread waiting on the tickets. Each request is timed from
//! the moment it was due, so a stall also delays the requests behind it.
//!
//! The run is a few cycles, each a capacity burst followed by one segment
//! at each offered rate. Every figure is then taken over segments spread
//! across the whole run: on a shared host the machine's speed drifts in
//! phases of several seconds, and a figure measured in one stretch of the
//! run follows whichever phase that stretch fell in.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use locsvc::{LocatorService, MetricsSnapshot, Rejected, RequestOptions, ServiceError};

use crate::report::Metrics;
use crate::setup::{Inputs, Setup};
use crate::spans::Recorder;
use crate::stats::{median, ms, percentile_sorted, poisson_schedule, tail, Rng};
use crate::steal::{self, StealClock};
use crate::Outcome;

/// Offered rates, requests/s: below, near and past the knee of the i8
/// service on a 2-core host. Probed once, then frozen here; to probe again,
/// edit them and compare the `rate*` entries of the run context.
pub const RATES: [f64; 3] = [15.0, 45.0, 110.0];
/// The reference rate: `p50_ms` is measured at it. It is
/// the rate below the knee, where latency is the service time plus little
/// queueing and so repeats from run to run; near the knee, queueing
/// amplifies every small change in capacity.
const REF: usize = 0;
/// Cycles per run. Each starts with a capacity burst, every capture
/// submitted at once; `windows_per_s` is the median windows per second of
/// the bursts the machine did not disturb.
const CYCLES: usize = 5;
/// The latency limit, also every request's deadline.
const LIMIT_MS: f64 = 200.0;
/// Share of each cycle's sweep spent at each rate.
const STEP_SHARE: [f64; 3] = [0.7, 0.15, 0.15];
/// A rate meets the limit when at most this share of its requests miss it
/// (a failed, refused, shed or expired request counts as a miss) …
const MISS_BUDGET: f64 = 0.01;
/// … and the in-flight count grows by at most this much over the step.
const BACKLOG_SLACK: f64 = 4.0;

/// How a submission went, as the generator sees it.
pub enum Submitted<'a> {
    /// Admitted; the collector runs the closure to wait for the outcome.
    Pending(Box<dyn FnOnce() -> Completion + Send + 'a>),
    Refused,
    Shed,
    Failed,
}

/// How an admitted request ended.
pub enum Completion {
    Ok { done: Instant, correct: bool },
    Expired,
    Failed,
}

/// Counts and timings of one rate step.
#[derive(Debug, Default, Clone)]
pub struct Step {
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    pub refused: usize,
    pub shed: usize,
    pub expired: usize,
    pub wrong: usize,
    /// Every request's due time after the schedule's start, and its
    /// latency from that due time if it completed, ms.
    pub due: Vec<(Duration, Option<f64>)>,
    /// How late the generator submitted each request, ms.
    pub late: Vec<f64>,
    /// Duration of each submit call, µs.
    pub submit_us: Vec<f64>,
    /// `(queue depth, in flight)` sampled while the step ran.
    pub depth: Vec<(usize, usize)>,
}

/// The requests of one rate.
#[derive(Debug, Default)]
pub struct View {
    pub sent: usize,
    /// Latencies of the completed ones, ms.
    pub latencies: Vec<f64>,
    /// Requests that missed the limit: failed, refused, shed, expired or
    /// late.
    pub misses: usize,
}

impl Step {
    /// Every request of the step. Unlike the other figures, latency is not
    /// filtered for steal: see `NOTES.md`.
    pub fn view(&self, limit_ms: f64) -> View {
        let mut view = View::default();
        for (_, latency) in &self.due {
            view.sent += 1;
            match latency {
                Some(l) => {
                    view.latencies.push(*l);
                    view.misses += usize::from(*l > limit_ms);
                }
                None => view.misses += 1,
            }
        }
        view
    }

    /// Mean in-flight count over the last third of the samples minus that
    /// over the first third.
    pub fn backlog_growth(&self) -> f64 {
        let n = self.depth.len() / 3;
        if n == 0 {
            return 0.0;
        }
        let mean =
            |s: &[(usize, usize)]| s.iter().map(|d| d.1 as f64).sum::<f64>() / s.len() as f64;
        mean(&self.depth[self.depth.len() - n..]) - mean(&self.depth[..n])
    }
}

impl View {
    /// The requests of every segment at one rate.
    fn merge(views: impl IntoIterator<Item = View>) -> View {
        let mut all = View::default();
        for v in views {
            all.sent += v.sent;
            all.latencies.extend(v.latencies);
            all.misses += v.misses;
        }
        all
    }
}

/// Mean backlog growth over the segments at one rate.
fn backlog_growth(segments: &[Step]) -> f64 {
    segments.iter().map(Step::backlog_growth).sum::<f64>() / segments.len().max(1) as f64
}

/// Whether a rate met the limit over its segments, judged on `view`, the
/// merged view of those segments.
pub fn meets(segments: &[Step], view: &View) -> bool {
    view.sent > 0
        && (view.misses as f64) <= MISS_BUDGET * view.sent as f64
        && backlog_growth(segments) <= BACKLOG_SLACK
}

/// The merged view of each rate's segments.
fn merged_views(steps: &[Vec<Step>]) -> Vec<View> {
    steps.iter().map(|segments| View::merge(segments.iter().map(|s| s.view(LIMIT_MS)))).collect()
}

/// Drives one open-loop step: submits request `i` at `start + schedule[i]`
/// from this thread, and waits for admitted requests on a collector
/// thread. `sample` reads the server's queue depth and in-flight count.
pub fn drive<'a>(
    schedule: &[Duration],
    mut submit: impl FnMut(usize) -> Submitted<'a>,
    mut sample: impl FnMut() -> (usize, usize),
    rec: Option<&Recorder>,
) -> Step {
    let mut step = Step { due: schedule.iter().map(|&d| (d, None)).collect(), ..Step::default() };
    let (tx, rx) = mpsc::channel::<(usize, Instant, Box<dyn FnOnce() -> Completion + Send + 'a>)>();
    let ids: Vec<u64> = rec.map_or_else(Vec::new, |r| schedule.iter().map(|_| r.id()).collect());
    let start = Instant::now() + Duration::from_millis(2);
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut out = Vec::new();
            for (i, due, wait) in rx {
                out.push((i, due, wait()));
            }
            out
        });
        for (i, offset) in schedule.iter().enumerate() {
            let due = start + *offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t = Instant::now();
            step.late.push(ms(t - due));
            let submitted = submit(i);
            step.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            if let Some(rec) = rec {
                rec.record("submit", rec.at(t), rec.now(), Some(ids[i]), i as u64);
            }
            step.sent += 1;
            let refused = match submitted {
                Submitted::Pending(wait) => {
                    tx.send((i, due, wait)).expect("the collector outlives the generator");
                    false
                }
                Submitted::Refused => {
                    step.refused += 1;
                    true
                }
                Submitted::Shed => {
                    step.shed += 1;
                    true
                }
                Submitted::Failed => {
                    step.failed += 1;
                    true
                }
            };
            if let (Some(rec), true) = (rec, refused) {
                rec.record_as(ids[i], "request", rec.at(due), rec.now(), None, i as u64);
            }
            if i % 4 == 0 {
                step.depth.push(sample());
            }
        }
        drop(tx);
        collector.join().expect("the collector thread panicked")
    });
    for (i, due, completion) in collected {
        let end = match &completion {
            Completion::Ok { done, .. } => *done,
            _ => Instant::now(),
        };
        if let Some(rec) = rec {
            rec.record_as(ids[i], "request", rec.at(due), rec.at(end), None, i as u64);
        }
        match completion {
            Completion::Ok { done, correct } => {
                step.ok += 1;
                step.wrong += usize::from(!correct);
                step.due[i].1 = Some(ms(done.saturating_duration_since(due)));
            }
            Completion::Expired => step.expired += 1,
            Completion::Failed => step.failed += 1,
        }
    }
    step
}

/// One cycle's sweep over the rates against the service: one segment at
/// each rate, its schedule and picks drawn from the seed and the cycle.
/// Each segment ends when all its requests have, so no backlog carries
/// into the next.
fn sweep(
    setup: &Setup,
    service: &LocatorService,
    seed: u64,
    cycle: usize,
    seconds: f64,
    rec: Option<&Recorder>,
) -> Vec<Step> {
    let Inputs::Captures(pool) = &setup.inputs else {
        unreachable!("serve-open is set up with captures")
    };
    let opts = RequestOptions {
        deadline: Some(Duration::from_secs_f64(LIMIT_MS / 1e3)),
        ..RequestOptions::default()
    };
    let mut steps = Vec::new();
    for (k, &rate) in RATES.iter().enumerate() {
        let segment = (cycle * RATES.len() + k) as u64;
        let schedule = poisson_schedule(
            seed.wrapping_mul(31).wrapping_add(segment),
            rate,
            Duration::from_secs_f64(seconds * STEP_SHARE[k]),
        );
        let mut rng = Rng::new(seed ^ (0xA5A5 + segment));
        let picks = rng.rounds(pool.len(), schedule.len());
        let step = drive(
            &schedule,
            |i| {
                let input = &pool[picks[i]];
                let trace = input.trace.clone();
                let t = Instant::now();
                match service.submit_trace("model-0", trace, opts) {
                    Ok(ticket) => Submitted::Pending(Box::new(move || match ticket.wait() {
                        Ok(r) => Completion::Ok {
                            done: t + r.latency,
                            correct: r.starts == input.reference,
                        },
                        Err(ServiceError::DeadlineExceeded) => Completion::Expired,
                        Err(_) => Completion::Failed,
                    })),
                    Err(Rejected::QueueFull { .. }) => Submitted::Refused,
                    Err(Rejected::Overloaded { .. }) => Submitted::Shed,
                    Err(_) => Submitted::Failed,
                }
            },
            || {
                let m = service.metrics();
                (m.queue_depth, m.in_flight)
            },
            rec,
        );
        steps.push(step);
    }
    steps
}

/// Runs the cycles until `seconds` have elapsed: in each, `before` (the
/// capacity burst, or nothing) and then a sweep of the rest of the cycle's
/// share of the time. Returns the segments at each rate.
fn cycles(
    setup: &Setup,
    service: &LocatorService,
    seed: u64,
    seconds: f64,
    rec: Option<&Recorder>,
    mut before: impl FnMut(),
) -> Vec<Vec<Step>> {
    let mut steps = vec![Vec::new(); RATES.len()];
    let start = Instant::now();
    for cycle in 0..CYCLES {
        before();
        let left = seconds - start.elapsed().as_secs_f64();
        let share = (left / (CYCLES - cycle) as f64).max(seconds / (2 * CYCLES) as f64);
        for (k, step) in sweep(setup, service, seed, cycle, share, rec).into_iter().enumerate() {
            steps[k].push(step);
        }
    }
    steps
}

fn tail_or_zero(latencies: &[f64]) -> f64 {
    tail(latencies).map_or(0.0, |(_, v)| v)
}

fn median_or_zero(latencies: &[f64]) -> f64 {
    if latencies.is_empty() {
        0.0
    } else {
        median(latencies)
    }
}

/// The outcome buckets of a rate's segments, summed: sent, ok, failed,
/// refused, shed, expired.
fn buckets(segments: &[Step]) -> [usize; 6] {
    let mut sum = [0; 6];
    for s in segments {
        for (total, c) in sum.iter_mut().zip([s.sent, s.ok, s.failed, s.refused, s.shed, s.expired])
        {
            *total += c;
        }
    }
    sum
}

fn layers(
    steps: &[Vec<Step>],
    views: &[View],
    a: &MetricsSnapshot,
    b: &MetricsSnapshot,
    layer: &mut Metrics,
) {
    for (k, (segments, v)) in steps.iter().zip(views).enumerate() {
        let mut set = |what: &str, value: f64| {
            layer.set(crate::report::per_layer_name(&format!("loadgen.{what}.r{}", k + 1)), value)
        };
        let names = ["sent", "ok", "failed", "refused", "shed", "expired"];
        for (what, c) in names.iter().zip(buckets(segments)) {
            set(what, c as f64);
        }
        set("p50_ms", median_or_zero(&v.latencies));
        set("tail_ms", tail_or_zero(&v.latencies));
    }
    let all = || steps.iter().flatten();
    let mut late: Vec<f64> = all().flat_map(|s| s.late.iter().copied()).collect();
    late.sort_by(f64::total_cmp);
    layer.set("loadgen.late_ms_p99", percentile_sorted(&late, 99.0));
    layer.set("loadgen.backlog_growth", backlog_growth(&steps[REF]));

    let mut submit: Vec<f64> = all().flat_map(|s| s.submit_us.iter().copied()).collect();
    submit.sort_by(f64::total_cmp);
    layer.set("service.submit_us_p99", percentile_sorted(&submit, 99.0));
    let depth_max = all().flat_map(|s| s.depth.iter().map(|d| d.0)).max().unwrap_or(0);
    crate::report::service_deltas(a, b, depth_max, layer);
}

pub fn workload(
    setup: &Setup,
    seed: u64,
    seconds: f64,
    traced: bool,
    clock: &StealClock,
    out: &mut Outcome,
) {
    let service = &setup.serving.as_ref().expect("serve-open starts a service").service;
    let Inputs::Captures(pool) = &setup.inputs else {
        unreachable!("serve-open is set up with captures")
    };

    // Warm-up, then the capacity bursts: every capture at once, which
    // fills the admission queue and checks each against its reference.
    let burst = |out: &mut Outcome| {
        let t = Instant::now();
        let tickets: Vec<_> = pool
            .iter()
            .map(|c| service.submit_trace("model-0", c.trace.clone(), RequestOptions::default()))
            .collect();
        let mut windows = 0;
        for (ticket, c) in tickets.into_iter().zip(pool) {
            let result = ticket.map_err(|_| ()).and_then(|t| t.wait().map_err(|_| ()));
            out.failed += usize::from(result.is_err());
            if let Ok(r) = result {
                out.check.expect(
                    r.starts == c.reference,
                    "a served request differs from LocatorEngine::locate",
                );
                windows += r.windows;
            }
        }
        windows as f64 / t.elapsed().as_secs_f64()
    };
    burst(out);
    // The warm-up burst's requests count too: its failures are in `failed`.
    out.attempted += pool.len();
    // A traced run splits its seconds between untraced cycles and traced
    // ones. The traced cycles have no bursts, so the service's metrics
    // over them cover the sweeps alone.
    let seconds = if traced { seconds / 2.0 } else { seconds };
    let (mut capacity, mut steal) = (Vec::new(), Vec::new());
    let steps = cycles(setup, service, seed, seconds, None, || {
        let t = Instant::now();
        capacity.push(burst(out));
        steal.push(clock.fraction(t, Instant::now()));
        out.attempted += pool.len();
    });
    let capacity: Vec<f64> = capacity
        .into_iter()
        .zip(steal::keep(&steal, 0))
        .filter(|(_, k)| *k)
        .map(|(c, _)| c)
        .collect();
    account(&steps, out);
    let views = merged_views(&steps);
    let e = &mut out.e2e;
    e.set("windows_per_s", median(&capacity));
    let max_rps = RATES
        .iter()
        .zip(steps.iter().zip(&views))
        .filter(|(_, (s, v))| meets(s, v))
        .map(|(r, _)| *r)
        .fold(0.0, f64::max);
    e.set("max_rps", max_rps);
    out.latencies = views[REF].latencies.clone();
    for (k, (s, v)) in steps.iter().zip(&views).enumerate() {
        let [sent, ok, ..] = buckets(s);
        out.context.push((
            ["rate1", "rate2", "rate3"][k],
            format!(
                "{{\"rps\": {}, \"sent\": {}, \"ok\": {}, \"misses\": {}, \"p50_ms\": {}, \"tail_ms\": {}, \"backlog_growth\": {}, \"meets\": {}}}",
                RATES[k],
                sent,
                ok,
                v.misses,
                median_or_zero(&v.latencies),
                tail_or_zero(&v.latencies),
                backlog_growth(s),
                meets(s, v)
            ),
        ));
    }
    out.context.push(("bursts_kept", capacity.len().to_string()));
    if traced {
        let rec = Recorder::default();
        let a = service.metrics();
        let tsteps = cycles(setup, service, seed, seconds, Some(&rec), || ());
        let b = service.metrics();
        account(&tsteps, out);
        let tviews = merged_views(&tsteps);
        layers(&tsteps, &tviews, &a, &b, &mut out.layer);
        let (plain, traced) = (median(&views[REF].latencies), median(&tviews[REF].latencies));
        out.layer.set("tracing.overhead_pct", 100.0 * (traced - plain) / plain);
        out.spans = rec.spans();
    }
}

/// Adds a sweep's outcome buckets and correctness to the run totals. Only
/// requests that failed count as failed. A refusal, a shed or an expired
/// deadline is the service's answer to more load than it can serve in
/// time, at any rate: past the knee by design, and below it whenever other
/// guests stall the machine for longer than the deadline. Those answers go
/// into the `loadgen.*` buckets and count as misses of the latency limit,
/// which decide `max_rps`.
fn account(steps: &[Vec<Step>], out: &mut Outcome) {
    for s in steps.iter().flatten() {
        out.check.expect(
            s.ok + s.failed + s.refused + s.shed + s.expired == s.sent,
            "a request landed in no outcome bucket or in two",
        );
        out.check.expect(s.wrong == 0, "a served request differs from LocatorEngine::locate");
        out.attempted += s.sent;
        out.failed += s.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_server_raises_later_requests_latency() {
        // 200 requests/s for 1 s; the first submission stalls for 300 ms
        // and the fake server answers every later one at once.
        let schedule = poisson_schedule(3, 200.0, Duration::from_secs(1));
        let mut first = true;
        let step = drive(
            &schedule,
            |_| {
                if std::mem::take(&mut first) {
                    std::thread::sleep(Duration::from_millis(300));
                }
                Submitted::Pending(Box::new(|| Completion::Ok {
                    done: Instant::now(),
                    correct: true,
                }))
            },
            || (0, 0),
            None,
        );
        assert_eq!(step.ok, schedule.len());
        let stalled_until = schedule[0].as_secs_f64() * 1e3 + 300.0;
        for (offset, latency) in &step.due {
            let (due, latency) = (offset.as_secs_f64() * 1e3, latency.expect("completed"));
            if due < stalled_until - 20.0 {
                // Timed from its due time, a request that had to wait for
                // the stall carries the rest of the stall in its latency.
                assert!(
                    latency >= stalled_until - due - 5.0,
                    "due {due:.1} ms: latency {latency:.1} ms"
                );
            }
        }
        // Requests due well after the stall are fast again.
        assert!(step.due.last().and_then(|d| d.1).is_some_and(|l| l < 50.0));
        assert!(
            step.late.iter().cloned().fold(0.0, f64::max) >= 250.0,
            "the generator reports running late"
        );
    }

    #[test]
    fn every_miss_counts_against_the_limit() {
        let due = |latencies: &[Option<f64>]| {
            latencies
                .iter()
                .enumerate()
                .map(|(i, l)| (Duration::from_millis(i as u64), *l))
                .collect()
        };
        // 98 on time, one refused, one late: 2% misses exceed the budget.
        let mut latencies = vec![Some(10.0); 98];
        latencies.extend([None, Some(LIMIT_MS + 1.0)]);
        let s = [Step { due: due(&latencies), ..Step::default() }];
        let view = s[0].view(LIMIT_MS);
        assert_eq!((view.sent, view.misses, view.latencies.len()), (100, 2, 99));
        assert!(!meets(&s, &view));
        // One miss in 100 is within it.
        latencies[99] = Some(10.0);
        let s = [Step { due: due(&latencies), ..Step::default() }];
        assert!(meets(&s, &s[0].view(LIMIT_MS)));
    }
}
