//! `serve-tcp`: a closed loop of one `net::Client` connection that ships
//! long captures as streamed `SCLQ` frames to `net::serve`, which fronts a
//! registry-backed service running the f32 engine. At a fixed period, a
//! second, admin-only connection hot-swaps the model with an `SCLA` frame,
//! alternating between two files that hold identical weights, so every
//! swap lands while a request is in flight.
//!
//! One streaming connection, not one per core: with two, the two client
//! threads, their two server threads and the two service workers
//! oversubscribed a 2-core host, and the run-to-run spread of every timing
//! figure was nearly twice as wide.
//!
//! The connections are `net::Client`s with the default retry policy, so
//! the round trips are what a caller of the shipped client pays. Only the
//! traced run's `net.send_ms` probe speaks the frame codec itself, on a
//! socket with the same (default) options, to time the send apart from the
//! wait for the answer.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use locsvc::net::{self, Client, Status, FLAG_STREAMED};
use locsvc::{MetricsSnapshot, RequestOptions};

use crate::setup::{Input, Inputs, Setup, MODEL_NAME};
use crate::spans::Recorder;
use crate::stats::{median, ms, tail, Rng};
use crate::steal::{self, StealClock};
use crate::Outcome;

/// The admin connection swaps the model this often.
const SWAP_PERIOD: Duration = Duration::from_millis(1000);

/// What one connection did: the streaming one completes requests, the
/// admin one swaps.
#[derive(Debug, Default)]
struct Conn {
    /// Start, round trip (ms) and windows of every completed request.
    done: Vec<(Instant, f64, usize)>,
    swap_ms: Vec<f64>,
    sent: usize,
    ok: usize,
    wrong: usize,
    bytes: usize,
    depth_max: usize,
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("connect to the server")
}

/// One streamed request and its answer, with the round trip it took.
fn locate(client: &mut Client, input: &Input) -> (Result<Vec<u64>, String>, Duration) {
    let t0 = Instant::now();
    let result = client
        .locate(MODEL_NAME, FLAG_STREAMED, 0, input.trace.samples())
        .map_err(|e| e.to_string())
        .and_then(|r| {
            if r.status == Status::Ok {
                Ok(r.starts)
            } else {
                Err(format!("{:?}", r.status))
            }
        });
    (result, t0.elapsed())
}

fn correct(starts: &[u64], input: &Input) -> bool {
    starts.iter().map(|&s| s as usize).eq(input.reference.iter().copied())
}

/// Streams captures on one connection and swaps the model on another
/// until `seconds` have elapsed. Returns the streaming connection's record
/// and the admin connection's.
fn phase(
    setup: &Setup,
    seed: u64,
    seconds: f64,
    rec: Option<&Recorder>,
) -> (Conn, Conn, Instant, MetricsSnapshot, MetricsSnapshot) {
    let Inputs::Captures(pool) = &setup.inputs else {
        unreachable!("serve-tcp is set up with captures")
    };
    let serving = setup.serving.as_ref().expect("serve-tcp starts a service");
    let addr = serving.server.as_ref().expect("serve-tcp starts a server").addr();
    let paths: Vec<String> = serving
        .swap_paths
        .iter()
        .map(|p| p.to_str().expect("work paths are UTF-8").to_string())
        .collect();
    let service = &serving.service;
    let before = service.metrics();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let (stream, admin) = std::thread::scope(|scope| {
        let admin = scope.spawn(|| {
            let mut client = connect(addr);
            let mut conn = Conn::default();
            let mut next_swap = start + SWAP_PERIOD;
            while next_swap < end {
                std::thread::sleep(next_swap.saturating_duration_since(Instant::now()));
                let t = Instant::now();
                let path = &paths[conn.swap_ms.len() % 2];
                let ok = client.swap(MODEL_NAME, path).is_ok_and(|r| r.status == Status::Ok);
                conn.swap_ms.push(ms(t.elapsed()));
                conn.wrong += usize::from(!ok);
                if let Some(rec) = rec {
                    rec.record("swap", rec.at(t), rec.now(), None, conn.swap_ms.len() as u64);
                }
                next_swap += SWAP_PERIOD;
            }
            conn
        });
        let mut client = connect(addr);
        let mut picks = Rng::new(seed.wrapping_mul(7)).rounds(pool.len(), 1 << 16).into_iter();
        let mut conn = Conn::default();
        while Instant::now() < end {
            let input = &pool[picks.next().expect("more picks than requests")];
            conn.sent += 1;
            let t = Instant::now();
            let (result, rtt) = locate(&mut client, input);
            if let Some(rec) = rec {
                rec.record("rtt", rec.at(t), rec.at(t + rtt), None, conn.sent as u64);
            }
            match result {
                Ok(starts) => {
                    conn.ok += 1;
                    conn.wrong += usize::from(!correct(&starts, input));
                    conn.done.push((t, ms(rtt), input.windows));
                    conn.bytes += 4 * input.trace.len();
                }
                Err(e) => eprintln!("locbench: serve-tcp request failed: {e}"),
            }
            conn.depth_max = conn.depth_max.max(service.metrics().queue_depth);
        }
        (conn, admin.join().expect("the admin connection thread panicked"))
    });
    (stream, admin, start, before, service.metrics())
}

pub fn workload(
    setup: &Setup,
    seed: u64,
    seconds: f64,
    traced: bool,
    clock: &StealClock,
    out: &mut Outcome,
) {
    let Inputs::Captures(pool) = &setup.inputs else {
        unreachable!("serve-tcp is set up with captures")
    };
    // Warm-up: loads the registered model and sends each capture once.
    {
        let addr = setup
            .serving
            .as_ref()
            .and_then(|s| s.server.as_ref())
            .expect("serve-tcp starts a server")
            .addr();
        let mut client = connect(addr);
        for input in pool {
            let ok = locate(&mut client, input).0.is_ok_and(|s| correct(&s, input));
            out.check
                .expect(ok, "a streamed TCP request differs from LocatorEngine::locate_streamed");
        }
    }

    // A traced run splits its seconds between an untraced and a traced
    // phase.
    let seconds = if traced { seconds / 2.0 } else { seconds };
    let (stream, admin, start, _, _) = phase(setup, seed, seconds, None);
    account(&stream, &admin, out);
    let kept = kept_requests(&stream, start, clock);
    // A closed loop without think time keeps its connection busy, so its
    // throughput is work / time over the kept requests.
    let busy_s = kept.iter().map(|r| r.1).sum::<f64>() / 1e3;
    let windows = kept.iter().map(|r| r.2).sum::<usize>() as f64;
    out.e2e.set("windows_per_s", windows / busy_s);
    out.e2e.set("max_rps", kept.len() as f64 / busy_s);
    out.latencies = kept.iter().map(|r| r.1).collect();
    out.context.push(("requests_kept", kept.len().to_string()));
    out.context.push(("swaps", admin.swap_ms.len().to_string()));

    if traced {
        let rec = Recorder::default();
        let (tstream, tadmin, tstart, a, b) = phase(setup, seed, seconds, Some(&rec));
        account(&tstream, &tadmin, out);
        let rtt: Vec<f64> = kept_requests(&tstream, tstart, clock).iter().map(|r| r.1).collect();
        let swaps = &tadmin.swap_ms;
        let (overhead, send) = probe(setup, out);
        let l = &mut out.layer;
        l.set("net.overhead_ms", overhead);
        let rtt_p50 = median(&rtt);
        l.set("net.rtt_p50_ms", rtt_p50);
        l.set("net.rtt_p90_ms", tail(&rtt).map_or(0.0, |(_, v)| v));
        l.set("net.send_ms", send);
        l.set("net.mb_sent", tstream.bytes as f64 / 1e6);
        l.set("net.conn_timeouts", (b.conn_timeouts - a.conn_timeouts) as f64);
        l.set("registry.load_retries", (b.retries - a.retries) as f64);
        l.set("registry.swap_ms", if swaps.is_empty() { 0.0 } else { median(swaps) });
        l.set("registry.swaps", (b.model_swaps - a.model_swaps) as f64);
        l.set("registry.loads", (b.model_loads - a.model_loads) as f64);
        l.set("registry.evictions", (b.model_evictions - a.model_evictions) as f64);
        crate::report::service_deltas(&a, &b, tstream.depth_max, l);
        let plain = median(&out.latencies);
        l.set("tracing.overhead_pct", 100.0 * (rtt_p50 - plain) / plain);
        out.spans = rec.spans();
    }
}

/// Probes one request at a time: `net.overhead_ms` and `net.send_ms`.
///
/// Each capture is located over a lone `net::Client` connection and
/// in-process through the same streamed path (`submit_reader`); the
/// difference of the medians is what framing and the socket add. Each is
/// also sent over a plain socket with the frame codec, which times the
/// write of the frame apart from the wait for the answer.
fn probe(setup: &Setup, out: &mut Outcome) -> (f64, f64) {
    let Inputs::Captures(pool) = &setup.inputs else {
        unreachable!("serve-tcp is set up with captures")
    };
    let serving = setup.serving.as_ref().expect("serve-tcp starts a service");
    let addr = serving.server.as_ref().expect("serve-tcp starts a server").addr();
    let mut client = connect(addr);
    let stream = TcpStream::connect(addr).expect("connect to the server");
    let (mut rtt, mut inside, mut send) = (Vec::new(), Vec::new(), Vec::new());
    for input in pool.iter().chain(pool) {
        let (result, t) = locate(&mut client, input);
        out.check.expect(
            result.is_ok_and(|s| correct(&s, input)),
            "a streamed TCP request differs from LocatorEngine::locate_streamed",
        );
        rtt.push(ms(t));

        let bytes: Vec<u8> = input.trace.samples().iter().flat_map(|x| x.to_le_bytes()).collect();
        let ticket = serving.service.submit_reader(
            MODEL_NAME,
            std::io::Cursor::new(bytes),
            input.trace.len(),
            RequestOptions::default(),
        );
        match ticket.map_err(|_| ()).and_then(|t| t.wait().map_err(|_| ())) {
            Ok(r) => {
                out.check.expect(
                    r.starts == input.reference,
                    "an in-process streamed request differs from locate_streamed",
                );
                inside.push(ms(r.latency));
            }
            Err(()) => out.check.expect(false, "an in-process streamed request failed"),
        }

        let t = Instant::now();
        let sent = net::write_request(&stream, MODEL_NAME, FLAG_STREAMED, 0, input.trace.samples());
        send.push(ms(t.elapsed()));
        let answer = sent
            .map_err(|e| e.to_string())
            .and_then(|()| net::read_response(&stream, 1 << 24).map_err(|e| e.to_string()));
        out.check.expect(
            answer.is_ok_and(|r| r.status == Status::Ok && correct(&r.starts, input)),
            "a streamed TCP request differs from LocatorEngine::locate_streamed",
        );
    }
    (median(&rtt) - median(&inside), median(&send))
}

/// The completed requests that started in the seconds of the phase that
/// [`steal::keep`] keeps.
fn kept_requests(stream: &Conn, start: Instant, clock: &StealClock) -> Vec<(Instant, f64, usize)> {
    let second = |t: Instant| t.saturating_duration_since(start).as_secs() as usize;
    let seconds = stream.done.iter().map(|r| second(r.0) + 1).max().unwrap_or(0);
    let at = |k: usize| start + Duration::from_secs(k as u64);
    let steal: Vec<f64> = (0..seconds).map(|k| clock.fraction(at(k), at(k + 1))).collect();
    let kept = steal::keep(&steal, 0);
    stream.done.iter().copied().filter(|r| kept[second(r.0)]).collect()
}

fn account(stream: &Conn, admin: &Conn, out: &mut Outcome) {
    out.check.expect(stream.wrong == 0, "a streamed TCP request returned a wrong answer");
    out.check.expect(admin.wrong == 0, "a model swap was not answered Ok");
    out.attempted += stream.sent;
    out.failed += stream.sent - stream.ok;
}
