//! End-to-end locate benchmark.
//!
//! ```text
//! cargo run --release --manifest-path locbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload on RD-4 inputs simulated from `--seed`, checks
//! every located start against references computed at set-up, and prints
//! the run context and then, as the last line, one JSON object with every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). A wrong output fails the run with exit code 1. See
//! `NOTES.md` for the workloads and what each metric should move.

mod bulk;
mod report;
mod serve_open;
mod serve_tcp;
mod setup;
mod spans;
mod stats;
mod steal;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Check, Metrics};

const USAGE: &str = "usage: locbench --workload <bulk-files|serve-open|serve-tcp> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where the benchmark writes, relative to the directory it runs in.
const WORK_DIR: &str = ".bench_work";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Bulk,
    ServeOpen,
    ServeTcp,
}

impl Workload {
    const ALL: [(Workload, &'static str); 3] = [
        (Workload::Bulk, "bulk-files"),
        (Workload::ServeOpen, "serve-open"),
        (Workload::ServeTcp, "serve-tcp"),
    ];

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|(_, n)| *n == name).map(|(w, _)| *w)
    }

    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(w, _)| *w == self)
            .map(|(_, n)| *n)
            .expect("every workload is named")
    }

    /// Whether the workload runs the i8 engine.
    pub fn is_i8(self) -> bool {
        self == Workload::ServeOpen
    }
}

/// What a workload run hands back to be reported.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Metrics,
    pub layer: Metrics,
    pub check: Check,
    pub attempted: usize,
    pub failed: usize,
    /// Latencies behind `p50_ms`, ms.
    pub latencies: Vec<f64>,
    pub spans: Vec<spans::Span>,
    pub context: Vec<(&'static str, String)>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size in MB (`VmHWM`), or 0 where unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU model and whether the CPU reports AVX2 and AVX-VNNI.
fn cpu() -> (String, bool, bool) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        info.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map(|v| v.trim().to_string())
    };
    let flags = field("flags").unwrap_or_default();
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    (field("model name").unwrap_or_else(|| "unknown".into()), has("avx2"), has("avx_vnni"))
}

/// A digest of what set-up produced that must repeat for the same seed:
/// the model bytes and every reference the gate compares against.
fn setup_digest(s: &setup::Setup) -> u64 {
    let mut bytes = s.model_hash.to_le_bytes().to_vec();
    let mut push = |v: &[usize]| {
        bytes.extend((v.len() as u64).to_le_bytes());
        v.iter().for_each(|x| bytes.extend((*x as u64).to_le_bytes()));
    };
    match &s.inputs {
        setup::Inputs::Bulk { files, ref_starts, .. } => {
            files.iter().for_each(|f| push(&f.truth));
            push(ref_starts);
        }
        setup::Inputs::Captures(c) => c.iter().for_each(|i| {
            push(&i.truth);
            push(&i.reference);
        }),
    }
    stats::fnv1a(&bytes)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("locbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let t_run = Instant::now();
    let ticks_at_start = steal::cpu_ticks();
    let clock = steal::StealClock::start();
    let name = args.workload.name();
    let run_dir =
        PathBuf::from(WORK_DIR).join(format!("run-{name}-{}-{}", args.seed, std::process::id()));

    // Set up several times: `setup_s` is the median, and every set-up
    // must produce the same model and references.
    let mut times = Vec::new();
    let mut steal_during = Vec::new();
    let mut digests = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let t = Instant::now();
        let s = setup::run(args.workload, args.seed, &run_dir);
        steal_during.push(clock.fraction(t, Instant::now()));
        times.push(s.times);
        digests.push(setup_digest(&s));
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    eprintln!("locbench: {name} seed {} set up ({:.2?} each)", args.seed, times[0].total);

    let mut out = Outcome::default();
    out.check.expect(
        digests.iter().all(|&d| d == digests[0]),
        "set-up is not deterministic for one seed",
    );
    out.check
        .expect(setup.streamed_ok, "streamed starts differ from in-memory starts on a capture");
    match args.workload {
        Workload::Bulk => bulk::workload(&setup, args.seconds, args.trace, &clock, &mut out),
        Workload::ServeOpen => {
            serve_open::workload(&setup, args.seed, args.seconds, args.trace, &clock, &mut out)
        }
        Workload::ServeTcp => {
            serve_tcp::workload(&setup, args.seed, args.seconds, args.trace, &clock, &mut out)
        }
    }

    // Metrics every workload reports the same way, over the set-ups the
    // machine did not disturb.
    let kept_times: Vec<&setup::SetupTimes> = times
        .iter()
        .zip(steal::keep(&steal_during, 0))
        .filter(|(_, k)| *k)
        .map(|(t, _)| t)
        .collect();
    let med = |f: fn(&setup::SetupTimes) -> f64| {
        stats::median(&kept_times.iter().map(|t| f(t)).collect::<Vec<_>>())
    };
    let e = &mut out.e2e;
    e.set("setup_s", med(|t| t.total.as_secs_f64()));
    out.context.push(("setups_kept", kept_times.len().to_string()));
    out.check.expect(!out.latencies.is_empty(), "no latency samples");
    e.set("p50_ms", if out.latencies.is_empty() { 0.0 } else { stats::median(&out.latencies) });
    out.context.push(("latency_samples", out.latencies.len().to_string()));
    let (q, agree) = setup::quality(&setup, args.workload, args.seed);
    out.check.expect(q.total > 0 && q.located > 0, "nothing was located");
    e.set("hit_pct", 100.0 * q.hits as f64 / q.total.max(1) as f64);
    e.set("false_start_pct", 100.0 * q.false_starts as f64 / q.located.max(1) as f64);
    e.set("start_err_mean", q.errors.iter().sum::<f64>() / q.errors.len().max(1) as f64);
    out.context.push(("quality_cos", q.total.to_string()));
    e.set("i8_agree_pct", 100.0 * agree.0 as f64 / agree.1.max(1) as f64);
    e.set("ok_pct", 100.0 * (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64);
    e.set("peak_rss_mb", peak_rss_mb());

    let l = &mut out.layer;
    l.set("setup.simulate_s", med(|t| t.simulate.as_secs_f64()));
    l.set("setup.train_s", med(|t| t.train.as_secs_f64()));
    l.set("setup.quantize_s", med(|t| t.quantize.as_secs_f64()));
    l.set("setup.write_s", med(|t| t.write.as_secs_f64()));
    l.set("persist.load_ms", setup.load_ms);
    l.set("persist.save_ms", setup.save_ms);
    l.set("persist.model_bytes", setup.model_bytes as f64);
    let work = report::work_per_window(&setup);
    l.set("tinynn.flop_per_window", work.ops);
    l.set("tinynn.bytes_per_window", work.f32_bytes);
    l.set("qsimd.op_per_window", work.ops);
    l.set("qsimd.bytes_per_window", work.i8_bytes);

    let (cpu_model, avx2, vnni) = cpu();
    let mut context = vec![
        ("workload", report::string(name)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("traced", args.trace.to_string()),
        ("nproc", setup::nproc().to_string()),
        ("cpu", report::string(&cpu_model)),
        ("avx2", avx2.to_string()),
        ("avx_vnni", vnni.to_string()),
        ("qsimd_compiled", qsimd::available().to_string()),
        ("engine_threads", setup.engine.sliding().threads().to_string()),
        ("service_workers", if setup.serving.is_some() { setup::nproc() } else { 0 }.to_string()),
        ("cipher", report::string(&setup::CIPHER.to_string())),
        ("mean_co_samples", setup.mean_co.to_string()),
        ("window_len", setup.engine.sliding().window_len().to_string()),
        ("stride", setup.engine.sliding().stride().to_string()),
        ("model_hash", report::string(&format!("{:016x}", setup.model_hash))),
        ("setup_digest", report::string(&format!("{:016x}", digests[0]))),
        ("run_s", t_run.elapsed().as_secs_f64().to_string()),
        ("steal_pct", {
            let (steal, busy) = steal::cpu_ticks();
            (100.0 * (steal - ticks_at_start.0) as f64 / (busy - ticks_at_start.1).max(1) as f64)
                .to_string()
        }),
    ];
    clock.stop();
    if args.trace {
        context.push(("tracing_overhead_pct", out.layer.get("tracing.overhead_pct").to_string()));
    }
    context.extend(out.context.iter().map(|(k, v)| (*k, v.clone())));
    let failures: Vec<String> = out.check.failures.iter().map(|f| report::string(f)).collect();
    context.push(("failures", format!("[{}]", failures.join(", "))));

    let (catalogue, values) =
        if args.trace { (report::PER_LAYER, &out.layer) } else { (report::END_TO_END, &out.e2e) };
    let correct = out.check.ok();
    let line = report::result_line(correct, out.attempted, out.failed, catalogue, values);
    let context_line = format!("{{\"context\": {}}}", report::object(&context));

    drop(setup);
    if let Err(e) = std::fs::remove_dir_all(&run_dir) {
        eprintln!("locbench: could not remove {}: {e}", run_dir.display());
    }
    let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let results = PathBuf::from(WORK_DIR).join("results");
    if args.trace {
        let path = results.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = spans::write(&path, &out.spans) {
            eprintln!("locbench: could not write {}: {e}", path.display());
        }
    }
    let saved = std::fs::create_dir_all(&results).and_then(|()| {
        std::fs::write(results.join(format!("{stem}.json")), format!("{context_line}\n{line}\n"))
    });
    if let Err(e) = saved {
        eprintln!("locbench: could not save the result: {e}");
    }
    for f in &out.check.failures {
        eprintln!("locbench: INCORRECT: {f}");
    }
    println!("{context_line}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
