//! Set-up: simulate RD-4 inputs with known ground truth, train the locator,
//! quantise its i8 twin, write the inputs and models, compute the reference
//! starts the correctness gate compares against, and start the service.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use locsvc::{net, LocatorService, ModelRegistry, RegistryConfig, ServiceConfig};
use sca_ciphers::{cipher_by_id, CipherId};
use sca_locator::{hit_rate, CipherProfile, LocatorBuilder, LocatorEngine};
use sca_trace::{FileTraceSource, Trace};
use soc_sim::{Scenario, ScenarioResult, SocSimulator, SocSimulatorConfig};

use crate::stats::{fnv1a, Rng};
use crate::Workload;

/// The cipher every workload locates.
pub const CIPHER: CipherId = CipherId::Simon128;
/// Random-delay countermeasure: RD-4, the desynchronised setting.
const RD: usize = 4;
/// The model is trained from a fixed seed, so it is the same for every
/// workload seed; `--seed` varies only the inputs located.
const TRAIN_SEED: u64 = 42;
/// Training material: cipher traces with a known CO start, plus one noise
/// trace of this many operations.
const TRAIN_TRACES: usize = 64;
const NOISE_OPS: usize = 8_000;
/// Calibration windows for the i8 twin.
const CALIBRATION_WINDOWS: usize = 256;

/// `bulk-files`: trace files of interleaved COs, this many samples each.
const BULK_FILES: usize = 8;
const BULK_FILE_LEN: usize = 96 * 1024;
/// Streaming chunk for `locate_streamed`; every bulk file is several chunks.
pub const BULK_CHUNK: usize = 16_384;
/// `serve-open`: distinct request captures of 1–4 consecutive COs.
const OPEN_POOL: usize = 64;
/// `serve-tcp`: distinct long captures of this many samples, streamed in
/// chunks of `TCP_CHUNK` samples.
const TCP_POOL: usize = 6;
const TCP_CAPTURE_LEN: usize = 16 * 1024;
const TCP_CHUNK: usize = 4_096;
/// Inputs on which set-up compares i8 with f32 starts.
const AGREE_INPUTS: usize = 16;
/// Service admission bound: above the `serve-open` pool, so a capacity
/// burst of the whole pool is never refused.
const QUEUE_CAPACITY: usize = 2 * OPEN_POOL;
/// Registry name of the served model.
pub const MODEL_NAME: &str = "simon-rd4";

/// Wall time of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub simulate: Duration,
    pub train: Duration,
    pub quantize: Duration,
    pub write: Duration,
    pub total: Duration,
}

/// One located input with its ground truth and the reference starts the
/// workload's output must reproduce exactly.
#[derive(Debug, Clone)]
pub struct Input {
    pub trace: Trace,
    pub truth: Vec<usize>,
    pub reference: Vec<usize>,
    pub windows: usize,
}

/// A bulk trace file.
#[derive(Debug, Clone)]
pub struct BulkFile {
    pub path: PathBuf,
    pub truth: Vec<usize>,
    pub windows: usize,
}

/// What a workload locates.
pub enum Inputs {
    Bulk {
        files: Vec<BulkFile>,
        /// The file whose streamed starts must equal the in-memory starts.
        ref_index: usize,
        ref_starts: Vec<usize>,
    },
    Captures(Vec<Input>),
}

/// The running service of a serving workload.
pub struct Serving {
    pub service: Arc<LocatorService>,
    pub server: Option<net::ServerHandle>,
    /// The two model files holding identical weights that `serve-tcp`
    /// alternates between.
    pub swap_paths: [PathBuf; 2],
}

/// Everything set-up produces.
pub struct Setup {
    pub engine: LocatorEngine,
    pub inputs: Inputs,
    pub serving: Option<Serving>,
    pub tolerance: usize,
    pub mean_co: f64,
    pub model_hash: u64,
    pub model_bytes: u64,
    pub save_ms: f64,
    pub load_ms: f64,
    /// The engine of the other kind, for the i8/f32 agreement.
    pub twin: LocatorEngine,
    /// Whether streamed starts equalled in-memory starts on every capture
    /// checked at set-up.
    pub streamed_ok: bool,
    pub times: SetupTimes,
}

/// The engine threads and service workers: one per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn simulator(seed: u64) -> SocSimulator {
    SocSimulator::new(SocSimulatorConfig::rd(RD), seed)
}

/// Runs one complete set-up for `workload` in `dir`.
pub fn run(workload: Workload, seed: u64, dir: &Path) -> Setup {
    let t_all = Instant::now();
    let mut times = SetupTimes::default();
    std::fs::create_dir_all(dir).expect("create the work directory");

    // Training material from the fixed training seed.
    let t = Instant::now();
    let mut sim = simulator(TRAIN_SEED);
    let mean_co = sim.mean_co_samples(CIPHER, 8);
    let profile = CipherProfile::scaled(CIPHER, mean_co.round() as usize);
    let cipher = cipher_by_id(CIPHER);
    let cipher_traces: Vec<Trace> = (0..TRAIN_TRACES)
        .map(|_| {
            let pt = sim.trng_mut().next_block();
            sim.capture_cipher_trace(cipher.as_ref(), &Scenario::DEFAULT_KEY, &pt).0
        })
        .collect();
    let noise = sim.capture_noise_trace(NOISE_OPS);
    let raw = simulate_inputs(workload, seed);
    times.simulate = t.elapsed();

    let t = Instant::now();
    let (locator, _report) =
        LocatorBuilder::from_profile(&profile).seed(TRAIN_SEED).fit(&cipher_traces, &noise);
    let f32_engine = locator.into_engine().with_threads(nproc());
    times.train = t.elapsed();

    let t = Instant::now();
    let n_inf = f32_engine.sliding().window_len();
    let mut rng = Rng::new(TRAIN_SEED);
    let calibration: Vec<Vec<f32>> = (0..CALIBRATION_WINDOWS)
        .map(|i| {
            let s = cipher_traces[i % cipher_traces.len()].samples();
            let at = rng.below(s.len() - n_inf);
            s[at..at + n_inf].to_vec()
        })
        .collect();
    let i8_engine = f32_engine.quantize_with_samples(&calibration);
    times.quantize = t.elapsed();

    let (engine, twin) =
        if workload.is_i8() { (i8_engine, f32_engine) } else { (f32_engine, i8_engine) };
    let t = Instant::now();
    let model_path = dir.join("model.scalocen");
    let t_save = Instant::now();
    engine.save(&model_path).expect("save the model");
    let save_ms = crate::stats::ms(t_save.elapsed());
    let bytes = std::fs::read(&model_path).expect("read the model back");
    let t_load = Instant::now();
    let loaded = LocatorEngine::load(&model_path).expect("load the model");
    let load_ms = crate::stats::ms(t_load.elapsed());
    assert_eq!(loaded.is_quantized(), engine.is_quantized());
    let swap_paths = [dir.join("model-a.scalocen"), dir.join("model-b.scalocen")];
    if workload == Workload::ServeTcp {
        for p in &swap_paths {
            std::fs::write(p, &bytes).expect("write a swap model file");
        }
    }
    let files = match &raw {
        Raw::Files(traces) => traces
            .iter()
            .enumerate()
            .map(|(i, (trace, truth))| {
                let path = dir.join(format!("trace-{i}.f32"));
                let mut w = std::io::BufWriter::new(
                    std::fs::File::create(&path).expect("create a trace file"),
                );
                sca_trace::io::write_samples_binary(&mut w, trace.samples())
                    .expect("write a trace file");
                w.flush().expect("flush a trace file");
                BulkFile {
                    path,
                    truth: truth.clone(),
                    windows: engine.sliding().output_len(trace.len()),
                }
            })
            .collect(),
        Raw::Captures(_) => Vec::new(),
    };
    times.write = t.elapsed();

    // The starts the workload must reproduce exactly.
    let mut streamed_ok = true;
    let inputs = match raw {
        Raw::Files(traces) => {
            let ref_index = (seed as usize) % traces.len();
            let ref_starts = engine.locate(&traces[ref_index].0);
            Inputs::Bulk { files, ref_index, ref_starts }
        }
        Raw::Captures(captures) => Inputs::Captures(
            captures
                .into_iter()
                .map(|(trace, truth)| {
                    let mut reference = engine.locate(&trace);
                    if workload == Workload::ServeTcp {
                        let streamed =
                            engine.locate_streamed(&trace, TCP_CHUNK).expect("stream a capture");
                        streamed_ok &= streamed == reference;
                        reference = streamed;
                    }
                    let windows = engine.sliding().output_len(trace.len());
                    Input { trace, truth, reference, windows }
                })
                .collect(),
        ),
    };

    let serving = match workload {
        Workload::ServeOpen => {
            let service = LocatorService::start(vec![engine.clone()], service_config());
            Some(Serving { service: Arc::new(service), server: None, swap_paths })
        }
        Workload::ServeTcp => {
            let registry = Arc::new(ModelRegistry::new(RegistryConfig::default()));
            registry.register(MODEL_NAME, &swap_paths[0]).expect("register the model");
            let service = Arc::new(LocatorService::with_registry(registry, service_config()));
            let listener =
                std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
            let cfg = net::ServerConfig { allow_admin: true, ..net::ServerConfig::default() };
            let server =
                net::serve(Arc::clone(&service), listener, cfg).expect("start the TCP server");
            Some(Serving { service, server: Some(server), swap_paths })
        }
        Workload::Bulk => None,
    };
    times.total = t_all.elapsed();

    Setup {
        tolerance: (mean_co / 2.0) as usize,
        mean_co,
        model_hash: fnv1a(&bytes),
        model_bytes: bytes.len() as u64,
        engine,
        inputs,
        serving,
        save_ms,
        load_ms,
        twin,
        streamed_ok,
        times,
    }
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: nproc(),
        queue_capacity: QUEUE_CAPACITY,
        chunk_len: TCP_CHUNK,
        ..ServiceConfig::default()
    }
}

enum Raw {
    Files(Vec<(Trace, Vec<usize>)>),
    Captures(Vec<(Trace, Vec<usize>)>),
}

/// The workload's inputs from the workload seed. Each input has its own
/// simulator, seeded from `(seed, index)`. Bulk files and TCP captures are
/// cut to a fixed length, so the work per input does not vary with the
/// seed.
fn simulate_inputs(workload: Workload, seed: u64) -> Raw {
    let sub = |i: usize| Rng::new(seed.wrapping_mul(0x1000).wrapping_add(i as u64)).next_u64();
    // Interleaved COs, as many as it takes to fill `len` samples.
    let interleaved = |i: usize, len: usize, first: usize| {
        let mut cos = first;
        loop {
            let r = simulator(sub(i)).run_scenario(&Scenario::interleaved(CIPHER, cos));
            if r.trace.len() >= len && r.cos.len() >= 2 {
                return r;
            }
            cos += 2;
        }
    };
    match workload {
        Workload::Bulk => Raw::Files(
            (0..BULK_FILES)
                .map(|i| cut(&interleaved(i, BULK_FILE_LEN, 4), 0, BULK_FILE_LEN))
                .collect(),
        ),
        Workload::ServeOpen => Raw::Captures(short_captures(seed)),
        Workload::ServeTcp => Raw::Captures(
            (0..TCP_POOL)
                .map(|i| {
                    // Centred on the second CO, with the noise applications
                    // around it.
                    let r = interleaved(i, TCP_CAPTURE_LEN, 3);
                    let mid = (r.cos[1].start_sample + r.cos[1].end_sample) / 2;
                    let at = mid
                        .saturating_sub(TCP_CAPTURE_LEN / 2)
                        .min(r.trace.len() - TCP_CAPTURE_LEN);
                    cut(&r, at, TCP_CAPTURE_LEN)
                })
                .collect(),
        ),
    }
}

/// Idle operations before the first CO (and after the last) of the
/// shortest capture of each size …
const LEAD_OPS: usize = 64;
/// … and the step between the leads of one size's captures. With RD-4,
/// an idle operation adds about 7.5 samples at each end and one more CO
/// about 2 700 samples, so the 16 leads of one size spread its captures
/// over one CO's length: request sizes cover 1 to 5 COs evenly instead of
/// four lumps, and no latency percentile sits on a gap between two lumps.
const LEAD_STEP_OPS: usize = 11;

/// Short captures of 1–4 back-to-back COs. Each size has an equal number
/// of captures, with leads stepped by [`LEAD_STEP_OPS`], so the pool's
/// work does not vary with the seed: the `serve-open` requests and every
/// workload's quality set.
pub fn short_captures(seed: u64) -> Vec<(Trace, Vec<usize>)> {
    (0..OPEN_POOL)
        .map(|i| {
            let sim_seed = Rng::new(seed.wrapping_mul(0x1000).wrapping_add(i as u64)).next_u64();
            let scenario = Scenario {
                lead_ops: LEAD_OPS + LEAD_STEP_OPS * (i / 4),
                ..Scenario::consecutive(CIPHER, 1 + i % 4)
            };
            let r = simulator(sim_seed).run_scenario(&scenario);
            let truth = r.co_starts();
            (r.trace, truth)
        })
        .collect()
}

/// Located-start quality of the workload's engine on the quality set (the
/// short captures of the seed), and the i8/f32 agreement on its first
/// `AGREE_INPUTS` captures: f32 starts the i8 engine also finds, out of
/// all f32 starts.
pub fn quality(setup: &Setup, workload: Workload, seed: u64) -> (Quality, (usize, usize)) {
    let mut q = Quality::default();
    let mut agree = (0, 0);
    let mut add = |i: usize, trace: &Trace, truth: &[usize], starts: &[usize]| {
        q.add(starts, truth, setup.tolerance);
        if i < AGREE_INPUTS {
            let other = setup.twin.locate(trace);
            let (f, q8) = if setup.engine.is_quantized() {
                (&other[..], starts)
            } else {
                (starts, &other[..])
            };
            agree.0 += f.iter().filter(|s| q8.contains(s)).count();
            agree.1 += f.len();
        }
    };
    match (&setup.inputs, workload) {
        // The request pool is the quality set, its starts already located.
        (Inputs::Captures(pool), Workload::ServeOpen) => {
            pool.iter().enumerate().for_each(|(i, c)| add(i, &c.trace, &c.truth, &c.reference))
        }
        _ => short_captures(seed)
            .iter()
            .enumerate()
            .for_each(|(i, (trace, truth))| add(i, trace, truth, &setup.engine.locate(trace))),
    }
    (q, agree)
}

/// The cut `[at, at + len)` of a simulated trace; its ground truth is every
/// CO that lies wholly inside the cut.
fn cut(r: &ScenarioResult, at: usize, len: usize) -> (Trace, Vec<usize>) {
    let trace = Trace::from_samples(r.trace.samples()[at..at + len].to_vec());
    let truth = r
        .cos
        .iter()
        .filter(|c| c.start_sample >= at && c.end_sample <= at + len)
        .map(|c| c.start_sample - at)
        .collect();
    (trace, truth)
}

/// Located-start quality against ground truth, summed over inputs.
#[derive(Debug, Default, Clone)]
pub struct Quality {
    pub hits: usize,
    pub total: usize,
    pub located: usize,
    pub false_starts: usize,
    pub errors: Vec<f64>,
}

impl Quality {
    pub fn add(&mut self, located: &[usize], truth: &[usize], tolerance: usize) {
        let report = hit_rate(located, truth, tolerance);
        self.hits += report.hits;
        self.total += report.total;
        self.located += located.len();
        self.false_starts += report.false_positives;
        self.errors.extend(report.matches.iter().map(|&(t, l)| t.abs_diff(l) as f64));
    }
}

/// Opens a bulk file for streamed locating.
pub fn open(file: &BulkFile) -> FileTraceSource {
    FileTraceSource::open_raw_f32(&file.path).expect("open a trace file")
}
