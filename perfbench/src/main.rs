//! The regionsel benchmark: one command per workload that sets the
//! workload up from its seed, measures it, checks its outputs against
//! an independent reference, and prints every metric by name.
//!
//! ```text
//! perfbench --workload <matrix|serve|serve-shared|serve-pressure>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is the
//! separate traced run that prints the per-layer metrics and writes
//! its spans to `perfbench/out/<workload>.trace.jsonl`. The last line
//! of standard output is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed check
//! exits non-zero. See `README.md` beside this file for every metric.

mod matrix;
mod record;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{ROOT, Recorder, Span, Tracer};

/// Seed used when `--seed` is absent (the figure binaries' seed).
const DEFAULT_SEED: u64 = rsel_bench::DEFAULT_SEED;

/// Worker threads for `matrix`'s measured phase and for the traced
/// run's jobs-N serve: this many, or fewer on a machine with fewer
/// cores. The untraced serve workloads measure at one worker (see
/// `serve::run`).
const MAX_JOBS: usize = 2;

/// End-to-end metrics (`--trace 0`) and their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("hit_rate", "ratio"),
    ("insts_selected", "count"),
];

/// Per-layer metrics of the replay layer.
const REPLAY_LAYER: &[(&str, &str)] = &[
    ("replay.busy_ms", "ms"),
    ("replay.cell_ms.p50", "ms"),
    ("replay.cell_ms.max", "ms"),
    ("replay.worker_util", "ratio"),
];

/// Per-layer metrics of the serving runtime.
const SERVE_LAYERS: &[(&str, &str)] = &[
    ("session.epochs", "count"),
    ("session.run_epoch_ms", "ms"),
    ("session.epoch_us.p50", "us"),
    ("session.epoch_us.p99", "us"),
    ("publish.ms", "ms"),
    ("policy.ms", "ms"),
    ("policy.switches", "count"),
    ("serve.rounds", "count"),
    ("serve.active_per_round", "count"),
    ("serve.run_s_jobs1", "s"),
    ("serve.parallel_eff", "ratio"),
    ("serve.residual_ms", "ms"),
    ("admission.wait_mean", "rounds"),
    ("shard.pressure_waves", "count"),
    ("shard.shed_actions", "count"),
    ("shard.pressure_evicted", "count"),
    ("shard.contended_rounds", "count"),
    ("shard.reformations", "count"),
    ("store.dedup_ratio", "ratio"),
    ("store.unique_bytes", "bytes"),
];

/// Per-layer metrics every workload reports.
const COMMON_LAYERS: &[(&str, &str)] = &[
    ("record.ms", "ms"),
    ("record.steps", "count"),
    ("record.bytes", "bytes"),
    ("decode.ms", "ms"),
    ("decode.spin_coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("bench.jobs", "count"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Record the suite once, replay all 12 x 8 selector cells.
    Matrix,
    /// The default 12-tenant serve.
    Serve,
    /// 8 replicas of the suite (96 tenants) with the shared store on.
    ServeShared,
    /// The same 96 tenants with the shared store off.
    ServePressure,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "matrix" => Workload::Matrix,
            "serve" => Workload::Serve,
            "serve-shared" => Workload::ServeShared,
            "serve-pressure" => Workload::ServePressure,
            _ => return None,
        })
    }

    /// Populations an untraced run sets up and measures, sized so that
    /// ten runs at different seeds agree well within the bounds while a
    /// run stays near half a minute: most for the short 12-tenant serve,
    /// whose selection varies most from seed to seed, and fewest for
    /// `serve-pressure`, whose every population costs a multi-second
    /// serve.
    fn populations(self) -> usize {
        match self {
            Workload::Matrix => 8,
            Workload::Serve => 10,
            Workload::ServeShared => 6,
            Workload::ServePressure => 4,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Matrix => "matrix",
            Workload::Serve => "serve",
            Workload::ServeShared => "serve-shared",
            Workload::ServePressure => "serve-pressure",
        }
    }
}

/// Parsed command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured phase runs (at least one iteration).
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads N: `matrix`'s measured phase and the traced
    /// run's jobs-N serve use this many.
    pub jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} must be {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad("one of matrix, serve, serve-shared, serve-pressure"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        jobs: MAX_JOBS.min(cores),
    })
}

/// What one invocation measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (cells replayed, tenants served).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records metric `name`.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name, value);
    }

    /// Counts `n` failed operations, saying why on stderr.
    pub fn fail(&mut self, n: u64, why: impl std::fmt::Display) {
        self.failed += n;
        eprintln!("FAIL: {why}");
    }
}

/// The seeds of a run's populations: the run seed itself, then
/// `count - 1` seeds mixed from it. A run averages its simulated
/// outcome over several inputs so that one seed's luck does not decide
/// the figures; the same run seed always gives the same populations.
pub fn population_seeds(seed: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| {
            if i == 0 {
                seed
            } else {
                stats::mix(seed ^ stats::mix(i))
            }
        })
        .collect()
}

/// What [`run_populations`] measured, in seconds and MiB.
pub struct Populations {
    /// Set-up time of each population.
    pub setups: Vec<f64>,
    /// Each population's measured times, one per call.
    pub runs: Vec<Vec<f64>>,
    /// Peak resident memory once the first population is done: one
    /// population set up, checked and measured, undisturbed by the
    /// allocator's leftovers from the next ones.
    pub peak_rss_mib: f64,
}

/// Sets up each of the workload's populations in turn (timed), hands
/// it to `measure` with its share of the run's seconds, and drops it
/// before the next set-up.
pub fn run_populations<P>(
    args: &Args,
    mut setup: impl FnMut(u64) -> P,
    mut measure: impl FnMut(usize, u64, &P, f64) -> Vec<f64>,
) -> Populations {
    let count = args.workload.populations();
    let slice = args.seconds / count as f64;
    let mut out = Populations {
        setups: Vec::with_capacity(count),
        runs: Vec::with_capacity(count),
        peak_rss_mib: 0.0,
    };
    for (i, seed) in population_seeds(args.seed, count).into_iter().enumerate() {
        let t = Instant::now();
        let population = setup(seed);
        out.setups.push(stats::secs_since(t));
        out.runs.push(measure(i, seed, &population, slice));
        drop(population);
        if i == 0 {
            out.peak_rss_mib = stats::peak_rss_mib();
        }
    }
    out
}

/// Reports `setup_s`, `run_s` and `peak_rss_mib` from `pops`; `run_s`
/// is the median of all the run's measured calls, pooled over its
/// populations.
pub fn put_populations(pops: &Populations, report: &mut Report) {
    println!("populations: setup {:?} s", pops.setups);
    for (i, calls) in pops.runs.iter().enumerate() {
        println!("population {i}: calls {calls:?} s");
    }
    report.put("setup_s", stats::median(&pops.setups));
    let calls: Vec<f64> = pops.runs.concat();
    if !calls.is_empty() {
        report.put("run_s", stats::median(&calls));
    }
    report.put("peak_rss_mib", pops.peak_rss_mib);
}

/// Runs `iteration` at least `min` times, then again for as long as
/// one more iteration, as long as the longest so far, still ends within
/// `seconds`; returns each iteration's result. Multi-second iterations
/// therefore do not overrun the budget by a whole iteration.
pub fn measure_for<T>(seconds: f64, min: usize, mut iteration: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut longest = 0.0f64;
    let mut out = Vec::new();
    while out.len() < min || stats::secs_since(start) + longest <= seconds {
        let t = Instant::now();
        out.push(iteration(out.len()));
        longest = longest.max(stats::secs_since(t));
    }
    out
}

/// Self time in ms of the spans named `name` in run `run`.
pub fn self_ms(spans: &[Span], run: u32, name: &str) -> f64 {
    let run_spans: Vec<Span> = spans.iter().filter(|s| s.run == run).copied().collect();
    trace::layer_times(&run_spans)
        .get(name)
        .map_or(0.0, |t| t.self_ns as f64 / 1e6)
}

fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.trace.jsonl", workload.name()))
}

fn run_traced(args: &Args, report: &mut Report) {
    let tracer = Tracer::new();
    {
        let mut log = tracer.log(0, 0);
        let top = log.begin("layers", ROOT);
        record::trace_record_decode(args.seed, &mut log, top.id, report);
        log.end(top);
        log.finish();
    }
    // Every layer is profiled on every workload, so no per-layer figure
    // is a placeholder: the replay layer on the suite, the serving
    // layers on the workload's population. Each gets half the seconds.
    let half = args.seconds / 2.0;
    let (replay_traced, replay_plain) = matrix::trace_replay(args, half, &tracer, report);
    let (serve_traced, serve_plain) = serve::trace_serving(args, half, &tracer, report);
    report.put(
        "trace.overhead_frac",
        stats::ratio(replay_traced + serve_traced, replay_plain + serve_plain) - 1.0,
    );
    let spans = tracer.spans();
    report.put("record.ms", self_ms(&spans, 0, "record"));
    report.put("decode.ms", self_ms(&spans, 0, "decode"));
    report.put("bench.jobs", args.jobs as f64);
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"jobs\":{},\"spans\":{}}}",
        args.workload.name(),
        args.seed,
        args.jobs,
        spans.len()
    );
    let path = trace_path(args.workload);
    match trace::write_jsonl(&path, &header, &spans) {
        Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => report.fail(1, format!("could not write {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} jobs {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.jobs,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    let expected: Vec<(&str, &str)> = if args.trace {
        run_traced(&args, &mut report);
        [COMMON_LAYERS, REPLAY_LAYER, SERVE_LAYERS].concat()
    } else {
        match args.workload {
            Workload::Matrix => matrix::run(&args, &mut report),
            _ => serve::run(&args, &mut report),
        }
        END_TO_END.to_vec()
    };

    let mut fields = Vec::with_capacity(expected.len());
    for &(name, unit) in &expected {
        // A run that failed may stop before measuring everything.
        let value = report.metrics.get(name).copied().unwrap_or_else(|| {
            assert!(report.failed > 0, "metric {name} was not measured");
            0.0
        });
        println!("{name:<24} {value:>16} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    assert!(
        report
            .metrics
            .keys()
            .all(|k| expected.iter().any(|&(name, _)| name == *k)),
        "a metric outside the declared set was measured"
    );
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
