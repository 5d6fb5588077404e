//! Running the full workload × selector matrix.
//!
//! The matrix is executed with a *record-once / replay-many* pipeline:
//! each workload's dynamic block stream is recorded compactly a single
//! time per `(seed, scale)`, then replayed through every selector.
//! Selectors only observe the step stream, so replaying the recording
//! produces bit-identical [`RunReport`]s to live execution while paying
//! the executor cost once per workload instead of once per cell — the
//! same economy the paper gets by collecting Pin traces once and
//! feeding them to every region-selection algorithm (§2.3).
//!
//! The suite is recorded on every available core, and each recording
//! is *decode-once*: the compact byte stream is expanded to a dense
//! [`DecodedStream`] a single time per workload, so the per-selector
//! replays walk plain arrays (and fast-forward detected spin phases)
//! instead of re-decoding varints and re-hashing block tables eight
//! times over. Workers additionally recycle their simulator side
//! tables ([`ReplayScratch`]) from cell to cell.
//!
//! Cells are independently replayable, so the matrix fans them out
//! across scoped worker threads (`RSEL_JOBS` workers, defaulting to the
//! machine's available parallelism). Results are collected by cell
//! index, so the assembled [`MatrixResults`] is identical to a serial
//! run regardless of worker count or scheduling.

use rsel_core::metrics::RunReport;
use rsel_core::select::SelectorKind;
use rsel_core::{ReplayScratch, SimConfig, Simulator};
use rsel_program::{Executor, Program};
use rsel_runtime::TenantSpec;
use rsel_trace::DecodedStream;
use rsel_workloads::{Scale, Workload, suite};
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Seed used by every figure binary, so all figures describe the same
/// runs.
pub const DEFAULT_SEED: u64 = 2005;

/// Runs one workload under one selector and returns the full report.
///
/// This is the *live* pipeline: it builds the program and re-executes
/// it under the behavior spec. The matrix instead records each
/// workload once ([`RecordedWorkload`]) and replays; the two produce
/// bit-identical reports.
pub fn run_one(
    workload: &Workload,
    kind: SelectorKind,
    seed: u64,
    scale: Scale,
    config: &SimConfig,
) -> RunReport {
    let (program, spec) = workload.build(seed, scale);
    let mut sim = Simulator::new(&program, kind.make(&program, config), config);
    sim.run(Executor::new(&program, spec));
    sim.report()
}

/// One workload's program plus its recorded execution, replayable
/// against any number of selectors.
///
/// A thin view of the serving runtime's [`TenantSpec`], so the matrix
/// and the runtime share one build → record → decode path.
pub struct RecordedWorkload {
    spec: TenantSpec,
}

impl RecordedWorkload {
    /// Builds the workload, records its full execution once, and
    /// decodes the recording once for all subsequent replays.
    pub fn record(workload: &Workload, seed: u64, scale: Scale) -> Self {
        RecordedWorkload {
            spec: TenantSpec::record(workload, seed, scale),
        }
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        self.spec.name()
    }

    /// The built program.
    pub fn program(&self) -> &Program {
        self.spec.program()
    }

    /// The decode-once struct-of-arrays form of the recording.
    pub fn decoded(&self) -> &DecodedStream {
        self.spec.decoded()
    }

    /// Replays the recording through one selector.
    pub fn replay(&self, kind: SelectorKind, config: &SimConfig) -> RunReport {
        let program = self.program();
        let mut sim = Simulator::new(program, kind.make(program, config), config);
        sim.replay_decoded(self.decoded());
        sim.report()
    }

    /// [`RecordedWorkload::replay`] on recycled simulator buffers; the
    /// scratch is taken, reused, and replaced for the next cell.
    pub fn replay_recycled(
        &self,
        kind: SelectorKind,
        config: &SimConfig,
        scratch: &mut ReplayScratch,
    ) -> RunReport {
        let program = self.program();
        let mut sim = Simulator::recycled(
            program,
            kind.make(program, config),
            config,
            std::mem::take(scratch),
        );
        sim.replay_decoded(self.decoded());
        let report = sim.report();
        *scratch = sim.into_scratch();
        report
    }
}

/// Number of matrix worker threads: `RSEL_JOBS` when set to a positive
/// integer, otherwise the machine's available parallelism.
///
/// A set-but-invalid `RSEL_JOBS` (not a positive integer) is reported
/// to stderr before falling back, so a typo'd job count cannot
/// silently change how a benchmark runs.
pub fn jobs_from_env() -> usize {
    let fallback = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match std::env::var("RSEL_JOBS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                let jobs = fallback();
                eprintln!(
                    "warning: ignoring invalid RSEL_JOBS={v:?} \
                     (expected a positive integer); using {jobs} workers"
                );
                jobs
            }
        },
        Err(_) => fallback(),
    }
}

/// Reads environment knob `name` as its field's type `T`, or
/// `default` when the variable is unset.
///
/// # Panics
///
/// If the variable is set to anything that does not parse as a `T` —
/// a typo, or a number outside `T`'s range — so a bad knob fails the
/// run instead of silently serving another configuration.
pub fn env_knob<T: FromStr>(name: &str, default: T) -> T {
    parse_knob(name, std::env::var(name).ok().as_deref(), default).unwrap_or_else(|e| panic!("{e}"))
}

/// [`env_knob`]'s parser over the variable's value (`None` when unset).
fn parse_knob<T: FromStr>(name: &str, value: Option<&str>, default: T) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} must be a {}, got {v:?}", std::any::type_name::<T>())),
    }
}

/// Applies `f` to every item on up to `jobs` scoped worker threads
/// with per-worker mutable state: each worker builds one `S` via
/// `init` and threads it through every item it claims. Results are
/// returned in item order (deterministic regardless of scheduling);
/// the state must be scheduling-invisible (workers use it only for
/// buffer recycling). `jobs <= 1` degenerates to a plain serial map.
fn par_map_with<T, R, S, F>(items: &[T], jobs: usize, init: impl Fn() -> S + Sync, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let jobs = jobs.min(items.len());
    if jobs <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let r = f(&mut state, item);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Reports for every workload under every requested selector.
pub struct MatrixResults {
    workload_names: Vec<&'static str>,
    reports: HashMap<(&'static str, SelectorKind), RunReport>,
}

impl MatrixResults {
    /// Workload names in suite order.
    pub fn workloads(&self) -> &[&'static str] {
        &self.workload_names
    }

    /// The report for one cell.
    ///
    /// # Panics
    ///
    /// Panics if the pair was not part of the run.
    pub fn report(&self, workload: &str, kind: SelectorKind) -> &RunReport {
        self.reports
            .get(&(self.canonical(workload), kind))
            .unwrap_or_else(|| panic!("no report for {workload} under {kind}"))
    }

    fn canonical(&self, name: &str) -> &'static str {
        self.workload_names
            .iter()
            .copied()
            .find(|w| *w == name)
            .unwrap_or_else(|| panic!("unknown workload {name}"))
    }

    /// Applies `f` to every workload's reports for two selectors and
    /// returns `(workload, f(a, b))` rows.
    pub fn compare<T>(
        &self,
        a: SelectorKind,
        b: SelectorKind,
        f: impl Fn(&RunReport, &RunReport) -> T,
    ) -> Vec<(&'static str, T)> {
        self.workload_names
            .iter()
            .map(|&w| (w, f(self.report(w, a), self.report(w, b))))
            .collect()
    }
}

/// Records the whole suite once at `(seed, scale)`, in suite order,
/// on every available core ([`TenantSpec::record_suite`]).
pub fn record_suite(seed: u64, scale: Scale) -> Vec<RecordedWorkload> {
    TenantSpec::record_suite(seed, scale)
        .into_iter()
        .map(|spec| RecordedWorkload { spec })
        .collect()
}

/// Replays previously recorded workloads through every selector on
/// `jobs` worker threads, assembling the same deterministic
/// [`MatrixResults`] a serial run would produce.
pub fn replay_matrix(
    recorded: &[RecordedWorkload],
    kinds: &[SelectorKind],
    config: &SimConfig,
    jobs: usize,
) -> MatrixResults {
    let cells: Vec<(usize, SelectorKind)> = recorded
        .iter()
        .enumerate()
        .flat_map(|(wi, _)| kinds.iter().map(move |&k| (wi, k)))
        .collect();
    let results = par_map_with(&cells, jobs, ReplayScratch::default, |scratch, &(wi, k)| {
        recorded[wi].replay_recycled(k, config, scratch)
    });
    let mut reports = HashMap::with_capacity(cells.len());
    for (&(wi, k), rep) in cells.iter().zip(results) {
        reports.insert((recorded[wi].name(), k), rep);
    }
    MatrixResults {
        workload_names: recorded.iter().map(|r| r.name()).collect(),
        reports,
    }
}

/// Runs the whole suite under the given selectors.
///
/// Records each workload once, then replays the recording through
/// every selector across [`jobs_from_env`] worker threads. `scale` is
/// read from the `RSEL_SCALE` environment variable when `None` is
/// passed to the figure binaries' wrapper ([`run_matrix_from_env`]).
pub fn run_matrix(
    kinds: &[SelectorKind],
    seed: u64,
    scale: Scale,
    config: &SimConfig,
) -> MatrixResults {
    run_matrix_with_jobs(kinds, seed, scale, config, jobs_from_env())
}

/// [`run_matrix`] with an explicit worker count (1 forces a fully
/// serial replay).
pub fn run_matrix_with_jobs(
    kinds: &[SelectorKind],
    seed: u64,
    scale: Scale,
    config: &SimConfig,
    jobs: usize,
) -> MatrixResults {
    let recorded = record_suite(seed, scale);
    replay_matrix(&recorded, kinds, config, jobs)
}

/// Runs the suite with the pre-recording pipeline: every cell builds
/// and re-executes its workload live, serially. Kept as the perf
/// baseline the record/replay matrix is measured against.
pub fn run_matrix_serial_live(
    kinds: &[SelectorKind],
    seed: u64,
    scale: Scale,
    config: &SimConfig,
) -> MatrixResults {
    let workloads = suite();
    let mut reports = HashMap::new();
    let mut names = Vec::with_capacity(workloads.len());
    for w in &workloads {
        names.push(w.name());
        for &k in kinds {
            let rep = run_one(w, k, seed, scale, config);
            reports.insert((w.name(), k), rep);
        }
    }
    MatrixResults {
        workload_names: names,
        reports,
    }
}

/// Reads the experiment scale from `RSEL_SCALE` (`test` or `full`,
/// default `full`) and runs the matrix.
pub fn run_matrix_from_env(kinds: &[SelectorKind], config: &SimConfig) -> MatrixResults {
    let scale = match std::env::var("RSEL_SCALE").as_deref() {
        Ok("test") => Scale::Test,
        _ => Scale::Full,
    };
    eprintln!(
        "running {} workloads x {} selectors ({scale:?} scale)...",
        suite().len(),
        kinds.len()
    );
    run_matrix(kinds, DEFAULT_SEED, scale, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_parse_into_their_fields_type_or_fail() {
        assert_eq!(parse_knob("K", None, 7u8), Ok(7));
        assert_eq!(parse_knob("K", Some("44"), 0u8), Ok(44));
        assert_eq!(
            parse_knob("K", Some("0"), 16usize),
            Ok(0),
            "zero is passed on"
        );
        // Out of range for the field is as hard an error as a typo.
        assert_eq!(
            parse_knob("RSEL_CHURN_CRASH_PCT", Some("300"), 0u8),
            Err("RSEL_CHURN_CRASH_PCT must be a u8, got \"300\"".to_string())
        );
        assert!(parse_knob("K", Some("4294967496"), 0u32).is_err());
        assert_eq!(parse_knob("K", Some("4294967295"), 0u32), Ok(u32::MAX));
        assert!(parse_knob("K", Some("-1"), 0u64).is_err());
        assert!(parse_knob("K", Some("12x"), 0u64).is_err());
        assert!(parse_knob("K", Some(""), 0u64).is_err());
    }

    #[test]
    fn matrix_covers_all_cells() {
        let cfg = SimConfig::default();
        let m = run_matrix(&[SelectorKind::Net], 1, Scale::Test, &cfg);
        assert_eq!(m.workloads().len(), suite().len());
        for &w in m.workloads() {
            let r = m.report(w, SelectorKind::Net);
            assert!(r.total_insts > 0, "{w}");
        }
    }

    #[test]
    fn compare_yields_one_row_per_workload() {
        let cfg = SimConfig::default();
        let m = run_matrix(
            &[SelectorKind::Net, SelectorKind::Lei],
            1,
            Scale::Test,
            &cfg,
        );
        let rows = m.compare(SelectorKind::Lei, SelectorKind::Net, |a, b| {
            (a.region_count(), b.region_count())
        });
        assert_eq!(rows.len(), 12);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let cfg = SimConfig::default();
        let m = run_matrix(&[SelectorKind::Net], 1, Scale::Test, &cfg);
        let _ = m.report("nonesuch", SelectorKind::Net);
    }

    #[test]
    fn replay_matches_live_run() {
        let cfg = SimConfig::default();
        let w = &suite()[0];
        let rec = RecordedWorkload::record(w, 7, Scale::Test);
        let live = run_one(w, SelectorKind::Lei, 7, Scale::Test, &cfg);
        let replayed = rec.replay(SelectorKind::Lei, &cfg);
        assert_eq!(replayed, live);
    }

    #[test]
    fn parallel_jobs_do_not_change_results() {
        let cfg = SimConfig::default();
        let kinds = [SelectorKind::Net, SelectorKind::Boa];
        let serial = run_matrix_with_jobs(&kinds, 3, Scale::Test, &cfg, 1);
        let parallel = run_matrix_with_jobs(&kinds, 3, Scale::Test, &cfg, 4);
        for &w in serial.workloads() {
            for &k in &kinds {
                assert_eq!(serial.report(w, k), parallel.report(w, k), "{w} {k}");
            }
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = par_map_with(&items, 8, || (), |_, &x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }
}
