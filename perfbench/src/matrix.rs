//! `matrix`: the paper pipeline. The suite is recorded once, then every
//! workload is replayed through all eight `SelectorKind::extended()`
//! selectors (12 x 8 cells) on the benchmark's workers, with no serving
//! runtime involved.
//!
//! Checks: every iteration's 96 reports must equal the first
//! iteration's, and for each workload one seed-drawn selector's cell
//! must equal a live `Simulator::run(Executor)` of the same workload.
//!
//! Every workload's traced run profiles the replay layer here
//! ([`trace_replay`]).

use crate::stats::{median, mix, par_map, percentile, ratio, secs_since};
use crate::trace::{NoTrace, ROOT, Recorder, Span, Tracer};
use crate::{Args, Report, measure_for, run_populations};
use rsel_bench::{RecordedWorkload, record_suite, replay_matrix};
use rsel_core::{ReplayScratch, RunReport, SelectorKind, SimConfig, Simulator};
use rsel_program::Executor;
use rsel_workloads::{Scale, Workload, suite};
use std::sync::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The independent reference: builds `workload` and runs it live,
/// without recording, under `kind`.
fn live_report(workload: &Workload, kind: SelectorKind, seed: u64) -> RunReport {
    let config = SimConfig::default();
    let (program, spec) = workload.build(seed, Scale::Full);
    let mut sim = Simulator::new(&program, kind.make(&program, &config), &config);
    sim.run(Executor::new(&program, spec));
    sim.report()
}

/// The 96 cells in the library's order: workload-major, selectors in
/// `extended()` order.
fn cells(recorded: &[RecordedWorkload]) -> Vec<(usize, SelectorKind)> {
    (0..recorded.len())
        .flat_map(|wi| SelectorKind::extended().map(|k| (wi, k)))
        .collect()
}

/// One untraced iteration through the library's `replay_matrix`:
/// the reports in cell order and the replay's wall time in seconds.
fn replay_library(recorded: &[RecordedWorkload], jobs: usize) -> (Vec<RunReport>, f64) {
    let kinds = SelectorKind::extended();
    let t = Instant::now();
    let m = replay_matrix(recorded, &kinds, &SimConfig::default(), jobs);
    let wall = secs_since(t);
    let reports = cells(recorded)
        .into_iter()
        .map(|(wi, k)| m.report(recorded[wi].name(), k).clone())
        .collect();
    (reports, wall)
}

/// Replays every cell on one thread per worker recorder, each worker
/// claiming cells in order and recycling its simulator buffers — the
/// library's schedule, with a `replay.cell` span around each
/// `Simulator::replay_decoded`. Returns the reports in cell order, the
/// worker recorders, and the wall time in seconds.
fn replay_cells<R: Recorder + Send>(
    recorded: &[RecordedWorkload],
    main: &mut R,
    workers: Vec<R>,
) -> (Vec<RunReport>, Vec<R>, f64) {
    let config = SimConfig::default();
    let cells = cells(recorded);
    let slots: Vec<Mutex<Option<RunReport>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let root = main.begin("replay", ROOT);
    let workers = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut rec| {
                let (cells, slots, next, config) = (&cells, &slots, &next, &config);
                let parent = root.id;
                scope.spawn(move || {
                    let worker = rec.begin("replay.worker", parent);
                    let mut scratch = ReplayScratch::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(wi, kind)) = cells.get(i) else {
                            break;
                        };
                        let r = &recorded[wi];
                        let mut sim = Simulator::recycled(
                            r.program(),
                            kind.make(r.program(), config),
                            config,
                            std::mem::take(&mut scratch),
                        );
                        rec.span("replay.cell", worker.id, || sim.replay_decoded(r.decoded()));
                        let report = sim.report();
                        scratch = sim.into_scratch();
                        *slots[i].lock().expect("cell slot poisoned") = Some(report);
                    }
                    rec.end(worker);
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    main.end(root);
    let wall = secs_since(t);
    let reports = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("cell slot poisoned")
                .expect("every cell was replayed")
        })
        .collect();
    (reports, workers, wall)
}

/// Counts the cells of `got` that differ from `reference`.
fn check_same(reference: &[RunReport], got: &[RunReport], what: &str, report: &mut Report) {
    report.attempted += got.len() as u64;
    let bad = reference.iter().zip(got).filter(|(a, b)| a != b).count();
    if bad > 0 {
        report.fail(bad as u64, format!("{bad} matrix cells differ: {what}"));
    }
}

/// The live gate: for each workload, the cell of one selector drawn
/// from the seed must equal a live run of that workload.
fn check_live(seed: u64, reference: &[RunReport], jobs: usize, report: &mut Report) {
    let suite = suite();
    let kinds = SelectorKind::extended();
    let drawn: Vec<(usize, usize)> = (0..suite.len())
        .map(|w| (w, (mix(seed ^ mix(w as u64)) % kinds.len() as u64) as usize))
        .collect();
    let live = par_map(&drawn, jobs, |&(w, k)| {
        live_report(&suite[w], kinds[k], seed)
    });
    for (&(w, k), live) in drawn.iter().zip(live) {
        if reference[w * kinds.len() + k] != live {
            let (name, kind) = (suite[w].name(), kinds[k]);
            report.fail(1, format!("{name} under {kind}: replay differs from live"));
        }
    }
}

/// The untraced run: end-to-end metrics over the run's populations
/// (one recorded suite each).
pub fn run(args: &Args, report: &mut Report) {
    let (mut total, mut cached) = (0u64, 0u64);
    let mut selected = Vec::new();
    let pops = run_populations(
        args,
        |seed| record_suite(seed, Scale::Full),
        |i, seed, recorded, slice| {
            let mut first: Option<Vec<RunReport>> = None;
            // The first population replays twice at least, so every run
            // checks that a repeat reproduces every report.
            let walls = measure_for(slice, if i == 0 { 2 } else { 1 }, |_| {
                let (reports, wall) = replay_library(recorded, args.jobs);
                match &first {
                    Some(f) => check_same(f, &reports, "repeated iteration", report),
                    None => {
                        report.attempted += reports.len() as u64;
                        first = Some(reports);
                    }
                }
                wall
            });
            let reference = first.expect("at least one iteration");
            check_live(seed, &reference, args.jobs, report);
            total += reference.iter().map(|r| r.total_insts).sum::<u64>();
            cached += reference.iter().map(|r| r.cache_insts).sum::<u64>();
            selected.push(reference.iter().map(RunReport::insts_copied).sum::<u64>() as f64);
            walls
        },
    );
    crate::put_populations(&pops, report);
    report.put("hit_rate", ratio(cached as f64, total as f64));
    println!("insts_selected per population: {selected:?}");
    report.put("insts_selected", median(&selected));
}

/// The traced run's replay layer, on the suite recorded at `--seed`:
/// replay-layer metrics from spans. Measures for `seconds` and returns
/// the median wall time of the traced and of the untraced replays.
pub fn trace_replay(args: &Args, seconds: f64, tracer: &Tracer, report: &mut Report) -> (f64, f64) {
    let recorded = {
        let mut log = tracer.log(0, 0);
        let r = log.span("replay.setup", ROOT, || {
            record_suite(args.seed, Scale::Full)
        });
        log.finish();
        r
    };
    let (reference, _) = replay_library(&recorded, args.jobs);
    report.attempted += reference.len() as u64;
    check_live(args.seed, &reference, args.jobs, report);

    let mut traced_walls = Vec::new();
    let mut plain_walls = Vec::new();
    // Traced and untraced loops alternate which goes first, so neither
    // always inherits the other's warm allocator.
    let runs = measure_for(seconds, 1, |i| {
        let run = tracer.new_run();
        let traced = |report: &mut Report| {
            let mut main = tracer.log(run, 0);
            let workers = (0..args.jobs)
                .map(|w| tracer.log(run, w as u32 + 1))
                .collect();
            let (reports, workers, wall) = replay_cells(&recorded, &mut main, workers);
            main.finish();
            workers.into_iter().for_each(|w| w.finish());
            check_same(
                &reference,
                &reports,
                "traced replay vs replay_matrix",
                report,
            );
            wall
        };
        let plain = |report: &mut Report| {
            let workers = (0..args.jobs).map(|_| NoTrace).collect();
            let (reports, _, wall) = replay_cells(&recorded, &mut NoTrace, workers);
            check_same(
                &reference,
                &reports,
                "untraced replay vs replay_matrix",
                report,
            );
            wall
        };
        if i % 2 == 0 {
            traced_walls.push(traced(report));
            plain_walls.push(plain(report));
        } else {
            plain_walls.push(plain(report));
            traced_walls.push(traced(report));
        }
        run
    });

    let spans = tracer.spans();
    let (mut busy, mut p50, mut max, mut util) = (vec![], vec![], vec![], vec![]);
    for run in runs {
        let of_run = |name: &str| -> Vec<Span> {
            spans
                .iter()
                .filter(|s| s.run == run && s.name == name)
                .copied()
                .collect()
        };
        let cell_ms: Vec<f64> = of_run("replay.cell")
            .iter()
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        let wall_ms: f64 = of_run("replay")
            .iter()
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum();
        let b: f64 = cell_ms.iter().sum();
        busy.push(b);
        p50.push(percentile(&cell_ms, 50.0));
        max.push(percentile(&cell_ms, 100.0));
        util.push(ratio(b, args.jobs as f64 * wall_ms));
    }
    report.put("replay.busy_ms", median(&busy));
    report.put("replay.cell_ms.p50", median(&p50));
    report.put("replay.cell_ms.max", median(&max));
    report.put("replay.worker_util", median(&util));
    println!(
        "replay traced: {} iterations, traced {traced_walls:?} s, untraced {plain_walls:?} s",
        traced_walls.len()
    );
    (median(&traced_walls), median(&plain_walls))
}
