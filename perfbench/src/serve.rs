//! The serving workloads: the suite (or 8 interleaved replicas of it)
//! offered at round 0 to one `serve()` call, configured like the
//! `serve` bin's defaults (adaptive policy, 16 x 2048 B shards, 8
//! active, queue 2), with churn, faults and snapshots off.
//!
//! Checks: every tenant is admitted, none is quarantined, and each
//! tenant's `total_insts` equals a live run of its workload; every
//! iteration's `ServeReport` renders byte-identical JSON; in the traced
//! run the report at 1 worker equals the report at N workers.
//!
//! Every workload's traced run profiles the serving layers here
//! ([`trace_serving`]); `matrix` profiles the default serve.

use crate::stats::{cpu_secs, median, par_map, percentile, ratio, secs_since};
use crate::trace::{NoTrace, ROOT, Recorder, Span, Tracer};
use crate::{Args, Report, Workload, measure_for, run_populations, self_ms};
use rsel_core::SimConfig;
use rsel_program::Executor;
use rsel_runtime::policy::derive_tenant_policy;
use rsel_runtime::{
    PolicyEngine, RegionStore, ServeConfig, ServeOutcome, ServeReport, SharedCacheMap,
    TenantSession, TenantSpec, serve, tenant_fault_seed,
};
use rsel_workloads::{Scale, suite};
use std::collections::BTreeMap;
use std::time::Instant;

/// Replicas of the suite in the 96-tenant workloads.
const REPLICAS: usize = 8;

/// The workload's serving configuration and replica count; `matrix`,
/// which serves nothing itself, is profiled as the default serve.
fn setup_for(workload: Workload) -> (ServeConfig, usize) {
    let mut config = ServeConfig::default();
    config.policy.epoch_len = config.epoch_len;
    config.policy.adaptive = true;
    config.share = workload == Workload::ServeShared;
    let replicas = match workload {
        Workload::ServeShared | Workload::ServePressure => REPLICAS,
        Workload::Matrix | Workload::Serve => 1,
    };
    (config, replicas)
}

/// Set-up: build, record and decode the suite, then replicate.
fn population(seed: u64, replicas: usize) -> Vec<TenantSpec> {
    TenantSpec::replicate(TenantSpec::record_suite(seed, Scale::Full), replicas)
}

/// Each suite workload's instruction total from a live execution
/// (the executor walked directly, nothing recorded).
fn live_totals(seed: u64, jobs: usize) -> BTreeMap<&'static str, u64> {
    let suite = suite();
    let totals = par_map(&suite, jobs, |w| {
        let (program, spec) = w.build(seed, Scale::Full);
        Executor::new(&program, spec)
            .map(|step| program.block(step.block).len() as u64)
            .sum::<u64>()
    });
    suite.iter().map(|w| w.name()).zip(totals).collect()
}

/// How long one `serve()` call took, in seconds.
#[derive(Clone, Copy)]
struct Took {
    wall: f64,
    /// CPU time of the whole process over the call.
    cpu: f64,
}

/// One timed `serve()` call; a `ServeError` fails every tenant offered.
fn serve_timed(
    specs: &[TenantSpec],
    config: &ServeConfig,
    jobs: usize,
    report: &mut Report,
) -> Option<(ServeOutcome, Took)> {
    let (t, cpu) = (Instant::now(), cpu_secs());
    match serve(specs, config, jobs) {
        Ok(out) => Some((
            out,
            Took {
                wall: secs_since(t),
                cpu: cpu_secs() - cpu,
            },
        )),
        Err(e) => {
            report.attempted += specs.len() as u64;
            report.fail(specs.len() as u64, format!("serve returned an error: {e}"));
            None
        }
    }
}

/// The per-tenant gate: admitted, not quarantined, not shed, finished
/// with its workload's live instruction total.
fn check_tenants(rep: &ServeReport, totals: &BTreeMap<&str, u64>, report: &mut Report) {
    report.attempted += rep.tenants.len() as u64;
    for t in &rep.tenants {
        if t.quarantined || !t.admitted || t.total_insts != totals[t.workload] {
            report.fail(
                1,
                format!(
                    "tenant {} ({}): quarantined {}, admitted {}, insts {} vs live {}",
                    t.tenant,
                    t.workload,
                    t.quarantined,
                    t.admitted,
                    t.total_insts,
                    totals[t.workload]
                ),
            );
        }
    }
    if rep.queue.shed_arrivals > 0 {
        report.fail(rep.queue.shed_arrivals, "arrivals were shed");
    }
}

/// The determinism guard: `got` must render exactly like `first`.
fn check_same(first: &ServeReport, got: &ServeReport, what: &str, report: &mut Report) {
    if first.to_json() != got.to_json() {
        let bad = first
            .tenants
            .iter()
            .zip(&got.tenants)
            .filter(|(a, b)| a != b)
            .count()
            .max(1);
        report.fail(bad as u64, format!("ServeReport differs: {what}"));
    }
}

/// Workers of the untraced run's measured `serve()` calls. At N workers
/// `serve()` spawns and joins N threads every round, thousands of times
/// per call, so on a shared host its time follows whichever core the
/// host takes away; at one worker every epoch runs on the calling
/// thread. The traced run still measures N workers against one
/// (`serve.parallel_eff`).
const MEASURED_JOBS: usize = 1;

/// The untraced run: end-to-end metrics. `run_s` is the CPU time of one
/// `serve()` call at [`MEASURED_JOBS`] worker, which on an idle core
/// equals its wall time but leaves out the time the host gives the core
/// to someone else.
pub fn run(args: &Args, report: &mut Report) {
    let (config, replicas) = setup_for(args.workload);
    println!("serve() calls measured at {MEASURED_JOBS} worker, CPU time");
    let (mut total, mut cached) = (0u64, 0u64);
    let mut selected = Vec::new();
    let pops = run_populations(
        args,
        |seed| population(seed, replicas),
        |i, seed, specs, slice| {
            let totals = live_totals(seed, args.jobs);
            let mut first: Option<ServeReport> = None;
            // The first population serves twice at least, so every run
            // checks that a repeat reproduces the report byte for byte.
            let times = measure_for(slice, if i == 0 { 2 } else { 1 }, |_| {
                let (out, took) = serve_timed(specs, &config, MEASURED_JOBS, report)?;
                check_tenants(&out.report, &totals, report);
                match &first {
                    Some(f) => check_same(f, &out.report, "repeated iteration", report),
                    None => first = Some(out.report),
                }
                Some(took.cpu)
            });
            if let Some(rep) = first {
                total += rep.tenants.iter().map(|t| t.total_insts).sum::<u64>();
                cached += rep.tenants.iter().map(|t| t.cache_insts).sum::<u64>();
                selected.push(rep.tenants.iter().map(|t| t.insts_selected).sum::<u64>() as f64);
            }
            times.into_iter().flatten().collect()
        },
    );
    crate::put_populations(&pops, report);
    report.put("hit_rate", ratio(cached as f64, total as f64));
    println!("insts_selected per population: {selected:?}");
    if !selected.is_empty() {
        report.put("insts_selected", median(&selected));
    }
}

/// What one probe pass did.
struct Probe {
    epochs: u64,
    switches: u64,
    wall_s: f64,
}

/// Drives every tenant's session through `TenantSession::run_epoch`,
/// the occupancy or shared-store publish, and `PolicyEngine::on_epoch`
/// (applying any switch), exactly as the scheduler calls them, on one
/// thread and with no barrier: no pressure waves, no admission queue.
/// Up to `max_active` tenants run round-robin, one epoch each per
/// round; a finished tenant leaves and releases its occupancy.
fn probe<R: Recorder>(specs: &[TenantSpec], config: &ServeConfig, rec: &mut R) -> Probe {
    let start = Instant::now();
    let root = rec.begin("probe", ROOT);
    let mut map = SharedCacheMap::new(config.shard_count, config.shard_capacity);
    let mut store = config.share.then(|| RegionStore::new(config.shard_count));
    let sims: Vec<SimConfig> = (0..specs.len())
        .map(|t| {
            let mut sim = config.sim.clone();
            sim.faults.seed = tenant_fault_seed(config.sim.faults.seed, t as u16);
            sim
        })
        .collect();
    let (mut epochs, mut switches) = (0u64, 0u64);
    let mut active: Vec<(usize, TenantSession<'_>, PolicyEngine)> = Vec::new();
    let mut next = 0;
    loop {
        while active.len() < config.max_active && next < specs.len() {
            let (policy, _) = derive_tenant_policy(&config.policy, &specs[next]);
            let engine = PolicyEngine::new(policy);
            let session = TenantSession::new(
                next as u16,
                &specs[next],
                engine.current(),
                &sims[next],
                config.shard_count,
            );
            active.push((next, session, engine));
            next += 1;
        }
        if active.is_empty() {
            break;
        }
        for (t, session, engine) in &mut active {
            let e = rec.span("session.run_epoch", root.id, || {
                session.run_epoch(config.epoch_len)
            });
            rec.span("publish", root.id, || match &store {
                Some(st) => session.publish_shared(&map, st, config.utility_evict),
                None => session.publish_occupancy(&map, config.utility_evict),
            });
            rec.span("policy", root.id, || {
                if let Some((kind, _)) = engine.on_epoch(&e) {
                    session.switch_selector(kind, &sims[*t]);
                    switches += 1;
                }
            });
            epochs += 1;
        }
        for (t, session, _) in &active {
            if session.finished() {
                map.clear_tenant(*t as u16);
                if let Some(st) = store.as_mut() {
                    st.release_tenant(*t as u16);
                }
            }
        }
        active.retain(|(_, session, _)| !session.finished());
    }
    rec.end(root);
    Probe {
        epochs,
        switches,
        wall_s: secs_since(start),
    }
}

/// The traced run's serving layers, on the workload's population and
/// serving configuration (for `matrix`, the default 12-tenant serve):
/// session, publish and policy layers from the probe's spans;
/// serve-level and shard/store figures from one serve at 1 worker and
/// one at N workers. Measures the probe for `seconds` and returns the
/// median wall time of the traced and of the untraced probe passes.
pub fn trace_serving(
    args: &Args,
    seconds: f64,
    tracer: &Tracer,
    report: &mut Report,
) -> (f64, f64) {
    let (config, replicas) = setup_for(args.workload);
    let mut log = tracer.log(0, 0);
    let specs = log.span("serve.setup", ROOT, || population(args.seed, replicas));
    let totals = live_totals(args.seed, args.jobs);
    let one = log.span("serve.jobs1", ROOT, || {
        serve_timed(&specs, &config, 1, report)
    });
    let many = log.span("serve.jobsN", ROOT, || {
        serve_timed(&specs, &config, args.jobs, report)
    });
    log.finish();
    let (Some((one, took1)), Some((many, tookn))) = (one, many) else {
        return (0.0, 0.0);
    };
    let (t1, tn) = (took1.wall, tookn.wall);
    check_tenants(&one.report, &totals, report);
    check_tenants(&many.report, &totals, report);
    check_same(&one.report, &many.report, "1 worker vs N workers", report);

    let mut traced = Vec::new();
    let mut plain = Vec::new();
    let runs = measure_for(seconds, 1, |i| {
        let run = tracer.new_run();
        // Traced and untraced passes alternate which goes first, so
        // neither always inherits the other's warm allocator.
        let traced_pass = || {
            let mut log = tracer.log(run, 0);
            let p = probe(&specs, &config, &mut log);
            log.finish();
            p
        };
        let plain_pass = || probe(&specs, &config, &mut NoTrace);
        let (with, without) = if i % 2 == 0 {
            let w = traced_pass();
            (w, plain_pass())
        } else {
            let p = plain_pass();
            (traced_pass(), p)
        };
        if (with.epochs, with.switches) != (without.epochs, without.switches) {
            report.fail(1, "the probe ran differently traced and untraced");
        }
        traced.push(with);
        plain.push(without);
        run
    });

    let spans = tracer.spans();
    let (mut epoch_ms, mut publish_ms, mut policy_ms, mut p50, mut p99) =
        (vec![], vec![], vec![], vec![], vec![]);
    for &run in &runs {
        let of_run: Vec<Span> = spans.iter().filter(|s| s.run == run).copied().collect();
        let epoch_us: Vec<f64> = of_run
            .iter()
            .filter(|s| s.name == "session.run_epoch")
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        epoch_ms.push(self_ms(&of_run, run, "session.run_epoch"));
        publish_ms.push(self_ms(&of_run, run, "publish"));
        policy_ms.push(self_ms(&of_run, run, "policy"));
        p50.push(percentile(&epoch_us, 50.0));
        p99.push(percentile(&epoch_us, 99.0));
        // Reconciliation: the probe's span tree accounts for its whole
        // wall time (per-layer self times sum to the root's duration).
        let root_ns: u64 = of_run
            .iter()
            .filter(|s| s.name == "probe")
            .map(Span::dur_ns)
            .sum();
        let self_ns: u64 = crate::trace::self_times(&of_run).values().sum();
        if self_ns != root_ns {
            report.fail(
                1,
                format!("run {run}: span self times {self_ns} ns != probe {root_ns} ns"),
            );
        }
    }
    let layers_ms = median(&epoch_ms) + median(&publish_ms) + median(&policy_ms);
    let residual_ms = t1 * 1e3 - layers_ms;
    println!(
        "{} traced: serve at 1 worker {:.1} ms = session+publish+policy {:.1} ms + residual {:.1} ms \
         (barrier, admission, spawn, eviction-induced replay); {} probe iterations",
        args.workload.name(),
        t1 * 1e3,
        layers_ms,
        residual_ms,
        runs.len()
    );

    let rep = &one.report;
    let last = traced.last().expect("at least one probe");
    report.put("session.epochs", last.epochs as f64);
    report.put("session.run_epoch_ms", median(&epoch_ms));
    report.put("session.epoch_us.p50", median(&p50));
    report.put("session.epoch_us.p99", median(&p99));
    report.put("publish.ms", median(&publish_ms));
    report.put("policy.ms", median(&policy_ms));
    report.put("policy.switches", last.switches as f64);
    let tenant_epochs: u64 = rep.tenants.iter().map(|t| t.epochs).sum();
    report.put("serve.rounds", rep.queue.rounds as f64);
    report.put(
        "serve.active_per_round",
        ratio(tenant_epochs as f64, rep.queue.rounds as f64),
    );
    report.put("serve.run_s_jobs1", t1);
    report.put("serve.parallel_eff", ratio(t1, args.jobs as f64 * tn));
    report.put("serve.residual_ms", residual_ms);
    report.put("admission.wait_mean", rep.mean_admission_wait());
    report.put("shard.pressure_waves", rep.pressure_waves() as f64);
    report.put("shard.shed_actions", rep.shed_actions() as f64);
    report.put(
        "shard.pressure_evicted",
        rep.tenants.iter().map(|t| t.pressure_evicted).sum::<u64>() as f64,
    );
    report.put("shard.contended_rounds", rep.contended_rounds() as f64);
    report.put(
        "shard.reformations",
        rep.tenants.iter().map(|t| t.reformations).sum::<u64>() as f64,
    );
    report.put("store.dedup_ratio", rep.dedup_ratio());
    report.put("store.unique_bytes", rep.unique_bytes as f64);
    let traced_s: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    let plain_s: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    (median(&traced_s), median(&plain_s))
}
