//! Pinned serving goldens: the full outcome of a fixed set of serves,
//! checked in as files so a scheduler change that alters behaviour
//! fails here even when it alters it identically on every worker count
//! (which the 1-vs-8 determinism tests cannot see).
//!
//! Each case pins two files under `tests/golden/`:
//!
//! - `<case>.json` — the [`ServeReport`](rsel_runtime::ServeReport)
//!   exactly as [`to_json`](rsel_runtime::ServeReport::to_json)
//!   renders it;
//! - `<case>.digest` — an FNV-1a 64 digest of the per-tenant
//!   [`RunReport`](rsel_core::RunReport)s (their `Debug` rendering)
//!   and one of the [`save_snapshot`] bytes of the end-of-run state.
//!
//! A mismatch writes the actual files under the cargo target's
//! scratch directory and names them in the failure, so an intended
//! behaviour change can be reviewed as a diff and re-pinned by copying
//! them over; nothing here rewrites a golden by itself.

use rsel_runtime::{
    ChaosConfig, ChurnConfig, ServeConfig, ServeOutcome, TenantSpec, save_snapshot, serve,
    serve_with,
};
use rsel_workloads::Scale;
use std::path::PathBuf;

const SEED: u64 = 2005;

fn suite() -> Vec<TenantSpec> {
    TenantSpec::record_suite(SEED, Scale::Test)
}

/// FNV-1a, 64-bit: a stable digest that needs no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn digest_file(out: &ServeOutcome) -> String {
    let runs = fnv1a(format!("{:?}", out.run_reports).as_bytes());
    let mut snap = Vec::new();
    save_snapshot(&out.snapshot, &mut snap).expect("in-memory write");
    format!(
        "run_reports {runs:#018x}\nsnapshot {:#018x}\n",
        fnv1a(&snap)
    )
}

/// Compares `out` against the pinned files of `case`.
fn check(case: &str, out: &ServeOutcome) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let actual = [
        (format!("{case}.json"), out.report.to_json()),
        (format!("{case}.digest"), digest_file(out)),
    ];
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let mut differs = Vec::new();
    for (file, got) in &actual {
        let want = std::fs::read_to_string(dir.join(file)).unwrap_or_default();
        if &want != got {
            std::fs::create_dir_all(&scratch).expect("create the scratch dir");
            let path = scratch.join(file);
            std::fs::write(&path, got).expect("write the actual output");
            differs.push(path.display().to_string());
        }
    }
    assert!(
        differs.is_empty(),
        "{case} differs from its pinned golden; actual output written to {differs:?}"
    );
}

/// The benchmark's serve shape: serve-bin defaults with the
/// stream-adaptive policy.
fn default_shape() -> ServeConfig {
    let mut config = ServeConfig::default();
    config.policy.epoch_len = config.epoch_len;
    config.policy.adaptive = true;
    config
}

/// Capped shards so pressure waves fire on the planners under test.
fn capped(share: bool, utility_evict: bool) -> ServeConfig {
    ServeConfig {
        shard_capacity: 512,
        share,
        utility_evict,
        ..default_shape()
    }
}

/// Churn with crashes and periodic checkpoints, every fault kind, a
/// one-shot poison pill with a quarantine retry, and admission
/// shedding — every barrier path at once.
fn chaos() -> ServeConfig {
    let mut config = ServeConfig {
        churn: ChurnConfig {
            seed: SEED,
            arrival_spread: 6,
            max_disconnects: 2,
            max_gap: 3,
            crash_percent: 50,
        },
        chaos: ChaosConfig {
            poison_tenant: Some(3),
            poison_epoch: 2,
        },
        checkpoint_every: 2,
        max_active: 4,
        queue_capacity: 1,
        admission_timeout: 2,
        quarantine_penalty: 2,
        ..default_shape()
    };
    config.sim.faults.seed = SEED;
    config.sim.faults.smc_write_ppm = 2_000;
    config.sim.faults.flush_wave_ppm = 500;
    config.sim.faults.counter_fault_ppm = 500;
    config
}

fn pressured(case: &str, specs: &[TenantSpec], config: &ServeConfig) {
    let out = serve(specs, config, 2).unwrap();
    assert!(
        out.report.pressure_waves() > 0,
        "{case}: the cap must force pressure waves"
    );
    check(case, &out);
}

#[test]
fn default_shape_matches_the_pinned_outcome() {
    check("default", &serve(&suite(), &default_shape(), 2).unwrap());
}

#[test]
fn capped_unshared_largest_first_matches_the_pinned_outcome() {
    let specs = TenantSpec::replicate(suite(), 4);
    pressured("cap512_unshared", &specs, &capped(false, false));
}

#[test]
fn capped_unshared_utility_matches_the_pinned_outcome() {
    let specs = TenantSpec::replicate(suite(), 4);
    pressured("cap512_unshared_utility", &specs, &capped(false, true));
}

#[test]
fn capped_shared_largest_first_matches_the_pinned_outcome() {
    let specs = TenantSpec::replicate(suite(), 4);
    pressured("cap512_shared", &specs, &capped(true, false));
}

#[test]
fn capped_shared_utility_matches_the_pinned_outcome() {
    let specs = TenantSpec::replicate(suite(), 4);
    pressured("cap512_shared_utility", &specs, &capped(true, true));
}

#[test]
fn chaos_and_its_warm_restart_match_the_pinned_outcomes() {
    let specs = suite();
    let config = chaos();
    let cold = serve(&specs, &config, 2).unwrap();
    let r = &cold.report;
    assert!(r.crashes() > 0 && r.disconnects() > 0 && r.checkpoints_taken() > 0);
    assert_eq!(r.quarantine_retries(), 1, "the pill fired once");
    assert!(r.queue.shed_arrivals > 0, "the timeout shed someone");
    check("chaos", &cold);
    let warm = serve_with(&specs, &config, 2, Some(&cold.snapshot)).unwrap();
    assert!(warm.report.warm_started);
    check("chaos_warm", &warm);
}
