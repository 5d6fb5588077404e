//! Golden tests for the record-once/replay-many pipeline: replaying a
//! compact recording must be indistinguishable — bit-for-bit at the
//! `RunReport` level — from re-executing the workload live, and the
//! parallel matrix must equal the serial matrix cell for cell, as must
//! the suite recorded in parallel equal each workload recorded alone.

use rsel_bench::harness::{
    RecordedWorkload, record_suite, run_matrix_serial_live, run_matrix_with_jobs, run_one,
};
use rsel_core::select::SelectorKind;
use rsel_core::sim::faults::FaultConfig;
use rsel_core::{SimConfig, Simulator};
use rsel_program::Entry;
use rsel_workloads::{Scale, suite};

/// A fault schedule aggressive enough to fire at Test scale.
fn faulty_config() -> SimConfig {
    SimConfig {
        faults: FaultConfig {
            seed: 77,
            smc_write_ppm: 2_000,
            flush_wave_ppm: 1_000,
            counter_fault_ppm: 1_000,
            ..FaultConfig::default()
        },
        ..SimConfig::default()
    }
}

#[test]
fn replay_equals_live_for_every_selector() {
    let cfg = SimConfig::default();
    let workloads = suite();
    for w in workloads.iter().take(3) {
        let rec = RecordedWorkload::record(w, 2005, Scale::Test);
        for kind in SelectorKind::extended() {
            let live = run_one(w, kind, 2005, Scale::Test, &cfg);
            let replayed = rec.replay(kind, &cfg);
            assert_eq!(replayed, live, "{} under {kind}", w.name());
        }
    }
}

#[test]
fn replay_equals_live_with_fault_injection() {
    let cfg = faulty_config();
    let w = &suite()[0];
    let rec = RecordedWorkload::record(w, 2005, Scale::Test);
    for kind in SelectorKind::extended() {
        let live = run_one(w, kind, 2005, Scale::Test, &cfg);
        let replayed = rec.replay(kind, &cfg);
        assert_eq!(replayed, live, "{} under {kind} with faults", w.name());
    }
}

#[test]
fn parallel_matrix_equals_serial_matrix() {
    let cfg = SimConfig::default();
    let kinds = SelectorKind::extended();
    let serial = run_matrix_serial_live(&kinds, 2005, Scale::Test, &cfg);
    let parallel = run_matrix_with_jobs(&kinds, 2005, Scale::Test, &cfg, 4);
    assert_eq!(serial.workloads(), parallel.workloads());
    for &w in serial.workloads() {
        for &k in &kinds {
            assert_eq!(serial.report(w, k), parallel.report(w, k), "{w} {k}");
        }
    }
}

#[test]
fn parallel_matrix_equals_serial_matrix_under_faults() {
    let cfg = faulty_config();
    let kinds = [SelectorKind::Net, SelectorKind::Lei, SelectorKind::Adore];
    let serial = run_matrix_serial_live(&kinds, 2005, Scale::Test, &cfg);
    let parallel = run_matrix_with_jobs(&kinds, 2005, Scale::Test, &cfg, 3);
    for &w in serial.workloads() {
        for &k in &kinds {
            assert_eq!(serial.report(w, k), parallel.report(w, k), "{w} {k}");
        }
    }
}

#[test]
fn parallel_suite_recording_equals_serial_recording() {
    let cfg = SimConfig::default();
    let parallel = record_suite(2005, Scale::Test);
    let workloads = suite();
    assert_eq!(parallel.len(), workloads.len());
    for (w, par) in workloads.iter().zip(&parallel) {
        let serial = RecordedWorkload::record(w, 2005, Scale::Test);
        assert_eq!(par.name(), w.name(), "suite order");
        assert!(
            par.decoded().steps().eq(serial.decoded().steps()),
            "{}: steps differ",
            w.name()
        );
        for kind in SelectorKind::extended() {
            assert_eq!(
                par.replay(kind, &cfg),
                serial.replay(kind, &cfg),
                "{} under {kind}",
                w.name()
            );
        }
    }
}

#[test]
fn suite_sources_are_all_derived() {
    // The benchmarked path is the lean one: every taken source the
    // executor records is the previous step's terminator, so no
    // workload needs a source exception.
    for rec in record_suite(2005, Scale::Test) {
        assert_eq!(rec.decoded().source_exceptions(), 0, "{}", rec.name());
    }
}

/// SplitMix64: a tiny seeded generator for picking resume points.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn fresh_simulator_resumes_mid_stream_like_live() {
    // A reconnecting tenant resumes from a checkpoint on a fresh
    // simulator: its first step arrives with no predecessor, on the
    // decoded path exactly as on the live path. Each workload resumes
    // once at a random step and once at the next fall-through step,
    // where a stray predecessor would be attributed.
    let cfg = SimConfig::default();
    let mut rng = 2005;
    for rec in record_suite(2005, Scale::Test) {
        let (p, decoded) = (rec.program(), rec.decoded());
        let n = decoded.len();
        let k = 1 + splitmix(&mut rng) as usize % (n - 1);
        let fall = (k..n).find(|&i| decoded.entry_at(i) == Entry::Fallthrough);
        for start in std::iter::once(k).chain(fall) {
            let end = start + 1 + splitmix(&mut rng) as usize % (n - start);
            for kind in SelectorKind::extended() {
                let mut replayed = Simulator::new(p, kind.make(p, &cfg), &cfg);
                replayed.replay_decoded_range(decoded, start, end, true);
                let mut live = Simulator::new(p, kind.make(p, &cfg), &cfg);
                live.run((start..end).map(|i| decoded.step_at(i)));
                assert_eq!(
                    replayed.report(),
                    live.report(),
                    "{} under {kind}, steps [{start}, {end})",
                    rec.name()
                );
            }
        }
    }
}
