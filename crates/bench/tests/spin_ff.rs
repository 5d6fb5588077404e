//! Suite-wide parity for the spin-phase fast-forward: replaying with
//! the fast-forward force-enabled must produce [`RunReport`]s
//! byte-identical to replaying with it disabled — and to the live
//! step-iterator pipeline — for every workload under every selector.

use rsel_bench::harness::record_suite;
use rsel_core::select::SelectorKind;
use rsel_core::{SimConfig, Simulator};
use rsel_workloads::Scale;

#[test]
fn fast_forward_is_invisible_across_the_suite() {
    let cfg = SimConfig::default();
    let kinds = SelectorKind::extended();
    let recorded = record_suite(2005, Scale::Test);
    let spin_workloads = recorded
        .iter()
        .filter(|r| !r.decoded().phases().is_empty())
        .count();
    assert!(
        spin_workloads > 0,
        "no workload presents a spin phase; the fast-forward is untested"
    );
    for rec in &recorded {
        let decoded = rec.decoded();
        let stream = decoded.to_compact();
        for &kind in &kinds {
            let mut on = Simulator::new(rec.program(), kind.make(rec.program(), &cfg), &cfg);
            on.replay_decoded_range(decoded, 0, decoded.len(), true);
            let mut off = Simulator::new(rec.program(), kind.make(rec.program(), &cfg), &cfg);
            off.replay_decoded_range(decoded, 0, decoded.len(), false);
            let mut live = Simulator::new(rec.program(), kind.make(rec.program(), &cfg), &cfg);
            live.run(stream.replay(rec.program()));
            let live = live.report();
            assert_eq!(on.report(), live, "{} under {kind}: ff vs live", rec.name());
            assert_eq!(
                off.report(),
                live,
                "{} under {kind}: stepping vs live",
                rec.name()
            );
        }
    }
}
