//! Property-based tests of the full simulator over randomly generated
//! structured programs, under every implemented selector.

use proptest::prelude::*;
use regionsel::core::select::SelectorKind;
use regionsel::core::{EngineStats, FaultConfig, RunReport, SimConfig, Simulator};
use regionsel::program::patterns::ScenarioBuilder;
use regionsel::program::{BehaviorSpec, Executor, Program};
use regionsel::trace::{CompactStream, DecodedStream};

/// One element of a randomly composed driver-loop body.
#[derive(Clone, Debug)]
enum BodyOp {
    /// A biased/unbiased diamond with the given taken-probability (%).
    Diamond(u8),
    /// An inner counted loop with the given trip count.
    InnerLoop(u8),
    /// A call to a leaf function placed below the driver.
    CallLow(u8),
    /// A call to a worker (with its own loop) placed above the driver.
    CallHigh(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        (1u8..=99).prop_map(BodyOp::Diamond),
        (1u8..=20).prop_map(BodyOp::InnerLoop),
        (1u8..=4).prop_map(BodyOp::CallLow),
        ((1u8..=3), (1u8..=12)).prop_map(|(w, t)| BodyOp::CallHigh(w, t)),
    ]
}

/// Builds a terminating program: a driver loop whose body is the given
/// op sequence.
fn build(ops: &[BodyOp], trips: u32, seed: u64) -> (Program, BehaviorSpec) {
    let mut s = ScenarioBuilder::new(seed);
    // Pre-create callees (addresses bracketing the driver).
    let mut low = Vec::new();
    let mut high = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            BodyOp::CallLow(work) => {
                let f = s.function(&format!("leaf_{i}"), 0x1000 + 0x1000 * i as u64);
                let b = s.block(f, u32::from(*work));
                s.ret(b);
                low.push((i, f));
            }
            BodyOp::CallHigh(work, inner) => {
                let f = s.function(&format!("worker_{i}"), 0x100_0000 + 0x1000 * i as u64);
                let head = s.block(f, u32::from(*work));
                let latch = s.block(f, 1);
                s.branch_trips(latch, head, u32::from(*inner));
                let out = s.block(f, 0);
                s.ret(out);
                high.push((i, f));
            }
            _ => {}
        }
    }
    let main = s.function("main", 0x40_0000);
    s.set_entry(main);
    let head = s.block(main, 1);
    for (i, op) in ops.iter().enumerate() {
        match op {
            BodyOp::Diamond(pct) => {
                let _ = s.diamond(main, f64::from(*pct) / 100.0, 1);
            }
            BodyOp::InnerLoop(trips) => {
                let ih = s.block(main, 1);
                let il = s.block(main, 1);
                s.branch_trips(il, ih, u32::from(*trips));
            }
            BodyOp::CallLow(_) => {
                let callee = low.iter().find(|(j, _)| *j == i).expect("created").1;
                let b = s.block(main, 1);
                s.call(b, callee);
            }
            BodyOp::CallHigh(..) => {
                let callee = high.iter().find(|(j, _)| *j == i).expect("created").1;
                let b = s.block(main, 1);
                s.call(b, callee);
            }
        }
    }
    let latch = s.block(main, 1);
    s.branch_trips(latch, head, trips);
    let out = s.block(main, 0);
    s.ret(out);
    s.build().expect("generated scenario is well-formed")
}

fn run(p: &Program, spec: BehaviorSpec, kind: SelectorKind, cfg: &SimConfig) -> RunReport {
    let mut sim = Simulator::new(p, kind.make(p, cfg), cfg);
    sim.run(Executor::new(p, spec).take(150_000));
    sim.report()
}

/// Low thresholds so selection happens even on short runs.
fn eager_config() -> SimConfig {
    SimConfig {
        net_threshold: 8,
        lei_threshold: 6,
        t_prof: 4,
        t_min: 2,
        boa_threshold: 5,
        wr_sample_period: 13,
        wr_sample_threshold: 3,
        adore_sample_period: 7,
        adore_path_threshold: 2,
        mojo_exit_threshold: 4,
        ..SimConfig::default()
    }
}

/// What happens to the simulator between two execution ranges.
#[derive(Clone, Debug)]
enum Between {
    Nothing,
    /// Evict up to two live regions, newest first, every `n`-th one —
    /// re-selection then tends to land a new id at an evicted index.
    Evict(usize),
    /// Switch to the selector at this index of
    /// [`SelectorKind::extended`].
    Switch(usize),
}

fn between_strategy() -> impl Strategy<Value = Between> {
    prop_oneof![
        Just(Between::Nothing),
        (1usize..=3).prop_map(Between::Evict),
        (0usize..8).prop_map(Between::Switch),
    ]
}

/// Executes `stream` in the given ranges on a fresh simulator, applying
/// each range's `Between` action after it — through the decoded batch
/// path, or step by step through the live path.
fn run_interleaved(
    p: &Program,
    stream: &DecodedStream,
    kind: SelectorKind,
    cfg: &SimConfig,
    plan: &[(usize, Between)],
    decoded: bool,
) -> (RunReport, EngineStats) {
    let kinds = SelectorKind::extended();
    let mut sim = Simulator::new(p, kind.make(p, cfg), cfg);
    let mut at = 0;
    for (len, action) in plan {
        let end = (at + len).min(stream.len());
        if decoded {
            sim.replay_decoded_range(stream, at, end, true);
        } else {
            sim.run((at..end).map(|i| stream.step_at(i)));
        }
        at = end;
        match *action {
            Between::Nothing => {}
            Between::Evict(n) => {
                let ids: Vec<_> = sim
                    .cache()
                    .regions()
                    .iter()
                    .rev()
                    .step_by(n)
                    .take(2)
                    .map(|r| r.id())
                    .collect();
                sim.evict_regions(&ids);
            }
            Between::Switch(k) => {
                sim.set_selector(kinds[k].make(p, cfg));
            }
        }
        // Lazy links only ever join live regions.
        for (from, to) in sim.cache().links() {
            assert!(sim.cache().try_region(from).is_ok() && sim.cache().try_region(to).is_ok());
        }
    }
    (sim.report(), sim.engine_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn simulator_invariants_on_random_programs(
        ops in prop::collection::vec(op_strategy(), 1..7),
        trips in 30u32..400,
        seed in 0u64..1_000,
    ) {
        let cfg = eager_config();
        let (p, spec) = build(&ops, trips, seed);
        let mut totals = Vec::new();
        for kind in SelectorKind::extended() {
            let r = run(&p, spec.clone(), kind, &cfg);
            totals.push(r.total_insts);
            // Conservation.
            prop_assert!(r.cache_insts <= r.total_insts, "{kind}");
            let per: u64 = r.regions.iter().map(|x| x.insts_executed).sum();
            prop_assert_eq!(per, r.cache_insts, "{}", kind);
            // Per-region consistency.
            for reg in &r.regions {
                prop_assert!(reg.cycle_ends <= reg.executions);
                prop_assert!(reg.insts_copied > 0);
                // NOTE: cycle_ends > 0 does NOT imply spans_cycle: an
                // indirect terminator (e.g. a ret) can dynamically
                // return to the region entry without any static
                // loop-back edge — the paper's spanned/executed cycle
                // metrics are correlated, not nested.
            }
            // Layout metrics.
            prop_assert!(r.transition_page_crossings <= r.region_transitions, "{}", kind);
        }
        // Every selector saw the identical execution.
        prop_assert!(totals.windows(2).all(|w| w[0] == w[1]), "{totals:?}");
    }

    #[test]
    fn bounded_cache_never_exceeds_capacity_on_random_programs(
        ops in prop::collection::vec(op_strategy(), 1..5),
        trips in 50u32..300,
        capacity in 100u64..2_000,
    ) {
        let cfg = SimConfig {
            net_threshold: 8,
            cache_capacity: Some(capacity),
            ..SimConfig::default()
        };
        let (p, spec) = build(&ops, trips, 1);
        let mut sim = Simulator::new(&p, SelectorKind::Net.make(&p, &cfg), &cfg);
        sim.run(Executor::new(&p, spec).take(120_000));
        // The live cache respects the bound at the end of the run. (A
        // single region larger than the whole capacity is still
        // admitted after a flush — like Dynamo, the cache always holds
        // at least the newest region — so check against the max of the
        // capacity and the largest single region.)
        let largest = sim
            .cache()
            .regions()
            .iter()
            .map(|r| r.size_estimate(cfg.stub_bytes))
            .max()
            .unwrap_or(0);
        prop_assert!(
            sim.cache().size_estimate(cfg.stub_bytes) <= capacity.max(largest),
            "cache {} over capacity {capacity}",
            sim.cache().size_estimate(cfg.stub_bytes)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The link memo under everything that kills, recycles or re-forms
    /// regions: evictions, bounded-cache flushes (region ids restart),
    /// SMC invalidations and flush waves, and selector switches,
    /// interleaved with execution ranges. Debug builds check every memo
    /// hit against the slow path it replaces; here the batch replay
    /// must also stay report-identical to the live path.
    #[test]
    fn link_memo_survives_eviction_flush_and_faults(
        ops in prop::collection::vec(op_strategy(), 1..6),
        trips in 30u32..300,
        seed in 0u64..1_000,
        kind in 0usize..8,
        capacity in prop_oneof![Just(None), (20u64..400).prop_map(Some)],
        smc_write_ppm in prop_oneof![Just(0u32), 100u32..2_000],
        flush_wave_ppm in prop_oneof![Just(0u32), 100u32..1_000],
        plan in prop::collection::vec((1usize..4_000, between_strategy()), 1..24),
    ) {
        let cfg = SimConfig {
            cache_capacity: capacity,
            faults: FaultConfig {
                seed,
                smc_write_ppm,
                flush_wave_ppm,
                ..FaultConfig::default()
            },
            ..eager_config()
        };
        let (p, spec) = build(&ops, trips, seed);
        let stream = DecodedStream::decode(
            CompactStream::record(Executor::new(&p, spec).take(40_000)),
            &p,
        );
        let kind = SelectorKind::extended()[kind];
        let (replayed, re) = run_interleaved(&p, &stream, kind, &cfg, &plan, true);
        let (live, le) = run_interleaved(&p, &stream, kind, &cfg, &plan, false);
        prop_assert_eq!(&replayed, &live, "{}", kind);
        let executed: usize = plan.iter().map(|(len, _)| len).sum::<usize>().min(stream.len());
        prop_assert_eq!(re.steps_stepped + re.steps_skipped, executed as u64);
        prop_assert_eq!(le.steps_stepped, executed as u64);
        prop_assert_eq!(le.transitions_stepped, live.region_transitions);
        prop_assert!(re.link_memo_misses <= re.transitions_stepped);
    }
}
