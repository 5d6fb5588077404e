//! Property tests for the decode-once stream: a [`DecodedStream`]
//! must be an exact, byte-identical reconstruction of the recording it
//! was decoded from, for arbitrary recorded behaviors — including
//! hand-made streams whose taken-branch sources cannot be derived from
//! the previous step.

use proptest::prelude::*;
use rsel_core::{SelectorKind, SimConfig, Simulator};
use rsel_program::{
    Addr, BehaviorSpec, BranchKind, Entry, Executor, Program, ProgramBuilder, Step,
};
use rsel_trace::{CompactStream, DecodedStream};

/// A looping program with conditional, indirect, and return branches,
/// so recorded streams exercise every entry-tag kind. `trips` and the
/// indirect weights vary the stream's shape and periodicity.
fn program(seed: u64, trips: u32, w1: u32, w2: u32) -> (Program, BehaviorSpec) {
    let mut b = ProgramBuilder::new();
    let f = b.function("main", 0x1000);
    let head = b.block(f);
    let sw = b.block(f);
    let h1 = b.block(f);
    let h2 = b.block(f);
    let latch = b.block(f);
    let out = b.block_with(f, 0);
    let _ = head;
    b.indirect_jump(sw);
    b.jump(h1, latch);
    b.jump(h2, latch);
    b.cond_branch(latch, head);
    b.ret(out);
    let p = b.build().unwrap();
    let mut spec = BehaviorSpec::new(seed);
    spec.indirect_weighted(
        p.block(sw).branch_addr().unwrap(),
        vec![(p.block(h1).start(), w1), (p.block(h2).start(), w2)],
    );
    spec.loop_trips(p.block(latch).branch_addr().unwrap(), trips);
    (p, spec)
}

/// The executor's steps for `(p, spec)` with taken sources rewritten
/// to the terminators of arbitrary blocks — `rewrites` holds
/// `(taken step, block)` picks, each reduced modulo its range — and,
/// when `taken_first`, a first step entered by a taken jump. Returns
/// the steps and how many of their taken sources differ from the
/// previous step's terminator (a taken first step always does).
fn hand_made(
    p: &Program,
    spec: BehaviorSpec,
    taken_first: bool,
    rewrites: &[(usize, usize)],
) -> (Vec<Step>, usize) {
    let mut steps: Vec<Step> = Executor::new(p, spec).collect();
    let term = |b: usize| p.blocks()[b % p.blocks().len()].terminator().addr();
    if taken_first {
        let src = term(p.blocks().len() - 1);
        steps[0].entry = Entry::Taken {
            src,
            kind: BranchKind::Jump,
        };
    }
    let taken: Vec<usize> = (1..steps.len())
        .filter(|&i| steps[i].entry.is_taken())
        .collect();
    if !taken.is_empty() {
        for &(at, block) in rewrites {
            let i = taken[at % taken.len()];
            if let Entry::Taken { kind, .. } = steps[i].entry {
                steps[i].entry = Entry::Taken {
                    src: term(block),
                    kind,
                };
            }
        }
    }
    let derived = |i: usize| -> Option<Addr> {
        (i > 0).then(|| p.block(steps[i - 1].block).terminator().addr())
    };
    let underived = (0..steps.len())
        .filter(|&i| {
            steps[i]
                .entry
                .taken_src()
                .is_some_and(|s| Some(s) != derived(i))
        })
        .count();
    (steps, underived)
}

proptest! {
    /// Streams whose taken sources are not the previous terminator
    /// (and may start with a taken step) still decode exactly: every
    /// materialized step equals the compact replay, the rebuilt compact
    /// form equals the source, and the batch replay of the decoded
    /// stream equals a step-by-step run under every selector.
    #[test]
    fn underived_sources_decode_and_replay_exactly(
        seed in 0u64..100,
        trips in 1u32..100,
        w1 in 1u32..8,
        w2 in 1u32..8,
        taken_first in any::<bool>(),
        rewrites in prop::collection::vec((0usize..1000, 0usize..16), 0..6),
    ) {
        let (p, spec) = program(seed, trips, w1, w2);
        let (steps, underived) = hand_made(&p, spec, taken_first, &rewrites);
        let stream = CompactStream::record(steps.iter().copied());
        let replayed: Vec<Step> = stream.replay(&p).collect();
        prop_assert_eq!(&replayed, &steps);
        let decoded = DecodedStream::decode(stream.clone(), &p);
        prop_assert_eq!(decoded.source_exceptions(), underived);
        for (i, expected) in replayed.iter().enumerate() {
            prop_assert_eq!(decoded.step_at(i), *expected, "step {}", i);
        }
        prop_assert!(decoded.steps().eq(replayed.iter().copied()));
        prop_assert_eq!(decoded.to_compact(), stream);
        let recorded = DecodedStream::record(steps.iter().copied(), &p);
        prop_assert!(recorded.steps().eq(replayed.iter().copied()));
        prop_assert_eq!(recorded.source_exceptions(), underived);
        prop_assert_eq!(recorded.phases(), decoded.phases());
        prop_assert_eq!(recorded.stats(), decoded.stats());
        let config = SimConfig::default();
        for kind in SelectorKind::extended() {
            let mut run = Simulator::new(&p, kind.make(&p, &config), &config);
            run.run(steps.iter().copied());
            let mut batch = Simulator::new(&p, kind.make(&p, &config), &config);
            batch.replay_decoded(&decoded);
            prop_assert_eq!(batch.report(), run.report(), "{}", kind);
        }
    }

    /// Decoding then re-materializing steps reproduces the compact
    /// replay exactly — block, start address, and entry (including the
    /// taken-branch source and kind) for every step.
    #[test]
    fn decoded_steps_round_trip(
        seed in 0u64..100,
        trips in 1u32..200,
        w1 in 1u32..8,
        w2 in 1u32..8,
    ) {
        let (p, spec) = program(seed, trips, w1, w2);
        let stream = CompactStream::record(Executor::new(&p, spec));
        let n_steps = stream.len();
        let decoded = DecodedStream::decode(stream.clone(), &p);
        prop_assert_eq!(decoded.len(), n_steps);
        let mut n = 0usize;
        for (i, expected) in stream.replay(&p).enumerate() {
            let got = decoded.step_at(i);
            prop_assert_eq!(got.block, expected.block, "step {}", i);
            prop_assert_eq!(got.start, expected.start, "step {}", i);
            prop_assert_eq!(got.entry, expected.entry, "step {}", i);
            n += 1;
        }
        prop_assert_eq!(n, decoded.len());
    }

    /// The decode-time statistics equal the stats of a step walk, and
    /// detected spin phases are sorted, disjoint, in bounds, and
    /// genuinely periodic in the decoded step sequence.
    #[test]
    fn stats_and_phases_are_consistent(
        seed in 0u64..100,
        trips in 1u32..400,
        w1 in 1u32..4,
        w2 in 1u32..4,
    ) {
        let (p, spec) = program(seed, trips, w1, w2);
        let stream = CompactStream::record(Executor::new(&p, spec));
        let steps: Vec<_> = stream.replay(&p).collect();
        let decoded = DecodedStream::decode(stream, &p);
        let walked = rsel_trace::StreamStats::collect(&p, &steps);
        prop_assert_eq!(decoded.stats(), walked);
        let mut prev_end = 0usize;
        for ph in decoded.phases() {
            let (start, end) = (ph.start as usize, ph.end());
            prop_assert!(ph.period >= 1);
            prop_assert!(ph.reps >= 4, "phases shorter than MIN_REPS");
            prop_assert!(start >= prev_end, "phases overlap");
            prop_assert!(end <= decoded.len(), "phase out of bounds");
            for i in start + ph.period as usize..end {
                let a = decoded.step_at(i);
                let b = decoded.step_at(i - ph.period as usize);
                prop_assert_eq!(a.block, b.block);
                prop_assert_eq!(a.entry, b.entry);
            }
            prev_end = end;
        }
    }
}
