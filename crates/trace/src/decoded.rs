//! Decode-once struct-of-arrays replay streams.
//!
//! [`CompactStream`] is the *storage* format: 5 bytes per step plus a
//! taken-source side table. Replaying it reconstructs a full
//! [`Step`] per event, paying a block-table hash lookup and an
//! enum rebuild on every step — and the benchmark matrix replays the
//! same recording once per selector, so that decode cost is paid eight
//! times per workload.
//!
//! [`DecodedStream`] is the *execution* format: the compact stream's
//! dense per-step arrays (block index and entry tag — taken over from
//! the compact form it consumes, never copied) plus per-block tables
//! (start address, instruction count, terminator address, [`BlockId`])
//! resolved against the program up front. The simulator's batch replay
//! path iterates the arrays directly — no per-step hashing, no `Step`
//! materialization — and any consumer can still materialize [`Step`]s
//! via [`DecodedStream::steps`], bit-identical to
//! [`CompactStream::replay`] on the source stream (rebuilt by
//! [`DecodedStream::to_compact`]).
//!
//! Taken-branch sources are *derived*, not stored: the executor always
//! leaves a block through its terminator, so a taken step's source is
//! the terminator address of the previous step's block — like the
//! paper's compact trace encoding (Figure 14), which spends no bits on
//! what the program already determines. Decoding checks that against
//! every recorded source and keeps the few that disagree (a taken
//! first step, hand-built or loaded streams) in a small sorted
//! exception table, so any [`CompactStream`] decodes exactly. The
//! decoded form thus holds 5 bytes per step instead of 5 plus 8 per
//! taken branch. [`DecodedStream::record`] makes the same check while
//! the execution runs, so a recording that is only ever replayed never
//! allocates the compact form or its taken-source table at all; that
//! also keeps a multi-megabyte source table from being freed, which
//! would raise glibc's mmap threshold and leave the process's peak
//! memory to depend on how concurrent recordings interleave.
//!
//! Decoding also runs a *spin-phase* detector (in the spirit of
//! gamegirl's waitloop optimization): maximal runs where the stream
//! repeats the same short step cycle are recorded as [`SpinPhase`]s, so
//! a replay engine can verify one period and fast-forward the rest in
//! O(1) — see `rsel_core`'s guarded fast-forward for the conditions
//! under which that is byte-identical.

use crate::stream::{CompactStream, StreamStats, kind_to_tag, tag_to_kind};
use rsel_program::{Addr, BlockId, Entry, Program, Step};

const ENTRY_START: u8 = 0;
const ENTRY_FALLTHROUGH: u8 = 1;
const ENTRY_TAKEN_BASE: u8 = 2;

/// Longest step cycle the spin detector recognises. Spin phases worth
/// skipping are tight loops (a handful of blocks per iteration); a
/// small bound keeps detection linear-ish and the verify cost per
/// phase trivial.
const MAX_PERIOD: usize = 64;

/// Minimum whole repetitions for a periodic run to be recorded. The
/// fast-forward path spends two periods (warm-up + verify) before it
/// can skip, so shorter runs cannot profit.
const MIN_REPS: usize = 4;

/// A maximal periodic run in a decoded stream: starting at step
/// `start`, the `period`-step cycle repeats `reps` whole times
/// (step-for-step identical, including entry kinds and branch
/// sources).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpinPhase {
    /// Index of the first step of the first repetition.
    pub start: u32,
    /// Steps per repetition.
    pub period: u32,
    /// Whole repetitions (`>= 4`).
    pub reps: u32,
}

impl SpinPhase {
    /// Index one past the last step covered by the whole repetitions.
    pub fn end(&self) -> usize {
        self.start as usize + self.period as usize * self.reps as usize
    }
}

/// Panics unless every step index of an `n`-step stream fits the
/// 32-bit step fields of [`SpinPhase`] and the source exception table.
/// A longer stream would otherwise silently truncate phase starts and
/// fast-forward the wrong steps.
fn check_indexable(n: usize) {
    assert!(
        u32::try_from(n).is_ok(),
        "cannot decode a stream of {n} steps: step indices are 32-bit, \
         so a decoded stream holds at most {} steps",
        u32::MAX
    );
}

/// A recorded execution decoded once into dense, directly-iterable
/// arrays (see the module docs).
///
/// ```
/// use rsel_program::{ProgramBuilder, BehaviorSpec, Executor, Step};
/// use rsel_trace::{CompactStream, DecodedStream};
///
/// let mut b = ProgramBuilder::new();
/// let f = b.function("main", 0x100);
/// let bb = b.block(f);
/// let ex = b.block_with(f, 0);
/// b.cond_branch(bb, bb);
/// b.ret(ex);
/// let p = b.build().unwrap();
/// let mut spec = BehaviorSpec::new(1);
/// spec.loop_trips(p.block(bb).branch_addr().unwrap(), 8);
/// let live: Vec<Step> = Executor::new(&p, spec.clone()).collect();
/// let compact = CompactStream::record(Executor::new(&p, spec));
/// let decoded = DecodedStream::decode(compact, &p);
/// let steps: Vec<Step> = decoded.steps().collect();
/// assert_eq!(steps, live);
/// assert_eq!(decoded.source_exceptions(), 0, "executor sources are derived");
/// assert!(!decoded.phases().is_empty(), "the spin loop is detected");
/// ```
#[derive(Clone, Debug)]
pub struct DecodedStream {
    /// Program block index of each step, in execution order (taken
    /// over from the compact form, not copied).
    blocks: Vec<u32>,
    /// Entry tag of each step, in the compact form's encoding.
    tags: Vec<u8>,
    /// Taken steps whose recorded source is not the terminator of the
    /// previous step's block, as `(step index, source)` sorted by step
    /// index. Empty for every stream the executor records.
    src_exceptions: Vec<(u32, Addr)>,
    // Per-block tables, indexed by program block index.
    ids: Vec<BlockId>,
    starts: Vec<Addr>,
    lens: Vec<u32>,
    term_addrs: Vec<Addr>,
    /// Detected spin phases, sorted by `start`, non-overlapping.
    phases: Vec<SpinPhase>,
    stats: StreamStats,
}

impl DecodedStream {
    /// Decodes `stream` against `program`: resolves every block index
    /// through the program tables once, checks every taken source
    /// against the one the previous step's terminator implies, detects
    /// spin phases, and accumulates the stream statistics. The
    /// stream's per-step arrays are taken over, not copied, and its
    /// taken-source table is dropped; [`DecodedStream::to_compact`]
    /// rebuilds it.
    ///
    /// # Panics
    ///
    /// Panics if a recorded block index is out of range for `program`
    /// (the stream was recorded from a different program), matching
    /// [`CompactStream::replay`], or if the stream has more than
    /// `u32::MAX` steps.
    pub fn decode(stream: CompactStream, program: &Program) -> Self {
        let (blocks, tags, srcs) = stream.into_raw_parts();
        check_indexable(blocks.len());
        let mut pass = StepPass::new(program);
        let mut srcs = srcs.into_iter();
        for (i, (&idx, &tag)) in blocks.iter().zip(&tags).enumerate() {
            let src = (tag >= ENTRY_TAKEN_BASE)
                .then(|| srcs.next().expect("taken entry has a recorded source"));
            pass.step(i, idx, src);
        }
        pass.finish(blocks, tags)
    }

    /// Records every step of `source` (an execution of `program`)
    /// straight into decoded form: equal, spare capacity included, to
    /// [`DecodedStream::decode`] of [`CompactStream::record`] on the
    /// same steps, but taken sources are checked as they arrive and
    /// never stored, so no compact stream and no taken-source table
    /// is ever allocated.
    ///
    /// # Panics
    ///
    /// As [`DecodedStream::decode`]: on a block index out of range for
    /// `program`, or on more than `u32::MAX` steps.
    pub fn record<I: IntoIterator<Item = Step>>(source: I, program: &Program) -> Self {
        let mut pass = StepPass::new(program);
        let (mut blocks, mut tags) = (Vec::new(), Vec::new());
        for step in source {
            let idx = u32::try_from(step.block.index()).expect("block index fits in 32 bits");
            let (tag, src) = match step.entry {
                Entry::Start => (ENTRY_START, None),
                Entry::Fallthrough => (ENTRY_FALLTHROUGH, None),
                Entry::Taken { src, kind } => (ENTRY_TAKEN_BASE + kind_to_tag(kind), Some(src)),
            };
            pass.step(blocks.len(), idx, src);
            blocks.push(idx);
            tags.push(tag);
        }
        check_indexable(blocks.len());
        pass.finish(blocks, tags)
    }

    /// Rebuilds the compact storage form this stream was decoded from,
    /// equal to it field for field.
    pub fn to_compact(&self) -> CompactStream {
        let srcs = (0..self.len())
            .filter(|&i| self.tags[i] >= ENTRY_TAKEN_BASE)
            .map(|i| self.taken_src(i))
            .collect();
        CompactStream::from_raw_parts(self.blocks.clone(), self.tags.clone(), srcs)
    }

    /// Number of decoded steps.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Taken steps whose source could not be derived from the previous
    /// step and is stored explicitly — zero for executor recordings.
    pub fn source_exceptions(&self) -> usize {
        self.src_exceptions.len()
    }

    /// [`CompactStream::byte_size`] of the source stream, without
    /// rebuilding it.
    pub fn compact_byte_size(&self) -> usize {
        self.blocks.len() * 4 + self.tags.len() + self.stats.taken_branches as usize * 8
    }

    /// Payload bytes held by this decoded form (excluding `Vec`
    /// headers and spare capacity): the per-step arrays, the source
    /// exceptions, the per-block tables and the spin phases.
    pub fn byte_size(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.blocks.as_slice())
            + size_of_val(self.tags.as_slice())
            + size_of_val(self.src_exceptions.as_slice())
            + size_of_val(self.ids.as_slice())
            + size_of_val(self.starts.as_slice())
            + size_of_val(self.lens.as_slice())
            + size_of_val(self.term_addrs.as_slice())
            + size_of_val(self.phases.as_slice())
    }

    /// The program block index executed at step `i`.
    #[inline]
    pub fn block_index(&self, i: usize) -> usize {
        self.blocks[i] as usize
    }

    /// The branch source of taken step `i`: the previous step's
    /// terminator, unless decoding recorded an exception for `i`.
    #[inline]
    fn taken_src(&self, i: usize) -> Addr {
        if !self.src_exceptions.is_empty() {
            if let Ok(k) = self
                .src_exceptions
                .binary_search_by_key(&(i as u32), |&(step, _)| step)
            {
                return self.src_exceptions[k].1;
            }
        }
        self.term_addrs[self.blocks[i - 1] as usize]
    }

    /// How control arrived at step `i`.
    #[inline]
    pub fn entry_at(&self, i: usize) -> Entry {
        match self.tags[i] {
            ENTRY_START => Entry::Start,
            ENTRY_FALLTHROUGH => Entry::Fallthrough,
            t => Entry::Taken {
                src: self.taken_src(i),
                kind: tag_to_kind(t - ENTRY_TAKEN_BASE)
                    .expect("recorded tag encodes a branch kind"),
            },
        }
    }

    /// The id of program block `bidx`.
    #[inline]
    pub fn block_id(&self, bidx: usize) -> BlockId {
        self.ids[bidx]
    }

    /// The start address of program block `bidx`.
    #[inline]
    pub fn block_start(&self, bidx: usize) -> Addr {
        self.starts[bidx]
    }

    /// The instruction count of program block `bidx`.
    #[inline]
    pub fn block_len(&self, bidx: usize) -> u32 {
        self.lens[bidx]
    }

    /// The terminator address of program block `bidx` — the
    /// fall-through source a replay engine attributes to a sequential
    /// entry, without a per-step block lookup.
    #[inline]
    pub fn term_addr(&self, bidx: usize) -> Addr {
        self.term_addrs[bidx]
    }

    /// The detected spin phases, sorted by start index. Phases never
    /// overlap each other's whole repetitions.
    pub fn phases(&self) -> &[SpinPhase] {
        &self.phases
    }

    /// Stream statistics accumulated during the single decode pass —
    /// no second walk over the steps.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Materializes step `i`, bit-identical to the `i`-th item of
    /// [`CompactStream::replay`].
    #[inline]
    pub fn step_at(&self, i: usize) -> Step {
        let bidx = self.block_index(i);
        Step {
            block: self.ids[bidx],
            start: self.starts[bidx],
            entry: self.entry_at(i),
        }
    }

    /// Iterates the stream as full [`Step`]s (bit-identical to
    /// [`CompactStream::replay`] on the source stream).
    pub fn steps(&self) -> impl Iterator<Item = Step> + '_ {
        (0..self.len()).map(|i| self.step_at(i))
    }

    /// Whether steps `a` and `b` are identical: same block, same entry
    /// kind, and (for taken entries) the same branch source.
    #[inline]
    fn step_eq(&self, a: usize, b: usize) -> bool {
        self.blocks[a] == self.blocks[b]
            && self.tags[a] == self.tags[b]
            && (self.tags[a] < ENTRY_TAKEN_BASE || self.taken_src(a) == self.taken_src(b))
    }
}

/// The per-step pass shared by [`DecodedStream::decode`] and
/// [`DecodedStream::record`]: the program's per-block tables, plus the
/// source exceptions and stream statistics accumulated step by step.
struct StepPass {
    ids: Vec<BlockId>,
    starts: Vec<Addr>,
    lens: Vec<u32>,
    term_addrs: Vec<Addr>,
    src_exceptions: Vec<(u32, Addr)>,
    stats: StreamStats,
    /// Terminator address of the previous step's block.
    prev_term: Option<Addr>,
}

impl StepPass {
    fn new(program: &Program) -> Self {
        let pblocks = program.blocks();
        let mut pass = StepPass {
            ids: Vec::with_capacity(pblocks.len()),
            starts: Vec::with_capacity(pblocks.len()),
            lens: Vec::with_capacity(pblocks.len()),
            term_addrs: Vec::with_capacity(pblocks.len()),
            src_exceptions: Vec::new(),
            stats: StreamStats::default(),
            prev_term: None,
        };
        for b in pblocks {
            pass.ids.push(b.id());
            pass.starts.push(b.start());
            pass.lens.push(b.len() as u32);
            pass.term_addrs.push(b.terminator().addr());
        }
        pass
    }

    /// Accounts step `i` at block index `idx`; `src` is its recorded
    /// source, present exactly when the step was entered taken.
    fn step(&mut self, i: usize, idx: u32, src: Option<Addr>) {
        let idx = idx as usize;
        assert!(
            idx < self.ids.len(),
            "recorded block index {idx} out of range for program"
        );
        self.stats.blocks += 1;
        self.stats.instructions += u64::from(self.lens[idx]);
        if let Some(src) = src {
            self.stats.taken_branches += 1;
            if self.starts[idx].is_backward_from(src) {
                self.stats.backward_taken += 1;
            }
            if self.prev_term != Some(src) {
                self.src_exceptions.push((i as u32, src));
            }
        }
        self.prev_term = Some(self.term_addrs[idx]);
    }

    /// The decoded stream over the per-step arrays the pass accounted.
    fn finish(self, blocks: Vec<u32>, tags: Vec<u8>) -> DecodedStream {
        let mut decoded = DecodedStream {
            blocks,
            tags,
            src_exceptions: self.src_exceptions,
            ids: self.ids,
            starts: self.starts,
            lens: self.lens,
            term_addrs: self.term_addrs,
            phases: Vec::new(),
            stats: self.stats,
        };
        decoded.phases = detect_phases(&decoded);
        decoded
    }
}

/// Finds maximal periodic runs: at each step whose block last occurred
/// `p <= MAX_PERIOD` steps ago with an identical step, extends the
/// period-`p` match as far as it holds and records the run when it
/// covers at least [`MIN_REPS`] whole repetitions.
///
/// Failed extensions are bounded by a global work budget (2x the
/// stream length) so adversarially near-periodic streams cannot make
/// decoding quadratic: when the budget runs out, detection stops and
/// the remaining stream simply replays step by step (a performance
/// fallback, never a correctness concern).
fn detect_phases(stream: &DecodedStream) -> Vec<SpinPhase> {
    let blocks = &stream.blocks;
    let n = blocks.len();
    let mut phases = Vec::new();
    if n < 2 * MIN_REPS {
        return phases;
    }
    let max_block = blocks.iter().copied().max().unwrap_or(0) as usize;
    // Last occurrence of each block index, for O(1) period candidates.
    let mut last = vec![usize::MAX; max_block + 1];
    let eq = |a: usize, b: usize| stream.step_eq(a, b);
    let mut budget = 2 * n;
    let mut i = 0usize;
    while i < n {
        let b = blocks[i] as usize;
        let prev = last[b];
        last[b] = i;
        if prev != usize::MAX && i - prev <= MAX_PERIOD && budget > 0 && eq(i, prev) {
            let p = i - prev;
            let mut j = i + 1;
            while j < n && eq(j, j - p) {
                j += 1;
            }
            budget = budget.saturating_sub(j - i);
            // A later candidate can start inside the previous phase's
            // covered range; clamp it — any suffix of a periodic run
            // is still periodic — so phases stay disjoint.
            let last_end = phases.last().map(SpinPhase::end).unwrap_or(0);
            let s = prev.max(last_end);
            let reps = j.saturating_sub(s) / p;
            if reps >= MIN_REPS {
                // Decoding checked that every step index fits in u32.
                phases.push(SpinPhase {
                    start: s as u32,
                    period: p as u32,
                    reps: reps as u32,
                });
                // Resume after the run; refresh the last-occurrence
                // table with the final period so detection right after
                // the run still sees its blocks.
                for k in (j - p)..j {
                    last[blocks[k] as usize] = k;
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsel_program::{BehaviorSpec, Executor, ProgramBuilder};

    fn spin_run(trips: u32) -> (Program, CompactStream) {
        let mut b = ProgramBuilder::new();
        let f = b.function("main", 0x100);
        let head = b.block(f);
        let body = b.block(f);
        let exit = b.block_with(f, 0);
        let _ = head;
        b.cond_branch(body, head);
        b.ret(exit);
        let p = b.build().unwrap();
        let mut spec = BehaviorSpec::new(1);
        spec.loop_trips(p.block(body).branch_addr().unwrap(), trips);
        let stream = CompactStream::record(Executor::new(&p, spec));
        (p, stream)
    }

    #[test]
    fn decoded_steps_match_compact_replay() {
        let (p, stream) = spin_run(50);
        let n = stream.len();
        let b: Vec<Step> = stream.replay(&p).collect();
        let decoded = DecodedStream::decode(stream.clone(), &p);
        let a: Vec<Step> = decoded.steps().collect();
        assert_eq!(a, b);
        assert_eq!(decoded.len(), n);
        assert_eq!(decoded.source_exceptions(), 0);
        assert_eq!(decoded.to_compact(), stream);
        assert_eq!(decoded.compact_byte_size(), stream.byte_size());
    }

    #[test]
    fn stats_match_step_walk() {
        let (p, stream) = spin_run(50);
        let steps: Vec<Step> = stream.replay(&p).collect();
        let decoded = DecodedStream::decode(stream, &p);
        assert_eq!(decoded.stats(), StreamStats::collect(&p, &steps));
    }

    #[test]
    fn decoded_form_drops_the_source_table() {
        let (p, stream) = spin_run(1000);
        let compact_per_step = stream.byte_size() as f64 / stream.len() as f64;
        let decoded = DecodedStream::decode(stream, &p);
        let per_step = decoded.byte_size() as f64 / decoded.len() as f64;
        assert!(compact_per_step > 8.0, "{compact_per_step}");
        assert!(per_step < 5.5, "{per_step} bytes per decoded step");
    }

    #[test]
    fn underived_sources_decode_exactly() {
        let (p, stream) = spin_run(20);
        let mut steps: Vec<Step> = stream.replay(&p).collect();
        // A taken first step and a taken source that is not the
        // previous step's terminator: neither can be derived.
        let foreign = p.blocks().last().unwrap().terminator().addr();
        let kind = rsel_program::BranchKind::Jump;
        steps[0].entry = Entry::Taken { src: foreign, kind };
        let k = steps.iter().rposition(|s| s.entry.is_taken()).unwrap();
        steps[k].entry = Entry::Taken { src: foreign, kind };
        let stream = CompactStream::record(steps.iter().copied());
        let decoded = DecodedStream::decode(stream.clone(), &p);
        assert_eq!(decoded.source_exceptions(), 2);
        assert_eq!(decoded.steps().collect::<Vec<_>>(), steps);
        assert_eq!(decoded.to_compact(), stream);
    }

    /// Field for field, spare capacity included.
    fn assert_same(a: &DecodedStream, b: &DecodedStream) {
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(a.tags, b.tags);
        assert_eq!(a.blocks.capacity(), b.blocks.capacity());
        assert_eq!(a.tags.capacity(), b.tags.capacity());
        assert_eq!(a.src_exceptions, b.src_exceptions);
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.starts, b.starts);
        assert_eq!(a.lens, b.lens);
        assert_eq!(a.term_addrs, b.term_addrs);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn recording_equals_decoding_the_compact_recording() {
        for trips in [0, 2, 50, 1000] {
            let (p, stream) = spin_run(trips);
            let steps: Vec<Step> = stream.replay(&p).collect();
            let recorded = DecodedStream::record(steps.iter().copied(), &p);
            assert_same(&recorded, &DecodedStream::decode(stream, &p));
        }
        // Underivable sources land in the exception table alike.
        let (p, stream) = spin_run(20);
        let mut steps: Vec<Step> = stream.replay(&p).collect();
        let foreign = p.blocks().last().unwrap().terminator().addr();
        let kind = rsel_program::BranchKind::Jump;
        steps[0].entry = Entry::Taken { src: foreign, kind };
        let recorded = DecodedStream::record(steps.iter().copied(), &p);
        assert_eq!(recorded.source_exceptions(), 1);
        let stream = CompactStream::record(steps.iter().copied());
        assert_same(&recorded, &DecodedStream::decode(stream, &p));
    }

    #[test]
    fn longest_indexable_stream_is_accepted() {
        check_indexable(0);
        check_indexable(u32::MAX as usize);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "step indices are 32-bit")]
    fn overlong_stream_is_rejected() {
        check_indexable(u32::MAX as usize + 1);
    }

    #[test]
    fn spin_phase_detected_and_covers_the_loop() {
        let (p, stream) = spin_run(1000);
        let decoded = DecodedStream::decode(stream, &p);
        let phases = decoded.phases();
        assert!(!phases.is_empty(), "a 1000-trip loop is a spin phase");
        let ph = phases[0];
        assert!(ph.reps as usize >= MIN_REPS);
        assert!(ph.end() <= decoded.len());
        // Every covered step really repeats with the phase period.
        for k in (ph.start as usize + ph.period as usize)..ph.end() {
            assert_eq!(
                decoded.step_at(k),
                decoded.step_at(k - ph.period as usize),
                "step {k}"
            );
        }
    }

    #[test]
    fn phases_are_sorted_and_disjoint() {
        let (p, stream) = spin_run(200);
        let decoded = DecodedStream::decode(stream, &p);
        let phases = decoded.phases();
        for w in phases.windows(2) {
            assert!(w[0].end() <= w[1].start as usize, "{w:?}");
        }
    }

    #[test]
    fn short_runs_are_not_phases() {
        let (p, stream) = spin_run(2);
        let decoded = DecodedStream::decode(stream, &p);
        assert!(decoded.phases().is_empty(), "below MIN_REPS");
    }
}
