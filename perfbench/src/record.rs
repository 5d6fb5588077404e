//! The record and decode layers, traced: every suite workload is built
//! from `Workload::build(seed, Scale::Full)`, recorded with
//! `CompactStream::record(Executor)` and decoded with
//! `DecodedStream::decode`, each call in its own span. Times come from
//! the spans (see `main`); this pass reports the layers' work counts.

use crate::Report;
use crate::stats::ratio;
use crate::trace::{Recorder, SpanId};
use rsel_program::Executor;
use rsel_trace::{CompactStream, DecodedStream};
use rsel_workloads::{Scale, suite};

/// Records and decodes the whole suite once under `rec` and reports
/// `record.steps`, `record.bytes` and `decode.spin_coverage`.
pub fn trace_record_decode(
    seed: u64,
    rec: &mut impl Recorder,
    parent: SpanId,
    report: &mut Report,
) {
    let (mut steps, mut bytes, mut spin_steps) = (0usize, 0usize, 0usize);
    for w in suite() {
        let (program, spec) = rec.span("build", parent, || w.build(seed, Scale::Full));
        let stream = rec.span("record", parent, || {
            CompactStream::record(Executor::new(&program, spec))
        });
        steps += stream.len();
        bytes += stream.byte_size();
        let decoded = rec.span("decode", parent, || DecodedStream::decode(stream, &program));
        spin_steps += decoded
            .phases()
            .iter()
            .map(|p| p.period as usize * p.reps as usize)
            .sum::<usize>();
    }
    report.put("record.steps", steps as f64);
    report.put("record.bytes", bytes as f64);
    report.put(
        "decode.spin_coverage",
        ratio(spin_steps as f64, steps as f64),
    );
}
