//! Figure-regeneration harness for the paper's evaluation.
//!
//! Each binary in `src/bin/` regenerates one figure of the paper (see
//! `DESIGN.md` for the index). This library holds the shared machinery:
//! recording each workload's execution once and replaying it through
//! every selector (in parallel across `RSEL_JOBS` workers), plus
//! formatting the per-benchmark rows and the averages the paper quotes.
//!
//! Absolute numbers differ from the paper (our substrate is a synthetic
//! workload suite, not SPECint2000 on IA-32); the reproduction targets
//! the *shape*: who wins, by roughly what factor, and where the
//! outliers sit. `EXPERIMENTS.md` records paper-vs-measured for every
//! figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod table;

pub use harness::{
    DEFAULT_SEED, MatrixResults, RecordedWorkload, env_knob, jobs_from_env, record_suite,
    replay_matrix, run_matrix, run_matrix_from_env, run_matrix_serial_live, run_matrix_with_jobs,
    run_one,
};
pub use table::{Table, geomean};
