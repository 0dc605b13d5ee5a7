//! # nonctg-schemes — the paper's eight send schemes and its harness
//!
//! Implements §2 of *Performance of MPI sends of non-contiguous data*
//! against the `nonctg-core` runtime: the contiguous reference, manual
//! copying, buffered sends, direct vector/subarray datatype sends,
//! one-sided puts under fences, and the two packing schemes — plus the
//! §3.2 ping-pong measurement protocol (20 individually-timed ping-pongs,
//! zero-byte pongs, buffers allocated outside the loop, 50 MB cache flush
//! between iterations, 1-sigma outlier rejection) and size sweeps.

#![warn(missing_docs)]

mod appkernel;
pub mod checkpoint;
mod phases;
mod pingpong;
mod scheme;
pub mod stats;
mod sweep;
mod workload;

pub use appkernel::{
    run_kernel_scheme, run_kernel_sweep, AppKernel, KernelWorkload, KERNEL_SCHEMES,
};
pub use phases::{
    attribute, run_phase_sweep, run_phase_sweep_with, run_scheme_phases, Phase, PhasePoint,
    PhaseSweep, PhaseTimes,
};
pub use pingpong::{
    run_datatype_send, run_scheme, run_scheme_pairs, try_run_scheme, try_run_scheme_observed,
    try_run_scheme_pairs, MeasureError, Observe, ObservedRun, PingPongConfig, PingPongResult,
    PING_TAG, PONG_TAG,
};
pub use checkpoint::{CheckpointError, CHECKPOINT_SCHEMA_VERSION};
pub use scheme::Scheme;
pub use stats::Stats;
pub use sweep::{
    run_sweep, run_sweep_parallel, run_sweep_resilient, run_sweep_resilient_with,
    run_sweep_sharded, run_sweep_with,
    PointStatus, Resilience, Sweep, SweepConfig, SweepFaults, SweepHealth, SweepPoint,
};
pub use workload::{IrregularWorkload, Workload};
