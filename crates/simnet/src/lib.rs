//! # nonctg-simnet — platform and network cost models
//!
//! The substrate that replaces the paper's TACC clusters: four calibrated
//! [`Platform`] presets (Skylake+Intel MPI, Skylake+MVAPICH2, Cray XC40,
//! KNL+Intel MPI), a LogGP-style [cost model](crate::Access) for memory
//! gathers, wire transfers, protocol switches, internal-buffer staging and
//! one-sided synchronization, plus deterministic [`VirtualClock`]s and
//! seeded measurement [`Jitter`].
//!
//! The runtime in `nonctg-core` executes real data movement and charges
//! these model costs to per-rank virtual clocks; the benchmark harness then
//! reads those clocks exactly the way the paper reads `MPI_Wtime`.

#![warn(missing_docs)]

mod clock;
mod cost;
mod explain;
mod fault;
mod jitter;
mod platform;
mod spec;

pub use clock::{VirtualClock, WallClock};
pub use cost::Access;
pub use explain::{SendBreakdown, SendPath};
pub use fault::{
    ChunkFault, ChunkSchedule, CrashPoint, FaultPlan, LinkDegradation, PersistentFault, SendFault,
};
pub use jitter::Jitter;
pub use platform::{
    CpuModel, Datapath, MemModel, NetModel, Platform, PlatformId, ProtocolModel,
    RmaModel, DEFAULT_DEADLOCK_TIMEOUT_S,
};
pub use spec::SpecError;
