//! # nonctg-core — an MPI-like runtime for non-contiguous send studies
//!
//! A from-scratch message-passing runtime reproducing the communication
//! machinery Eijkhout's paper measures: two-sided sends with eager and
//! rendezvous protocols, internal-buffer staging of derived datatypes
//! (with the large-message degradation of §4.1), buffered sends through a
//! user-attached buffer, `pack`/`unpack` with position cursors, and
//! one-sided windows with `put`/`get` under `fence` synchronization.
//!
//! Ranks are threads over a shared in-process fabric; payload bytes move
//! for real (receivers can verify them), while *time* comes from the
//! platform cost model in `nonctg-simnet`, accumulated on deterministic
//! per-rank virtual clocks that `Comm::wtime` reads like `MPI_Wtime`.
//!
//! ```
//! use nonctg_core::Universe;
//! use nonctg_simnet::Platform;
//!
//! let (_, echoed) = Universe::run_pair(Platform::skx_impi(), |comm| {
//!     if comm.rank() == 0 {
//!         comm.send_slice(&[1.0f64, 2.0, 3.0], 1, 0).unwrap();
//!         Vec::new()
//!     } else {
//!         let mut buf = vec![0.0f64; 3];
//!         comm.recv_slice(&mut buf, Some(0), Some(0)).unwrap();
//!         buf
//!     }
//! });
//! assert_eq!(echoed, vec![1.0, 2.0, 3.0]);
//! ```

#![warn(missing_docs)]

mod cart;
mod coll;
mod comm;
mod error;
mod fabric;
mod invariants;
pub mod metrics;
mod nonblocking;
mod p2p;
mod persistent;
mod packbuf;
mod rma;
mod route;
pub mod selector;
pub mod trace;
mod universe;

pub use cart::CartTopology;
pub use coll::{Reducible, ReduceOp};
pub use comm::{CacheState, Comm};
pub use error::{CoreError, Result};
pub use fabric::FaultStats;
pub use invariants::{oracle_checks_enabled, set_oracle_checks};
pub use metrics::{Histogram, MetricsSnapshot, TransferCounters};
pub use nonblocking::{RecvRequest, SendRequest};
pub use persistent::{PersistentRecv, PersistentSend};
pub use p2p::{RecvStatus, BSEND_OVERHEAD_BYTES, MAX_SEND_ATTEMPTS};
pub use rma::{Window, WindowState};
pub use route::{send_engine, StageCause, CHUNK_DEMOTE_THRESHOLD};
pub use selector::{
    iov_max_regions, reset_selector_counters, selector_counters, RegionShape, SelectorCounters,
    DEFAULT_IOV_MAX_REGIONS,
};
pub use trace::{EventKind, TraceConfig, TraceEvent, TraceStats};
pub use universe::Universe;

// Re-export the layers users need alongside the runtime.
pub use nonctg_datatype as datatype;
pub use nonctg_simnet as simnet;
