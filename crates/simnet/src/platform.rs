//! Platform models for the four installations benchmarked in the paper.
//!
//! Each [`Platform`] bundles the structural parameters a LogGP-style cost
//! model needs: memory copy bandwidth, network bandwidth and latency, the
//! eager/rendezvous switch, MPI internal-buffer behaviour for large derived
//! types, one-sided synchronization costs, and per-call software overheads.
//!
//! The absolute numbers are *calibrated to reproduce the paper's shapes*
//! (who wins, by what factor, where the crossovers fall), not to match the
//! authors' Omni-Path/Aries testbeds byte-for-byte; see DESIGN.md §2 and
//! EXPERIMENTS.md for the per-figure comparison.

use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use crate::fault::{ChunkSchedule, FaultPlan};

/// Default per-wait deadlock timeout, seconds.
pub const DEFAULT_DEADLOCK_TIMEOUT_S: f64 = 60.0;

/// Which engine a non-contiguous send routes through.
///
/// `Auto` defers to the adaptive selector, which predicts pack vs iovec
/// vs element cost from the platform model and picks the cheapest; the
/// other values force one engine unconditionally (used by calibration,
/// differential tests, and the `NONCTG_DATAPATH` environment variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Datapath {
    /// Gather into a packed staging buffer through the compiled plan.
    Pack,
    /// Zero-copy iovec: ship the region list, scatter at the receiver.
    Iov,
    /// Naive per-segment element copies (no compiled plan).
    Elem,
    /// Pick per message from the measured cost model.
    #[default]
    Auto,
}

impl Datapath {
    /// Canonical lowercase name (the `NONCTG_DATAPATH` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Datapath::Pack => "pack",
            Datapath::Iov => "iov",
            Datapath::Elem => "elem",
            Datapath::Auto => "auto",
        }
    }
}

impl fmt::Display for Datapath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Datapath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "pack" => Ok(Datapath::Pack),
            "iov" | "iovec" => Ok(Datapath::Iov),
            "elem" | "element" => Ok(Datapath::Elem),
            "auto" => Ok(Datapath::Auto),
            other => Err(format!("unknown datapath '{other}' (expected pack|iov|elem|auto)")),
        }
    }
}

/// The process-wide datapath override from `NONCTG_DATAPATH`, resolved
/// once. Unset or unparseable means [`Datapath::Auto`].
fn env_datapath() -> Datapath {
    static V: OnceLock<Datapath> = OnceLock::new();
    *V.get_or_init(|| {
        std::env::var("NONCTG_DATAPATH")
            .ok()
            .and_then(|v| v.parse::<Datapath>().ok())
            .unwrap_or(Datapath::Auto)
    })
}

/// Identifier of a modeled installation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// Stampede2 Skylake + Intel MPI (paper figure 1).
    SkxImpi,
    /// Stampede2 Skylake + MVAPICH2 (paper figure 2).
    SkxMvapich,
    /// Lonestar5 Cray XC40 + Cray MPICH (paper figure 3).
    Ls5CrayMpich,
    /// Stampede2 Knights Landing + Intel MPI (paper figure 4).
    KnlImpi,
}

impl PlatformId {
    /// All modeled installations, in paper-figure order.
    pub const ALL: [PlatformId; 4] = [
        PlatformId::SkxImpi,
        PlatformId::SkxMvapich,
        PlatformId::Ls5CrayMpich,
        PlatformId::KnlImpi,
    ];

    /// Canonical CLI name.
    pub fn name(self) -> &'static str {
        match self {
            PlatformId::SkxImpi => "skx-impi",
            PlatformId::SkxMvapich => "skx-mvapich2",
            PlatformId::Ls5CrayMpich => "ls5-craympich",
            PlatformId::KnlImpi => "knl-impi",
        }
    }

    /// Which paper figure this installation corresponds to.
    pub fn paper_figure(self) -> u32 {
        match self {
            PlatformId::SkxImpi => 1,
            PlatformId::SkxMvapich => 2,
            PlatformId::Ls5CrayMpich => 3,
            PlatformId::KnlImpi => 4,
        }
    }
}

impl fmt::Display for PlatformId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PlatformId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "skx-impi" | "skx" | "fig1" => Ok(PlatformId::SkxImpi),
            "skx-mvapich2" | "mvapich" | "fig2" => Ok(PlatformId::SkxMvapich),
            "ls5-craympich" | "ls5" | "cray" | "fig3" => Ok(PlatformId::Ls5CrayMpich),
            "knl-impi" | "knl" | "fig4" => Ok(PlatformId::KnlImpi),
            other => Err(format!(
                "unknown platform '{other}' (expected one of: skx-impi, skx-mvapich2, ls5-craympich, knl-impi)"
            )),
        }
    }
}

/// Memory-subsystem parameters of one node.
#[derive(Debug, Clone)]
pub struct MemModel {
    /// Payload bandwidth of a warm contiguous copy loop, bytes/s.
    /// (The copy moves 2x this in raw traffic: one read + one write.)
    pub copy_bw: f64,
    /// Last-level cache size per socket, bytes; data under this stays warm
    /// when the harness does not flush between iterations.
    pub cache_size: u64,
    /// Speedup factor on gather reads whose working set sits in cache.
    pub warm_speedup: f64,
    /// Cache line size, bytes; governs wasted read bandwidth for strided
    /// access with stride beyond a line.
    pub cacheline: u64,
    /// Multiplier (<= 1) on effective gather bandwidth for *irregular*
    /// (non-strided) access, modeling dead prefetch streams.
    pub irregular_prefetch_eff: f64,
}

/// Per-call CPU software overheads.
#[derive(Debug, Clone)]
pub struct CpuModel {
    /// Fixed cost of one MPI library call (e.g. one `MPI_Pack`), seconds.
    /// Dominates the paper's packing(e) scheme.
    pub per_call_overhead: f64,
}

/// Network-interface parameters.
#[derive(Debug, Clone)]
pub struct NetModel {
    /// Peak point-to-point bandwidth, bytes/s.
    pub bw: f64,
    /// One-way small-message latency, seconds.
    pub latency: f64,
    /// Fraction of memory-read/wire overlap achieved for contiguous sends
    /// (DMA pipelining); 1.0 = perfect overlap.
    pub pipeline_eff: f64,
    /// Bandwidth at which the NIC DMA engine streams contiguous host
    /// memory, bytes/s. Independent of the scalar core speed — on KNL the
    /// weak core throttles copy loops but not the DMA path, which is how
    /// the paper sees the same peak network on KNL (§4.8).
    pub dma_read_bw: f64,
}

/// Two-sided protocol and internal-buffer parameters.
#[derive(Debug, Clone)]
pub struct ProtocolModel {
    /// Messages at or below this many bytes go eagerly (no handshake).
    pub eager_limit: u64,
    /// Per-message software overhead on the eager path, seconds.
    pub eager_overhead: f64,
    /// Extra cost of the rendezvous handshake (an RTT plus bookkeeping).
    pub rndv_extra: f64,
    /// Cray quirk (paper §4.5): sends of `MPI_PACKED` data switch protocol
    /// at `eager_limit * packed_eager_factor` instead of `eager_limit`.
    pub packed_eager_factor: f64,
    /// Internal staging-buffer size. Derived-type sends larger than this
    /// are chunked with degraded buffer bookkeeping (paper §4.1).
    pub internal_buffer: u64,
    /// Chunk size used once staging overflows.
    pub chunk_size: u64,
    /// Bookkeeping overhead per staged chunk, seconds.
    pub chunk_overhead: f64,
    /// Multiplier on internal copy cost beyond `internal_buffer`.
    pub large_degradation: f64,
    /// Per-message overhead of `MPI_Bsend` buffer accounting, seconds.
    pub bsend_overhead: f64,
    /// Whether `Bsend` pays an extra internal contiguous copy on top of
    /// staging through the attached buffer (observed on all four MPIs).
    pub bsend_extra_copy: bool,
}

/// One-sided (RMA) parameters.
#[derive(Debug, Clone)]
pub struct RmaModel {
    /// Cost of one `Win_fence` epoch boundary per rank, seconds.
    pub fence_overhead: f64,
    /// Per-put software overhead, seconds.
    pub put_overhead: f64,
    /// Wire-bandwidth efficiency of puts relative to two-sided (1.0 = on
    /// par; MVAPICH2 shows a large deficit in the paper).
    pub bw_factor: f64,
    /// Extra multiplier on put transfer time beyond the internal buffer
    /// (the erratic large-message behaviour of figure 1/2/4); 1.0 on Cray
    /// where large one-sided tracks the derived types.
    pub large_penalty: f64,
}

/// A complete modeled installation.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Which installation this is.
    pub id: PlatformId,
    /// Human-readable description (cluster, fabric, MPI).
    pub description: &'static str,
    /// Memory model.
    pub mem: MemModel,
    /// CPU call-overhead model.
    pub cpu: CpuModel,
    /// NIC model.
    pub net: NetModel,
    /// Two-sided protocol model.
    pub proto: ProtocolModel,
    /// One-sided model.
    pub rma: RmaModel,
    /// Relative sigma of the deterministic log-normal measurement jitter.
    pub jitter_sigma: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
    /// Injected fault schedule, if any. `None` disables fault injection
    /// entirely; the presets all start fault-free.
    pub fault: Option<FaultPlan>,
    /// Forced non-contiguous datapath engine. [`Datapath::Auto`] (all
    /// presets) defers first to the `NONCTG_DATAPATH` environment
    /// variable and then to the adaptive selector; any other value wins
    /// over both (see [`Platform::with_datapath`] and
    /// [`Platform::effective_datapath`]).
    pub datapath: Datapath,
    /// How long a rank may block on one fabric wait (message match,
    /// barrier, rendezvous completion) before the watchdog declares a
    /// deadlock, seconds. Overridable per run via the
    /// `NONCTG_DEADLOCK_TIMEOUT` environment variable (see
    /// [`Platform::effective_deadlock_timeout`]).
    pub deadlock_timeout_s: f64,
}

impl Platform {
    /// Builder: attach a fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Platform {
        self.fault = Some(plan);
        self
    }

    /// Builder: set the deadlock timeout in seconds.
    pub fn with_deadlock_timeout(mut self, seconds: f64) -> Platform {
        self.deadlock_timeout_s = seconds;
        self
    }

    /// Builder: force a non-contiguous datapath engine in-process,
    /// overriding both the selector and the `NONCTG_DATAPATH`
    /// environment variable (calibration and differential tests use this
    /// to compare engines without re-spawning the process).
    pub fn with_datapath(mut self, datapath: Datapath) -> Platform {
        self.datapath = datapath;
        self
    }

    /// The datapath policy in force: the explicit [`Platform::datapath`]
    /// override when not `Auto`, else the `NONCTG_DATAPATH` environment
    /// variable (which itself defaults to `Auto`, i.e. the selector).
    pub fn effective_datapath(&self) -> Datapath {
        if self.datapath != Datapath::Auto {
            return self.datapath;
        }
        env_datapath()
    }

    /// The notional chunk schedule of this platform's fault plan (the
    /// default schedule without one). No send streams its payload; the
    /// schedule only sizes the chunk-fault forecast (see
    /// [`FaultPlan::chunk_schedule`]).
    pub fn effective_pipeline(&self) -> ChunkSchedule {
        self.fault.as_ref().map(|f| f.chunk_schedule).unwrap_or_default()
    }

    /// The deadlock timeout actually in force: the
    /// `NONCTG_DEADLOCK_TIMEOUT` environment variable (seconds, float)
    /// when set and parseable, else [`Platform::deadlock_timeout_s`].
    /// Values are clamped below to 1 ms so a typo cannot make every wait
    /// fail instantly.
    pub fn effective_deadlock_timeout(&self) -> std::time::Duration {
        let seconds = std::env::var("NONCTG_DEADLOCK_TIMEOUT")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(self.deadlock_timeout_s);
        std::time::Duration::from_secs_f64(seconds.max(1e-3))
    }
    /// Look up a platform preset by id.
    pub fn get(id: PlatformId) -> Platform {
        match id {
            PlatformId::SkxImpi => Self::skx_impi(),
            PlatformId::SkxMvapich => Self::skx_mvapich(),
            PlatformId::Ls5CrayMpich => Self::ls5_craympich(),
            PlatformId::KnlImpi => Self::knl_impi(),
        }
    }

    /// All four presets in paper-figure order.
    pub fn all() -> Vec<Platform> {
        PlatformId::ALL.iter().map(|&id| Self::get(id)).collect()
    }

    /// Stampede2 Skylake, Omni-Path, Intel MPI (paper figure 1).
    pub fn skx_impi() -> Platform {
        Platform {
            id: PlatformId::SkxImpi,
            description: "Stampede2 dual-Skylake nodes, Omni-Path fabric, Intel MPI",
            mem: MemModel {
                copy_bw: 8.0e9,
                cache_size: 33 << 20,
                warm_speedup: 2.2,
                cacheline: 64,
                irregular_prefetch_eff: 0.55,
            },
            cpu: CpuModel { per_call_overhead: 55e-9 },
            net: NetModel { bw: 12.5e9, latency: 1.5e-6, pipeline_eff: 0.95, dma_read_bw: 19.0e9 },
            proto: ProtocolModel {
                eager_limit: 64 << 10,
                eager_overhead: 1.0e-6,
                rndv_extra: 3.5e-6,
                packed_eager_factor: 1.0,
                internal_buffer: 32 << 20,
                chunk_size: 4 << 20,
                chunk_overhead: 60e-6,
                large_degradation: 2.1,
                bsend_overhead: 2.0e-6,
                bsend_extra_copy: true,
            },
            rma: RmaModel {
                fence_overhead: 22e-6,
                put_overhead: 2.0e-6,
                bw_factor: 0.85,
                large_penalty: 1.7,
            },
            jitter_sigma: 0.03,
            seed: 0x5b_1001,
            fault: None,
            datapath: Datapath::Auto,
            deadlock_timeout_s: DEFAULT_DEADLOCK_TIMEOUT_S,
        }
    }

    /// Stampede2 Skylake, Omni-Path, MVAPICH2 (paper figure 2).
    pub fn skx_mvapich() -> Platform {
        Platform {
            id: PlatformId::SkxMvapich,
            description: "Stampede2 dual-Skylake nodes, Omni-Path fabric, MVAPICH2",
            mem: MemModel {
                copy_bw: 8.0e9,
                cache_size: 33 << 20,
                warm_speedup: 2.2,
                cacheline: 64,
                irregular_prefetch_eff: 0.55,
            },
            cpu: CpuModel { per_call_overhead: 60e-9 },
            net: NetModel { bw: 12.5e9, latency: 1.6e-6, pipeline_eff: 0.94, dma_read_bw: 19.0e9 },
            proto: ProtocolModel {
                eager_limit: 16 << 10,
                eager_overhead: 1.1e-6,
                rndv_extra: 4.0e-6,
                packed_eager_factor: 1.0,
                internal_buffer: 32 << 20,
                chunk_size: 4 << 20,
                chunk_overhead: 70e-6,
                large_degradation: 2.0,
                bsend_overhead: 2.5e-6,
                bsend_extra_copy: true,
            },
            // The paper: MVAPICH2 one-sided is several factors slower even
            // at intermediate sizes.
            rma: RmaModel {
                fence_overhead: 26e-6,
                put_overhead: 3.0e-6,
                bw_factor: 0.15,
                large_penalty: 1.9,
            },
            jitter_sigma: 0.03,
            seed: 0x5b_1002,
            fault: None,
            datapath: Datapath::Auto,
            deadlock_timeout_s: DEFAULT_DEADLOCK_TIMEOUT_S,
        }
    }

    /// Lonestar5 Cray XC40, Aries, Cray MPICH (paper figure 3).
    pub fn ls5_craympich() -> Platform {
        Platform {
            id: PlatformId::Ls5CrayMpich,
            description: "Lonestar5 Cray XC40, Aries interconnect, Cray MPICH 7.3",
            mem: MemModel {
                copy_bw: 7.0e9,
                cache_size: 30 << 20,
                warm_speedup: 2.0,
                cacheline: 64,
                irregular_prefetch_eff: 0.55,
            },
            cpu: CpuModel { per_call_overhead: 65e-9 },
            net: NetModel { bw: 8.5e9, latency: 1.3e-6, pipeline_eff: 0.96, dma_read_bw: 16.0e9 },
            proto: ProtocolModel {
                eager_limit: 8 << 10,
                eager_overhead: 0.9e-6,
                rndv_extra: 2.5e-6,
                // Paper §4.5: on Cray the packing scheme's protocol drop
                // appears at double the data size.
                packed_eager_factor: 2.0,
                internal_buffer: 48 << 20,
                chunk_size: 8 << 20,
                chunk_overhead: 80e-6,
                large_degradation: 1.9,
                bsend_overhead: 2.2e-6,
                bsend_extra_copy: true,
            },
            // Paper §4.8: on Cray, large one-sided is on par with the
            // derived types.
            rma: RmaModel {
                fence_overhead: 15e-6,
                put_overhead: 1.8e-6,
                bw_factor: 0.9,
                large_penalty: 1.0,
            },
            jitter_sigma: 0.035,
            seed: 0x5b_1003,
            fault: None,
            datapath: Datapath::Auto,
            deadlock_timeout_s: DEFAULT_DEADLOCK_TIMEOUT_S,
        }
    }

    /// Stampede2 Knights Landing, Omni-Path, Intel MPI (paper figure 4).
    ///
    /// Same peak network as the Skylake nodes, but the weak scalar core
    /// throttles every copy-bound scheme (paper §4.8).
    pub fn knl_impi() -> Platform {
        Platform {
            id: PlatformId::KnlImpi,
            description: "Stampede2 Knights Landing nodes, Omni-Path fabric, Intel MPI",
            mem: MemModel {
                copy_bw: 2.8e9,
                cache_size: 16 << 20,
                warm_speedup: 1.8,
                cacheline: 64,
                irregular_prefetch_eff: 0.5,
            },
            cpu: CpuModel { per_call_overhead: 180e-9 },
            net: NetModel { bw: 12.5e9, latency: 2.6e-6, pipeline_eff: 0.93, dma_read_bw: 16.0e9 },
            proto: ProtocolModel {
                eager_limit: 64 << 10,
                eager_overhead: 2.2e-6,
                rndv_extra: 6.0e-6,
                packed_eager_factor: 1.0,
                internal_buffer: 32 << 20,
                chunk_size: 4 << 20,
                chunk_overhead: 140e-6,
                large_degradation: 2.0,
                bsend_overhead: 4.0e-6,
                bsend_extra_copy: true,
            },
            rma: RmaModel {
                fence_overhead: 48e-6,
                put_overhead: 4.5e-6,
                bw_factor: 0.8,
                large_penalty: 1.6,
            },
            jitter_sigma: 0.04,
            seed: 0x5b_1004,
            fault: None,
            datapath: Datapath::Auto,
            deadlock_timeout_s: DEFAULT_DEADLOCK_TIMEOUT_S,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_by_name() {
        for id in PlatformId::ALL {
            let p: PlatformId = id.name().parse().unwrap();
            assert_eq!(p, id);
            assert_eq!(Platform::get(id).id, id);
        }
        assert!("omnipath9000".parse::<PlatformId>().is_err());
    }

    #[test]
    fn figure_numbers_match_order() {
        for (i, id) in PlatformId::ALL.iter().enumerate() {
            assert_eq!(id.paper_figure(), i as u32 + 1);
        }
    }

    #[test]
    fn knl_is_copy_bound_relative_to_skx() {
        let skx = Platform::skx_impi();
        let knl = Platform::knl_impi();
        assert_eq!(skx.net.bw, knl.net.bw, "same peak network (paper §4.8)");
        assert!(knl.mem.copy_bw < skx.mem.copy_bw / 2.0, "weak KNL cores");
    }

    #[test]
    fn all_platforms_have_sane_parameters() {
        for p in Platform::all() {
            assert!(p.mem.copy_bw > 0.0 && p.net.bw > 0.0);
            assert!(p.net.latency > 0.0 && p.net.latency < 1e-3);
            assert!(p.proto.eager_limit > 0);
            assert!(p.proto.internal_buffer > p.proto.eager_limit);
            assert!(p.proto.chunk_size <= p.proto.internal_buffer);
            assert!(p.proto.large_degradation >= 1.0);
            assert!(p.rma.bw_factor > 0.0 && p.rma.bw_factor <= 1.0);
            assert!(p.rma.large_penalty >= 1.0);
            assert!((0.0..0.5).contains(&p.jitter_sigma));
        }
    }

    #[test]
    fn datapath_names_round_trip() {
        for d in [Datapath::Pack, Datapath::Iov, Datapath::Elem, Datapath::Auto] {
            assert_eq!(d.name().parse::<Datapath>().unwrap(), d);
        }
        assert_eq!("iovec".parse::<Datapath>().unwrap(), Datapath::Iov);
        assert_eq!("element".parse::<Datapath>().unwrap(), Datapath::Elem);
        assert!("zerocopy".parse::<Datapath>().is_err());
    }

    #[test]
    fn presets_default_to_auto_datapath() {
        for p in Platform::all() {
            assert_eq!(p.datapath, Datapath::Auto);
        }
    }

    #[test]
    fn with_datapath_wins_over_environment() {
        let p = Platform::skx_impi().with_datapath(Datapath::Iov);
        assert_eq!(p.effective_datapath(), Datapath::Iov);
        let q = Platform::skx_impi().with_datapath(Datapath::Pack);
        assert_eq!(q.effective_datapath(), Datapath::Pack);
    }

    #[test]
    fn cray_packed_eager_quirk_present_only_on_cray() {
        for p in Platform::all() {
            if p.id == PlatformId::Ls5CrayMpich {
                assert!(p.proto.packed_eager_factor > 1.0);
            } else {
                assert_eq!(p.proto.packed_eager_factor, 1.0);
            }
        }
    }
}
