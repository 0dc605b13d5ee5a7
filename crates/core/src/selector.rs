//! The adaptive datapath selector: pack plan vs zero-copy iovec vs
//! element copies, per message.
//!
//! A non-contiguous send can move its bytes three ways:
//!
//! * **pack** — gather through the compiled [`nonctg_datatype::PackPlan`]
//!   into a staging buffer, send contiguously, unpack at the receiver;
//! * **iov** — ship the plan's `(offset, len)` region list and let the
//!   NIC DMA-gather/scatter the user regions directly (no staging copy,
//!   but a per-region descriptor cost);
//! * **elem** — the uncompiled per-segment engine, which skips plan
//!   compilation entirely and wins only for tiny messages.
//!
//! Auto mode takes the engine the cost model prices cheapest: [`select`]
//! evaluates the charges p2p bills on each path for the send's
//! [`RegionShape`] and picks iovec only where it is strictly cheaper
//! than the staged pack. Iovec wins once regions are long enough that
//! the per-region descriptor cost amortizes against the avoided gather
//! copy; the crossover is derived, not seeded. Decisions are observable
//! through [`EventKind::Select`](crate::trace::EventKind) trace events
//! and the process-wide [`selector_counters`].
//!
//! Overrides: `Platform::with_datapath` (in-process), then the
//! `NONCTG_DATAPATH` environment variable (pack|iov|elem|auto);
//! `NONCTG_IOV_MAX_REGIONS` caps the region lists iovec may carry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use nonctg_simnet::{Access, Datapath, Platform, PlatformId};

/// Default cap on how many regions an iovec send may carry; region lists
/// beyond this fall back to the pack path (descriptor tables stop
/// fitting the NIC's scatter/gather queue). Override with
/// `NONCTG_IOV_MAX_REGIONS`.
pub const DEFAULT_IOV_MAX_REGIONS: usize = 1024;

/// The iovec region-count cap in force: `NONCTG_IOV_MAX_REGIONS` when
/// set and positive, else [`DEFAULT_IOV_MAX_REGIONS`]. Resolved once.
pub fn iov_max_regions() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| {
        std::env::var("NONCTG_IOV_MAX_REGIONS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(DEFAULT_IOV_MAX_REGIONS)
    })
}

/// Messages at or under this many bytes take the element engine.
///
/// This is a wall-clock rule, not a model decision: the element walk is
/// billed exactly the staged pack's virtual time, so the cost model
/// cannot tell the two apart. What it saves is host time — for a few
/// hundred bytes, compiling and caching a plan costs more than walking
/// the segments.
pub const ELEM_MAX_BYTES: u64 = 256;

/// Shape summary of an iovec region list: the descriptor count plus how
/// many of those regions are shorter than one cacheline. Sub-line
/// descriptors fall off the NIC's batched fast path and each cost a full
/// per-call overhead instead of the batched quarter (see
/// `Platform::iov_overhead_shaped`), so a skewed layout mixing a few
/// long regions with many tiny ones is far more expensive than its
/// *mean* region length suggests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionShape {
    /// Total regions in the list.
    pub n: u64,
    /// Regions shorter than the platform cacheline.
    pub subline: u64,
}

impl RegionShape {
    /// Summarize a concrete `(offset, len)` region list against a
    /// platform's cacheline size.
    pub fn of(regions: &[(i64, u64)], cacheline: u64) -> RegionShape {
        let subline = regions.iter().filter(|&&(_, len)| len < cacheline).count() as u64;
        RegionShape { n: regions.len() as u64, subline }
    }
}

/// Model seconds the pack path spends on a payload beyond what every
/// rendezvous pays: the sender's staging gather, the contiguous wire
/// and the receiver's scatter.
fn pack_cost(p: &Platform, bytes: u64, access: &Access) -> f64 {
    p.staging_time(bytes, access, false)
        + p.wire_time(bytes, 1.0)
        + p.scatter_time(bytes, access, false)
}

/// Model seconds the iovec path spends on the same payload: the
/// sender's region descriptors, the DMA-gather wire with its per-region
/// restarts and the receiver's direct scatter.
fn iov_cost(p: &Platform, bytes: u64, s: RegionShape) -> f64 {
    p.iov_overhead_shaped(s.n, s.subline)
        + p.iov_wire_time(bytes, s.n)
        + p.iov_scatter_time_shaped(bytes, s.n, s.subline, false)
}

/// Pick the engine for one non-contiguous send of `bytes` payload laid
/// out per `access`, given the [`RegionShape`] of its bounded region
/// list (`None` = eager, no compiled plan, or a list over the
/// [`iov_max_regions`] cap, which all rule iovec out).
///
/// Iovec is taken when the model prices it strictly below pack. Both
/// sides are priced with the same functions p2p bills, minus the send
/// overhead and latency both paths pay, without jitter, and cold, so the
/// decision is a pure function of `(platform, bytes, layout)`: recorded
/// selections reproduce across runs, shards and resumes. The receiver is
/// priced with the sender's layout, since a sender cannot see the
/// receive type; that is exact for symmetric sends.
pub fn select(p: &Platform, bytes: u64, access: &Access, shape: Option<RegionShape>) -> Datapath {
    if bytes <= ELEM_MAX_BYTES {
        return Datapath::Elem;
    }
    match shape {
        Some(s) if iov_cost(p, bytes, s) < pack_cost(p, bytes, access) => Datapath::Iov,
        _ => Datapath::Pack,
    }
}

/// [`select`] for callers that only know a region count: `nregions`
/// equal regions of `bytes / nregions` each, laid out at a stride of
/// twice the block (the calibration probe's layout), on the preset
/// platform `id`. `None` means no bounded region list.
pub fn choose(id: PlatformId, bytes: u64, nregions: Option<u64>) -> Datapath {
    let p = Platform::get(id);
    let n = nregions.unwrap_or(1).max(1);
    let block = bytes / n;
    let access = Access::Strided { blocklen: block, stride: 2 * block };
    let subline = if block < p.mem.cacheline { n } else { 0 };
    select(&p, bytes, &access, nregions.map(|_| RegionShape { n, subline }))
}

static SEL_PACK: AtomicU64 = AtomicU64::new(0);
static SEL_IOV: AtomicU64 = AtomicU64::new(0);
static SEL_ELEM: AtomicU64 = AtomicU64::new(0);

/// Process-wide tallies of selector decisions (auto mode only — forced
/// datapaths bypass the selector and are not counted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectorCounters {
    /// Sends routed to the pack-plan engine.
    pub pack: u64,
    /// Sends routed to the zero-copy iovec engine.
    pub iov: u64,
    /// Sends routed to the uncompiled element engine.
    pub elem: u64,
}

impl SelectorCounters {
    /// Total decisions recorded.
    pub fn total(&self) -> u64 {
        self.pack + self.iov + self.elem
    }

    /// Counter deltas since an earlier snapshot (saturating, so a
    /// concurrent [`reset_selector_counters`] cannot underflow).
    pub fn delta_since(&self, base: &SelectorCounters) -> SelectorCounters {
        SelectorCounters {
            pack: self.pack.saturating_sub(base.pack),
            iov: self.iov.saturating_sub(base.iov),
            elem: self.elem.saturating_sub(base.elem),
        }
    }
}

/// Record one auto-mode selector decision.
pub(crate) fn record(choice: Datapath) {
    match choice {
        Datapath::Pack => SEL_PACK.fetch_add(1, Ordering::Relaxed),
        Datapath::Iov => SEL_IOV.fetch_add(1, Ordering::Relaxed),
        Datapath::Elem => SEL_ELEM.fetch_add(1, Ordering::Relaxed),
        Datapath::Auto => 0,
    };
}

/// Snapshot the process-wide selector decision counters.
pub fn selector_counters() -> SelectorCounters {
    SelectorCounters {
        pack: SEL_PACK.load(Ordering::Relaxed),
        iov: SEL_IOV.load(Ordering::Relaxed),
        elem: SEL_ELEM.load(Ordering::Relaxed),
    }
}

/// Reset the selector decision counters to zero (tests).
pub fn reset_selector_counters() {
    SEL_PACK.store(0, Ordering::Relaxed);
    SEL_IOV.store(0, Ordering::Relaxed);
    SEL_ELEM.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonctg_datatype::{self as dt, Datatype};

    /// A committed byte vector of `n` regions of `block` bytes at a
    /// stride of twice the block — the calibration probe's layout.
    fn probe_type(n: usize, block: usize) -> Datatype {
        Datatype::vector(n, block, 2 * block as i64, &Datatype::byte()).unwrap().commit()
    }

    #[test]
    fn tiny_messages_go_elementwise() {
        for id in PlatformId::ALL {
            assert_eq!(choose(id, 64, Some(8)), Datapath::Elem);
            assert_eq!(choose(id, ELEM_MAX_BYTES, None), Datapath::Elem);
            assert_eq!(choose(id, ELEM_MAX_BYTES + 1, None), Datapath::Pack);
        }
    }

    #[test]
    fn long_regions_go_iovec() {
        for id in PlatformId::ALL {
            // 4 KiB regions: the avoided gather dwarfs 256 descriptors.
            assert_eq!(choose(id, 1 << 20, Some(256)), Datapath::Iov);
        }
    }

    #[test]
    fn eight_byte_regions_go_pack() {
        for id in PlatformId::ALL {
            // The paper's stride-2 f64 layout: descriptor cost dominates.
            assert_eq!(choose(id, 1 << 20, Some(1 << 17)), Datapath::Pack);
            assert_eq!(choose(id, 8 << 10, Some(1 << 10)), Datapath::Pack);
        }
    }

    #[test]
    fn capped_lists_and_eager_sends_go_pack() {
        for p in Platform::all() {
            // No bounded region list at all.
            assert_eq!(choose(p.id, 1 << 20, None), Datapath::Pack);
            // 512 regions of 2 KiB take iovec; 2048 of 512 B blow the cap.
            let bounded = probe_type(512, 2048);
            assert_eq!(crate::send_engine(&p, &bounded, 1), Ok(Datapath::Iov), "{:?}", p.id);
            let capped = probe_type(iov_max_regions() + 1, 512);
            assert_eq!(crate::send_engine(&p, &capped, 1), Ok(Datapath::Pack), "{:?}", p.id);
            // Long regions under the eager limit never look their list up.
            let eager = probe_type(2, 2048);
            assert!(4096 <= p.eager_threshold(false));
            assert_eq!(crate::send_engine(&p, &eager, 1), Ok(Datapath::Pack), "{:?}", p.id);
        }
    }

    #[test]
    fn skewed_layouts_price_subline_descriptors() {
        // LAMMPS-shaped skew: 6 x 16 KiB blocks + 700 x 24 B records.
        // The mean region length (163 B) is past the uniform crossover,
        // but 700 sub-line descriptors each cost a full call overhead,
        // which keeps the send on the pack path.
        let bytes = 6 * 16384u64 + 700 * 24;
        let access = Access::Irregular { avg_blocklen: bytes as f64 / 706.0 };
        let shape = RegionShape { n: 706, subline: 700 };
        for p in Platform::all() {
            assert_eq!(select(&p, bytes, &access, Some(shape)), Datapath::Pack, "{:?}", p.id);
        }
        // A uniform list of the same total and count (the mean-length
        // view of the same message) would take iovec.
        assert_eq!(choose(PlatformId::SkxImpi, bytes, Some(706)), Datapath::Iov);
    }

    #[test]
    fn count_only_choose_matches_the_shape_aware_entry() {
        for p in Platform::all() {
            for block in [8usize, 64, 96, 160, 176, 192, 512, 4096] {
                for n in [16usize, 128, 900] {
                    let t = probe_type(n, block);
                    let regions = dt::plan_for(&t, 1).unwrap().regions(usize::MAX).unwrap();
                    let shape = RegionShape::of(&regions, p.mem.cacheline);
                    let bytes = (n * block) as u64;
                    assert_eq!(
                        choose(p.id, bytes, Some(n as u64)),
                        select(&p, bytes, &Access::classify(&t), Some(shape)),
                        "{:?} n={n} block={block}",
                        p.id
                    );
                }
            }
        }
    }

    #[test]
    fn region_shape_of_counts_sublines() {
        let regions = [(0i64, 24u64), (64, 4096), (8192, 63), (16384, 64)];
        assert_eq!(RegionShape::of(&regions, 64), RegionShape { n: 4, subline: 2 });
    }

    #[test]
    fn counters_record_and_reset() {
        // Other tests' sends may bump the process-wide counters
        // concurrently, so assert lower bounds, not exact deltas.
        let base = selector_counters();
        record(Datapath::Pack);
        record(Datapath::Iov);
        record(Datapath::Iov);
        record(Datapath::Elem);
        record(Datapath::Auto); // never counted
        let now = selector_counters().delta_since(&base);
        assert!(now.pack >= 1 && now.iov >= 2 && now.elem >= 1);
        assert!(now.total() >= 4);
    }

    #[test]
    fn decisions_are_deterministic() {
        for id in PlatformId::ALL {
            for bytes in [300u64, 1 << 12, 1 << 20, 1 << 26] {
                for n in [1u64, 64, 4096] {
                    assert_eq!(
                        choose(id, bytes, Some(n)),
                        choose(id, bytes, Some(n)),
                    );
                }
            }
        }
    }
}
