//! ddtbench application kernels as first-class schemes.
//!
//! The paper sweeps one synthetic stride pattern; the DDT literature
//! (Schneider/Gerstenberger/Hoefler's ddtbench) benchmarks the access
//! patterns real applications ship. This module ports four of them onto
//! the harness — LAMMPS atom exchange, MILC su3 zdown, NAS MG/LU face
//! exchange, and the WRF x-halo — each runnable under the contiguous
//! reference, explicit user-space pack ([`Scheme::Copying`]), the
//! derived-datatype send ([`Scheme::VectorType`]), and pack-then-send
//! ([`Scheme::PackingVector`]).
//!
//! Every measurement is also a differential test: the receiver checks
//! its buffer against a payload derived by the *uncompiled* pack
//! interpreter, a different engine from whatever compiled plan, SIMD
//! kernel, or iovec gather the send actually used.

use std::fmt;
use std::str::FromStr;

use nonctg_core::Universe;
use nonctg_datatype::{layouts, pack_into_uncompiled, plan_for, Datatype};
use nonctg_simnet::{Access, Platform};

use crate::pingpong::{PingPongConfig, PingPongResult, PING_TAG, PONG_TAG};
use crate::scheme::Scheme;
use crate::sweep::{apply_slowdowns, PointStatus, Sweep, SweepConfig, SweepFaults, SweepPoint};

/// One of the four ported ddtbench application kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKernel {
    /// LAMMPS atom exchange: indexed blocks of mixed-size per-atom
    /// records (24 B position records, occasional 4 KiB payloads).
    Lammps,
    /// MILC su3 zdown: the z-face of a 4-D lattice of 3×3 complex
    /// matrix structs — few large regions.
    Milc,
    /// NAS MG/LU face exchange: a 3-D subarray face at large strides —
    /// many equal mid-size regions.
    Nas,
    /// WRF x-halo: nested vectors over a 4-D `f32` grid — very many
    /// tiny regions, routinely past the iovec descriptor cap.
    Wrf,
}

impl AppKernel {
    /// All kernels, in presentation order.
    pub const ALL: [AppKernel; 4] = [AppKernel::Lammps, AppKernel::Milc, AppKernel::Nas, AppKernel::Wrf];

    /// Machine-friendly key for CSV columns and CLI flags.
    pub fn key(self) -> &'static str {
        match self {
            AppKernel::Lammps => "lammps",
            AppKernel::Milc => "milc",
            AppKernel::Nas => "nas",
            AppKernel::Wrf => "wrf",
        }
    }

    /// Figure-legend label.
    pub fn label(self) -> &'static str {
        match self {
            AppKernel::Lammps => "LAMMPS atom exchange",
            AppKernel::Milc => "MILC su3 zdown",
            AppKernel::Nas => "NAS MG/LU face",
            AppKernel::Wrf => "WRF x-halo",
        }
    }
}

impl fmt::Display for AppKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for AppKernel {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "lammps" => Ok(AppKernel::Lammps),
            "milc" => Ok(AppKernel::Milc),
            "nas" => Ok(AppKernel::Nas),
            "wrf" => Ok(AppKernel::Wrf),
            other => Err(format!("unknown app kernel '{other}'")),
        }
    }
}

/// The schemes an application kernel runs under: the contiguous
/// reference, explicit user-space pack, the derived-datatype send, and
/// pack-then-send.
pub const KERNEL_SCHEMES: [Scheme; 4] =
    [Scheme::Reference, Scheme::Copying, Scheme::VectorType, Scheme::PackingVector];

/// A sized instance of an application kernel: the committed datatype
/// plus everything a measurement needs (source bytes, oracle payload,
/// flattened regions).
#[derive(Debug, Clone)]
pub struct KernelWorkload {
    /// Which kernel this is.
    pub kernel: AppKernel,
    /// The committed layout (one instance is sent per ping).
    pub dtype: Datatype,
    /// Payload bytes per message (`dtype.size()`).
    pub msg_bytes: usize,
    /// Source-buffer span in bytes (`dtype.extent()`, lower bound 0).
    pub extent: usize,
}

impl KernelWorkload {
    /// Build the kernel's layout scaled so the payload is close to (and
    /// at least a fixed fraction of) `target_bytes`. Scaling moves only
    /// the replication axis (atoms, t-slices, z-planes), so the region
    /// *shape* — the thing that distinguishes the kernels — is preserved
    /// at every size.
    pub fn sized(kernel: AppKernel, target_bytes: usize) -> KernelWorkload {
        let dtype = match kernel {
            AppKernel::Lammps => {
                // 64 atoms = one big + 63 small records = 5608 payload bytes.
                let per_period = 8 * (layouts::LAMMPS_BIG_ELEMS
                    + (layouts::LAMMPS_BIG_PERIOD - 1) * layouts::LAMMPS_SMALL_ELEMS);
                let natoms =
                    (target_bytes * layouts::LAMMPS_BIG_PERIOD / per_period).max(1);
                layouts::lammps_exchange(natoms)
            }
            AppKernel::Milc => {
                // One t-slice face = ny*nx sites = 2304 B.
                let (nz, ny, nx) = (8, 4, 4);
                let nt = (target_bytes / (ny * nx * 144)).max(1);
                layouts::milc_su3_zdown(nt, nz, ny, nx)
            }
            AppKernel::Nas => {
                // One z-plane face row = nx doubles = 256 B.
                let (ny, nx) = (32, 32);
                let nz = (target_bytes / (nx * 8)).max(1);
                layouts::nas_face(nz, ny, nx)
            }
            AppKernel::Wrf => {
                // One z-plane of halo = nvar*ny runs of halo f32 = 256 B,
                // in 32 eight-byte regions: region counts grow fast and
                // cross the iovec descriptor cap by design.
                let (nvar, ny, nx, halo) = (4, 8, 16, 2);
                let nz = (target_bytes / (nvar * ny * halo * 4)).max(1);
                layouts::wrf_halo(nvar, nz, ny, nx, halo)
            }
        }
        .expect("kernel layout construction");
        let msg_bytes = dtype.size() as usize;
        let extent = dtype.extent() as usize;
        KernelWorkload { kernel, dtype, msg_bytes, extent }
    }

    /// Patterned source bytes covering the type's extent.
    pub fn make_source(&self) -> Vec<u8> {
        (0..self.extent).map(|i| (i.wrapping_mul(131).wrapping_add(i >> 9) ^ 0x5c) as u8).collect()
    }

    /// The oracle payload: what a correct send must deliver, derived by
    /// the uncompiled pack interpreter — independent of the compiled
    /// plans, SIMD kernels, and iovec gathers the datapaths use.
    pub fn expected(&self, src: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; self.msg_bytes];
        let n = pack_into_uncompiled(src, 0, &self.dtype, 1, &mut out)
            .expect("oracle pack");
        assert_eq!(n, self.msg_bytes, "oracle payload size");
        out
    }

    /// The flattened `(offset, len)` regions of one instance, bounded by
    /// `cap`: `None` when the layout lowers to more than `cap` regions.
    pub fn regions(&self, cap: usize) -> Option<Vec<(i64, u64)>> {
        plan_for(&self.dtype, 1).and_then(|pl| pl.regions(cap))
    }
}

/// Sampled byte-payload verification (full compare for small payloads).
fn verify_payload(got: &[u8], expected: &[u8], kernel: AppKernel) {
    assert_eq!(got.len(), expected.len(), "{kernel}: payload size");
    let n = got.len();
    if n <= 1 << 16 {
        assert_eq!(got, expected, "{kernel}: payload differs from oracle");
        return;
    }
    let step = (n / 256).max(1);
    let mut i = 0;
    while i < n {
        assert_eq!(got[i], expected[i], "{kernel}: byte {i} differs from oracle");
        i += step;
    }
    assert_eq!(got[n - 1], expected[n - 1], "{kernel}: last byte differs from oracle");
}

/// Measure one scheme on one kernel workload: the §3.2 ping-pong
/// protocol (allocations and plan compilation outside the timing loop,
/// zero-byte pongs, optional cache flush), with every received payload
/// differenced against the uncompiled-pack oracle.
///
/// # Panics
/// Panics on measurement failure or an oracle mismatch — kernel sweeps
/// run on quiet platforms where both are bugs.
pub fn run_kernel_scheme(
    platform: &Platform,
    scheme: Scheme,
    w: &KernelWorkload,
    cfg: &PingPongConfig,
) -> PingPongResult {
    assert!(
        KERNEL_SCHEMES.contains(&scheme),
        "{scheme} is not an application-kernel scheme"
    );
    let platform = platform.clone();
    let cfg = cfg.clone();
    let w = w.clone();
    let msg_bytes = w.msg_bytes;
    let ((times, faults0), (_, faults1)) = Universe::run_pair(platform, move |comm| {
        let src = w.make_source();
        let expected = w.expected(&src);
        if comm.rank() == 0 {
            // All staging buffers and plans readied outside the loop.
            let regions = w.regions(usize::MAX).expect("kernel regions");
            let mut sendbuf =
                vec![0u8; if scheme == Scheme::Copying { w.msg_bytes } else { 0 }];
            let packbuf_len =
                if scheme == Scheme::PackingVector { w.msg_bytes } else { 0 };
            let mut packbuf = comm.take_scratch(packbuf_len);
            packbuf.truncate(packbuf_len);
            let access = Access::classify(&w.dtype);
            comm.pack_prepare(&w.dtype, 1);

            let mut times = Vec::with_capacity(cfg.reps);
            comm.barrier().expect("start barrier");
            for _ in 0..cfg.reps {
                let t0 = comm.wtime();
                match scheme {
                    Scheme::Reference => {
                        comm.send_bytes(&expected, 1, PING_TAG).expect("send");
                    }
                    Scheme::Copying => {
                        // The application's own gather loop over the
                        // kernel's regions, then a contiguous send.
                        let mut pos = 0usize;
                        for &(off, len) in &regions {
                            let lo = off as usize;
                            let len = len as usize;
                            sendbuf[pos..pos + len].copy_from_slice(&src[lo..lo + len]);
                            pos += len;
                        }
                        comm.charge_copy(w.msg_bytes as u64, &access);
                        comm.send_bytes(&sendbuf, 1, PING_TAG).expect("send");
                    }
                    Scheme::VectorType => {
                        comm.send(&src, 0, &w.dtype, 1, 1, PING_TAG).expect("send");
                    }
                    Scheme::PackingVector => {
                        let mut pos = 0usize;
                        comm.pack(&src, 0, &w.dtype, 1, &mut packbuf, &mut pos)
                            .expect("pack");
                        comm.send_packed(&packbuf, 1, PING_TAG).expect("send");
                    }
                    _ => unreachable!("filtered by KERNEL_SCHEMES"),
                }
                let mut pong = [0u8; 0];
                comm.recv_bytes(&mut pong, Some(1), Some(PONG_TAG)).expect("pong");
                times.push(comm.wtime() - t0);
                if cfg.flush {
                    comm.flush_cache(cfg.flush_bytes);
                }
            }
            comm.barrier().expect("end barrier");
            comm.put_scratch(packbuf);
            (times, comm.fault_stats())
        } else {
            let mut buf = vec![0u8; w.msg_bytes];
            comm.barrier().expect("start barrier");
            for _ in 0..cfg.reps {
                buf.fill(0);
                let st = comm.recv_bytes(&mut buf, Some(0), Some(PING_TAG)).expect("recv");
                assert_eq!(st.bytes, w.msg_bytes, "payload size");
                if cfg.verify {
                    verify_payload(&buf, &expected, w.kernel);
                }
                comm.send_bytes(&[], 0, PONG_TAG).expect("pong");
                if cfg.flush {
                    comm.flush_cache(cfg.flush_bytes);
                }
            }
            comm.barrier().expect("end barrier");
            (Vec::new(), comm.fault_stats())
        }
    });
    let mut faults = faults0;
    faults.absorb(faults1);
    PingPongResult { scheme, msg_bytes, times, faults }
}

/// Sweep one application kernel over message sizes on one platform.
/// Sizes come from `cfg.sizes()` but each is realized by the kernel's
/// own scaling, then deduplicated (coarse-grained kernels can map two
/// requested sizes to the same layout). `cfg.schemes` is ignored —
/// kernels always run [`KERNEL_SCHEMES`].
pub fn run_kernel_sweep(platform: &Platform, kernel: AppKernel, cfg: &SweepConfig) -> Sweep {
    let mut points = Vec::new();
    let mut faults = SweepFaults::default();
    let mut last_bytes = 0usize;
    for target in cfg.sizes() {
        let w = KernelWorkload::sized(kernel, target);
        if w.msg_bytes == last_bytes {
            continue; // two targets collapsed onto the same layout
        }
        last_bytes = w.msg_bytes;
        let selected = nonctg_core::send_engine(platform, &w.dtype, 1).expect("kernel size");
        let pp = cfg.base.clone().adaptive(w.msg_bytes);
        let mut group: Vec<SweepPoint> = Vec::with_capacity(KERNEL_SCHEMES.len());
        for scheme in KERNEL_SCHEMES {
            let r = run_kernel_scheme(platform, scheme, &w, &pp);
            let pf = SweepFaults::from_stats(r.faults);
            faults.merge(pf);
            group.push(SweepPoint {
                scheme,
                msg_bytes: w.msg_bytes,
                time: r.time(),
                bandwidth: r.bandwidth(),
                slowdown: f64::NAN,
                status: PointStatus::Ok,
                selected,
                faults: pf,
            });
        }
        apply_slowdowns(&mut group);
        points.extend(group);
    }
    Sweep { platform: platform.id, points, faults }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonctg_simnet::{Datapath, PlatformId};

    fn quiet() -> Platform {
        let mut p = Platform::skx_impi();
        p.jitter_sigma = 0.0;
        p
    }

    fn small_cfg() -> PingPongConfig {
        PingPongConfig { reps: 3, flush: false, flush_bytes: 0, verify: true }
    }

    #[test]
    fn kernel_keys_round_trip() {
        for k in AppKernel::ALL {
            assert_eq!(k.key().parse::<AppKernel>().unwrap(), k);
        }
    }

    #[test]
    fn sized_workloads_approach_target() {
        for k in AppKernel::ALL {
            for target in [4 << 10, 64 << 10, 1 << 20] {
                let w = KernelWorkload::sized(k, target);
                assert!(w.msg_bytes > 0, "{k} empty at {target}");
                assert!(
                    w.msg_bytes <= 2 * target && 4 * w.msg_bytes >= target,
                    "{k}: {} bytes for target {target}",
                    w.msg_bytes
                );
                assert!(w.extent >= w.msg_bytes);
            }
        }
    }

    #[test]
    fn all_kernel_schemes_run_and_verify() {
        for k in AppKernel::ALL {
            let w = KernelWorkload::sized(k, 32 << 10);
            for scheme in KERNEL_SCHEMES {
                let r = run_kernel_scheme(&quiet(), scheme, &w, &small_cfg());
                assert_eq!(r.times.len(), 3, "{k}/{scheme}");
                assert!(r.time() > 0.0 && r.bandwidth() > 0.0, "{k}/{scheme}");
            }
        }
    }

    #[test]
    fn reference_is_fastest_for_each_kernel() {
        for k in AppKernel::ALL {
            let w = KernelWorkload::sized(k, 256 << 10);
            let r = run_kernel_scheme(&quiet(), Scheme::Reference, &w, &small_cfg()).time();
            for scheme in [Scheme::Copying, Scheme::VectorType, Scheme::PackingVector] {
                let t = run_kernel_scheme(&quiet(), scheme, &w, &small_cfg()).time();
                assert!(t > r, "{k}/{scheme}: {t} vs reference {r}");
            }
        }
    }

    #[test]
    fn kernel_sweeps_cover_all_platforms() {
        let cfg = SweepConfig {
            schemes: Vec::new(),
            min_bytes: 8 << 10,
            max_bytes: 128 << 10,
            step: 4,
            base: small_cfg(),
        };
        for id in PlatformId::ALL {
            let mut p = Platform::get(id);
            p.jitter_sigma = 0.0;
            for k in AppKernel::ALL {
                let sweep = run_kernel_sweep(&p, k, &cfg);
                assert_eq!(sweep.platform, id);
                assert!(!sweep.points.is_empty(), "{id:?}/{k}");
                assert!(sweep.points.iter().all(|pt| pt.status == PointStatus::Ok));
                for pt in sweep.series(Scheme::Reference) {
                    assert!((pt.slowdown - 1.0).abs() < 1e-12, "{id:?}/{k}");
                }
            }
        }
    }

    #[test]
    fn wrf_crosses_the_region_cap_and_selects_pack() {
        let w = KernelWorkload::sized(AppKernel::Wrf, 256 << 10);
        assert!(
            w.regions(nonctg_core::iov_max_regions()).is_none(),
            "large WRF halo should exceed the iovec descriptor cap"
        );
        assert_eq!(nonctg_core::send_engine(&quiet(), &w.dtype, 1).unwrap(), Datapath::Pack);
    }

    #[test]
    fn milc_large_faces_select_iovec() {
        // Few 2304-byte regions, well past the eager limit: the
        // shape-aware selector should take the zero-copy path.
        let w = KernelWorkload::sized(AppKernel::Milc, 256 << 10);
        assert_eq!(nonctg_core::send_engine(&quiet(), &w.dtype, 1).unwrap(), Datapath::Iov);
    }

    #[test]
    fn lammps_skew_keeps_pack_despite_high_mean() {
        // Mixed 24 B / 4 KiB records: mean region length is high but the
        // sub-cacheline descriptors, each a full call overhead, dominate
        // the iovec cost.
        let w = KernelWorkload::sized(AppKernel::Lammps, 256 << 10);
        assert_eq!(nonctg_core::send_engine(&quiet(), &w.dtype, 1).unwrap(), Datapath::Pack);
    }
}
