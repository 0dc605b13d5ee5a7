//! # nonctg-perfbench — wall-clock benchmark of the reproduction
//!
//! Three closed-loop workloads, one rank pair at a time, driven through
//! the public APIs of `nonctg-schemes`, `nonctg-core`,
//! `nonctg-datatype` and `nonctg-report`:
//!
//! * `paper_sweep` — the figure-1 sweep (eight schemes, 1 KiB..16 MiB);
//! * `steady_pingpong` — one long-lived universe sending the paper's
//!   stride-2 workload at 4 KiB and 64 MiB;
//! * `ddtbench_exchange` — the four ddtbench layouts, packed on one
//!   side and scattered on the other.
//!
//! The untraced run gives the end-to-end metrics; the traced run wraps
//! each call into a layer in a span ([`trace`]) and reports per-layer
//! metrics. Virtual time is never touched: every workload prints a
//! digest of its virtual-time outputs, which must match between runs of
//! one seed and between the traced and untraced runs.

pub mod exchange;
pub mod os;
pub mod pingpong;
pub mod report;
pub mod trace;
pub mod workloads;

/// Deterministic generator for the measurement order (splitmix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream depends only on `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// FNV-1a over the bytes of virtual-time outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// Empty digest.
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    /// Absorb bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Absorb the exact bits of a float.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    /// The hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Percentile `p` (0..=100) of `v` by linear interpolation between the
/// closest ranks; NaN for an empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..64).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..64).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
