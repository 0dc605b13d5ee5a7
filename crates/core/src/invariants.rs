//! Gated fabric invariant checking — the runtime half of the correctness
//! oracle.
//!
//! When enabled (environment variable `NONCTG_ORACLE=1`, or
//! [`set_oracle_checks`] from a harness), the fabric audits itself at the
//! points where past bugs have hidden:
//!
//! - **payload-pool aliasing** — a pooled staging buffer must never be
//!   handed out twice while still in flight;
//! - **clock monotonicity** — a rank's virtual time never moves backwards
//!   across operations, including across `split` communicator handles;
//! - **receive conservation** — a matched receive consumes the packed
//!   bytes of whole instances and may drop only a sub-instance remainder.
//!
//! A violation panics immediately with a `fabric invariant violated:`
//! message; inside a [`crate::Universe`] the panic surfaces as the rank's
//! failure. The checks cost a few atomic loads when disabled.

use std::sync::atomic::{AtomicU8, Ordering};

use parking_lot::Mutex;

static STATE: AtomicU8 = AtomicU8::new(0); // 0 unknown, 1 off, 2 on

/// Whether oracle invariant checks are active for this process.
pub fn oracle_checks_enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => {
            let on = std::env::var("NONCTG_ORACLE")
                .map(|v| matches!(v.as_str(), "1" | "true" | "on"))
                .unwrap_or(false);
            STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        2 => true,
        _ => false,
    }
}

/// Force the checks on or off, overriding the environment (test harnesses
/// and the oracle driver flip this on for the whole process).
pub fn set_oracle_checks(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

#[cold]
pub(crate) fn violation(msg: &str) -> ! {
    panic!("fabric invariant violated: {msg}");
}

/// Per-rank floor on virtual time: operations may only move it forward.
pub(crate) struct ClockLedger {
    last: Vec<Mutex<f64>>,
}

impl ClockLedger {
    pub(crate) fn new(nranks: usize) -> ClockLedger {
        ClockLedger { last: (0..nranks).map(|_| Mutex::new(0.0)).collect() }
    }

    /// Record rank `rank`'s clock reading `now`; panics if it regressed.
    pub(crate) fn tick(&self, rank: usize, now: f64) {
        if !oracle_checks_enabled() {
            return;
        }
        let mut last = self.last[rank].lock();
        if now < *last {
            violation(&format!(
                "virtual time of rank {rank} moved backwards: {now} after {last}",
                last = *last
            ));
        }
        *last = now;
    }
}

/// Receive conservation: `consumed` packed bytes were deposited out of
/// `total` sent; anything dropped must be smaller than one instance
/// (`instance` bytes; 0 for empty types, which must consume nothing).
pub(crate) fn check_recv_conservation(total: usize, consumed: usize, instance: usize) {
    if !oracle_checks_enabled() {
        return;
    }
    if consumed > total {
        violation(&format!("receive consumed {consumed} of only {total} sent bytes"));
    }
    let dropped = total - consumed;
    if instance == 0 {
        if consumed != 0 {
            violation(&format!("receive of an empty type consumed {consumed} bytes"));
        }
    } else if !consumed.is_multiple_of(instance) {
        violation(&format!(
            "receive consumed {consumed} bytes, not a whole number of {instance}-byte instances"
        ));
    } else if dropped >= instance {
        violation(&format!(
            "receive dropped {dropped} bytes, at least one whole {instance}-byte instance"
        ));
    }
}

/// Payload-pool aliasing registry: the addresses of buffers currently
/// lent out. Owned by the pool; a pointer appearing twice means two live
/// [`crate::fabric::PooledBuf`]s share an allocation.
#[derive(Default)]
pub(crate) struct AliasRegistry {
    out: Mutex<Vec<usize>>,
}

impl AliasRegistry {
    /// A buffer at `ptr` left the pool.
    pub(crate) fn lend(&self, ptr: usize) {
        if !oracle_checks_enabled() || ptr == 0 {
            return;
        }
        let mut out = self.out.lock();
        if out.contains(&ptr) {
            violation(&format!("payload pool lent buffer {ptr:#x} twice while in flight"));
        }
        out.push(ptr);
    }

    /// The buffer at `ptr` came back (returned or freed).
    pub(crate) fn give_back(&self, ptr: usize) {
        if !oracle_checks_enabled() || ptr == 0 {
            return;
        }
        let mut out = self.out.lock();
        if let Some(i) = out.iter().position(|&p| p == ptr) {
            out.swap_remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() {
        set_oracle_checks(true);
    }

    #[test]
    #[should_panic(expected = "fabric invariant violated")]
    fn conservation_rejects_dropped_instance() {
        on();
        // 24 sent, 8 consumed, 8-byte instances: a whole instance vanished.
        check_recv_conservation(24, 8, 8);
    }

    #[test]
    fn conservation_allows_partial_trailing_instance() {
        on();
        check_recv_conservation(20, 16, 8);
        check_recv_conservation(0, 0, 8);
        check_recv_conservation(5, 0, 0);
    }

    #[test]
    #[should_panic(expected = "fabric invariant violated")]
    fn alias_registry_rejects_double_lend() {
        on();
        let r = AliasRegistry::default();
        r.lend(0x1000);
        r.lend(0x1000);
    }

    #[test]
    fn alias_registry_allows_relend_after_return() {
        on();
        let r = AliasRegistry::default();
        r.lend(0x2000);
        r.give_back(0x2000);
        r.lend(0x2000);
    }

    #[test]
    #[should_panic(expected = "virtual time of rank 1 moved backwards")]
    fn clock_ledger_rejects_regression() {
        on();
        let l = ClockLedger::new(2);
        l.tick(1, 5.0);
        l.tick(1, 4.0);
    }
}
