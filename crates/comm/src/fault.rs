//! Per-run fault bookkeeping for the simulated device group.
//!
//! The fault vocabulary — [`FaultPlan`], `CrashPoint`, `RankCrash` and the
//! per-op decision hash — is plain data in `torchgt-faults`; this module
//! keeps what only a live group has: the per-rank op counters that key the
//! decisions, the straggler delay ledger, and the one-shot crash arm.
//! Every injected fault is recorded as a `torchgt-obs` event on the
//! group's recorder.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use torchgt_faults::FaultPlan;

/// Shared fault bookkeeping for one device group: the plan plus per-rank
/// op counters (reset each run) and the one-shot crash arm.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    /// Per-rank collective-op counters.
    pub(crate) collective_ops: Vec<AtomicU64>,
    /// Per-rank point-to-point send counters.
    pub(crate) send_ops: Vec<AtomicU64>,
    /// Per-rank accumulated injected send delay, microseconds (the
    /// straggler watchdog's ledger; reset each run).
    pub(crate) delay_us: Vec<AtomicU64>,
    /// Cleared when the crash fires so the recovery run proceeds clean.
    pub(crate) crash_armed: AtomicBool,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, world: usize) -> Self {
        Self {
            plan,
            collective_ops: (0..world).map(|_| AtomicU64::new(0)).collect(),
            send_ops: (0..world).map(|_| AtomicU64::new(0)).collect(),
            delay_us: (0..world).map(|_| AtomicU64::new(0)).collect(),
            crash_armed: AtomicBool::new(plan.crash.is_some()),
        }
    }

    /// Reset per-run counters (each `run`/`try_run` replays op indices from
    /// 0; the crash arm deliberately survives so it fires once per plan).
    pub(crate) fn reset_counters(&self) {
        for c in self.collective_ops.iter().chain(&self.send_ops).chain(&self.delay_us) {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Charge `seconds` of injected delay to `rank`'s straggler ledger.
    pub(crate) fn add_delay_s(&self, rank: usize, seconds: f64) {
        let us = (seconds * 1e6) as u64;
        self.delay_us[rank].fetch_add(us, Ordering::Relaxed);
    }

    /// Injected delay accumulated by `rank` since the last reset, seconds.
    pub(crate) fn delay_s(&self, rank: usize) -> f64 {
        self.delay_us[rank].load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Next collective-op index for `rank`.
    pub(crate) fn next_collective_op(&self, rank: usize) -> u64 {
        self.collective_ops[rank].fetch_add(1, Ordering::Relaxed)
    }

    /// Next send-op index for `rank`.
    pub(crate) fn next_send_op(&self, rank: usize) -> u64 {
        self.send_ops[rank].fetch_add(1, Ordering::Relaxed)
    }

    /// Fire the one-shot crash if `rank`/`op` match the plan.
    pub(crate) fn should_crash(&self, rank: usize, op: u64) -> bool {
        match self.plan.crash {
            Some(cp) if cp.rank == rank && cp.op == op => {
                self.crash_armed.swap(false, Ordering::SeqCst)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_is_one_shot() {
        let st = FaultState::new(FaultPlan::crash_at(1, 2, 5), 4);
        assert!(!st.should_crash(2, 4));
        assert!(!st.should_crash(1, 5));
        assert!(st.should_crash(2, 5));
        assert!(!st.should_crash(2, 5), "second firing must be suppressed");
    }

    #[test]
    fn counters_reset_but_crash_arm_survives() {
        let st = FaultState::new(FaultPlan::crash_at(1, 0, 3), 2);
        assert_eq!(st.next_collective_op(0), 0);
        assert_eq!(st.next_collective_op(0), 1);
        st.reset_counters();
        assert_eq!(st.next_collective_op(0), 0);
        assert!(st.should_crash(0, 3));
        st.reset_counters();
        assert!(!st.should_crash(0, 3), "crash arm must not re-arm on reset");
    }
}
