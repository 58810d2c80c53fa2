//! The Dual-interleaved Attention scheduler (paper §III-B).
//!
//! Per sequence, checks the three safety conditions (C1 self-attention, C2
//! Hamiltonian path via Dirac's heuristic, C3 L-layer reachability). When
//! they hold, the sparse topology pattern is used, periodically overlaid
//! with a fully-connected pass ("interleave") to recover the high-order
//! information pure sparsity loses; when they fail, the scheduler falls back
//! to fully-connected attention for that sequence.

use torchgt_graph::{check_conditions, ConditionReport, CsrGraph};

/// What the scheduler decided for one iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Use the sparse topology/cluster-sparse pattern.
    Sparse,
    /// Use a fully-connected pass (interleave or condition fallback).
    Full,
}

/// Depth bound of the C3 reachability check for a `layers`-deep model.
/// With interleaving on, the periodic fully-connected pass propagates
/// information globally, so any *connected* mask satisfies C3 (Yun et al.'s
/// construction only needs eventual all-pair reachability); without it the
/// model depth is the hard bound.
pub(crate) fn condition_depth(interleave_period: usize, layers: usize) -> u8 {
    if interleave_period > 0 {
        u8::MAX - 1
    } else {
        layers.min(u8::MAX as usize) as u8
    }
}

/// Iteration-level interleave scheduler.
#[derive(Clone, Debug)]
pub struct InterleaveScheduler {
    /// Interleave a full pass every `period` iterations (0 = never).
    pub period: usize,
    iteration: usize,
    sparse_count: usize,
    full_count: usize,
}

impl InterleaveScheduler {
    /// Construct with the given interleave period.
    pub fn new(period: usize) -> Self {
        Self { period, iteration: 0, sparse_count: 0, full_count: 0 }
    }

    /// Evaluate the conditions for a sequence mask and advance one
    /// iteration.
    pub fn decide(&mut self, mask: &CsrGraph, model_layers: u8) -> (Decision, ConditionReport) {
        let report = check_conditions(mask, model_layers);
        let decision = self.decide_with_report(&report);
        (decision, report)
    }

    /// Advance one iteration reusing a cached condition report (masks are
    /// static across epochs, so callers cache the check).
    pub fn decide_with_report(&mut self, report: &ConditionReport) -> Decision {
        self.iteration += 1;
        let decision = if !report.sparse_ok() {
            Decision::Full
        } else if self.period > 0 && self.iteration % self.period == 0 {
            Decision::Full
        } else {
            Decision::Sparse
        };
        match decision {
            Decision::Sparse => self.sparse_count += 1,
            Decision::Full => self.full_count += 1,
        }
        decision
    }

    /// (sparse, full) pass counts so far.
    pub fn counts(&self) -> (usize, usize) {
        (self.sparse_count, self.full_count)
    }

    /// Export the resumable cursors: `(iteration, sparse_count, full_count)`.
    /// The interleave phase depends on the global iteration count, which
    /// advances across epoch boundaries — a resumed run must continue the
    /// modular pattern where the interrupted one stopped.
    pub fn export_state(&self) -> (usize, usize, usize) {
        (self.iteration, self.sparse_count, self.full_count)
    }

    /// Restore cursors captured by [`InterleaveScheduler::export_state`].
    pub fn restore_state(&mut self, iteration: usize, sparse_count: usize, full_count: usize) {
        self.iteration = iteration;
        self.sparse_count = sparse_count;
        self.full_count = full_count;
    }

    /// Fraction of passes that ran the full pattern.
    pub fn full_fraction(&self) -> f64 {
        let total = self.sparse_count + self.full_count;
        if total == 0 {
            0.0
        } else {
            self.full_count as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_graph::augment_for_conditions;
    use torchgt_graph::generators::{erdos_renyi, path_graph};

    #[test]
    fn interleaves_at_the_requested_period() {
        let mask = augment_for_conditions(&path_graph(32));
        let mut s = InterleaveScheduler::new(4);
        let mut decisions = Vec::new();
        for _ in 0..12 {
            let (d, rep) = s.decide(&mask, 32);
            assert!(rep.sparse_ok());
            decisions.push(d);
        }
        let full: Vec<usize> = decisions
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == Decision::Full)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(full, vec![3, 7, 11]);
        assert_eq!(s.counts(), (9, 3));
        assert!((s.full_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn failing_conditions_force_full() {
        // Disconnected graph without self-loops: all conditions fail.
        let mask = erdos_renyi(64, 10, 3);
        let mut s = InterleaveScheduler::new(0);
        for _ in 0..5 {
            let (d, rep) = s.decide(&mask, 4);
            assert!(!rep.sparse_ok());
            assert_eq!(d, Decision::Full);
        }
        assert_eq!(s.counts(), (0, 5));
    }

    #[test]
    fn period_zero_never_interleaves() {
        let mask = augment_for_conditions(&path_graph(16));
        let mut s = InterleaveScheduler::new(0);
        for _ in 0..10 {
            assert_eq!(s.decide(&mask, 16).0, Decision::Sparse);
        }
    }

    #[test]
    fn c3_depth_matters() {
        let mask = augment_for_conditions(&path_graph(40));
        let mut s = InterleaveScheduler::new(0);
        // 4 layers cannot cover a 39-hop diameter.
        let (d, rep) = s.decide(&mask, 4);
        assert!(!rep.c3_reachable);
        assert_eq!(d, Decision::Full);
    }
}
