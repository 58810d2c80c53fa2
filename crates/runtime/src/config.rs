//! Training-run configuration.

use torchgt_tensor::Precision;

torchgt_compat::json_enum! {
    /// The training systems compared throughout the paper's evaluation.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum Method {
        /// Vanilla graph parallelism with standard dense attention (the paper's
        /// GP-RAW baseline) — materialises `S²` scores, OOMs at scale.
        GpRaw,
        /// Graph parallelism + FlashAttention (GP-FLASH): fully-connected tiled
        /// attention, BF16-only compute, no attention-bias support.
        GpFlash,
        /// Graph parallelism + pure topology-induced sparse attention
        /// (GP-SPARSE): fast but convergence-degraded — no interleaving.
        GpSparse,
        /// The full TorchGT system: Dual-interleaved Attention + Cluster-aware
        /// Graph Parallelism + Elastic Computation Reformation.
        TorchGt,
    }
}

impl Method {
    /// Label used in experiment tables (matches the paper's names).
    pub fn label(self) -> &'static str {
        match self {
            Method::GpRaw => "GP-Raw",
            Method::GpFlash => "GP-Flash",
            Method::GpSparse => "GP-Sparse",
            Method::TorchGt => "TorchGT",
        }
    }

    /// The numeric precision the method trains in. FlashAttention only
    /// supports FP16/BF16 (paper §IV-B), everything else defaults to FP32.
    pub fn default_precision(self) -> Precision {
        match self {
            Method::GpFlash => Precision::Bf16,
            _ => Precision::Fp32,
        }
    }
}

/// Straggler watchdog threshold of the distributed drivers: a rank whose
/// injected send delay exceeds this multiple of the live-group median is
/// flagged. The supervisor and the rebalance driver both read it.
pub(crate) const STRAGGLER_MULTIPLE: f64 = 4.0;

torchgt_compat::json_struct! {
    /// How distributed drivers recover from rank failures: the retry
    /// budget, the backoff between attempts, and the shrink threshold of
    /// the escalation ladder (retry → restore-from-snapshot →
    /// shrink-and-continue).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct RecoveryPolicy {
        /// Restore-and-retry attempts per membership generation before the
        /// driver escalates (shrinks when allowed, fails otherwise).
        pub max_retries: usize,
        /// Base of the exponential backoff slept between attempts, seconds
        /// (0 disables backoff).
        pub backoff_base_s: f64,
        /// Permit the escalation ladder's final rung: drop the crashed
        /// rank and continue on the survivors.
        pub allow_shrink: bool,
        /// Never shrink below this many live ranks.
        pub min_ranks: usize,
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            // Matches the pre-policy hardcoded MAX_ATTEMPTS = 4.
            max_retries: 4,
            backoff_base_s: 0.01,
            allow_shrink: false,
            min_ranks: 1,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff before retry `attempt` (1-based), seconds: exponential in
    /// the attempt number with a jitter factor in `[0.5, 1.5)`. Pure — the
    /// same attempt always waits the same, so a replayed run waits
    /// identically. The formula lives in the shared fault plane
    /// ([`torchgt_faults::backoff_s`], jitter seed 0) so the self-healing
    /// disk readers wait exactly the way rank-recovery retries do.
    pub fn backoff_s(&self, attempt: usize) -> f64 {
        torchgt_faults::backoff_s(0, self.backoff_base_s, attempt)
    }
}

torchgt_compat::json_struct! {
    /// Configuration of a training run. The simulated device the run is
    /// priced and tuned on is not a setting: every trainer uses the one
    /// the runtime names (DESIGN.md "One simulated training device").
    #[derive(Clone, Copy, Debug)]
    pub struct TrainConfig {
        /// Which system executes the run.
        pub method: Method,
        /// Sequence length (tokens per training sequence).
        pub seq_len: usize,
        /// Number of training epochs.
        pub epochs: usize,
        /// Adam learning rate.
        pub lr: f32,
        /// Numeric precision (defaults from the method; override for the
        /// Table VII TorchGT-BF16 run).
        pub precision: Precision,
        /// Dual-interleaved Attention: run one fully-connected pass every
        /// `interleave_period` iterations (0 disables interleaving).
        pub interleave_period: usize,
        /// Number of clusters `k` for the cluster-aware reordering (0 = let the
        /// Auto Tuner pick from the simulated device). The sub-block
        /// dimension `d_b` is always the Auto Tuner's.
        pub clusters: usize,
        /// Fixed transfer threshold `β_thre`; `None` enables the elastic Auto
        /// Tuner ladder.
        pub beta_thre: Option<f64>,
        /// Linear LR warmup steps followed by inverse-sqrt decay (Graphormer's
        /// recipe); 0 keeps the LR constant.
        pub warmup_steps: usize,
        /// RNG seed.
        pub seed: u64,
        /// Failure-recovery policy for the distributed drivers.
        pub recovery: RecoveryPolicy,
    }
}

impl TrainConfig {
    /// Reasonable defaults for a method.
    pub fn new(method: Method, seq_len: usize, epochs: usize) -> Self {
        Self {
            method,
            seq_len,
            epochs,
            lr: 1e-3,
            precision: method.default_precision(),
            interleave_period: 8,
            clusters: 0,
            beta_thre: None,
            warmup_steps: 0,
            seed: 1,
            recovery: RecoveryPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(Method::GpRaw.label(), "GP-Raw");
        assert_eq!(Method::GpFlash.label(), "GP-Flash");
        assert_eq!(Method::TorchGt.label(), "TorchGT");
    }

    #[test]
    fn flash_defaults_to_bf16() {
        assert_eq!(Method::GpFlash.default_precision(), Precision::Bf16);
        assert_eq!(Method::TorchGt.default_precision(), Precision::Fp32);
        let cfg = TrainConfig::new(Method::GpFlash, 1024, 10);
        assert_eq!(cfg.precision, Precision::Bf16);
    }

    #[test]
    fn method_round_trips_through_json() {
        use torchgt_compat::json::{from_str_as, to_string, ToJson};
        for m in [Method::GpRaw, Method::GpFlash, Method::GpSparse, Method::TorchGt] {
            let text = to_string(&m.to_json()).unwrap();
            let back: Method = from_str_as(&text).unwrap();
            assert_eq!(back, m);
        }
        assert!(from_str_as::<Method>("\"NotAMethod\"").is_err());
    }

    #[test]
    fn train_config_round_trips_through_json() {
        use torchgt_compat::json::{from_str_as, to_string, ToJson};
        let mut cfg = TrainConfig::new(Method::TorchGt, 4096, 12);
        cfg.lr = 2.5e-4;
        cfg.beta_thre = Some(0.125);
        cfg.warmup_steps = 400;
        cfg.seed = 0xDEAD_BEEF_u64;
        let text = to_string(&cfg.to_json()).unwrap();
        let back: TrainConfig = from_str_as(&text).unwrap();
        assert_eq!(back.method, cfg.method);
        assert_eq!(back.seq_len, cfg.seq_len);
        assert_eq!(back.epochs, cfg.epochs);
        assert_eq!(back.lr, cfg.lr);
        assert_eq!(back.precision, cfg.precision);
        assert_eq!(back.interleave_period, cfg.interleave_period);
        assert_eq!(back.clusters, cfg.clusters);
        assert_eq!(back.beta_thre, cfg.beta_thre);
        assert_eq!(back.warmup_steps, cfg.warmup_steps);
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.recovery, cfg.recovery);
    }

    #[test]
    fn recovery_policy_round_trips_and_defaults_match_legacy() {
        use torchgt_compat::json::{from_str_as, to_string, ToJson};
        let p = RecoveryPolicy {
            max_retries: 2,
            backoff_base_s: 0.5,
            allow_shrink: true,
            min_ranks: 3,
        };
        let text = to_string(&p.to_json()).unwrap();
        let back: RecoveryPolicy = from_str_as(&text).unwrap();
        assert_eq!(back, p);
        // The default retry budget matches the previously hardcoded
        // MAX_ATTEMPTS = 4, so existing resilient runs behave identically.
        assert_eq!(RecoveryPolicy::default().max_retries, 4);
        assert!(!RecoveryPolicy::default().allow_shrink);
    }

    #[test]
    fn backoff_is_pure_jittered_and_exponential() {
        let p = RecoveryPolicy { backoff_base_s: 0.1, ..Default::default() };
        // Pure: same attempt → same wait.
        for attempt in 1..8 {
            assert_eq!(p.backoff_s(attempt).to_bits(), p.backoff_s(attempt).to_bits());
        }
        // Jitter stays within [0.5, 1.5) of the exponential envelope and
        // the envelope doubles per attempt.
        for attempt in 1..8usize {
            let envelope = 0.1 * (1u64 << (attempt - 1)) as f64;
            let b = p.backoff_s(attempt);
            assert!(b >= envelope * 0.5 && b < envelope * 1.5, "attempt {attempt}: {b}");
        }
        // Disabled backoff and attempt 0 wait nothing.
        assert_eq!(p.backoff_s(0), 0.0);
        let off = RecoveryPolicy { backoff_base_s: 0.0, ..p };
        assert_eq!(off.backoff_s(3), 0.0);
    }

    #[test]
    fn train_config_none_beta_round_trips() {
        use torchgt_compat::json::{from_str_as, to_string, ToJson};
        let cfg = TrainConfig::new(Method::GpSparse, 512, 3);
        assert!(cfg.beta_thre.is_none());
        let text = to_string(&cfg.to_json()).unwrap();
        assert!(text.contains("\"beta_thre\":null"), "None must encode as null: {text}");
        let back: TrainConfig = from_str_as(&text).unwrap();
        assert!(back.beta_thre.is_none());
    }
}
