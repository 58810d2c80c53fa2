//! Optimizers.
//!
//! Both Graphormer and GT train with Adam in the original papers.

use crate::param::Param;

/// Interface over optimizers that update a set of parameters in place.
pub trait Optimizer {
    /// Apply one update step to every parameter, consuming the accumulated
    /// gradients (gradients are cleared after the step).
    fn step(&mut self, params: &mut [&mut Param]);
    /// Current learning rate.
    fn lr(&self) -> f32;
    /// Override the learning rate (used by warmup/decay schedules).
    fn set_lr(&mut self, lr: f32);
}

/// Adam hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay (AdamW-style); 0 disables it.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0 }
    }
}

/// The Adam optimizer with bias correction and optional decoupled weight
/// decay.
#[derive(Clone, Debug)]
pub struct Adam {
    cfg: AdamConfig,
    t: u64,
}

impl Adam {
    /// Construct from a config.
    pub fn new(cfg: AdamConfig) -> Self {
        Self { cfg, t: 0 }
    }

    /// Construct with the default betas and the given learning rate.
    pub fn with_lr(lr: f32) -> Self {
        Self::new(AdamConfig { lr, ..AdamConfig::default() })
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Restore the step counter from a snapshot. Bias correction depends on
    /// `t`, so a resumed run must set this alongside the per-parameter
    /// moment buffers for updates to match the uninterrupted run exactly.
    pub fn set_steps(&mut self, t: u64) {
        self.t = t;
    }

    /// The hyper-parameters this optimizer was built with.
    pub fn config(&self) -> AdamConfig {
        self.cfg
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        let t = self.t as f32;
        let c = self.cfg;
        let bias1 = 1.0 - c.beta1.powf(t);
        let bias2 = 1.0 - c.beta2.powf(t);
        let (rest1, rest2) = (1.0 - c.beta1, 1.0 - c.beta2);
        // One pass over the four buffers of each parameter, the gradient
        // cleared on the way. The per-element expressions are the textbook
        // ones in their original association, so the update is the same to
        // the bit however the loop is vectorised.
        for p in params.iter_mut() {
            let Param { value, grad, m, v } = &mut **p;
            let moments = m.data_mut().iter_mut().zip(v.data_mut());
            for ((w, g), (m, v)) in value.data_mut().iter_mut().zip(grad.data_mut()).zip(moments) {
                *m = c.beta1 * *m + rest1 * *g;
                *v = c.beta2 * *v + rest2 * *g * *g;
                let mhat = *m / bias1;
                let vhat = *v / bias2;
                let mut upd = c.lr * mhat / (vhat.sqrt() + c.eps);
                if c.weight_decay > 0.0 {
                    upd += c.lr * c.weight_decay * *w;
                }
                *w -= upd;
                *g = 0.0;
            }
        }
    }

    fn lr(&self) -> f32 {
        self.cfg.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }
}

/// Linear-warmup then inverse-square-root decay schedule, as used by
/// Graphormer's training recipe.
#[derive(Clone, Copy, Debug)]
pub struct WarmupSchedule {
    /// Peak learning rate reached at the end of warmup.
    pub peak_lr: f32,
    /// Number of warmup steps.
    pub warmup: u64,
}

impl WarmupSchedule {
    /// Learning rate at step `t` (1-based).
    pub fn lr_at(&self, t: u64) -> f32 {
        if self.warmup == 0 {
            return self.peak_lr;
        }
        if t <= self.warmup {
            self.peak_lr * t as f32 / self.warmup as f32
        } else {
            self.peak_lr * (self.warmup as f32 / t as f32).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Minimise f(x) = x² with Adam; it should get close to zero.
    #[test]
    fn adam_minimises_quadratic() {
        let mut p = Param::new(Tensor::full(1, 1, 5.0));
        let mut opt = Adam::with_lr(0.1);
        for _ in 0..300 {
            let x = p.value.get(0, 0);
            p.grad.set(0, 0, 2.0 * x);
            opt.step(&mut [&mut p]);
        }
        assert!(p.value.get(0, 0).abs() < 1e-2, "x = {}", p.value.get(0, 0));
    }

    #[test]
    fn adam_clears_grads_after_step() {
        let mut p = Param::new(Tensor::full(1, 2, 1.0));
        p.grad = Tensor::full(1, 2, 3.0);
        let mut opt = Adam::with_lr(0.01);
        opt.step(&mut [&mut p]);
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
        assert_eq!(opt.steps(), 1);
    }

    /// The one-pass update against the indexed reference it replaced:
    /// identical bits in `value`, `m` and `v` over several steps, with and
    /// without weight decay, and the gradient left cleared.
    #[test]
    fn adam_matches_the_indexed_reference_bitwise() {
        for weight_decay in [0.0, 0.01] {
            let cfg = AdamConfig { lr: 3e-3, weight_decay, ..AdamConfig::default() };
            let mut p = Param::new(crate::init::normal(5, 7, 0.0, 1.0, 1));
            let mut want = p.clone();
            let mut opt = Adam::new(cfg);
            for t in 1..=4u64 {
                let g = crate::init::normal(5, 7, 0.0, 0.5, 10 + t);
                p.grad = g.clone();
                opt.step(&mut [&mut p]);
                let bias1 = 1.0 - cfg.beta1.powf(t as f32);
                let bias2 = 1.0 - cfg.beta2.powf(t as f32);
                for i in 0..want.len() {
                    let g = g.data()[i];
                    let m = cfg.beta1 * want.m.data()[i] + (1.0 - cfg.beta1) * g;
                    let v = cfg.beta2 * want.v.data()[i] + (1.0 - cfg.beta2) * g * g;
                    want.m.data_mut()[i] = m;
                    want.v.data_mut()[i] = v;
                    let mut upd = cfg.lr * (m / bias1) / ((v / bias2).sqrt() + cfg.eps);
                    if cfg.weight_decay > 0.0 {
                        upd += cfg.lr * cfg.weight_decay * want.value.data()[i];
                    }
                    want.value.data_mut()[i] -= upd;
                }
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&p.value), bits(&want.value), "step {t}");
                assert_eq!(bits(&p.m), bits(&want.m), "step {t}");
                assert_eq!(bits(&p.v), bits(&want.v), "step {t}");
                assert!(p.grad.data().iter().all(|&g| g == 0.0));
            }
        }
    }

    #[test]
    fn weight_decay_shrinks_params_without_grad() {
        let mut p = Param::new(Tensor::full(1, 1, 1.0));
        let mut opt =
            Adam::new(AdamConfig { lr: 0.1, weight_decay: 0.5, ..AdamConfig::default() });
        opt.step(&mut [&mut p]);
        assert!(p.value.get(0, 0) < 1.0);
    }

    #[test]
    fn warmup_schedule_shape() {
        let s = WarmupSchedule { peak_lr: 1.0, warmup: 10 };
        assert!((s.lr_at(5) - 0.5).abs() < 1e-6);
        assert!((s.lr_at(10) - 1.0).abs() < 1e-6);
        assert!(s.lr_at(40) < s.lr_at(10));
        assert!((s.lr_at(40) - 0.5).abs() < 1e-6); // sqrt(10/40) = 0.5
    }
}
