//! Message-passing GNN baselines: GCN (Kipf & Welling) and GAT (Veličković
//! et al.) — the "Traditional GNNs" rows of the paper's Table I.

use crate::api::{Pattern, SequenceBatch, SequenceModel};
use crate::readout::RowPlan;
use torchgt_graph::CsrGraph;
use torchgt_sparse::ModelShape;
use torchgt_tensor::rng::derive_seed;
use torchgt_tensor::{Linear, Param, Relu, Tensor, Workspace};

/// Symmetric-normalised aggregation `Â H` with
/// `Â_ij = 1/√((d_i+1)(d_j+1))` over `N(i) ∪ {i}` (the GCN propagation
/// rule with self-loops folded in), written into `out` (fully overwritten).
fn gcn_aggregate_into(graph: &CsrGraph, h: &Tensor, out: &mut Tensor) {
    let n = graph.num_nodes();
    assert_eq!(h.rows(), n);
    assert_eq!(out.shape(), h.shape());
    let inv_sqrt: Vec<f32> =
        (0..n).map(|v| 1.0 / ((graph.degree(v) as f32 + 1.0).sqrt())).collect();
    out.fill_zero();
    for v in 0..n {
        let selfw = inv_sqrt[v] * inv_sqrt[v];
        let orow = out.row_mut(v);
        for (o, x) in orow.iter_mut().zip(h.row(v)) {
            *o += selfw * x;
        }
        for &nb in graph.neighbors(v) {
            let u = nb as usize;
            if u == v {
                continue;
            }
            let w = inv_sqrt[v] * inv_sqrt[u];
            let hrow = h.row(u);
            let orow = out.row_mut(v);
            for (o, x) in orow.iter_mut().zip(hrow) {
                *o += w * x;
            }
        }
    }
}

/// A GCN for node classification: `layers` rounds of
/// `ReLU(Â (H W))` with the final layer linear.
pub struct Gcn {
    linears: Vec<Linear>,
    acts: Vec<Relu>,
    read: RowPlan,
}

impl Gcn {
    /// Construct with `dims = [feat, hidden…, out]` (so `dims.len() - 1`
    /// layers).
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2);
        let linears = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(w[0], w[1], derive_seed(seed, 70 + i as u64)))
            .collect::<Vec<_>>();
        let acts = (0..dims.len() - 2).map(|_| Relu::new()).collect();
        Self { linears, acts, read: RowPlan::default() }
    }
}

impl SequenceModel for Gcn {
    fn forward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        _pattern: Pattern<'_>,
        rows: &[usize],
        ws: &mut Workspace,
    ) -> Tensor {
        self.read.keep(rows, batch.features.rows());
        let last = self.linears.len() - 1;
        let mut h: Option<Tensor> = None;
        for (i, lin) in self.linears.iter_mut().enumerate() {
            let z = match &h {
                Some(t) => lin.forward_ws(t, ws),
                None => lin.forward_ws(batch.features, ws),
            };
            if let Some(t) = h.take() {
                ws.give(t);
            }
            let mut agg = ws.take(z.rows(), z.cols());
            gcn_aggregate_into(batch.graph, &z, &mut agg);
            ws.give(z);
            h = Some(if i < last {
                let a = self.acts[i].forward_ws(&agg, ws);
                ws.give(agg);
                a
            } else {
                agg
            });
        }
        self.read.select(h.expect("Gcn has at least one layer"), ws)
    }

    fn backward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        _pattern: Pattern<'_>,
        dlogits: &Tensor,
        ws: &mut Workspace,
    ) {
        let last = self.linears.len() - 1;
        let mut dh = self.read.expand(ws.take_copy(dlogits), ws);
        for i in (0..self.linears.len()).rev() {
            if i < last {
                let t = self.acts[i].backward_ws(&dh, ws);
                ws.give(dh);
                dh = t;
            }
            // Â is symmetric ⇒ backward through aggregation is another
            // aggregation.
            let mut dz = ws.take(dh.rows(), dh.cols());
            gcn_aggregate_into(batch.graph, &dh, &mut dz);
            ws.give(dh);
            dh = self.linears[i].backward_ws(&dz, ws);
            ws.give(dz);
        }
        ws.give(dh);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.linears.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn set_training(&mut self, _on: bool) {}

    fn name(&self) -> &'static str {
        "GCN"
    }

    /// One head: the aggregation has no attention to split. `hidden` is the
    /// first layer's output width.
    fn shape(&self) -> ModelShape {
        ModelShape { layers: self.linears.len(), hidden: self.linears[0].out_dim(), heads: 1 }
    }
}

/// One GAT layer: additive attention
/// `e_ij = LeakyReLU(a_src·Wh_i + a_dst·Wh_j)`, softmax over
/// `N(i) ∪ {i}`, then the attention-weighted sum of `Wh_j`.
pub(crate) struct GatLayer {
    w: Linear,
    a_src: Param,
    a_dst: Param,
    negative_slope: f32,
    cache: Option<GatCache>,
}

struct GatCache {
    z: Tensor,
    /// Per-edge attention coefficients in CSR order (incl. self-loop slot at
    /// the end of each row).
    alpha: Vec<Vec<f32>>,
    /// Pre-activation edge scores for the LeakyReLU derivative.
    raw: Vec<Vec<f32>>,
}

impl GatLayer {
    /// Construct mapping `in_dim → out_dim`.
    pub(crate) fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Self {
            w: Linear::new(in_dim, out_dim, derive_seed(seed, 80)),
            a_src: Param::new(torchgt_tensor::init::normal(1, out_dim, 0.0, 0.1, derive_seed(seed, 81))),
            a_dst: Param::new(torchgt_tensor::init::normal(1, out_dim, 0.0, 0.1, derive_seed(seed, 82))),
            negative_slope: 0.2,
            cache: None,
        }
    }

    fn leaky(&self, x: f32) -> f32 {
        if x >= 0.0 {
            x
        } else {
            self.negative_slope * x
        }
    }

    fn leaky_grad(&self, x: f32) -> f32 {
        if x >= 0.0 {
            1.0
        } else {
            self.negative_slope
        }
    }

    /// Forward over `graph` (self-loops are added implicitly); the output and
    /// the projection kept for backward are drawn from `ws`.
    pub(crate) fn forward_ws(&mut self, graph: &CsrGraph, h: &Tensor, ws: &mut Workspace) -> Tensor {
        if let Some(stale) = self.cache.take() {
            ws.give(stale.z);
        }
        let n = graph.num_nodes();
        let z = self.w.forward_ws(h, ws);
        let d = z.cols();
        let dot = |row: &[f32], a: &Param| -> f32 {
            row.iter().zip(a.value.row(0)).map(|(x, y)| x * y).sum()
        };
        let s: Vec<f32> = (0..n).map(|v| dot(z.row(v), &self.a_src)).collect();
        let t: Vec<f32> = (0..n).map(|v| dot(z.row(v), &self.a_dst)).collect();
        let mut out = ws.take(n, d);
        let mut alpha = Vec::with_capacity(n);
        let mut raw_all = Vec::with_capacity(n);
        for v in 0..n {
            // Neighbour list + self (skip duplicate if the self-loop exists).
            let nbrs: Vec<usize> = neighbours_with_self(graph, v);
            let raw: Vec<f32> = nbrs.iter().map(|&u| s[v] + t[u]).collect();
            let act: Vec<f32> = raw.iter().map(|&x| self.leaky(x)).collect();
            let max = act.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut exp: Vec<f32> = act.iter().map(|&x| (x - max).exp()).collect();
            let den: f32 = exp.iter().sum();
            for e in exp.iter_mut() {
                *e /= den.max(f32::MIN_POSITIVE);
            }
            let orow = out.row_mut(v);
            for (&u, &a) in nbrs.iter().zip(&exp) {
                for (o, x) in orow.iter_mut().zip(z.row(u)) {
                    *o += a * x;
                }
            }
            alpha.push(exp);
            raw_all.push(raw);
        }
        self.cache = Some(GatCache { z, alpha, raw: raw_all });
        out
    }

    /// Backward through `ws`; returns `dL/dh`, owned by `ws`.
    pub(crate) fn backward_ws(&mut self, graph: &CsrGraph, dout: &Tensor, ws: &mut Workspace) -> Tensor {
        let cache = self.cache.take().expect("GAT backward before forward");
        let n = graph.num_nodes();
        let d = cache.z.cols();
        let mut dz = ws.take(n, d);
        let mut ds = vec![0.0f32; n];
        let mut dt = vec![0.0f32; n];
        for v in 0..n {
            let nbrs = neighbours_with_self(graph, v);
            let alpha = &cache.alpha[v];
            let raw = &cache.raw[v];
            let dorow = dout.row(v);
            // dalpha_e = dout_v · z_u ; softmax backward over the row.
            let mut dalpha: Vec<f32> = nbrs
                .iter()
                .map(|&u| dorow.iter().zip(cache.z.row(u)).map(|(a, b)| a * b).sum())
                .collect();
            let dot: f32 = alpha.iter().zip(&dalpha).map(|(a, b)| a * b).sum();
            for (e, da) in dalpha.iter_mut().enumerate() {
                let de = alpha[e] * (*da - dot) * self.leaky_grad(raw[e]);
                // e_ij = s_v + t_u
                ds[v] += de;
                dt[nbrs[e]] += de;
                // value path: dz_u += alpha * dout_v
                let zrow = dz.row_mut(nbrs[e]);
                for (zo, &o) in zrow.iter_mut().zip(dorow) {
                    *zo += alpha[e] * o;
                }
            }
        }
        // s_v = a_src · z_v ⇒ dz_v += ds_v a_src, d a_src += Σ ds_v z_v.
        let mut da_src = ws.take(1, d);
        let mut da_dst = ws.take(1, d);
        for v in 0..n {
            let zrow = cache.z.row(v);
            let dzrow = dz.row_mut(v);
            for c in 0..d {
                dzrow[c] += ds[v] * self.a_src.value.get(0, c) + dt[v] * self.a_dst.value.get(0, c);
                da_src.data_mut()[c] += ds[v] * zrow[c];
                da_dst.data_mut()[c] += dt[v] * zrow[c];
            }
        }
        self.a_src.accumulate(&da_src);
        self.a_dst.accumulate(&da_dst);
        let dh = self.w.backward_ws(&dz, ws);
        for t in [dz, da_src, da_dst, cache.z] {
            ws.give(t);
        }
        dh
    }

    /// Mutable parameter access.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.w.params_mut();
        p.push(&mut self.a_src);
        p.push(&mut self.a_dst);
        p
    }
}

fn neighbours_with_self(graph: &CsrGraph, v: usize) -> Vec<usize> {
    let mut nbrs: Vec<usize> = graph.neighbors(v).iter().map(|&u| u as usize).collect();
    if !nbrs.contains(&v) {
        nbrs.push(v);
    }
    nbrs
}

/// A 2-layer GAT for node classification.
pub struct Gat {
    l1: GatLayer,
    act: Relu,
    l2: GatLayer,
    read: RowPlan,
}

impl Gat {
    /// Construct `feat → hidden → out`.
    pub fn new(feat: usize, hidden: usize, out: usize, seed: u64) -> Self {
        Self {
            l1: GatLayer::new(feat, hidden, derive_seed(seed, 90)),
            act: Relu::new(),
            l2: GatLayer::new(hidden, out, derive_seed(seed, 91)),
            read: RowPlan::default(),
        }
    }
}

impl SequenceModel for Gat {
    fn forward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        _pattern: Pattern<'_>,
        rows: &[usize],
        ws: &mut Workspace,
    ) -> Tensor {
        self.read.keep(rows, batch.features.rows());
        let h = self.l1.forward_ws(batch.graph, batch.features, ws);
        let a = self.act.forward_ws(&h, ws);
        ws.give(h);
        let logits = self.l2.forward_ws(batch.graph, &a, ws);
        ws.give(a);
        self.read.select(logits, ws)
    }

    fn backward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        _pattern: Pattern<'_>,
        dlogits: &Tensor,
        ws: &mut Workspace,
    ) {
        let dlogits = self.read.expand(ws.take_copy(dlogits), ws);
        let dh = self.l2.backward_ws(batch.graph, &dlogits, ws);
        ws.give(dlogits);
        let da = self.act.backward_ws(&dh, ws);
        ws.give(dh);
        let dx = self.l1.backward_ws(batch.graph, &da, ws);
        ws.give(da);
        ws.give(dx);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.l1.params_mut();
        p.extend(self.l2.params_mut());
        p
    }

    fn set_training(&mut self, _on: bool) {}

    fn name(&self) -> &'static str {
        "GAT"
    }

    /// Two single-head attention layers.
    fn shape(&self) -> ModelShape {
        ModelShape { layers: 2, hidden: self.l1.w.out_dim(), heads: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::every_row;
    use torchgt_graph::generators::{cycle_graph, path_graph};
    use torchgt_tensor::gradcheck::{max_abs_diff, numerical_grad};
    use torchgt_tensor::init;
    use torchgt_tensor::{Adam, Optimizer};

    #[test]
    fn gcn_aggregate_averages_neighbourhoods() {
        let g = path_graph(3);
        let h = Tensor::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let mut out = Tensor::zeros(3, 1);
        gcn_aggregate_into(&g, &h, &mut out);
        // Node 1 (degree 2): 1/3·2 (self, d+1=3) + 1/(√3·√2)·(1+3).
        let expected = 2.0 / 3.0 + (1.0 + 3.0) / (3.0f32.sqrt() * 2.0f32.sqrt());
        assert!((out.get(1, 0) - expected).abs() < 1e-5);
    }

    #[test]
    fn gcn_backward_matches_numerical() {
        let g = cycle_graph(5);
        let x = init::normal(5, 3, 0.0, 1.0, 2);
        let w = init::normal(5, 2, 0.0, 1.0, 3);
        let mut gcn = Gcn::new(&[3, 4, 2], 7);
        let batch = SequenceBatch { features: &x, graph: &g, spd: None };
        let _ = gcn.forward_ws(&batch, Pattern::Flash, &every_row(&batch), &mut Workspace::new());
        gcn.backward_ws(&batch, Pattern::Flash, &w, &mut Workspace::new());
        // Check weight grad of the first linear numerically.
        let analytic = gcn.linears[0].w.grad.clone();
        let l0 = gcn.linears[0].clone();
        let l1 = gcn.linears[1].clone();
        let numeric = numerical_grad(
            &l0.w.value,
            |probe| {
                let mut tmp = Gcn::new(&[3, 4, 2], 7);
                tmp.linears[0] = l0.clone();
                tmp.linears[0].w.value = probe.clone();
                tmp.linears[1] = l1.clone();
                let y = tmp.forward_ws(&batch, Pattern::Flash, &every_row(&batch), &mut Workspace::new());
                y.data().iter().zip(w.data()).map(|(a, b)| a * b).sum()
            },
            1e-2,
        );
        assert!(max_abs_diff(&analytic, &numeric) < 2e-2);
    }

    #[test]
    fn gat_attention_rows_are_distributions() {
        let g = cycle_graph(6);
        let x = init::normal(6, 4, 0.0, 1.0, 5);
        let mut layer = GatLayer::new(4, 4, 1);
        let _ = layer.forward_ws(&g, &x, &mut Workspace::new());
        let cache = layer.cache.as_ref().unwrap();
        for row in &cache.alpha {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&a| a >= 0.0));
        }
    }

    #[test]
    fn gat_input_grad_matches_numerical() {
        let g = cycle_graph(5);
        let x = init::normal(5, 3, 0.0, 0.8, 6);
        let w = init::normal(5, 4, 0.0, 1.0, 7);
        let mut layer = GatLayer::new(3, 4, 9);
        let _ = layer.forward_ws(&g, &x, &mut Workspace::new());
        let dx = layer.backward_ws(&g, &w, &mut Workspace::new());
        let wsaved = layer.w.clone();
        let asrc = layer.a_src.clone();
        let adst = layer.a_dst.clone();
        let numeric = numerical_grad(
            &x,
            |p| {
                let mut probe = GatLayer::new(3, 4, 9);
                probe.w = wsaved.clone();
                probe.a_src = asrc.clone();
                probe.a_dst = adst.clone();
                let y = probe.forward_ws(&g, p, &mut Workspace::new());
                y.data().iter().zip(w.data()).map(|(a, b)| a * b).sum()
            },
            1e-2,
        );
        assert!(max_abs_diff(&dx, &numeric) < 3e-2, "diff {}", max_abs_diff(&dx, &numeric));
    }

    #[test]
    fn gcn_learns_community_labels() {
        use torchgt_graph::generators::{clustered_power_law, ClusteredConfig};
        let (g, comm) = clustered_power_law(
            ClusteredConfig { n: 60, communities: 2, avg_degree: 8.0, intra_fraction: 0.9 },
            3,
        );
        let mut feats = Tensor::zeros(60, 4);
        for v in 0..60 {
            feats.set(v, comm[v] as usize, 1.0);
            feats.set(v, 2, ((v * 37) % 17) as f32 / 17.0);
        }
        let labels: Vec<u32> = comm.clone();
        let mut gcn = Gcn::new(&[4, 8, 2], 4);
        let mut opt = Adam::with_lr(5e-3);
        let batch = SequenceBatch { features: &feats, graph: &g, spd: None };
        let mut last = f32::MAX;
        let mut first = None;
        for _ in 0..50 {
            let logits = gcn.forward_ws(&batch, Pattern::Flash, &every_row(&batch), &mut Workspace::new());
            let (loss, dl) = crate::loss::softmax_cross_entropy_ws(&logits, &labels, &mut Workspace::new());
            gcn.backward_ws(&batch, Pattern::Flash, &dl, &mut Workspace::new());
            opt.step(&mut gcn.params_mut());
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < 0.5 * first.unwrap());
        let logits = gcn.forward_ws(&batch, Pattern::Flash, &every_row(&batch), &mut Workspace::new());
        assert!(crate::loss::accuracy(&logits, &labels, None) > 0.8);
    }
}
