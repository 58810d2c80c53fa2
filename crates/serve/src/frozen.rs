//! The `TGTF` frozen-model artifact: a [`torchgt_ckpt::frame`] container
//! whose manifest records the architecture ([`ModelSpec`]), the quantization
//! scheme, the calibration record and every tensor's shape, and whose payload
//! holds, per tensor, its row scales (f32 LE) then its quantized values (i8,
//! or i16 LE). The frame verifies both checksums, every declared length and
//! exact EOF before any state is constructed, so a flipped bit anywhere in
//! the file fails cleanly. Unlike `TGTS`, the payload is quantized weights
//! only — no optimizer moments, no RNG cursors — which makes an int8
//! artifact roughly 12x smaller than the snapshot it was frozen from.

use crate::quant::{QuantData, QuantScheme, QuantTensor};
use std::io::{self, Write};
use std::path::Path;
use torchgt_ckpt::crc32;
use torchgt_ckpt::frame::{self, bad, Format};
use torchgt_model::{Arch, GraphormerConfig, GtConfig, ModelKind, SequenceModel};

/// Current frozen-artifact format version (2 added the dataset manifest
/// hash).
pub const FORMAT_VERSION: u32 = 2;

/// The pre-dataset-identity revision, still accepted by the reader.
pub const FORMAT_VERSION_V1: u32 = 1;

/// The `TGTF` frame.
pub const FORMAT: Format =
    Format { magic: *b"TGTF", name: "frozen model", versions: FORMAT_VERSION_V1..=FORMAT_VERSION };

torchgt_compat::json_struct! {
    /// Everything needed to rebuild the architecture a frozen model was
    /// trained with: an [`Arch`] and the init seed. `kind` is a
    /// [`ModelKind`]'s name; the fields a family does not use are zero when
    /// written and ignored when read.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ModelSpec {
        pub kind: String,
        pub feat_dim: usize,
        pub hidden: usize,
        pub layers: usize,
        pub heads: usize,
        pub ffn_mult: usize,
        pub out_dim: usize,
        pub pe_dim: usize,
        pub max_degree: usize,
        pub max_spd: u8,
        pub seed: u64,
    }
}

impl ModelSpec {
    /// The manifest record of `arch`, its model initialised from `seed`.
    /// The fields a family does not use are zero.
    pub(crate) fn new(arch: &Arch, seed: u64) -> Self {
        let (kind, feat_dim, ffn_mult, out_dim, pe_dim, max_degree, max_spd) = match *arch {
            Arch::Gt(c) => (ModelKind::Gt, c.feat_dim, c.ffn_mult, c.out_dim, c.pe_dim, 0, 0),
            Arch::Graphormer(c) => {
                (ModelKind::Graphormer, c.feat_dim, c.ffn_mult, c.out_dim, 0, c.max_degree, c.max_spd)
            }
        };
        let (shape, kind) = (arch.shape(), kind.to_string());
        let (layers, hidden, heads) = (shape.layers, shape.hidden, shape.heads);
        Self { kind, feat_dim, hidden, layers, heads, ffn_mult, out_dim, pe_dim, max_degree, max_spd, seed }
    }

    /// The architecture this spec records, dropout structurally zero: a
    /// frozen model only ever runs inference. An unknown `kind`, or an
    /// architecture that fails [`Arch::check`], is `InvalidData`.
    pub(crate) fn arch(&self) -> io::Result<Arch> {
        let Self { feat_dim, hidden, layers, heads, ffn_mult, out_dim, pe_dim, max_degree, max_spd, .. } = *self;
        let arch = match self.kind.parse::<ModelKind>().map_err(bad)? {
            ModelKind::Gt => Arch::Gt(GtConfig { feat_dim, hidden, layers, heads, ffn_mult, out_dim, pe_dim, dropout: 0.0 }),
            ModelKind::Graphormer => Arch::Graphormer(GraphormerConfig {
                feat_dim, hidden, layers, heads, ffn_mult, out_dim, max_degree, max_spd, dropout: 0.0,
            }),
        };
        arch.check().map_err(bad)?;
        Ok(arch)
    }

    /// Instantiate the architecture (weights are the seed-determined init;
    /// the executor overwrites them from the quantized payload). A spec
    /// [`Self::arch`] refuses is `InvalidData`.
    pub fn build(&self) -> io::Result<Box<dyn SequenceModel>> {
        Ok(self.arch()?.build(self.seed))
    }

    /// The `(rows, cols)` of every parameter [`Self::build`] creates, in
    /// `params_mut` order, checked against `shapes` without materialising
    /// the list: `InvalidData` on the first difference, before anything
    /// the spec sizes is allocated.
    fn check_params(&self, shapes: &[(usize, usize)]) -> io::Result<()> {
        let (h, out) = (self.hidden, self.out_dim);
        let inner = self.ffn_mult.checked_mul(h).ok_or_else(|| bad("frozen spec FFN width overflows"))?;
        // Input projection (W, b), then GT's PE projection (W, b) or
        // Graphormer's degree table and per-head SPD table.
        let encoders = match self.arch()? {
            Arch::Gt(c) => [(c.feat_dim, h), (1, h), (c.pe_dim, h), (1, h)],
            Arch::Graphormer(c) => {
                let degrees = c.max_degree.saturating_add(1);
                [(c.feat_dim, h), (1, h), (degrees, h), (c.heads, c.max_spd as usize + 2)]
            }
        };
        // LN1 (γ, β); Wq, Wk, Wv, Wo (W, b each); LN2 (γ, β); FFN (W1, b1, W2, b2).
        let block = [
            (1, h), (1, h),
            (h, h), (1, h), (h, h), (1, h), (h, h), (1, h), (h, h), (1, h),
            (1, h), (1, h),
            (h, inner), (1, inner), (inner, h), (1, h),
        ];
        let head = [(h, out), (1, out)];
        let fixed = encoders.len() + head.len();
        let want = self.layers.checked_mul(block.len()).and_then(|n| n.checked_add(fixed));
        if want != Some(shapes.len()) {
            return Err(bad(format!(
                "artifact has {} tensors, a {}-layer {} has {}",
                shapes.len(),
                self.layers,
                self.kind,
                want.map_or("more".to_string(), |n| n.to_string())
            )));
        }
        let blocks = std::iter::repeat_n(block, self.layers).flatten();
        let expected = encoders.into_iter().chain(blocks).chain(head);
        for (i, (&(rows, cols), want)) in shapes.iter().zip(expected).enumerate() {
            if (rows, cols) != want {
                return Err(bad(format!("artifact tensor {i} is {rows}x{cols}, the spec makes it {}x{}", want.0, want.1)));
            }
        }
        Ok(())
    }
}

torchgt_compat::json_struct! {
    /// Provenance of the dataset the model was trained and calibrated on,
    /// so `torchgt serve` can regenerate the identical graph by seed.
    #[derive(Clone, Debug, PartialEq)]
    pub struct DatasetRef {
        pub kind: String,
        pub scale: f64,
        pub seed: u64,
    }
}

torchgt_compat::json_struct! {
    /// One quantized tensor's framing in the payload.
    #[derive(Clone, Debug, PartialEq)]
    struct QuantShape {
        rows: usize,
        cols: usize,
    }
}

torchgt_compat::json_struct! {
    /// The JSON manifest (private — [`FrozenModel`] is the public surface).
    /// `dataset_manifest_hash` arrived in version 2.
    #[derive(Clone, Debug, PartialEq)]
    struct FrozenManifest {
        format_version: u32,
        spec: ModelSpec,
        scheme: QuantScheme,
        act_scale: f32,
        f32_acc: f64,
        frozen_acc: f64,
        dataset: Option<DatasetRef>,
        dataset_manifest_hash: Option<String>,
        shapes: Vec<QuantShape>,
        payload_len: u64,
        payload_crc: u32,
    }
}

/// A deployable frozen model: architecture spec, per-parameter quantized
/// tensors (model traversal order), and the calibration record that the
/// freeze-time accuracy gate was checked against.
#[derive(Clone, Debug, PartialEq)]
pub struct FrozenModel {
    pub spec: ModelSpec,
    pub scheme: QuantScheme,
    /// Quantized parameters in `SequenceModel::params_mut` order.
    pub tensors: Vec<QuantTensor>,
    /// Static activation scale for the int8 head fast path: maxabs of the
    /// pre-head hidden state over the calibration set, divided by 127.
    /// Zero means "not calibrated" — the executor falls back to dynamic
    /// per-row activation scaling.
    pub act_scale: f32,
    /// Top-1 accuracy of the f32 reference on the calibration set.
    pub f32_acc: f64,
    /// Top-1 accuracy of the quantized executor on the calibration set.
    pub frozen_acc: f64,
    /// Dataset provenance, when the calibration set came from a generated
    /// dataset (lets `torchgt serve` rebuild the graph by seed).
    pub dataset: Option<DatasetRef>,
    /// Identity hash of the on-disk sharded dataset the model was trained
    /// against (a `torchgt-data` manifest hash; `None` for in-memory
    /// datasets and version-1 files).
    pub dataset_manifest_hash: Option<String>,
}

impl FrozenModel {
    /// Serialise to a writer as one `TGTF` frame.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut payload = Vec::new();
        for t in &self.tensors {
            frame::put_f32s(&mut payload, &t.scales);
            match &t.data {
                QuantData::I8(q) => {
                    // i8 -> u8 is a bijection on bit patterns.
                    payload.extend(q.iter().map(|&v| v as u8));
                }
                QuantData::I16(q) => {
                    for &v in q {
                        payload.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        let manifest = FrozenManifest {
            format_version: FORMAT_VERSION,
            spec: self.spec.clone(),
            scheme: self.scheme,
            act_scale: self.act_scale,
            f32_acc: self.f32_acc,
            frozen_acc: self.frozen_acc,
            dataset: self.dataset.clone(),
            dataset_manifest_hash: self.dataset_manifest_hash.clone(),
            shapes: self
                .tensors
                .iter()
                .map(|t| QuantShape { rows: t.rows, cols: t.cols })
                .collect(),
            payload_len: payload.len() as u64,
            payload_crc: crc32(&payload),
        };
        FORMAT.write(&mut w, &manifest, &payload).map(drop)
    }

    /// Deserialise one `TGTF` frame, verifying everything the frame does
    /// plus that the declared shapes tile the payload exactly.
    pub fn read_from(bytes: &[u8]) -> io::Result<Self> {
        let (manifest, mut payload): (FrozenManifest, _) = FORMAT.parse(bytes)?;
        let mut tensors = Vec::with_capacity(manifest.shapes.len());
        for s in &manifest.shapes {
            let scales = frame::get_f32s(&mut payload, s.rows)?;
            let n = s
                .rows
                .checked_mul(s.cols)
                .and_then(|n| n.checked_mul(manifest.scheme.elem_bytes()))
                .ok_or_else(|| bad("frozen model shape overflows"))?;
            let bytes = frame::take(&mut payload, n)?;
            let data = match manifest.scheme {
                QuantScheme::Int8 => QuantData::I8(bytes.iter().map(|&b| b as i8).collect()),
                QuantScheme::Int16 => QuantData::I16(
                    bytes.chunks_exact(2).map(|c| i16::from_le_bytes([c[0], c[1]])).collect(),
                ),
            };
            tensors.push(QuantTensor {
                rows: s.rows,
                cols: s.cols,
                scheme: manifest.scheme,
                scales,
                data,
            });
        }
        frame::finish(payload)?;
        Ok(FrozenModel {
            spec: manifest.spec,
            scheme: manifest.scheme,
            tensors,
            act_scale: manifest.act_scale,
            f32_acc: manifest.f32_acc,
            frozen_acc: manifest.frozen_acc,
            dataset: manifest.dataset,
            dataset_manifest_hash: manifest.dataset_manifest_hash,
        })
    }

    /// The architecture of [`Self::spec`], built only once the spec is known
    /// to describe exactly the artifact's own tensor list (count and every
    /// shape), so a hostile spec can neither panic the build nor size an
    /// allocation the artifact does not back.
    pub(crate) fn build_model(&self) -> io::Result<Box<dyn SequenceModel>> {
        let shapes: Vec<(usize, usize)> = self.tensors.iter().map(|t| (t.rows, t.cols)).collect();
        self.spec.check_params(&shapes)?;
        self.spec.build()
    }

    /// Write atomically to `path` (temp file + rename, like the checkpoint
    /// store, but without its fsync: a lost artifact is re-frozen).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        frame::publish(path, false, |w| self.write_to(w))
    }

    /// Load from `path` through the self-healing ladder shared with the
    /// `TGDS`/`TGTS` readers; the read is routed through the fault plane.
    pub fn load(path: &Path) -> io::Result<Self> {
        frame::read_healing(path, &torchgt_obs::noop(), &mut 0, || {
            Self::read_from(&torchgt_faults::read_file(path)?)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_compat::json::{ToJson, Value};
    use torchgt_compat::proptest::prelude::*;

    fn fixture() -> FrozenModel {
        let spec = ModelSpec {
            kind: "gt".to_string(),
            feat_dim: 4,
            hidden: 8,
            layers: 1,
            heads: 2,
            ffn_mult: 4,
            out_dim: 3,
            pe_dim: 2,
            max_degree: 64,
            max_spd: 8,
            seed: 42,
        };
        let src: Vec<f32> = (0..24).map(|i| i as f32 * 0.125 - 1.5).collect();
        FrozenModel {
            spec,
            scheme: QuantScheme::Int8,
            tensors: vec![
                QuantTensor::quantize(&src, 4, 6, QuantScheme::Int8),
                QuantTensor::quantize(&src[..8], 1, 8, QuantScheme::Int8),
            ],
            act_scale: 0.02,
            f32_acc: 0.9,
            frozen_acc: 0.895,
            dataset: Some(DatasetRef { kind: "arxiv".into(), scale: 0.002, seed: 7 }),
            dataset_manifest_hash: Some("tgds-0123456789abcdef".into()),
        }
    }

    /// The byte stream a version-1 writer produced: same framing, version
    /// 1, manifest without the dataset_manifest_hash key.
    fn to_v1_bytes(m: &FrozenModel) -> Vec<u8> {
        let mut current = Vec::new();
        m.write_to(&mut current).unwrap();
        let (mut manifest, payload): (Value, _) = FORMAT.parse(&current).unwrap();
        let Value::Object(fields) = &mut manifest else { panic!("manifest is an object") };
        fields.retain(|(key, _)| key != "dataset_manifest_hash");
        for (key, value) in fields.iter_mut() {
            if key == "format_version" {
                *value = FORMAT_VERSION_V1.to_json();
            }
        }
        let mut out = Vec::new();
        Format { versions: FORMAT_VERSION_V1..=FORMAT_VERSION_V1, ..FORMAT }
            .write(&mut out, &manifest, payload)
            .unwrap();
        out
    }

    #[test]
    fn version_1_files_remain_readable() {
        let m = fixture();
        let back = FrozenModel::read_from(to_v1_bytes(&m).as_slice()).unwrap();
        assert_eq!(back.spec, m.spec);
        assert_eq!(back.tensors, m.tensors);
        assert_eq!(back.dataset, m.dataset);
        assert!(
            back.dataset_manifest_hash.is_none(),
            "v1 files predate the dataset manifest hash"
        );
    }

    #[test]
    fn v1_corruption_is_still_detected() {
        let m = fixture();
        let buf = to_v1_bytes(&m);
        let original = FrozenModel::read_from(&buf[..]).unwrap();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            if let Ok(decoded) = FrozenModel::read_from(&bad[..]) {
                assert_ne!(decoded, original, "v1 byte {i}: corruption silently ignored");
            }
        }
    }

    #[test]
    fn round_trips_bit_exact() {
        let m = fixture();
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        let back = FrozenModel::read_from(&buf[..]).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let m = fixture();
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        let original = FrozenModel::read_from(&buf[..]).unwrap();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            // Either the reader rejects the flip, or (flips inside JSON
            // numbers can survive as different valid numbers) the decoded
            // value differs — silent identical decode is the only failure.
            if let Ok(decoded) = FrozenModel::read_from(&bad[..]) {
                assert_ne!(decoded, original, "byte {i}: corruption silently ignored");
            }
        }
    }

    #[test]
    fn truncation_and_trailing_garbage_are_rejected() {
        let m = fixture();
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        assert!(FrozenModel::read_from(&buf[..buf.len() - 1]).is_err());
        let mut long = buf.clone();
        long.push(0);
        assert!(FrozenModel::read_from(&long[..]).is_err());
    }

    #[test]
    fn future_version_is_rejected() {
        let m = fixture();
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        buf[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(FrozenModel::read_from(&buf[..]).is_err());
    }

    proptest! {
        /// Over generated GT and Graphormer configs: the built model
        /// describes itself as the architecture it was built from and
        /// reports its config's shape; the manifest record round-trips
        /// through the architecture (dropout aside: a frozen model runs
        /// none); `check_params` accepts exactly the built model's
        /// parameter shapes; and a spec naming no family, or heads that do
        /// not divide the width, is refused as `InvalidData`.
        #[test]
        fn every_architecture_round_trips_through_its_spec(
            graphormer in 0usize..2,
            dims in (1usize..6, 1usize..4, 1usize..4, 0usize..4),
            widths in (1usize..4, 1usize..5, 1usize..5),
            buckets in (0usize..20, 0u8..8),
            dropout in 0usize..2,
            seed in 0u64..1000,
        ) {
            let ((feat_dim, heads, head_dim, layers), (ffn_mult, out_dim, pe_dim)) = (dims, widths);
            let (hidden, dropout) = (heads * head_dim, dropout as f32 * 0.1);
            let arch = if graphormer == 1 {
                let (max_degree, max_spd) = buckets;
                let c = GraphormerConfig { feat_dim, hidden, layers, heads, ffn_mult, out_dim, max_degree, max_spd, dropout };
                Arch::Graphormer(c)
            } else {
                Arch::Gt(GtConfig { feat_dim, hidden, layers, heads, ffn_mult, out_dim, pe_dim, dropout })
            };
            prop_assert!(arch.check().is_ok());
            let mut model = arch.build(seed);
            prop_assert_eq!(model.describe(), Some(arch));
            let shape = model.shape();
            prop_assert_eq!((shape.layers, shape.hidden, shape.heads), (layers, hidden, heads));

            let spec = ModelSpec::new(&arch, seed);
            let frozen = match arch {
                Arch::Gt(c) => Arch::Gt(GtConfig { dropout: 0.0, ..c }),
                Arch::Graphormer(c) => Arch::Graphormer(GraphormerConfig { dropout: 0.0, ..c }),
            };
            prop_assert_eq!(spec.arch().ok(), Some(frozen));
            prop_assert_eq!(ModelSpec::new(&frozen, seed), spec.clone());
            let rebuilt = spec.build().map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(rebuilt.name(), model.name());

            let shapes: Vec<_> = model.params_mut().iter().map(|p| p.value.shape()).collect();
            prop_assert!(spec.check_params(&shapes).is_ok(), "{spec:?} refuses its own model's {shapes:?}");
            prop_assert!(spec.check_params(&shapes[1..]).is_err(), "one tensor short");
            for i in 0..shapes.len() {
                let mut wider = shapes.clone();
                wider[i].1 += 1;
                prop_assert!(spec.check_params(&wider).is_err(), "tensor {} wider", i);
            }

            let refused = |bad: ModelSpec| bad.build().err().map(|e| e.kind());
            prop_assert_eq!(refused(ModelSpec { kind: "mystery".into(), ..spec.clone() }), Some(io::ErrorKind::InvalidData));
            for heads in [0, hidden + 1] {
                prop_assert_eq!(refused(ModelSpec { heads, ..spec.clone() }), Some(io::ErrorKind::InvalidData));
            }
        }
    }
}
