//! The `TGTS` snapshot format: a [`crate::frame`] container whose manifest
//! records the trainer state ([`TrainerState`]) and the shape of every
//! tensor, and whose payload holds, for each parameter in order, its
//! `value`, `m`, and `v` buffers back-to-back as packed f32 LE. The frame
//! verifies both checksums, every declared length and exact EOF, so a
//! flipped bit, a truncation, or trailing garbage all fail cleanly *before*
//! any model state is touched.
//!
//! Snapshots are **world-size-independent**: tensors are always stored in
//! canonical (unsharded) order, so a snapshot taken at P=4 restores
//! bit-faithfully at P=3. Format version 2 additionally records the
//! [`PartitionLayout`] in effect at capture time; version 3 adds the
//! identity hash of the dataset the run trained on (a `torchgt-data`
//! manifest hash), letting restore refuse a snapshot taken against a
//! different dataset. Version-1 and version-2 files, which predate those
//! keys, remain readable — a missing key decodes as `None`.

use crate::checksum::crc32;
use crate::frame::{self, bad, Format};
use crate::state::{ParamState, PartitionLayout, TensorShape, TrainerState};
use std::io::{self, Write};
use torchgt_tensor::param::Param;

/// Current snapshot format version (3 added the dataset identity hash).
pub const FORMAT_VERSION: u32 = 3;

/// The pre-dataset-identity revision (2 added the partition layout), still
/// accepted by the reader.
pub const FORMAT_VERSION_V2: u32 = 2;

/// The pre-elastic format revision, still accepted by the reader.
pub const FORMAT_VERSION_V1: u32 = 1;

/// The `TGTS` frame.
pub const FORMAT: Format =
    Format { magic: *b"TGTS", name: "snapshot", versions: FORMAT_VERSION_V1..=FORMAT_VERSION };

torchgt_compat::json_struct! {
    /// The JSON manifest (private — [`Snapshot`] is the public surface).
    /// `layout` arrived in version 2 and `dataset_id` in version 3.
    #[derive(Clone, Debug, PartialEq)]
    struct Manifest {
        format_version: u32,
        state: TrainerState,
        shapes: Vec<TensorShape>,
        payload_len: u64,
        payload_crc: u32,
        layout: Option<PartitionLayout>,
        dataset_id: Option<String>,
    }
}

/// A full training-state snapshot: trainer bookkeeping plus every
/// parameter's value and Adam moment buffers (canonical order — never
/// sharded by rank).
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Trainer bookkeeping (epoch, optimizer steps, RNG streams, tuner…).
    pub state: TrainerState,
    /// Per-parameter tensors, in model traversal order.
    pub params: Vec<ParamState>,
    /// Partition layout in effect at capture time (`None` for
    /// single-device trainers and version-1 files).
    pub layout: Option<PartitionLayout>,
    /// Identity hash of the dataset the run trained on (a `torchgt-data`
    /// manifest hash; `None` for in-memory datasets and pre-v3 files).
    /// Restore paths refuse a snapshot whose hash disagrees with the live
    /// dataset unless explicitly overridden.
    pub dataset_id: Option<String>,
}

impl Snapshot {
    /// Assemble a snapshot from live parameters plus trainer state.
    pub fn capture(state: TrainerState, params: &[&Param]) -> Self {
        Self {
            state,
            params: params.iter().map(|p| ParamState::capture(p)).collect(),
            layout: None,
            dataset_id: None,
        }
    }

    /// Attach the partition layout in effect at capture time.
    pub fn with_layout(mut self, layout: PartitionLayout) -> Self {
        self.layout = Some(layout);
        self
    }

    /// Restore every parameter (values + moments). All-or-nothing: counts
    /// and shapes are validated for the whole set before the first tensor
    /// is overwritten.
    pub fn apply_params(&self, params: &mut [&mut Param]) -> io::Result<()> {
        if params.len() != self.params.len() {
            return Err(bad(format!(
                "snapshot has {} tensors, model has {}",
                self.params.len(),
                params.len()
            )));
        }
        for (st, p) in self.params.iter().zip(params.iter()) {
            if p.value.shape() != (st.rows, st.cols) {
                return Err(bad(format!(
                    "snapshot tensor is {}x{}, model expects {:?}",
                    st.rows,
                    st.cols,
                    p.value.shape()
                )));
            }
        }
        for (st, p) in self.params.iter().zip(params.iter_mut()) {
            st.apply(p)?;
        }
        Ok(())
    }

    /// Serialise to a writer as one `TGTS` frame.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut payload = Vec::new();
        for p in &self.params {
            frame::put_f32s(&mut payload, &p.value);
            frame::put_f32s(&mut payload, &p.m);
            frame::put_f32s(&mut payload, &p.v);
        }
        let manifest = Manifest {
            format_version: FORMAT_VERSION,
            state: self.state.clone(),
            shapes: self.params.iter().map(ParamState::shape).collect(),
            payload_len: payload.len() as u64,
            payload_crc: crc32(&payload),
            layout: self.layout.clone(),
            dataset_id: self.dataset_id.clone(),
        };
        FORMAT.write(&mut w, &manifest, &payload).map(drop)
    }

    /// Deserialise one `TGTS` frame, verifying everything the frame does
    /// plus that the declared shapes tile the payload exactly.
    pub fn read_from(bytes: &[u8]) -> io::Result<Self> {
        let (manifest, mut payload): (Manifest, _) = FORMAT.parse(bytes)?;
        let mut params = Vec::with_capacity(manifest.shapes.len());
        for s in &manifest.shapes {
            let n = s.rows.checked_mul(s.cols).ok_or_else(|| bad("snapshot shape overflows"))?;
            params.push(ParamState {
                rows: s.rows,
                cols: s.cols,
                value: frame::get_f32s(&mut payload, n)?,
                m: frame::get_f32s(&mut payload, n)?,
                v: frame::get_f32s(&mut payload, n)?,
            });
        }
        frame::finish(payload)?;
        Ok(Self {
            state: manifest.state,
            params,
            layout: manifest.layout,
            dataset_id: manifest.dataset_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::TunerState;
    use torchgt_compat::json::{ToJson, Value};
    use torchgt_compat::proptest::prelude::*;
    use torchgt_tensor::init;
    use torchgt_tensor::tensor::Tensor;

    fn sample() -> Snapshot {
        let mut p0 = Param::new(init::normal(3, 4, 0.0, 1.0, 11));
        p0.m = init::normal(3, 4, 0.0, 0.1, 12);
        p0.v = init::normal(3, 4, 0.5, 0.1, 13);
        let p1 = Param::new(init::normal(2, 2, 0.0, 1.0, 14));
        let state = TrainerState {
            epoch: 5,
            opt_steps: 120,
            rng_streams: vec![5, 5, 6],
            beta_thre: Some(0.25),
            tuner: Some(TunerState {
                index: 1,
                f_history: vec![2.0, 1.5],
                ldr_history: vec![0.1, 0.2],
            }),
            scheduler: None,
            epoch_losses: vec![1.5, 1.0],
        };
        Snapshot::capture(state, &[&p0, &p1])
    }

    fn to_bytes(s: &Snapshot) -> Vec<u8> {
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();
        buf
    }

    #[test]
    fn byte_round_trip() {
        let s = sample();
        let back = Snapshot::read_from(to_bytes(&s).as_slice()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn apply_restores_values_and_moments() {
        let s = sample();
        let mut a = Param::new(Tensor::zeros(3, 4));
        let mut b = Param::new(Tensor::zeros(2, 2));
        s.apply_params(&mut [&mut a, &mut b]).unwrap();
        assert_eq!(a.value.data(), &s.params[0].value[..]);
        assert_eq!(a.m.data(), &s.params[0].m[..]);
        assert_eq!(a.v.data(), &s.params[0].v[..]);
    }

    #[test]
    fn apply_is_all_or_nothing() {
        let s = sample();
        let mut a = Param::new(Tensor::full(3, 4, 7.0));
        let mut b = Param::new(Tensor::full(5, 5, 7.0)); // wrong shape
        assert!(s.apply_params(&mut [&mut a, &mut b]).is_err());
        assert!(a.value.data().iter().all(|&v| v == 7.0), "first param untouched");
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let s = sample();
        let bytes = to_bytes(&s);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                Snapshot::read_from(corrupt.as_slice()).is_err(),
                "bit flip at byte {i}/{} went undetected",
                bytes.len()
            );
        }
    }

    #[test]
    fn truncation_and_trailing_garbage_are_rejected() {
        let s = sample();
        let bytes = to_bytes(&s);
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(Snapshot::read_from(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(Snapshot::read_from(extended.as_slice()).is_err(), "trailing byte accepted");
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[4] = 0xFF; // bump the version field
        let err = Snapshot::read_from(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn layout_round_trips_through_v2() {
        let layout = PartitionLayout { world: 4, global_batch: 4, generation: 1, assignment: vec![0, 1, 2, 3, 0] };
        let s = sample().with_layout(layout.clone());
        let back = Snapshot::read_from(to_bytes(&s).as_slice()).unwrap();
        assert_eq!(back.layout.as_ref(), Some(&layout));
        assert_eq!(back, s);
    }

    #[test]
    fn dataset_id_round_trips_through_v3() {
        let s = Snapshot { dataset_id: Some("tgds-00deadbeef001234".into()), ..sample() };
        let back = Snapshot::read_from(to_bytes(&s).as_slice()).unwrap();
        assert_eq!(back.dataset_id.as_deref(), Some("tgds-00deadbeef001234"));
        assert_eq!(back, s);
    }

    /// The byte stream an older writer produced: same framing, the older
    /// version number, and a manifest without the keys that revision
    /// predates.
    fn to_old_bytes(s: &Snapshot, version: u32, absent: &[&str]) -> Vec<u8> {
        let current = to_bytes(s);
        let (mut manifest, payload): (Value, _) = FORMAT.parse(&current).unwrap();
        let Value::Object(fields) = &mut manifest else { panic!("manifest is an object") };
        fields.retain(|(key, _)| !absent.contains(&key.as_str()));
        for (key, value) in fields.iter_mut() {
            if key == "format_version" {
                *value = version.to_json();
            }
        }
        let mut out = Vec::new();
        Format { versions: version..=version, ..FORMAT }.write(&mut out, &manifest, payload).unwrap();
        out
    }

    fn to_v2_bytes(s: &Snapshot) -> Vec<u8> {
        to_old_bytes(s, FORMAT_VERSION_V2, &["dataset_id"])
    }

    fn to_v1_bytes(s: &Snapshot) -> Vec<u8> {
        to_old_bytes(s, FORMAT_VERSION_V1, &["layout", "dataset_id"])
    }

    #[test]
    fn version_2_files_remain_readable() {
        let layout = PartitionLayout { world: 2, global_batch: 2, generation: 3, assignment: vec![0, 1, 1] };
        let s = sample().with_layout(layout.clone());
        let bytes = to_v2_bytes(&s);
        let back = Snapshot::read_from(bytes.as_slice()).unwrap();
        assert_eq!(back.state, s.state);
        assert_eq!(back.params, s.params);
        assert_eq!(back.layout.as_ref(), Some(&layout), "v2 layout survives");
        assert!(back.dataset_id.is_none(), "v2 files predate the dataset identity");
        // Re-saving upgrades the file to the current revision.
        let rewritten = to_bytes(&back);
        assert_eq!(rewritten[4], FORMAT_VERSION as u8);
        assert_eq!(Snapshot::read_from(rewritten.as_slice()).unwrap(), back);
    }

    #[test]
    fn v2_corruption_is_still_detected() {
        let bytes = to_v2_bytes(&sample());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                Snapshot::read_from(corrupt.as_slice()).is_err(),
                "v2 bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn version_1_files_remain_readable() {
        let s = sample();
        let bytes = to_v1_bytes(&s);
        let back = Snapshot::read_from(bytes.as_slice()).unwrap();
        assert_eq!(back.state, s.state);
        assert_eq!(back.params, s.params);
        assert!(back.layout.is_none(), "v1 files predate the layout field");
        // Re-saving upgrades the file to the current revision.
        let rewritten = to_bytes(&back);
        assert_eq!(rewritten[4], FORMAT_VERSION as u8);
        assert_eq!(Snapshot::read_from(rewritten.as_slice()).unwrap(), back);
    }

    #[test]
    fn v1_corruption_is_still_detected() {
        let bytes = to_v1_bytes(&sample());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                Snapshot::read_from(corrupt.as_slice()).is_err(),
                "v1 bit flip at byte {i} went undetected"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Round-trip over random shapes and values, including moments.
        #[test]
        fn round_trip_random_snapshots(
            rows in 1usize..6,
            cols in 1usize..6,
            vals in torchgt_compat::proptest::collection::vec(-1e6f32..1e6, 1..36),
            epoch in 0usize..1000,
            steps in 0u64..100_000,
        ) {
            let n = rows * cols;
            let take = |off: usize| -> Vec<f32> {
                (0..n).map(|i| vals[(off + i) % vals.len()]).collect()
            };
            let ps = ParamState { rows, cols, value: take(0), m: take(1), v: take(2) };
            let snap = Snapshot {
                state: TrainerState::basic(epoch, steps),
                params: vec![ps],
                layout: None,
                dataset_id: None,
            };
            let mut buf = Vec::new();
            snap.write_to(&mut buf).unwrap();
            let back = Snapshot::read_from(buf.as_slice()).unwrap();
            prop_assert_eq!(back, snap);
        }

        /// A random bit flip anywhere in the file must be detected, and a
        /// failed load must leave target params unmutated.
        #[test]
        fn random_bit_flip_rejected_without_partial_mutation(
            byte_frac in 0.0f64..1.0,
            bit in 0u32..8,
        ) {
            let s = sample();
            let mut bytes = to_bytes(&s);
            let idx = ((bytes.len() - 1) as f64 * byte_frac) as usize;
            bytes[idx] ^= 1 << bit;
            let res = Snapshot::read_from(bytes.as_slice());
            prop_assert!(res.is_err(), "flip at byte {} bit {} accepted", idx, bit);
        }
    }
}
