//! The training-state data model carried in a snapshot's JSON manifest.
//!
//! These structs are deliberately plain (no dependency on `torchgt-runtime`)
//! so the snapshot format sits *below* the trainers: the runtime converts
//! its live objects (AutoTuner, InterleaveScheduler, optimizer, dropout
//! layers) to and from these records.

use std::io;
use torchgt_compat::json::{self, FromJson, JsonError, ToJson, Value};
use torchgt_tensor::param::Param;
use torchgt_tensor::tensor::Tensor;

torchgt_compat::json_struct! {
    /// Shape of one checkpointed tensor (row-major 2-D, as everywhere in
    /// `torchgt-tensor`).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct TensorShape {
        pub rows: usize,
        pub cols: usize,
    }
}

torchgt_compat::json_struct! {
    /// AutoTuner position and observation histories. The LDR comparison in
    /// `AutoTuner::observe` looks back `delta` entries, so the histories —
    /// not just the ladder index — must survive a restart for the resumed
    /// run's β_thre transitions to match the uninterrupted run.
    #[derive(Clone, Debug, PartialEq)]
    pub struct TunerState {
        pub index: usize,
        pub f_history: Vec<f64>,
        pub ldr_history: Vec<f64>,
    }
}

torchgt_compat::json_struct! {
    /// Interleave-scheduler cursors: sparse/full attention interleaving
    /// depends on the *global* iteration count, which keeps advancing
    /// across epoch boundaries.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct SchedulerState {
        pub iteration: u64,
        pub sparse_iters: u64,
        pub full_iters: u64,
    }
}

torchgt_compat::json_struct! {
    /// Everything a trainer needs beyond raw tensors to resume bit-exactly.
    #[derive(Clone, Debug, PartialEq)]
    pub struct TrainerState {
        /// Completed epochs at snapshot time (the resume loop re-enters at
        /// this epoch index).
        pub epoch: usize,
        /// Adam step counter (bias correction depends on it).
        pub opt_steps: u64,
        /// Per-dropout mask-draw counters in model traversal order — the
        /// model's PRNG state, since each mask RNG is derived from
        /// `(seed, calls)`.
        pub rng_streams: Vec<u64>,
        /// Active sparsity threshold (node-level trainers only).
        pub beta_thre: Option<f64>,
        /// AutoTuner state (node-level trainers only).
        pub tuner: Option<TunerState>,
        /// Interleave-scheduler cursors (absent for trainers without one).
        pub scheduler: Option<SchedulerState>,
        /// Mean training loss of each completed epoch, for drivers that
        /// stitch a loss history across crash/restore cycles (empty for
        /// trainers that report losses only through their own stats).
        pub epoch_losses: Vec<f64>,
    }
}

impl TrainerState {
    /// Minimal state: epoch + optimizer steps, everything else absent.
    pub fn basic(epoch: usize, opt_steps: u64) -> Self {
        Self {
            epoch,
            opt_steps,
            rng_streams: Vec::new(),
            beta_thre: None,
            tuner: None,
            scheduler: None,
            epoch_losses: Vec::new(),
        }
    }
}

/// The partition layout in effect when a snapshot was taken. Parameters
/// are always stored canonically (unsharded, in model traversal order),
/// so the layout is *descriptive*, not structural: a restore at any
/// world size reads the same bytes and recomputes its own assignment.
/// Recording it lets an elastic restart report exactly which tokens
/// moved or were re-materialized relative to the snapshot's layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionLayout {
    /// Live world size when the snapshot was taken.
    pub world: usize,
    /// Sequences per optimizer step: the data-parallel job's initial world,
    /// kept across shrinks. Written only where it differs from `world`, so
    /// a manifest from before this key reads back with `global_batch ==
    /// world` and re-encodes to the same bytes.
    pub global_batch: usize,
    /// Membership generation when the snapshot was taken.
    pub generation: u64,
    /// Canonical token/sequence index → owning *global* rank id.
    pub assignment: Vec<u32>,
}

impl ToJson for PartitionLayout {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("world".to_string(), self.world.to_json()),
            ("generation".to_string(), self.generation.to_json()),
            ("assignment".to_string(), self.assignment.to_json()),
        ];
        if self.global_batch != self.world {
            fields.push(("global_batch".to_string(), self.global_batch.to_json()));
        }
        Value::Object(fields)
    }
}

impl FromJson for PartitionLayout {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let world: usize = json::field(v, "world")?;
        Ok(Self {
            world,
            global_batch: json::field::<Option<usize>>(v, "global_batch")?.unwrap_or(world),
            generation: json::field(v, "generation")?,
            assignment: json::field(v, "assignment")?,
        })
    }
}

/// One parameter's full optimizer-visible state: the value tensor plus the
/// Adam first/second moment buffers. Raw `Vec<f32>` rather than `Tensor` so
/// the payload codec stays trivially flat.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamState {
    /// Tensor rows.
    pub rows: usize,
    /// Tensor cols.
    pub cols: usize,
    /// Parameter values.
    pub value: Vec<f32>,
    /// Adam first moments.
    pub m: Vec<f32>,
    /// Adam second moments.
    pub v: Vec<f32>,
}

impl ParamState {
    /// Capture a live parameter (value + moments; gradients are transient
    /// and deliberately not stored — a snapshot is taken between steps).
    pub fn capture(p: &Param) -> Self {
        let (rows, cols) = p.value.shape();
        Self {
            rows,
            cols,
            value: p.value.data().to_vec(),
            m: p.m.data().to_vec(),
            v: p.v.data().to_vec(),
        }
    }

    /// The shape record stored in the manifest.
    pub fn shape(&self) -> TensorShape {
        TensorShape { rows: self.rows, cols: self.cols }
    }

    /// Overwrite a live parameter's value and moment buffers. The caller
    /// (see [`crate::Snapshot::apply_params`]) validates shapes for the
    /// whole parameter set before any apply, keeping restores atomic.
    pub fn apply(&self, p: &mut Param) -> io::Result<()> {
        if p.value.shape() != (self.rows, self.cols) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "snapshot tensor is {}x{}, model expects {:?}",
                    self.rows,
                    self.cols,
                    p.value.shape()
                ),
            ));
        }
        p.value = Tensor::from_vec(self.rows, self.cols, self.value.clone());
        p.m = Tensor::from_vec(self.rows, self.cols, self.m.clone());
        p.v = Tensor::from_vec(self.rows, self.cols, self.v.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trainer_state_json_round_trip() {
        let s = TrainerState {
            epoch: 3,
            opt_steps: 42,
            rng_streams: vec![7, 7, 8],
            beta_thre: Some(0.5),
            tuner: Some(TunerState {
                index: 2,
                f_history: vec![1.25, 1.0],
                ldr_history: vec![0.5, 0.75],
            }),
            scheduler: Some(SchedulerState { iteration: 10, sparse_iters: 8, full_iters: 2 }),
            epoch_losses: vec![2.5, 1.75, 1.5],
        };
        let text = json::to_string(&s).unwrap();
        let back: TrainerState = json::from_str_as(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn basic_state_round_trips_with_nulls() {
        let s = TrainerState::basic(0, 0);
        let text = json::to_string(&s).unwrap();
        let back: TrainerState = json::from_str_as(&text).unwrap();
        assert_eq!(back, s);
        assert!(back.tuner.is_none() && back.scheduler.is_none());
    }

    #[test]
    fn partition_layout_json_round_trip() {
        let l = PartitionLayout { world: 3, global_batch: 3, generation: 2, assignment: vec![0, 0, 2, 3, 3] };
        let text = json::to_string(&l).unwrap();
        assert!(!text.contains("global_batch"), "{text}");
        let back: PartitionLayout = json::from_str_as(&text).unwrap();
        assert_eq!(back, l);
        // After a shrink the global batch outlives the world it started at.
        let shrunk = PartitionLayout { world: 2, global_batch: 3, ..l };
        let back: PartitionLayout = json::from_str_as(&json::to_string(&shrunk).unwrap()).unwrap();
        assert_eq!(back, shrunk);
    }

    #[test]
    fn param_state_capture_and_apply() {
        let mut p = Param::new(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        p.m = Tensor::full(2, 2, 0.5);
        p.v = Tensor::full(2, 2, 0.25);
        let st = ParamState::capture(&p);
        let mut fresh = Param::new(Tensor::zeros(2, 2));
        st.apply(&mut fresh).unwrap();
        assert_eq!(fresh.value.data(), p.value.data());
        assert_eq!(fresh.m.data(), p.m.data());
        assert_eq!(fresh.v.data(), p.v.data());

        let mut wrong = Param::new(Tensor::zeros(3, 2));
        assert!(st.apply(&mut wrong).is_err());
    }
}
