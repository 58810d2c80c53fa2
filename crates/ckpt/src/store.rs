//! Snapshot directory management: atomic publication, retention, and the
//! corrupt-snapshot fallback ladder.
//!
//! Snapshots are published through [`frame::publish`] (write, fsync, then
//! rename to the final `snapshot-NNNNNN.tgtck` name), so a crash mid-write
//! never leaves a half-written file under a name the resume path would
//! pick up — `latest()` only ever sees fully-published snapshots.
//!
//! Reads go through [`frame::read_healing`]. When the newest snapshot is
//! *genuinely* corrupt, [`CheckpointStore::load_latest`] renames it to
//! `*.quarantined` and walks back through the keep-last-K set, emitting a
//! `SNAPSHOT_FALLBACK` event — resume degrades to losing at most K−1 epochs
//! of progress instead of failing hard.

use crate::frame;
use crate::snapshot::Snapshot;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use torchgt_obs::RecorderHandle;

/// File extension for published snapshots.
pub const SNAPSHOT_EXT: &str = "tgtck";

/// Suffix appended to a corrupt snapshot when `load_latest` quarantines it
/// (the file keeps its original name underneath, for post-mortems).
pub const QUARANTINE_SUFFIX: &str = "quarantined";

/// Manages a directory of epoch-numbered snapshots with a keep-last-K
/// retention policy.
#[derive(Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep_last: usize,
    recorder: RecorderHandle,
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("keep_last", &self.keep_last)
            .finish_non_exhaustive()
    }
}

impl CheckpointStore {
    /// Open (creating if needed) a snapshot directory. `keep_last` bounds
    /// how many snapshots survive pruning; it is clamped to at least 1.
    pub fn new(dir: impl Into<PathBuf>, keep_last: usize) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, keep_last: keep_last.max(1), recorder: torchgt_obs::noop() })
    }

    /// Emit recovery events (`IO_RETRY`, `SNAPSHOT_FALLBACK`) through
    /// `recorder`.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Published path for a given epoch.
    pub fn path_for(&self, epoch: usize) -> PathBuf {
        self.dir.join(format!("snapshot-{epoch:06}.{SNAPSHOT_EXT}"))
    }

    /// Atomically and durably publish a snapshot (named by
    /// `snapshot.state.epoch`), then prune to the retention limit. Returns
    /// the published path.
    pub fn save(&self, snapshot: &Snapshot) -> io::Result<PathBuf> {
        let final_path = self.path_for(snapshot.state.epoch);
        frame::publish(&final_path, true, |w| snapshot.write_to(w))?;
        self.prune()?;
        Ok(final_path)
    }

    /// Epochs with a published snapshot, ascending.
    pub fn epochs(&self) -> io::Result<Vec<usize>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(&format!(".{SNAPSHOT_EXT}")) else { continue };
            let Some(num) = stem.strip_prefix("snapshot-") else { continue };
            if let Ok(epoch) = num.parse::<usize>() {
                out.push(epoch);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// The newest published epoch, if any.
    pub fn latest(&self) -> io::Result<Option<usize>> {
        Ok(self.epochs()?.pop())
    }

    /// Load the snapshot for a specific epoch through the self-healing
    /// ladder; the read is routed through the shared fault plane
    /// ([`torchgt_faults::read_file`]) so `TGTS` reads are injectable.
    pub fn load(&self, epoch: usize) -> io::Result<Snapshot> {
        let path = self.path_for(epoch);
        frame::read_healing(&path, &self.recorder, &mut 0, || {
            Snapshot::read_from(&torchgt_faults::read_file(&path)?)
        })
    }

    /// Load the newest loadable snapshot, if any. When the newest snapshot
    /// is corrupt (after the healing retries in [`CheckpointStore::load`]),
    /// it is renamed to `*.quarantined` and the walk continues backwards
    /// through the keep-last-K set, emitting a `SNAPSHOT_FALLBACK` event on
    /// success. Returns `Ok(None)` for an empty store and an error only
    /// when snapshots exist but none survive.
    pub fn load_latest(&self) -> io::Result<Option<Snapshot>> {
        let mut epochs = self.epochs()?;
        if epochs.is_empty() {
            return Ok(None);
        }
        let newest = *epochs.last().expect("non-empty");
        let mut last_reason = String::new();
        while let Some(epoch) = epochs.pop() {
            match self.load(epoch) {
                Ok(snapshot) => {
                    if epoch != newest && self.recorder.enabled() {
                        self.recorder.event(torchgt_obs::Event::snapshot_fallback(
                            newest,
                            epoch,
                            &last_reason,
                        ));
                        self.recorder.counter_add("snapshot_fallbacks", 1);
                    }
                    return Ok(Some(snapshot));
                }
                Err(e) if torchgt_faults::is_corruption(&e) => {
                    last_reason = e.to_string();
                    self.quarantine(epoch)?;
                }
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "every snapshot in {} is corrupt (all quarantined); last failure: {last_reason}",
                self.dir.display()
            ),
        ))
    }

    /// Rename a corrupt snapshot out of the resume path, keeping the bytes
    /// for post-mortems: `snapshot-NNNNNN.tgtck` →
    /// `snapshot-NNNNNN.tgtck.quarantined`.
    fn quarantine(&self, epoch: usize) -> io::Result<()> {
        let path = self.path_for(epoch);
        let mut target = path.clone().into_os_string();
        target.push(format!(".{QUARANTINE_SUFFIX}"));
        fs::rename(&path, PathBuf::from(target))
    }

    /// Delete all but the newest `keep_last` snapshots.
    fn prune(&self) -> io::Result<()> {
        let epochs = self.epochs()?;
        if epochs.len() > self.keep_last {
            for &old in &epochs[..epochs.len() - self.keep_last] {
                fs::remove_file(self.path_for(old))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::TrainerState;
    use crate::ParamState;

    fn snap(epoch: usize) -> Snapshot {
        Snapshot {
            state: TrainerState::basic(epoch, epoch as u64 * 10),
            params: vec![ParamState {
                rows: 1,
                cols: 2,
                value: vec![epoch as f32, 1.0],
                m: vec![0.0, 0.0],
                v: vec![0.0, 0.0],
            }],
            layout: None,
            dataset_id: None,
        }
    }

    fn temp_store(tag: &str, keep: usize) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("torchgt_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::new(dir, keep).unwrap()
    }

    #[test]
    fn save_load_latest() {
        let store = temp_store("basic", 3);
        assert!(store.load_latest().unwrap().is_none());
        store.save(&snap(0)).unwrap();
        store.save(&snap(1)).unwrap();
        let latest = store.load_latest().unwrap().unwrap();
        assert_eq!(latest.state.epoch, 1);
        assert_eq!(latest.params[0].value[0], 1.0);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn retention_keeps_last_k() {
        let store = temp_store("retention", 2);
        for e in 0..5 {
            store.save(&snap(e)).unwrap();
        }
        assert_eq!(store.epochs().unwrap(), vec![3, 4]);
        assert!(store.load(4).is_ok());
        assert!(store.load(0).is_err(), "pruned snapshot should be gone");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn no_temp_files_left_behind() {
        let store = temp_store("tmpfiles", 2);
        store.save(&snap(7)).unwrap();
        let stray: Vec<_> = fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temp files not cleaned up: {stray:?}");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn half_written_temp_is_invisible_to_latest() {
        let store = temp_store("halfwrite", 3);
        store.save(&snap(2)).unwrap();
        // Simulate a crash mid-write: a stray temp file with garbage bytes.
        fs::write(store.dir().join(".snapshot-000009.tmp"), b"garbage").unwrap();
        assert_eq!(store.latest().unwrap(), Some(2));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_and_quarantines() {
        let store = temp_store("fallback", 3);
        for e in 0..3 {
            store.save(&snap(e)).unwrap();
        }
        // Corrupt the newest snapshot on disk (flip a payload byte).
        let newest = store.path_for(2);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();

        let recorder = std::sync::Arc::new(torchgt_obs::MemoryRecorder::default());
        let store = store.with_recorder(recorder.clone());
        let restored = store.load_latest().unwrap().unwrap();
        assert_eq!(restored.state.epoch, 1, "must fall back to the previous epoch");
        // The bad file was renamed out of the resume path, not deleted.
        assert!(!newest.exists(), "corrupt snapshot must leave the resume path");
        let mut q = newest.into_os_string();
        q.push(format!(".{QUARANTINE_SUFFIX}"));
        assert!(PathBuf::from(q).exists(), "quarantined bytes must survive");
        assert_eq!(store.epochs().unwrap(), vec![0, 1]);
        // The fallback surfaced as an event.
        let report = recorder.report();
        let falls = report.events_of(torchgt_obs::Event::SNAPSHOT_FALLBACK);
        assert_eq!(falls.len(), 1);
        assert_eq!(falls[0].num("from_epoch"), Some(2.0));
        assert_eq!(falls[0].num("to_epoch"), Some(1.0));
        // A second load_latest sees a clean store: no further fallback.
        assert_eq!(store.load_latest().unwrap().unwrap().state.epoch, 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn all_snapshots_corrupt_is_an_error_and_empty_store_is_none() {
        let store = temp_store("allbad", 2);
        assert!(store.load_latest().unwrap().is_none(), "empty store stays None");
        for e in 0..2 {
            store.save(&snap(e)).unwrap();
            let p = store.path_for(e);
            let mut bytes = fs::read(&p).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            fs::write(&p, &bytes).unwrap();
        }
        let err = store.load_latest().unwrap_err();
        assert!(
            err.to_string().contains("all quarantined"),
            "exhausted walk-back must say so, got: {err}"
        );
        assert!(store.epochs().unwrap().is_empty(), "every bad file quarantined");
        let _ = fs::remove_dir_all(store.dir());
    }
}
