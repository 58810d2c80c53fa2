//! Cross-commit byte compatibility of the four on-disk formats.
//!
//! `tests/fixtures/` holds one small file per format, written by the commit
//! *before* the formats moved onto the shared `torchgt_ckpt::frame`
//! container. Each must still load, and re-encoding what was loaded must
//! reproduce the file byte for byte — so a reader or writer change that
//! alters any format's bytes fails here, not in a week-old run's resume.

use std::path::{Path, PathBuf};
use torchgt::ckpt::Snapshot;
use torchgt::data::{load_node_dataset, Manifest, Shard, MANIFEST_FILE};
use torchgt::serve::FrozenModel;

/// `Manifest::hash()` of the fixture dataset, as printed by the commit that
/// wrote it. Shard bytes feed the manifest's per-shard CRCs and the manifest
/// JSON feeds the hash, so drift in either changes every dataset identity
/// (and with it every `TGTS`/`TGTF` provenance check).
const FIXTURE_DATASET_HASH: &str = "tgds-e655f278765f53c5";

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(fixtures().join(name)).expect("fixture is committed")
}

#[test]
fn tgts_v3_fixture_re_encodes_to_identical_bytes() {
    let bytes = fixture("snapshot_v3.tgts");
    let snapshot = Snapshot::read_from(&bytes).expect("parent-commit TGTS loads");
    assert_eq!(snapshot.state.epoch, 4);
    assert_eq!(snapshot.params.len(), 2);
    assert_eq!(
        snapshot.dataset_id.as_deref(),
        Some("tgds-0123456789abcdef")
    );
    let mut again = Vec::new();
    snapshot.write_to(&mut again).unwrap();
    assert_eq!(again, bytes);
}

#[test]
fn tgtf_v2_fixture_re_encodes_to_identical_bytes() {
    let bytes = fixture("frozen_v2.tgtf");
    let frozen = FrozenModel::read_from(&bytes).expect("parent-commit TGTF loads");
    assert_eq!(frozen.tensors.len(), 2);
    assert_eq!(
        frozen,
        FrozenModel::load(&fixtures().join("frozen_v2.tgtf")).unwrap()
    );
    let mut again = Vec::new();
    frozen.write_to(&mut again).unwrap();
    assert_eq!(again, bytes);
}

#[test]
fn tgds_and_tgdm_fixtures_re_encode_and_keep_the_dataset_identity() {
    let shard_bytes = fixture("shard-00000.tgds");
    let shard = Shard::read_from(&shard_bytes).expect("parent-commit TGDS loads");
    assert_eq!(shard.to_bytes().unwrap(), shard_bytes);

    let manifest = Manifest::load_dir(&fixtures()).expect("parent-commit TGDM loads");
    assert_eq!(manifest.to_bytes().unwrap(), fixture(MANIFEST_FILE));
    assert_eq!(manifest.hash(), FIXTURE_DATASET_HASH);

    // The manifest's size and CRC entry still describe the shard file.
    let dataset = load_node_dataset(&fixtures()).expect("verified reader accepts the pair");
    assert_eq!(dataset.labels, shard.labels);
}
