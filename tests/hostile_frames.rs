//! Hostile manifests: frames whose checksums are *correct* but whose
//! manifest declares tensors far larger than the file. Before the formats
//! shared `torchgt_ckpt::frame`, each reader sized a buffer from the
//! declared length (`vec![0u8; payload_len]`, SIGABRT at 13 TB) and
//! multiplied declared dimensions unchecked (overflow panic). Every such
//! frame must now yield a typed error, with no allocation sized by a
//! length field — which a counting global allocator observes directly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use torchgt::ckpt::frame::Format;
use torchgt::ckpt::{snapshot, Snapshot};
use torchgt::data::{load_node_dataset, manifest, shard, Manifest, Shard, ShardLoader, MANIFEST_FILE};
use torchgt::serve::{frozen, FrozenModel};
use torchgt::runtime::Method;
use torchgt::TorchGtBuilder;
use torchgt_compat::json::{ToJson, Value};

/// Largest single allocation any thread of this test binary has requested.
static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

struct WatchedAlloc;

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a relaxed counter update.
unsafe impl GlobalAlloc for WatchedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: WatchedAlloc = WatchedAlloc;

/// Far above anything a sub-kilobyte fixture needs, far below 2^40.
const ALLOC_CEILING: usize = 1 << 20;

const HUGE: u64 = 1 << 40;
const WRAPS: u64 = 1 << 32; // WRAPS * WRAPS overflows u64

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(path).expect("fixture is committed")
}

/// Rewrite manifest keys of a valid frame and re-frame it around the
/// original payload: the result has a correct manifest CRC and a correct
/// payload CRC, exactly what an attacker (or a buggy writer) can produce.
fn reframe(format: &Format, bytes: &[u8], edits: &[(&str, Value)]) -> Vec<u8> {
    let (mut manifest, payload): (Value, _) = format.parse(bytes).expect("fixture is valid");
    let Value::Object(fields) = &mut manifest else {
        panic!("manifest is an object")
    };
    for (key, value) in edits {
        let slot = fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("key exists");
        slot.1 = value.clone();
    }
    let mut out = Vec::new();
    format.write(&mut out, &manifest, payload).unwrap();
    out
}

fn assert_typed_error<T>(what: &str, result: std::io::Result<T>) {
    let err = result
        .err()
        .unwrap_or_else(|| panic!("{what}: hostile frame accepted"));
    assert!(
        torchgt::faults::is_corruption(&err),
        "{what}: wrong error class: {err}"
    );
    let largest = LARGEST_REQUEST.load(Ordering::Relaxed);
    assert!(
        largest < ALLOC_CEILING,
        "{what}: a {largest}-byte allocation was requested"
    );
}

fn shapes(rows: u64, cols: u64) -> Value {
    Value::Array(vec![torchgt_compat::json!({ "rows": rows, "cols": cols })])
}

#[test]
fn tgts_declaring_terabytes_is_a_typed_error() {
    let bytes = fixture("snapshot_v3.tgts");
    let declared = reframe(
        &snapshot::FORMAT,
        &bytes,
        &[
            ("shapes", shapes(HUGE, 1)),
            ("payload_len", (12 * HUGE).to_json()),
        ],
    );
    assert_typed_error("TGTS 2^40 x 1", Snapshot::read_from(&declared));
    // Honest payload length, dimensions whose product overflows.
    let wrapping = reframe(
        &snapshot::FORMAT,
        &bytes,
        &[("shapes", shapes(WRAPS, WRAPS))],
    );
    assert_typed_error("TGTS 2^32 x 2^32", Snapshot::read_from(&wrapping));
    // Honest payload length, dimensions that simply need more than is there.
    let oversized = reframe(&snapshot::FORMAT, &bytes, &[("shapes", shapes(HUGE, 1))]);
    assert_typed_error(
        "TGTS shapes beyond payload",
        Snapshot::read_from(&oversized),
    );
}

#[test]
fn tgtf_declaring_terabytes_is_a_typed_error() {
    let bytes = fixture("frozen_v2.tgtf");
    let declared = reframe(
        &frozen::FORMAT,
        &bytes,
        &[
            ("shapes", shapes(HUGE, 1)),
            ("payload_len", (5 * HUGE).to_json()),
        ],
    );
    assert_typed_error("TGTF 2^40 x 1", FrozenModel::read_from(&declared));
    let wrapping = reframe(&frozen::FORMAT, &bytes, &[("shapes", shapes(WRAPS, WRAPS))]);
    assert_typed_error("TGTF 2^32 x 2^32", FrozenModel::read_from(&wrapping));
    let oversized = reframe(&frozen::FORMAT, &bytes, &[("shapes", shapes(1, HUGE))]);
    assert_typed_error(
        "TGTF shapes beyond payload",
        FrozenModel::read_from(&oversized),
    );
}

#[test]
fn tgds_declaring_terabytes_is_a_typed_error() {
    let bytes = fixture("shard-00000.tgds");
    let declared = reframe(
        &shard::FORMAT,
        &bytes,
        &[
            ("node_count", HUGE.to_json()),
            ("total_nodes", HUGE.to_json()),
            ("payload_len", (4 * (4 * HUGE + 6)).to_json()),
        ],
    );
    assert_typed_error("TGDS 2^40 nodes", Shard::read_from(&declared));
    let wrapping = reframe(
        &shard::FORMAT,
        &bytes,
        &[
            ("node_count", WRAPS.to_json()),
            ("total_nodes", WRAPS.to_json()),
            ("feat_dim", WRAPS.to_json()),
        ],
    );
    assert_typed_error(
        "TGDS 2^32 nodes x 2^32 features",
        Shard::read_from(&wrapping),
    );
    let range = reframe(
        &shard::FORMAT,
        &bytes,
        &[("node_start", u64::MAX.to_json())],
    );
    assert_typed_error("TGDS node range overflow", Shard::read_from(&range));
    let arcs = reframe(&shard::FORMAT, &bytes, &[("num_arcs", HUGE.to_json())]);
    assert_typed_error("TGDS arcs beyond payload", Shard::read_from(&arcs));
}

#[test]
fn tgdm_declaring_terabytes_is_a_typed_error() {
    // A dataset directory whose shard is the honest fixture and whose
    // manifest (correct CRC) declares `edits` on top of the fixture's
    // fields: both whole-dataset readers must refuse it before sizing
    // anything by it — `load_node_dataset` its feature and arc buffers,
    // the streaming trainer its per-node split marks.
    let check = |what: &str, top: &[(&str, u64)], entry: &[(&str, u64)]| {
        let tag: String = what.chars().filter(char::is_ascii_alphanumeric).collect();
        let dir = std::env::temp_dir().join(format!("tgt-hostile-tgdm-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("shard-00000.tgds"), fixture("shard-00000.tgds")).unwrap();
        let bytes = fixture(MANIFEST_FILE);
        let (honest, _): (Value, _) = manifest::FORMAT.parse(&bytes).expect("fixture is valid");
        let Some(Value::Array(shards)) = honest.get("shards").cloned() else {
            panic!("manifest lists shards")
        };
        let Value::Object(mut fields) = shards[0].clone() else { panic!("entry is an object") };
        for (key, value) in entry {
            fields.iter_mut().find(|(k, _)| k == key).expect("key exists").1 = value.to_json();
        }
        let mut edits: Vec<(&str, Value)> = top.iter().map(|(k, v)| (*k, v.to_json())).collect();
        edits.push(("shards", Value::Array(vec![Value::Object(fields)])));
        std::fs::write(dir.join(MANIFEST_FILE), reframe(&manifest::FORMAT, &bytes, &edits)).unwrap();
        if entry.iter().any(|(key, _)| *key == "bytes") {
            // A manifest at odds with the shard file's length is refused as
            // the directory is opened, by name.
            let err = Manifest::load_dir(&dir).expect_err(what).to_string();
            assert!(err.contains("shard-00000.tgds") && err.contains("bytes on disk"), "{what}: {err}");
        }
        assert_typed_error(&format!("{what} (load_node_dataset)"), load_node_dataset(&dir));
        let streamed = ShardLoader::open(&dir)
            .map(|loader| TorchGtBuilder::new(Method::GpSparse).build_streaming(loader).map(drop));
        assert_typed_error(&format!("{what} (build_streaming)"), streamed);
        let _ = std::fs::remove_dir_all(&dir);
    };
    check("TGDM 2^40 nodes", &[("total_nodes", HUGE)], &[("node_count", HUGE)]);
    check(
        "TGDM 2^32 nodes x 2^32 features",
        &[("total_nodes", WRAPS), ("feat_dim", WRAPS)],
        &[("node_count", WRAPS)],
    );
    check("TGDM 2^40 arcs", &[("total_arcs", HUGE)], &[("num_arcs", HUGE)]);
    // `bytes` inflated until the declared shapes pass the manifest's own
    // bound (the fixture shard is 275 bytes), and deflated by one.
    check(
        "TGDM 2^40 nodes under inflated bytes",
        &[("total_nodes", HUGE)],
        &[("node_count", HUGE), ("bytes", 64 * HUGE)],
    );
    check("TGDM deflated bytes", &[], &[("bytes", 274)]);
}

/// A real `TGTF` artifact, small enough for this binary's allocation
/// ceiling: an untrained one-block GT frozen over a twelve-node ring.
fn small_artifact() -> Vec<u8> {
    use torchgt::graph::CsrGraph;
    use torchgt::serve::{CalibSet, FreezeOptions, ModelSpec, QuantScheme};
    use torchgt::tensor::Tensor;
    let (nodes, feat_dim) = (12, 4);
    let edges: Vec<(u32, u32)> = (0..nodes as u32).map(|v| (v, (v + 1) % nodes as u32)).collect();
    let graph = CsrGraph::from_edges(nodes, &edges);
    let calib = CalibSet {
        features: Tensor::from_vec(nodes, feat_dim, (0..nodes * feat_dim).map(|i| (i % 7) as f32 * 0.1).collect()),
        mask: graph.with_self_loops(),
        graph,
        labels: (0..nodes as u32).map(|v| v % 3).collect(),
        eval: (0..nodes as u32).collect(),
    };
    let spec = ModelSpec {
        kind: "gt".into(),
        feat_dim,
        hidden: 8,
        layers: 1,
        heads: 2,
        ffn_mult: 2,
        out_dim: 3,
        pe_dim: 2,
        max_degree: 0,
        max_spd: 0,
        seed: 5,
    };
    let mut model = spec.build().expect("spec builds");
    let opts = FreezeOptions { scheme: QuantScheme::Int8, max_acc_drop: 1.0 };
    let frozen = torchgt::serve::freeze::freeze_model(model.as_mut(), &calib, opts, 5).expect("ungated freeze");
    let mut bytes = Vec::new();
    frozen.write_to(&mut bytes).unwrap();
    bytes
}

/// A spec that parses but cannot describe the artifact's tensors — a head
/// count that does not divide the width (or is zero), or a layer count or
/// width the payload does not back — is refused before the model is built:
/// a typed error from the executor, no panic, no allocation the spec sized.
#[test]
fn tgtf_spec_at_odds_with_its_tensors_is_a_typed_error() {
    use torchgt::serve::{FrozenExecutor, ModelSpec};
    let bytes = small_artifact();
    let spec = FrozenModel::read_from(&bytes).expect("the artifact reads").spec;
    FrozenExecutor::new(&FrozenModel::read_from(&bytes).unwrap()).expect("the artifact as written serves");
    let hostile = [
        ("3 heads over hidden 8", ModelSpec { heads: 3, ..spec.clone() }),
        ("0 heads", ModelSpec { heads: 0, ..spec.clone() }),
        ("2^40 layers", ModelSpec { layers: HUGE as usize, ..spec.clone() }),
        ("hidden 2^20", ModelSpec { hidden: 1 << 20, ..spec.clone() }),
    ];
    for (what, hostile) in hostile {
        let reframed = reframe(&frozen::FORMAT, &bytes, &[("spec", hostile.to_json())]);
        let model = FrozenModel::read_from(&reframed).expect("the spec parses");
        assert_typed_error(&format!("TGTF {what}"), FrozenExecutor::new(&model));
    }
}
