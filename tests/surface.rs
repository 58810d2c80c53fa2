//! The knob surface and the public surface, pinned by a plain source scan.
//!
//! Method. Every `.rs` file under `crates/*/src` and `src/` is read as
//! text and reduced to its *non-test* lines: a `#[cfg(test)]` attribute and
//! the item after it are dropped — through the next line that is exactly
//! `}` when the item opens a block, else just that one line — and so are
//! `//` comment lines. A file that another declares `#[cfg(test)] mod x;`
//! is test code and dropped whole, with any file under its module
//! directory. Over those lines:
//!
//! * **Environment knobs** — every string literal that is exactly a
//!   `TORCHGT_*` name (the form both `std::env::var("…")` and an `ENV_VAR`
//!   constant take) must be one of [`ALLOWED_ENV`]: the kernel backend, the
//!   thread count and fault injection.
//!   Scheduling and numerics are chosen by code, not by a variable read
//!   somewhere down the stack.
//! * **Public items** — a line that starts (after indentation) with `pub`,
//!   optionally `unsafe`, then `fn`, `struct`, `enum`, `trait`, `const`,
//!   `type`, `mod` or `use` counts as one item of its crate. `pub(crate)`
//!   and the like do not count. Each crate's count must not exceed its
//!   entry in [`PUB_CEILING`]: the surface only shrinks. When a change
//!   removes items, lower the ceiling to the new count in the same change.
//! * **One forward, one backward** — every layer, model, loss and attention
//!   kernel runs through the caller's `Workspace`; a line containing
//!   `&mut Workspace::new()` is an allocating twin of such a path, and only
//!   the entries of [`FRESH_ARENA_ALLOWED`] may have one.
//! * **One pricing seam** — the runtime trains on one simulated device,
//!   named in `engine.rs`; only that file and the Auto Tuner's `autotune.rs`
//!   (whose `tune_shape` takes a device) may name `GpuSpec`,
//!   `ClusterTopology` or `ModelShape`. Pricing on other hardware then
//!   changes one function, and every other runtime file reads a model's
//!   shape from the model.
//! * **One family tag** — the string literals `"gt"` and `"graphormer"`
//!   appear only in the model crate's `api.rs`, where `ModelKind` prints
//!   and parses them ([`FAMILY_TAG`]).
//! * **Panic sites** — the `.unwrap()`, `.expect(`, `assert!`, `assert_eq!`,
//!   `panic!` and `unreachable!` sites of each crate must not exceed its
//!   entry in [`PANIC_CEILING`]. The count is textual (a method of its own
//!   called `expect` counts too); it only goes down: a change that turns a
//!   panic into a typed error lowers the entry in the same change.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The only `TORCHGT_*` variables non-test code may read.
const ALLOWED_ENV: [&str; 3] = ["TORCHGT_BACKEND", "TORCHGT_THREADS", "TORCHGT_FAULTS"];

/// Per-crate ceiling on public items (`repro` is the root package: the
/// facade's `src/lib.rs` and the CLI).
const PUB_CEILING: &[(&str, usize)] = &[
    ("bench", 28),
    ("ckpt", 62),
    ("comm", 82),
    ("compat", 80),
    ("core", 46),
    ("data", 50),
    ("faults", 33),
    ("graph", 91),
    ("model", 100),
    ("obs", 77),
    ("perf", 47),
    ("repro", 2),
    ("runtime", 119),
    ("serve", 80),
    ("sparse", 24),
    ("tensor", 265),
];

/// Per-crate ceiling on panic sites (see the module docs).
const PANIC_CEILING: &[(&str, usize)] = &[
    ("bench", 2),
    ("ckpt", 5),
    ("comm", 10),
    ("compat", 13),
    ("core", 0),
    ("data", 4),
    ("faults", 0),
    ("graph", 12),
    ("model", 46),
    ("obs", 9),
    ("perf", 2),
    ("repro", 0),
    ("runtime", 24),
    ("serve", 7),
    ("sparse", 0),
    ("tensor", 104),
];

/// The runtime files that may name the simulated device's types.
const PRICING_SEAM: [&str; 2] = ["engine.rs", "autotune.rs"];

/// The one file that spells a model family's name, as `(crate, file)`.
const FAMILY_TAG: (&str, &str) = ("model", "api.rs");

/// The non-test lines allowed to run through a throwaway arena, as
/// `(crate, trimmed line)`: the allocating `attention::sparse`, kept only
/// because the frozen benchmark (`examples/perf_ledger`) pins it.
const FRESH_ARENA_ALLOWED: &[(&str, &str)] =
    &[("model", "sparse_ws(q, k, v, heads, mask, bias, &mut Workspace::new())")];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The non-test, non-comment lines of one source file (see the module docs).
fn non_test_lines(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let t = line.trim_start();
        if t == "#[cfg(test)]" {
            let item = lines.next().unwrap_or("");
            if item.trim_end().ends_with('{') {
                for rest in lines.by_ref() {
                    if rest == "}" {
                        break;
                    }
                }
            }
        } else if !t.starts_with("//") {
            out.push(line);
        }
    }
    out
}

/// Non-test lines of every source file, as `(crate, file, lines)`.
fn sources_by_file() -> Vec<(String, PathBuf, Vec<String>)> {
    let mut dirs: Vec<(String, PathBuf)> = vec![("repro".to_string(), root().join("src"))];
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path())
        .collect();
    crates.sort();
    for dir in crates {
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        dirs.push((name, dir.join("src")));
    }
    let mut out = Vec::new();
    for (name, src) in dirs {
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        let texts: Vec<(PathBuf, String)> = files
            .into_iter()
            .map(|f| {
                let text = std::fs::read_to_string(&f).expect("source file");
                (f, text)
            })
            .collect();
        let test_modules: Vec<PathBuf> = texts.iter().flat_map(|(f, text)| test_modules(f, text)).collect();
        for (f, text) in &texts {
            if test_modules.iter().any(|m| *f == m.with_extension("rs") || f.starts_with(m)) {
                continue;
            }
            let lines = non_test_lines(text).into_iter().map(str::to_string).collect();
            out.push((name.clone(), f.clone(), lines));
        }
    }
    out
}

/// The modules `file` declares as `#[cfg(test)] mod x;`, each as its path
/// without extension: the module is `<path>.rs` or lives under `<path>/`,
/// and all of it is test code.
fn test_modules(file: &Path, text: &str) -> Vec<PathBuf> {
    let stem = file.file_stem().unwrap_or_default();
    let parent = file.parent().unwrap_or(Path::new(""));
    let dir = if ["lib", "main", "mod"].iter().any(|s| stem == *s) { parent.to_path_buf() } else { parent.join(stem) };
    let mut lines = text.lines();
    let mut out = Vec::new();
    while let Some(line) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            continue;
        }
        let item = lines.next().unwrap_or("").trim();
        let item = item.strip_prefix("pub ").unwrap_or(item);
        if let Some(name) = item.strip_prefix("mod ").and_then(|m| m.strip_suffix(';')) {
            out.push(dir.join(name.trim()));
        }
    }
    out
}

/// Non-test lines of every source file, keyed by crate name.
fn sources_by_crate() -> BTreeMap<String, Vec<String>> {
    let mut by_crate: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (name, _, lines) in sources_by_file() {
        by_crate.entry(name).or_default().extend(lines);
    }
    by_crate
}

/// The string literals of `line`: the odd pieces between its quotes.
fn literals(line: &str) -> impl Iterator<Item = &str> {
    line.split('"').skip(1).step_by(2)
}

/// Every string literal in `line` that is exactly a `TORCHGT_*` name.
fn env_names(line: &str) -> Vec<String> {
    literals(line)
        .filter(|lit| {
            let name = |b: u8| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_';
            lit.strip_prefix("TORCHGT_").is_some_and(|rest| !rest.is_empty() && rest.bytes().all(name))
        })
        .map(str::to_string)
        .collect()
}

/// Whether `line` runs something through an arena made for the one call.
fn takes_a_fresh_arena(line: &str) -> bool {
    line.contains("&mut Workspace::new()")
}

/// How many panic sites `line` holds: `.unwrap()` and `.expect(` calls,
/// and the four panicking macros where the name is not the tail of a
/// longer identifier (`debug_assert!` does not count).
fn panic_sites(line: &str) -> usize {
    let methods = [".unwrap()", ".expect("].iter().map(|m| line.matches(m).count()).sum::<usize>();
    let macros = ["assert!", "assert_eq!", "panic!", "unreachable!"].iter().map(|m| {
        line.match_indices(m)
            .filter(|&(i, _)| !line[..i].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_'))
            .count()
    });
    methods + macros.sum::<usize>()
}

fn is_pub_item(line: &str) -> bool {
    let Some(rest) = line.trim_start().strip_prefix("pub ") else { return false };
    let rest = rest.strip_prefix("unsafe ").unwrap_or(rest);
    let kinds = ["fn ", "struct ", "enum ", "trait ", "const ", "type ", "mod ", "use "];
    kinds.iter().any(|k| rest.starts_with(k))
}

#[test]
fn scanner_skips_test_modules_and_comments() {
    let text = "pub fn a() {}\n// pub fn b() {}\n#[cfg(test)]\nmod tests {\n    pub fn c() {}\n}\n\
                #[cfg(test)]\nuse x::y;\npub fn d() {}\n";
    assert_eq!(non_test_lines(text), ["pub fn a() {}", "pub fn d() {}"]);
    let line = r#"std::env::var("TORCHGT_X1") + "TORCHGT_ is" + "TORCHGT_Y""#;
    assert_eq!(env_names(line), ["TORCHGT_X1", "TORCHGT_Y"]);
    assert!(is_pub_item("    pub unsafe fn k()") && !is_pub_item("pub(crate) fn k()"));
    let twins = "fn f(x: &T) -> T { f_ws(x, &mut Workspace::new()) }\nlet mut ws = Workspace::new();\n\
                 // f_ws(x, &mut Workspace::new())\n#[cfg(test)]\nmod tests {\n    g(&mut Workspace::new());\n}\n";
    let found: Vec<&str> = non_test_lines(twins).into_iter().filter(|l| takes_a_fresh_arena(l)).collect();
    assert_eq!(found, ["fn f(x: &T) -> T { f_ws(x, &mut Workspace::new()) }"]);
    assert_eq!(panic_sites("x.unwrap(); y.expect(\"e\"); assert!(a); assert_eq!(b, c);"), 4);
    assert_eq!(panic_sites("debug_assert!(a); x.unwrap_or(0); my_panic!(); panic!(); unreachable!()"), 2);
    let declares = "#[cfg(test)]\nmod oracle;\nmod kept;\n#[cfg(test)]\nmod tests {\n}\n";
    assert_eq!(test_modules(Path::new("s/lanes.rs"), declares), [Path::new("s/lanes/oracle")]);
    assert_eq!(test_modules(Path::new("s/lib.rs"), declares), [Path::new("s/oracle")]);
}

#[test]
fn files_declared_as_test_modules_are_not_scanned() {
    let scanned: Vec<PathBuf> = sources_by_file().into_iter().map(|(_, f, _)| f).collect();
    let oracle = root().join("crates/tensor/src/backend/lanes/oracle.rs");
    assert!(oracle.exists(), "the scanner's example test module moved: update this test");
    assert!(!scanned.contains(&oracle), "a `#[cfg(test)] mod` file was scanned as non-test code");
    assert!(scanned.contains(&root().join("crates/tensor/src/backend/lanes.rs")));
}

#[test]
fn only_the_allowed_torchgt_variables_are_read() {
    let mut found: BTreeMap<String, String> = BTreeMap::new();
    for (name, lines) in sources_by_crate() {
        for line in &lines {
            for var in env_names(line) {
                found.entry(var).or_insert_with(|| name.clone());
            }
        }
    }
    let unexpected: Vec<_> =
        found.iter().filter(|(v, _)| !ALLOWED_ENV.contains(&v.as_str())).collect();
    assert!(unexpected.is_empty(), "non-test code reads unlisted env vars (var, crate): {unexpected:?}");
    let mut expected: Vec<&str> = ALLOWED_ENV.to_vec();
    expected.sort_unstable();
    assert_eq!(found.keys().map(String::as_str).collect::<Vec<_>>(), expected);
}

/// Count `per_line` over each crate's non-test lines and check it against
/// `ceiling`: every crate over its entry (or missing from it) as
/// `crate: count (ceiling …)`, and all counts.
fn over_ceiling(ceiling: &[(&str, usize)], per_line: fn(&str) -> usize) -> (Vec<String>, BTreeMap<String, usize>) {
    let counts: BTreeMap<String, usize> = sources_by_crate()
        .into_iter()
        .map(|(name, lines)| (name, lines.iter().map(|l| per_line(l)).sum()))
        .collect();
    let ceiling: BTreeMap<&str, usize> = ceiling.iter().copied().collect();
    let mut over = Vec::new();
    for (name, &n) in &counts {
        match ceiling.get(name.as_str()) {
            Some(&max) if n <= max => {}
            max => over.push(format!("{name}: {n} (ceiling {max:?})")),
        }
    }
    (over, counts)
}

#[test]
fn public_items_per_crate_only_go_down() {
    let (over, counts) = over_ceiling(PUB_CEILING, |l| usize::from(is_pub_item(l)));
    assert!(over.is_empty(), "public surface grew: {over:?}\nall counts: {counts:?}");
}

#[test]
fn only_the_allowed_paths_run_through_a_throwaway_arena() {
    let mut unexpected = Vec::new();
    let mut allowed_seen = Vec::new();
    for (name, lines) in sources_by_crate() {
        for line in lines.iter().map(|l| l.trim()).filter(|l| takes_a_fresh_arena(l)) {
            match FRESH_ARENA_ALLOWED.iter().find(|&&entry| entry == (name.as_str(), line)) {
                Some(entry) => allowed_seen.push(*entry),
                None => unexpected.push(format!("{name}: {line}")),
            }
        }
    }
    assert!(
        unexpected.is_empty(),
        "allocating twins of a `_ws` path (take the caller's Workspace instead): {unexpected:?}"
    );
    assert_eq!(allowed_seen, FRESH_ARENA_ALLOWED, "an allow-listed entry is gone: drop it from the list");
}

#[test]
fn only_the_engine_and_the_auto_tuner_name_the_simulated_device() {
    let mut outside = Vec::new();
    for (name, file, lines) in sources_by_file() {
        let base = file.file_name().unwrap().to_string_lossy().into_owned();
        if name != "runtime" || PRICING_SEAM.contains(&base.as_str()) {
            continue;
        }
        let priced = ["GpuSpec", "ClusterTopology", "ModelShape"];
        for line in lines.iter().filter(|l| priced.iter().any(|name| l.contains(name))) {
            outside.push(format!("{base}: {}", line.trim()));
        }
    }
    assert!(
        outside.is_empty(),
        "runtime code names the simulated device or a model shape outside {PRICING_SEAM:?} \
         (use `engine::device()`, and read the shape from the model): {outside:?}"
    );
}

#[test]
fn only_the_family_tag_spells_a_model_family() {
    let mut outside = Vec::new();
    for (name, file, lines) in sources_by_file() {
        let base = file.file_name().unwrap().to_string_lossy().into_owned();
        if (name.as_str(), base.as_str()) == FAMILY_TAG {
            continue;
        }
        for line in lines.iter().filter(|l| literals(l).any(|lit| lit == "gt" || lit == "graphormer")) {
            outside.push(format!("{name}/{base}: {}", line.trim()));
        }
    }
    assert!(outside.is_empty(), "a model family spelled outside {FAMILY_TAG:?} (use `ModelKind`): {outside:?}");
}

#[test]
fn panic_sites_per_crate_only_go_down() {
    let (over, counts) = over_ceiling(PANIC_CEILING, panic_sites);
    assert!(over.is_empty(), "panic sites grew: {over:?}\nall counts: {counts:?}");
}

/// Bounds live in `cargo test`, not in the shell: `scripts/verify.sh` runs
/// no `awk` over bench output, and it runs the whole of `tests/gates.rs` in
/// release, so no case can be left out by a name filter.
#[test]
fn verify_script_runs_every_gate_and_checks_no_output() {
    let script = std::fs::read_to_string(root().join("scripts/verify.sh")).expect("scripts/verify.sh");
    assert!(!script.contains("awk"), "scripts/verify.sh checks a bound in awk: make it a case of tests/gates.rs");
    let gates: Vec<&str> = script.lines().filter(|l| l.contains("--test gates")).collect();
    assert!(
        gates.iter().any(|l| l.contains("--release") && l.trim_end().ends_with("--test gates")),
        "scripts/verify.sh must run `--test gates` in release without a name filter: {gates:?}"
    );
}

/// The name of the function `line` declares, if it declares one.
fn declared_fn(line: &str) -> Option<&str> {
    let t = line.trim_start();
    let t = t.strip_prefix("pub ").or_else(|| t.strip_prefix("pub(crate) ")).unwrap_or(t);
    t.strip_prefix("fn ")?.split(['(', '<']).next()
}

/// Whether `line` sorts by comparison: a `.sort…` call, or a collection
/// that keeps its keys ordered.
fn sorts(line: &str) -> bool {
    [".sort", "BTree", "BinaryHeap"].iter().any(|s| line.contains(s))
}

/// The functions of one graph-crate file that hold a comparison sort, in
/// source order.
fn sorting_fns(file: &str) -> Vec<String> {
    let (_, _, lines) = sources_by_file()
        .into_iter()
        .find(|(name, f, _)| name == "graph" && f.ends_with(file))
        .unwrap_or_else(|| panic!("crates/graph/src/{file} is gone: update this test"));
    let mut current = String::new();
    let mut out: Vec<String> = Vec::new();
    for line in &lines {
        if let Some(name) = declared_fn(line) {
            current = name.to_string();
        }
        if sorts(line) && out.last() != Some(&current) {
            out.push(current.clone());
        }
    }
    out
}

/// Set-up sorts only what reads an order. The partitioner's coarse rows
/// come unordered, so the one comparison sort in `partition.rs` is the
/// helper whose copy feeds `initial_bisection`'s BFS; `CsrGraph::from_edges`
/// (two counting passes) and `complete_graph` (rows written out) sort
/// nothing.
#[test]
fn set_up_sorts_only_what_the_bisection_reads() {
    assert_eq!(sorting_fns("partition.rs"), ["with_sorted_rows"], "graph/src/partition.rs sorts outside the bisection's helper");
    let partition = std::fs::read_to_string(root().join("crates/graph/src/partition.rs")).expect("partition.rs");
    assert!(
        partition.lines().any(|l| l.contains("initial_bisection(&g.with_sorted_rows()")),
        "`initial_bisection` no longer reads the sorted copy"
    );
    assert!(!sorting_fns("csr.rs").iter().any(|f| f == "from_edges"), "CsrGraph::from_edges sorts");
    assert!(!sorting_fns("generators.rs").iter().any(|f| f == "complete_graph"), "complete_graph sorts");
}
