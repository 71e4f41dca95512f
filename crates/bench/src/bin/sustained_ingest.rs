//! Sustained mixed-workload ingest: Gauss-forest vs single-tree writes.
//!
//! The tentpole measurement for the LSM-style write path. One fixed-seed
//! drifting-sensor stream (upserts, fresh sensors and deletes from
//! [`gauss_workloads::drift`]) is applied twice, file-backed both times:
//!
//! * **single tree**: the paper's index mutated directly (shadow-paged,
//!   like every `GaussTree` mutation) — an upsert is a read-modify-write
//!   (`delete` of the old parameters + `insert`), with
//!   a `flush` commit every `--memtable` operations so both sides pay the
//!   same commit cadence;
//! * **forest**: the same ops through [`GaussForest`]'s memtable/flush
//!   write path, with `maintain()` merges driven inside the timed region
//!   (write amplification is *not* hidden from the clock).
//!
//! While the forest ingests, every `--probe-every` events a snapshot is
//! pinned and a k-MLIQ runs on it; those latencies produce the reported
//! p99, demonstrating reads stay serviceable mid-ingest. After both runs
//! the stream's live set is bulk-loaded into a fresh reference tree and
//! the forest's k-MLIQ answers are asserted **bit-identical** to it
//! (ids, order and `log_density` bits).
//!
//! Run: `cargo run --release -p gauss_bench --bin sustained_ingest`
//! Flags: `--events N` (default 60000), `--dims D` (default 8),
//! `--memtable M` (default 4096), `--sensors S` (default 1024),
//! `--probe-every P` (default 2000), `--json PATH`.

use gauss_bench::{arg_value, JsonObj};
use gauss_storage::forest::DirComponentStores;
use gauss_storage::{AccessStats, BufferPool, FileStore, DEFAULT_PAGE_SIZE};
use gauss_tree::{ForestOptions, GaussForest, GaussTree, ReadView, TreeConfig, TreeOptions};
use gauss_workloads::{DriftConfig, DriftStream, SigmaSpec, StreamOp};
use pfv::Pfv;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

const CACHE_BYTES: usize = 50 * 1024 * 1024;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let d = std::env::temp_dir().join(format!("gauss-sustained-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).expect("temp dir");
        Self(d)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Replays `ops` against a plain map — the ground-truth live set.
fn live_set(ops: &[StreamOp]) -> Vec<(u64, Pfv)> {
    let mut live: HashMap<u64, Pfv> = HashMap::new();
    for op in ops {
        match op {
            StreamOp::Upsert(id, v) => {
                live.insert(*id, v.clone());
            }
            StreamOp::Delete(id) => {
                live.remove(id);
            }
        }
    }
    let mut items: Vec<(u64, Pfv)> = live.into_iter().collect();
    items.sort_by_key(|(id, _)| *id);
    items
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let events: usize =
        arg_value(&args, "--events").map_or(60_000, |v| v.parse().expect("--events"));
    let dims: usize = arg_value(&args, "--dims").map_or(8, |v| v.parse().expect("--dims"));
    let memtable: usize =
        arg_value(&args, "--memtable").map_or(4096, |v| v.parse().expect("--memtable"));
    let sensors: usize =
        arg_value(&args, "--sensors").map_or(1024, |v| v.parse().expect("--sensors"));
    let probe_every: usize =
        arg_value(&args, "--probe-every").map_or(2000, |v| v.parse().expect("--probe-every"));
    let json_path = arg_value(&args, "--json");
    let k = 10usize;

    let drift = DriftConfig {
        initial_sensors: sensors,
        dims,
        sigma: SigmaSpec::uniform(0.05, 0.4),
        update_fraction: 0.55,
        delete_fraction: 0.05,
        ..DriftConfig::default()
    };
    let ops: Vec<StreamOp> = DriftStream::new(drift, 42).take(events).collect();
    let queries: Vec<Pfv> = DriftStream::new(drift, 7)
        .filter_map(|op| match op {
            StreamOp::Upsert(_, v) => Some(v),
            StreamOp::Delete(_) => None,
        })
        .take(16)
        .collect();
    println!("sustained_ingest: {events} events, {dims} dims, memtable {memtable}");

    // --- single tree: read-modify-write ingest --------------------------
    let tree_dir = TempDir::new("tree");
    let store = FileStore::create(tree_dir.0.join("single.gtree"), DEFAULT_PAGE_SIZE)
        .expect("create single-tree file");
    let pool = BufferPool::with_byte_budget(store, CACHE_BYTES, AccessStats::new_shared());
    let mut tree = GaussTree::create_with(pool, TreeConfig::new(dims), &TreeOptions::new())
        .expect("create tree");
    let mut current: HashMap<u64, Pfv> = HashMap::new();
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        match op {
            StreamOp::Upsert(id, v) => {
                if let Some(old) = current.insert(*id, v.clone()) {
                    tree.delete(*id, &old).expect("delete old version");
                }
                tree.insert(*id, v).expect("insert");
            }
            StreamOp::Delete(id) => {
                // Initial sensors may be retired before their first
                // observation reaches the stream — nothing to delete then.
                if let Some(old) = current.remove(id) {
                    tree.delete(*id, &old).expect("delete");
                }
            }
        }
        if (i + 1) % memtable == 0 {
            tree.flush().expect("flush");
        }
    }
    tree.flush().expect("flush");
    let single_s = t0.elapsed().as_secs_f64();
    let single_ops = events as f64 / single_s;
    println!(
        "  single tree : {single_ops:>10.0} ops/s ({single_s:.2}s, {} live)",
        tree.len()
    );

    // --- forest: memtable/flush/merge ingest with query probes ----------
    let forest_dir = TempDir::new("forest");
    let backend =
        DirComponentStores::new(&forest_dir.0, DEFAULT_PAGE_SIZE).expect("forest backend");
    let mut forest = GaussForest::create(
        backend,
        TreeConfig::new(dims),
        ForestOptions::new().memtable_capacity(memtable),
    )
    .expect("create forest");
    let mut probe_us: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        match op {
            StreamOp::Upsert(id, v) => forest.insert(*id, v).expect("insert"),
            StreamOp::Delete(id) => {
                forest.delete(*id).expect("delete");
            }
        }
        if (i + 1) % (4 * memtable) == 0 {
            forest.maintain().expect("maintain");
        }
        if (i + 1) % probe_every == 0 {
            // A pinned snapshot mid-ingest must answer immediately.
            let q0 = Instant::now();
            let snap = forest.snapshot().expect("snapshot");
            let hits = snap.k_mliq(&queries[(i / probe_every) % queries.len()], k);
            let dt = q0.elapsed().as_secs_f64() * 1e6;
            assert!(!hits.expect("probe query").is_empty());
            probe_us.push(dt);
        }
    }
    forest.flush().expect("flush");
    forest.maintain().expect("maintain");
    let forest_s = t0.elapsed().as_secs_f64();
    let forest_ops = events as f64 / forest_s;
    let speedup = forest_ops / single_ops;
    probe_us.sort_by(f64::total_cmp);
    let p99 = probe_us[((probe_us.len() as f64 * 0.99) as usize).min(probe_us.len() - 1)];
    println!(
        "  forest      : {forest_ops:>10.0} ops/s ({forest_s:.2}s, {} live)",
        forest.len()
    );
    println!("  speedup     : {speedup:>10.2}x");
    println!(
        "  probes      : {} snapshots, p99 k-MLIQ {p99:.0} us mid-ingest",
        probe_us.len()
    );

    // --- bit-identity: forest answers == fresh bulk-loaded reference ----
    let items = live_set(&ops);
    assert_eq!(items.len() as u64, forest.len(), "live-set divergence");
    assert_eq!(
        items.len() as u64,
        tree.len(),
        "single-tree live-set divergence"
    );
    let ref_pool = BufferPool::with_byte_budget(
        gauss_storage::MemStore::new(DEFAULT_PAGE_SIZE),
        CACHE_BYTES,
        AccessStats::new_shared(),
    );
    let reference =
        GaussTree::bulk_load(ref_pool, TreeConfig::new(dims), items).expect("reference tree");
    let snap = forest.snapshot().expect("snapshot");
    let mut identical = true;
    for q in &queries {
        let a = snap.k_mliq(q, k).expect("forest k-mliq");
        let b = reference.k_mliq(q, k).expect("reference k-mliq");
        let c = tree.k_mliq(q, k).expect("single-tree k-mliq");
        if a != b || a != c {
            identical = false;
        }
    }
    assert!(
        identical,
        "forest k-MLIQ diverged from the reference tree over the same live set"
    );
    println!("  bit-identity: ok ({} queries, k={k})", queries.len());

    if let Some(path) = json_path {
        let j = JsonObj::new().obj(
            "sustained_ingest",
            JsonObj::new()
                .int("events", events as u64)
                .int("dims", dims as u64)
                .int("memtable", memtable as u64)
                .num("forest_objs_per_s", forest_ops)
                .num("single_objs_per_s", single_ops)
                .num("forest_speedup", speedup)
                .num("p99_query_us", p99)
                .int("bit_identical", u64::from(identical)),
        );
        j.write_to(&path).expect("write bench json");
        eprintln!("wrote {path}");
    }
}
