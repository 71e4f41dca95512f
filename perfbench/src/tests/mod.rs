//! Self-tests of the benchmark: metric names agree with `BENCHMARK.json`,
//! counts repeat exactly per seed and move with it, the store wrappers are
//! transparent, and a real traced run yields a well-formed span tree.
//!
//! Run: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::metrics::{EndToEnd, Layers, Outcome};
use crate::stores::{IoCounters, TracedComponents, TracedStore};
use crate::{run_workload, trace, Ctx, WORKLOADS};
use gauss_storage::forest::DirComponentStores;
use gauss_storage::{AccessStats, FileStore, SharedBufferPool, DEFAULT_PAGE_SIZE};
use gauss_tree::{ForestOptions, GaussForest, GaussTree, LeafFormat, ReadView, TreeConfig};
use gauss_workloads::{uniform_dataset, DriftConfig, DriftStream, SigmaSpec, StreamOp};
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let d = std::env::temp_dir().join(format!("perfbench-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        Self(d)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn small_run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let dir = TempDir::new(&format!("{workload}-{seed}-{trace}"));
    let ctx = Ctx {
        seed,
        seconds: 1.0,
        trace,
        dir: dir.0.clone(),
        small: true,
    };
    let out = run_workload(workload, &ctx).unwrap();
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{workload}: {:?}", out.notes);
    out
}

/// The count-type metrics of a traced run: they must not depend on timing.
fn counts(o: &Outcome) -> Vec<(&'static str, f64)> {
    let e = o.e2e;
    let l = o.layers;
    vec![
        ("pages_per_query", e.pages_per_query),
        ("write_amp", e.write_amp),
        ("space_amp", e.space_amp),
        ("hit_rate", l.hit_rate),
        ("evictions_per_query", l.evictions_per_query),
        ("reads_per_query", l.reads_per_query),
        ("bulk_pages_written", l.bulk_pages_written),
        ("bulk_write_calls", l.bulk_write_calls),
        ("flushes", l.flushes),
        ("entries_rewritten", l.entries_rewritten),
        ("components_max", l.components_max),
        ("free_pages_end", l.free_pages_end),
        ("pages_written_per_op", l.pages_written_per_op),
        ("write_calls_per_op", l.write_calls_per_op),
        ("syncs_per_op", l.syncs_per_op),
        ("manifest_writes", l.manifest_writes),
        ("components_created", l.components_created),
    ]
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let mut named: Vec<String> = text
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap().to_string())
        .collect();
    let mut want: Vec<String> = WORKLOADS.iter().map(|w| (*w).to_string()).collect();
    for (name, _, unit) in EndToEnd::default()
        .list()
        .into_iter()
        .chain(Layers::default().list())
    {
        want.push(name.to_string());
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    named.sort();
    want.sort();
    assert_eq!(named, want);
}

#[test]
fn counts_repeat_for_a_seed_and_move_with_it() {
    for w in WORKLOADS {
        let a = small_run(w, 11, true);
        let b = small_run(w, 11, true);
        let c = small_run(w, 12, true);
        assert_eq!(counts(&a), counts(&b), "{w}: counts differ for one seed");
        assert_ne!(counts(&a), counts(&c), "{w}: counts ignore the seed");
        for (name, value, _) in a.e2e.list() {
            assert!(value > 0.0 && value.is_finite(), "{w}: {name} = {value}");
        }
    }
}

#[test]
fn traced_run_spans_nest_and_self_times_add_up() {
    for w in ["ds2-cold", "drift-ingest"] {
        let o = small_run(w, 3, true);
        assert!(!o.spans.is_empty());
        trace::check(&o.spans).unwrap();
        let a = trace::analyse(&o.spans);
        let total_self: u64 = (0..o.spans.len()).map(|i| a.self_time(&o.spans, i)).sum();
        let roots: u64 = o
            .spans
            .iter()
            .filter(|s| s.parent == trace::NO_PARENT)
            .map(trace::Span::dur)
            .sum();
        assert_eq!(
            total_self, roots,
            "{w}: self times must add up to the roots"
        );
    }
}

#[test]
fn wrapped_file_store_is_transparent() {
    let dir = TempDir::new("wrap-tree");
    let sigma = SigmaSpec::log_uniform(0.005, 0.3);
    let ds = uniform_dataset(3000, 6, sigma, 5);
    let queries: Vec<_> = uniform_dataset(20, 6, sigma, 6).items();
    let build = |wrapped: bool| {
        let path = dir.0.join(format!("t-{wrapped}.gtree"));
        let store = FileStore::create(&path, DEFAULT_PAGE_SIZE).unwrap();
        let stats = AccessStats::new_shared();
        let answers: Vec<_> = if wrapped {
            let io = IoCounters::new_shared();
            let pool =
                SharedBufferPool::new(TracedStore::new(store, io.clone()), 16, stats.clone());
            let tree = GaussTree::bulk_load(pool, TreeConfig::new(6), ds.items()).unwrap();
            let a = queries
                .iter()
                .map(|(_, q)| tree.k_mliq(q, 3).unwrap())
                .collect();
            assert!(io.snapshot().reads > 0 && io.snapshot().write_bytes > 0);
            a
        } else {
            let pool = SharedBufferPool::new(store, 16, stats.clone());
            let tree = GaussTree::bulk_load(pool, TreeConfig::new(6), ds.items()).unwrap();
            queries
                .iter()
                .map(|(_, q)| tree.k_mliq(q, 3).unwrap())
                .collect()
        };
        (answers, stats.snapshot())
    };
    assert_eq!(build(false), build(true));
}

#[test]
fn wrapped_component_stores_are_transparent() {
    let dir = TempDir::new("wrap-forest");
    let cfg = DriftConfig {
        dims: 4,
        ..DriftConfig::default()
    };
    let ops: Vec<StreamOp> = DriftStream::new(cfg, 9).take(3000).collect();
    let config = TreeConfig::new(4).with_leaf_format(LeafFormat::Quantised);
    let opts = ForestOptions::new().memtable_capacity(256).pool_frames(16);
    let run = |wrapped: bool| {
        let path = dir.0.join(format!("f-{wrapped}"));
        let backend = DirComponentStores::new(&path, DEFAULT_PAGE_SIZE).unwrap();
        let io = IoCounters::new_shared();
        macro_rules! drive {
            ($forest:expr) => {{
                let mut forest = $forest;
                for (i, op) in ops.iter().enumerate() {
                    match op {
                        StreamOp::Upsert(id, v) => forest.insert(*id, v).unwrap(),
                        StreamOp::Delete(id) => {
                            forest.delete(*id).unwrap();
                        }
                    }
                    if i % 700 == 699 {
                        forest.maintain().unwrap();
                    }
                }
                let snap = forest.snapshot().unwrap();
                let answers: Vec<_> = ops
                    .iter()
                    .filter_map(|op| match op {
                        StreamOp::Upsert(_, v) => Some(snap.k_mliq(v, 3).unwrap()),
                        StreamOp::Delete(_) => None,
                    })
                    .take(20)
                    .collect();
                (answers, forest.stats().snapshot())
            }};
        }
        if wrapped {
            let r = drive!(GaussForest::create(
                TracedComponents::new(backend, io.clone()),
                config,
                opts
            )
            .unwrap());
            let s = io.snapshot();
            assert!(s.components_created > 0 && s.manifest_writes > 0 && s.write_bytes > 0);
            r
        } else {
            drive!(GaussForest::create(backend, config, opts).unwrap())
        }
    };
    assert_eq!(run(false), run(true));
}
