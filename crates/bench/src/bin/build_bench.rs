//! Ingest throughput of the bulk-load pipeline: objects/s, write calls,
//! peak residency.
//!
//! The tentpole measurement for the out-of-core build path. One fixed-seed
//! uniform workload is built four ways —
//!
//! * **serial / per-node writes**: one thread, fully resident, one write
//!   call per node page (the pre-pipeline behaviour);
//! * **serial / batched writes**: same build, node pages group-committed
//!   through [`gauss_storage::WriteBatch`] as coalesced sequential runs;
//! * **parallel**: partitioning fanned across `--threads` workers;
//! * **spilled**: a `--mem-budget` entry budget forces the streaming front
//!   end to spill runs and split externally.
//!
//! All four stores are asserted **byte-identical** before anything is
//! timed (like `kernel_bench` does for the query kernels). Reported:
//! objects/s serial vs parallel (best of `--rounds`), physical write calls
//! per-node vs batched plus the [`DiskModel`] time both patterns would
//! cost, and the spilled build's peak resident entries.
//!
//! Run: `cargo run --release -p gauss_bench --bin build_bench`
//! Flags: `--n N` (default 20000), `--dims D` (default 10), `--threads T`
//! (default 2), `--rounds R` (default 3), `--mem-budget ENTRIES` (spill
//! run budget, default n/4), `--json PATH` (CI perf-gate fragment),
//! `--scenario million` (the 1M-object bounded-memory ingest; file-backed,
//! skips the JSON gate).

use gauss_bench::{arg_value, JsonObj};
use gauss_storage::{
    AccessStats, BufferPool, DiskModel, Durability, FileStore, MemStore, PageId, PageStore,
    StatsSnapshot, DEFAULT_PAGE_SIZE,
};
use gauss_tree::{BulkLoadOptions, GaussTree, SpillKind, TreeConfig};
use gauss_workloads::{uniform_dataset, SigmaSpec};
use pfv::Pfv;
use std::time::Instant;

const CACHE_BYTES: usize = 50 * 1024 * 1024;

fn pool() -> BufferPool<MemStore> {
    BufferPool::with_byte_budget(
        MemStore::new(DEFAULT_PAGE_SIZE),
        CACHE_BYTES,
        AccessStats::new_shared(),
    )
}

/// FNV-1a digest over every page of a tree's store — cheap byte-identity.
fn store_digest<S: PageStore>(tree: &GaussTree<S>) -> (u64, u64) {
    let pool = tree.pool();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..pool.num_pages() {
        for &b in pool.page(PageId(i)).expect("page readable").iter() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    (h, pool.num_pages())
}

fn build(
    items: &[(u64, Pfv)],
    dims: usize,
    opts: &BulkLoadOptions,
) -> (GaussTree<MemStore>, gauss_tree::BulkLoadReport, f64) {
    let t0 = Instant::now();
    let (tree, report) =
        GaussTree::bulk_load_with(pool(), TreeConfig::new(dims), items.to_vec(), opts)
            .expect("bulk load");
    (tree, report, t0.elapsed().as_secs_f64())
}

/// The durability datapoint: the same workload built into a real file
/// under `Durability::None` vs `Durability::Fsync`. Both builds take the
/// same shadow-paged write path, so the pair prices the commit barriers
/// alone.
/// Returns `(none objs/s, fsync objs/s, fsync count)` (best of `rounds`).
fn durability_datapoint(items: &[(u64, Pfv)], dims: usize, rounds: usize) -> (f64, f64, u64) {
    let dir = std::env::temp_dir().join(format!("gauss-build-dur-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut best = [f64::INFINITY; 2];
    let mut fsyncs = 0u64;
    for round in 0..rounds {
        for (i, durability) in [Durability::None, Durability::Fsync]
            .into_iter()
            .enumerate()
        {
            let path = dir.join(format!("dur-{i}-{round}.gtree"));
            let store = FileStore::create(&path, DEFAULT_PAGE_SIZE).expect("store");
            let fpool = BufferPool::with_byte_budget(store, CACHE_BYTES, AccessStats::new_shared());
            let opts = BulkLoadOptions::default().with_durability(durability);
            let t0 = Instant::now();
            let (tree, _) =
                GaussTree::bulk_load_with(fpool, TreeConfig::new(dims), items.to_vec(), &opts)
                    .expect("durability build");
            best[i] = best[i].min(t0.elapsed().as_secs_f64());
            if durability == Durability::Fsync {
                fsyncs = tree.stats().snapshot().syncs;
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    (
        items.len() as f64 / best[0],
        items.len() as f64 / best[1],
        fsyncs,
    )
}

fn scenario_million(threads: usize) {
    // The bounded-memory headline scenario: 1M objects, d=10, the loader
    // capped at a 64 MiB resident-entry budget, spilling runs through a
    // temp file and writing the tree to disk.
    let (n, dims) = (1_000_000usize, 10usize);
    let budget = gauss_tree::bulk::entries_for_byte_budget(64 * 1024 * 1024, dims);
    eprintln!("generating {n} objects (d={dims})…");
    let sigma = SigmaSpec::log_uniform(0.005, 0.3).with_object_scale(0.5, 3.0);
    let dataset = uniform_dataset(n, dims, sigma, 20060404);
    let dir = std::env::temp_dir().join(format!("gauss-build-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("million.gtree");
    let store = gauss_storage::FileStore::create(&path, DEFAULT_PAGE_SIZE).expect("store");
    let fpool = BufferPool::with_byte_budget(store, CACHE_BYTES, AccessStats::new_shared());
    let opts = BulkLoadOptions::default()
        .with_threads(threads)
        .with_mem_budget(budget)
        .with_spill(SpillKind::TempFile);
    let t0 = Instant::now();
    let (tree, report) =
        GaussTree::bulk_load_with(fpool, TreeConfig::new(dims), dataset.items(), &opts)
            .expect("million build");
    let wall = t0.elapsed().as_secs_f64();
    let snap = tree.stats().snapshot();
    println!(
        "million-object ingest: {n} objects in {wall:.1}s ({:.0} objects/s)",
        n as f64 / wall
    );
    println!(
        "  budget {budget} entries; peak resident {}, spilled {}, {} external splits, {} rewritten",
        report.peak_resident_entries,
        report.spilled_entries,
        report.external_splits,
        report.rewritten_entries
    );
    println!(
        "  {} pages in {} write calls ({:.1}x coalescing), height {}",
        snap.physical_writes,
        snap.write_calls,
        snap.physical_writes as f64 / snap.write_calls as f64,
        tree.height()
    );
    assert!(
        report.peak_resident_entries <= budget,
        "budget violated: {} > {budget}",
        report.peak_resident_entries
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads: usize = arg_value(&args, "--threads")
        .map(|v| v.parse().expect("--threads"))
        .unwrap_or(2)
        .max(1);
    if arg_value(&args, "--scenario").as_deref() == Some("million") {
        scenario_million(threads);
        return;
    }
    let n: usize = arg_value(&args, "--n")
        .map(|v| v.parse().expect("--n"))
        .unwrap_or(20_000);
    let dims: usize = arg_value(&args, "--dims")
        .map(|v| v.parse().expect("--dims"))
        .unwrap_or(10);
    let rounds: usize = arg_value(&args, "--rounds")
        .map(|v| v.parse().expect("--rounds"))
        .unwrap_or(3)
        .max(1);
    let budget: usize = arg_value(&args, "--mem-budget")
        .map(|v| v.parse().expect("--mem-budget"))
        .unwrap_or(n / 4)
        .max(1);
    let json_path = arg_value(&args, "--json");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let sigma = SigmaSpec::log_uniform(0.005, 0.3).with_object_scale(0.5, 3.0);
    let dataset = uniform_dataset(n, dims, sigma, 20060404);
    let items = dataset.items();
    println!("build_bench — {n} objects, {dims} dims, {threads} threads, best of {rounds}");

    // Correctness gate before any timing: per-node, batched, parallel and
    // spilled builds must all produce byte-identical stores.
    let serial_opts = BulkLoadOptions::default();
    let per_node_opts = BulkLoadOptions::default().with_batched_writes(false);
    let parallel_opts = BulkLoadOptions::default().with_threads(threads);
    let spill_opts = BulkLoadOptions::default()
        .with_mem_budget(budget)
        .with_spill(SpillKind::TempFile);

    let (serial_tree, _, _) = build(&items, dims, &serial_opts);
    let reference = store_digest(&serial_tree);
    let batched_writes: StatsSnapshot = serial_tree.stats().snapshot();

    let (per_node_tree, _, _) = build(&items, dims, &per_node_opts);
    assert_eq!(
        store_digest(&per_node_tree),
        reference,
        "batched writes diverged from per-node writes"
    );
    let per_node_writes: StatsSnapshot = per_node_tree.stats().snapshot();
    drop(per_node_tree);

    let (parallel_tree, _, _) = build(&items, dims, &parallel_opts);
    assert_eq!(
        store_digest(&parallel_tree),
        reference,
        "parallel build diverged from serial build"
    );
    drop(parallel_tree);

    let (spill_tree, spill_report, _) = build(&items, dims, &spill_opts);
    assert_eq!(
        store_digest(&spill_tree),
        reference,
        "spilled build diverged from resident build"
    );
    drop(spill_tree);
    drop(serial_tree);
    println!("(byte-identity verified: per-node, batched, parallel and spilled builds agree)");

    // Timing: best-of-rounds objects/s, serial vs parallel (both batched).
    let mut serial_s = f64::INFINITY;
    let mut parallel_s = f64::INFINITY;
    for _ in 0..rounds {
        let (_, _, s) = build(&items, dims, &serial_opts);
        serial_s = serial_s.min(s);
        let (_, _, p) = build(&items, dims, &parallel_opts);
        parallel_s = parallel_s.min(p);
    }
    let serial_ops = n as f64 / serial_s;
    let parallel_ops = n as f64 / parallel_s;

    let disk = DiskModel::hdd_2006(DEFAULT_PAGE_SIZE);
    let model_per_node = disk.random_write_s(per_node_writes.physical_writes);
    let model_batched = disk.batched_write_s(
        batched_writes.write_calls,
        batched_writes.physical_writes * DEFAULT_PAGE_SIZE as u64,
    );
    let reduction = per_node_writes.write_calls as f64 / batched_writes.write_calls as f64;

    println!("  ingest    serial : {serial_ops:>10.0} objects/s");
    println!(
        "  ingest    parallel: {parallel_ops:>10.0} objects/s  ({:.2}x, {threads} threads, {cores} cores)",
        parallel_ops / serial_ops
    );
    println!(
        "  writes    per-node: {:>6} calls for {} pages (modelled {:.2}s on 2006 hdd)",
        per_node_writes.write_calls, per_node_writes.physical_writes, model_per_node
    );
    println!(
        "  writes    batched : {:>6} calls for {} pages (modelled {:.2}s, {reduction:.1}x fewer calls)",
        batched_writes.write_calls, batched_writes.physical_writes, model_batched
    );
    println!(
        "  spill     budget {budget}: peak {} resident, {} spilled, {} external splits",
        spill_report.peak_resident_entries,
        spill_report.spilled_entries,
        spill_report.external_splits
    );

    // Durability cost: file-backed ingest, fast path vs fsync'd commits.
    let (dur_none_ops, dur_fsync_ops, fsyncs) = durability_datapoint(&items, dims, rounds);
    println!("  durability none  : {dur_none_ops:>10.0} objects/s (file-backed)");
    println!(
        "  durability fsync : {dur_fsync_ops:>10.0} objects/s ({fsyncs} fsyncs, modelled +{:.3}s on 2006 hdd)",
        disk.fsync_s(fsyncs)
    );

    if let Some(path) = json_path {
        let j = JsonObj::new().obj(
            "build_bench",
            JsonObj::new()
                .int("n", n as u64)
                .int("dims", dims as u64)
                .int("cores", cores as u64)
                .int("threads_max", threads as u64)
                .num("serial_objs_per_s", serial_ops)
                .num("parallel_objs_per_s", parallel_ops)
                .num("parallel_speedup", parallel_ops / serial_ops)
                .int("write_calls_per_node", per_node_writes.write_calls)
                .int("write_calls_batched", batched_writes.write_calls)
                .num("write_call_reduction", reduction)
                .int("pages_written", batched_writes.physical_writes)
                .num("model_write_s_per_node", model_per_node)
                .num("model_write_s_batched", model_batched)
                .int(
                    "peak_resident_entries",
                    spill_report.peak_resident_entries as u64,
                )
                .int("spill_budget_entries", budget as u64)
                .int("spilled_entries", spill_report.spilled_entries)
                .num("durability_none_objs_per_s", dur_none_ops)
                .num("durability_fsync_objs_per_s", dur_fsync_ops)
                .int("fsync_calls", fsyncs)
                .num("model_fsync_s", disk.fsync_s(fsyncs)),
        );
        j.write_to(&path).expect("write bench json");
        eprintln!("wrote {path}");
    }
}
