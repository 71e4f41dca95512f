//! Subcommand implementations.

use crate::args::{parse_pfv, parse_vec, ArgError, Args};
use crate::csvio;
use gauss_storage::forest::DirComponentStores;
use gauss_storage::{AccessStats, BufferPool, Durability, FileStore, DEFAULT_PAGE_SIZE};
use gauss_tree::{
    BulkLoadOptions, DeleteOutcome, ForestOptions, GaussForest, GaussTree, LeafFormat, ReadView,
    SpillKind, SplitStrategy, TreeConfig, TreeOptions,
};
use gauss_workloads::{
    histogram_dataset, uniform_dataset, DriftConfig, DriftStream, SigmaSpec, StreamOp,
};
use std::path::Path;

/// Top-level usage text.
pub const USAGE: &str = "usage:
  gauss-cli generate --out FILE --kind histogram|uniform --n N --dims D
                     [--seed S] [--sigma-min X] [--sigma-max Y]
  gauss-cli build    --data FILE.csv --index FILE.gtree
                     [--page-size BYTES] [--split hull|mu|volume] [--bulk true|false]
                     [--threads N] [--mem-budget BYTES] [--append true|false]
                     [--durability none|flush|fsync] [--leaf-format exact|quantised]
                     [--forest true]  (then --index is a forest DIRECTORY;
                      also [--memtable N] [--merge-factor F])
  gauss-cli ingest   --index DIR (--data FILE.csv | --events N [--sensors S]
                     [--dims D] [--seed X] [--update-frac U] [--delete-frac V])
                     [--maintain true]
  gauss-cli compact  --index DIR
  gauss-cli info     --index FILE.gtree|DIR [--check true] [--recover true]
  gauss-cli mliq     --index FILE.gtree|DIR --query 'm1,..;s1,..' [--query ...]
                     [-k K] [--accuracy A] [--threads N] [--pin-snapshot true]
  gauss-cli tiq      --index FILE.gtree|DIR --query 'm1,..;s1,..' [--query ...]
                     --theta T [--accuracy A] [--threads N] [--pin-snapshot true]
  gauss-cli boxq     --index FILE.gtree|DIR --lo a,b,.. --hi c,d,.. --tau T
  gauss-cli delete   --index FILE.gtree --id N --query 'm1,..;s1,..'
                     (forests delete through ingest streams)";

/// Dispatches a full argv (subcommand first).
///
/// # Errors
/// Any parse, I/O or index error, as a displayable message.
pub fn dispatch(argv: &[String]) -> Result<(), ArgError> {
    let Some(cmd) = argv.first() else {
        return Err(ArgError("no subcommand given".into()));
    };
    let args = Args::parse(&argv[1..])?;
    match cmd.as_str() {
        "generate" => generate(&args),
        "build" => build(&args),
        "ingest" => ingest(&args),
        "compact" => compact(&args),
        "info" => info(&args),
        "mliq" => mliq(&args),
        "tiq" => tiq(&args),
        "boxq" => boxq(&args),
        "delete" => delete(&args),
        other => Err(ArgError(format!("unknown subcommand '{other}'"))),
    }
}

fn generate(args: &Args) -> Result<(), ArgError> {
    let out = args.required("out")?;
    let kind = args.get("kind").unwrap_or("uniform");
    let n: usize = args.num("n", 1000)?;
    let dims: usize = args.num("dims", 10)?;
    let seed: u64 = args.num("seed", 42)?;
    let smin: f64 = args.num("sigma-min", 0.01)?;
    let smax: f64 = args.num("sigma-max", 0.3)?;
    if smin <= 0.0 || smin > smax {
        return Err(ArgError(format!("bad sigma range [{smin}, {smax}]")));
    }
    let sigma = SigmaSpec::log_uniform(smin, smax);
    let dataset = match kind {
        "histogram" => histogram_dataset(n, dims, sigma, seed),
        "uniform" => uniform_dataset(n, dims, sigma, seed),
        other => return Err(ArgError(format!("unknown kind '{other}'"))),
    };
    csvio::write_csv(Path::new(out), &dataset.items())?;
    println!("wrote {} objects ({dims} dims) to {out}", dataset.len());
    Ok(())
}

/// Opens the `--index` file behind the standard 50 MiB buffer pool.
fn open_pool(args: &Args) -> Result<BufferPool<FileStore>, ArgError> {
    let index = args.required("index")?;
    let page_size: usize = args.num("page-size", DEFAULT_PAGE_SIZE)?;
    let store = FileStore::open(index, page_size)
        .map_err(|e| ArgError(format!("cannot open {index}: {e}")))?;
    Ok(BufferPool::with_byte_budget(
        store,
        50 * 1024 * 1024,
        AccessStats::new_shared(),
    ))
}

fn open_tree(args: &Args) -> Result<GaussTree<FileStore>, ArgError> {
    let pool = open_pool(args)?;
    GaussTree::open(pool).map_err(|e| ArgError(format!("cannot open index: {e}")))
}

/// Parses the `--durability` flag (default `none`).
fn parse_durability(args: &Args) -> Result<Durability, ArgError> {
    match args.get("durability").unwrap_or("none") {
        "none" => Ok(Durability::None),
        "flush" => Ok(Durability::Flush),
        "fsync" => Ok(Durability::Fsync),
        other => Err(ArgError(format!(
            "unknown durability level '{other}' (none|flush|fsync)"
        ))),
    }
}

/// Whether `--index` names a Gauss-forest directory (vs a single-tree
/// file). Forests live in directories; trees in flat files.
fn is_forest_index(index: &str) -> bool {
    Path::new(index).is_dir()
}

/// Parses the forest tuning flags shared by `build --forest`, `ingest`
/// and `compact`.
fn forest_opts(args: &Args) -> Result<ForestOptions, ArgError> {
    let memtable: usize = args.num("memtable", 4096)?;
    let merge_factor: usize = args.num("merge-factor", 2)?;
    let threads: usize = args.num("threads", 1)?;
    if threads == 0 {
        return Err(ArgError("--threads must be at least 1".into()));
    }
    if merge_factor < 2 {
        return Err(ArgError("--merge-factor must be at least 2".into()));
    }
    Ok(ForestOptions::new()
        .memtable_capacity(memtable)
        .merge_factor(merge_factor)
        .threads(threads)
        .durability(parse_durability(args)?))
}

/// Opens the forest directory named by `--index`.
fn open_forest(args: &Args) -> Result<GaussForest<DirComponentStores>, ArgError> {
    let index = args.required("index")?;
    let page_size: usize = args.num("page-size", DEFAULT_PAGE_SIZE)?;
    let backend = DirComponentStores::new(index, page_size)
        .map_err(|e| ArgError(format!("cannot open {index}: {e}")))?;
    GaussForest::open(backend, forest_opts(args)?)
        .map_err(|e| ArgError(format!("cannot open forest {index}: {e}")))
}

fn print_forest_stats(forest: &GaussForest<DirComponentStores>) {
    println!("objects:        {}", forest.len());
    println!("dimensionality: {}", forest.config().dims);
    println!("epoch:          {}", forest.epoch());
    println!("memtable:       {} records", forest.memtable_len());
    let comps = forest.component_stats();
    println!("components:     {}", comps.len());
    for c in comps {
        println!(
            "  c{:<5} level {:<2} {:>8} entries, {} tombstones",
            c.id, c.level, c.len, c.tombstones
        );
    }
}

fn build(args: &Args) -> Result<(), ArgError> {
    if args.num("forest", false)? {
        return build_forest(args);
    }
    let data = args.required("data")?;
    let index = args.required("index")?;
    let page_size: usize = args.num("page-size", DEFAULT_PAGE_SIZE)?;
    let bulk: bool = args.num("bulk", true)?;
    let append: bool = args.num("append", false)?;
    let durability = parse_durability(args)?;
    let threads: usize = args.num("threads", 1)?;
    if threads == 0 {
        return Err(ArgError("--threads must be at least 1".into()));
    }
    let mem_budget: u64 = args.num("mem-budget", 0)?;
    let split = match args.get("split").unwrap_or("hull") {
        "hull" => SplitStrategy::HullIntegral,
        "mu" => SplitStrategy::WidestMu,
        "volume" => SplitStrategy::MinVolume,
        other => return Err(ArgError(format!("unknown split strategy '{other}'"))),
    };
    let leaf_format = match args.get("leaf-format").unwrap_or("exact") {
        "exact" => LeafFormat::Exact,
        "quantised" | "quantized" => LeafFormat::Quantised,
        other => {
            return Err(ArgError(format!(
                "unknown leaf format '{other}' (exact|quantised)"
            )))
        }
    };

    let items = csvio::read_csv(Path::new(data))?;
    if items.is_empty() {
        return Err(ArgError("data file holds no objects".into()));
    }
    let dims = items[0].1.dims();

    if append {
        // Merge the run into an existing index instead of rebuilding it.
        let pool = open_pool(args)?;
        let mut tree = GaussTree::open_with(pool, &TreeOptions::new().durability(durability))
            .map_err(|e| ArgError(format!("cannot open index: {e}")))?;
        let t0 = std::time::Instant::now();
        let added = tree.extend(items).map_err(|e| ArgError(e.to_string()))?;
        tree.flush().map_err(|e| ArgError(e.to_string()))?;
        println!(
            "appended {added} objects to {index}: {} total, height {}, {} pages, {:.2}s",
            tree.len(),
            tree.height(),
            tree.pool().num_pages(),
            t0.elapsed().as_secs_f64()
        );
        return Ok(());
    }

    let config = TreeConfig::new(dims)
        .with_split(split)
        .with_leaf_format(leaf_format);
    let store = FileStore::create(index, page_size)
        .map_err(|e| ArgError(format!("cannot create {index}: {e}")))?;
    let pool = BufferPool::with_byte_budget(store, 50 * 1024 * 1024, AccessStats::new_shared());

    let t0 = std::time::Instant::now();
    let mut tree = if bulk {
        let mut opts = BulkLoadOptions::default()
            .with_threads(threads)
            .with_spill(SpillKind::TempFile)
            .with_durability(durability);
        if mem_budget > 0 {
            opts =
                opts.with_mem_budget(gauss_tree::bulk::entries_for_byte_budget(mem_budget, dims));
        }
        let (tree, report) = GaussTree::bulk_load_with(pool, config, items, &opts)
            .map_err(|e| ArgError(e.to_string()))?;
        let writes = tree.stats().snapshot();
        eprintln!(
            "(ingest: peak {} resident entries, {} spilled, {} pages in {} write calls)",
            report.peak_resident_entries,
            report.spilled_entries,
            writes.physical_writes,
            writes.write_calls
        );
        tree
    } else {
        let mut tree =
            GaussTree::create_with(pool, config, &TreeOptions::new().durability(durability))
                .map_err(|e| ArgError(e.to_string()))?;
        for (id, v) in items {
            tree.insert(id, &v).map_err(|e| ArgError(e.to_string()))?;
        }
        tree
    };
    tree.flush().map_err(|e| ArgError(e.to_string()))?;
    println!(
        "built {index}: {} objects, {} dims, height {}, {} pages, {:.2}s",
        tree.len(),
        tree.dims(),
        tree.height(),
        tree.pool().num_pages(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// `build --forest true`: seed a new forest directory from a CSV, through
/// the memtable/flush write path rather than a monolithic bulk load.
fn build_forest(args: &Args) -> Result<(), ArgError> {
    let data = args.required("data")?;
    let index = args.required("index")?;
    let page_size: usize = args.num("page-size", DEFAULT_PAGE_SIZE)?;
    let split = match args.get("split").unwrap_or("hull") {
        "hull" => SplitStrategy::HullIntegral,
        "mu" => SplitStrategy::WidestMu,
        "volume" => SplitStrategy::MinVolume,
        other => return Err(ArgError(format!("unknown split strategy '{other}'"))),
    };
    let leaf_format = match args.get("leaf-format").unwrap_or("exact") {
        "exact" => LeafFormat::Exact,
        "quantised" | "quantized" => LeafFormat::Quantised,
        other => {
            return Err(ArgError(format!(
                "unknown leaf format '{other}' (exact|quantised)"
            )))
        }
    };
    let items = csvio::read_csv(Path::new(data))?;
    if items.is_empty() {
        return Err(ArgError("data file holds no objects".into()));
    }
    let dims = items[0].1.dims();
    let config = TreeConfig::new(dims)
        .with_split(split)
        .with_leaf_format(leaf_format);
    let backend = DirComponentStores::new(index, page_size)
        .map_err(|e| ArgError(format!("cannot create {index}: {e}")))?;
    let mut forest = GaussForest::create(backend, config, forest_opts(args)?)
        .map_err(|e| ArgError(format!("cannot create forest {index}: {e}")))?;
    let t0 = std::time::Instant::now();
    let n = items.len();
    for (id, v) in items {
        forest.insert(id, &v).map_err(|e| ArgError(e.to_string()))?;
    }
    forest.flush().map_err(|e| ArgError(e.to_string()))?;
    let report = forest.maintain().map_err(|e| ArgError(e.to_string()))?;
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "built forest {index}: {} objects in {dt:.2}s ({:.0} objs/s), {} merges",
        forest.len(),
        n as f64 / dt.max(1e-9),
        report.merges
    );
    print_forest_stats(&forest);
    Ok(())
}

/// `ingest`: stream upserts/deletes into an existing forest — either every
/// row of a CSV (as upserts) or `--events N` drawn from the drifting-sensor
/// generator (which mixes updates, fresh sensors and deletes).
fn ingest(args: &Args) -> Result<(), ArgError> {
    let mut forest = open_forest(args)?;
    let t0 = std::time::Instant::now();
    let mut upserts = 0u64;
    let mut deletes = 0u64;
    if let Some(data) = args.get("data") {
        for (id, v) in csvio::read_csv(Path::new(data))? {
            forest.insert(id, &v).map_err(|e| ArgError(e.to_string()))?;
            upserts += 1;
        }
    } else {
        let events: u64 = args.num_required("events")?;
        let drift = DriftConfig {
            initial_sensors: args.num("sensors", 64)?,
            dims: forest.config().dims,
            update_fraction: args.num("update-frac", 0.6)?,
            delete_fraction: args.num("delete-frac", 0.05)?,
            ..DriftConfig::default()
        };
        let seed: u64 = args.num("seed", 42)?;
        for op in DriftStream::new(drift, seed).take(events as usize) {
            match op {
                StreamOp::Upsert(id, v) => {
                    forest.insert(id, &v).map_err(|e| ArgError(e.to_string()))?;
                    upserts += 1;
                }
                StreamOp::Delete(id) => {
                    forest.delete(id).map_err(|e| ArgError(e.to_string()))?;
                    deletes += 1;
                }
            }
        }
    }
    forest.flush().map_err(|e| ArgError(e.to_string()))?;
    if args.num("maintain", false)? {
        forest.maintain().map_err(|e| ArgError(e.to_string()))?;
    }
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "ingested {upserts} upserts + {deletes} deletes in {dt:.2}s ({:.0} ops/s); {} live objects, epoch {}",
        (upserts + deletes) as f64 / dt.max(1e-9),
        forest.len(),
        forest.epoch()
    );
    Ok(())
}

/// `compact`: flush the memtable and run merges until every level is
/// below the merge factor.
fn compact(args: &Args) -> Result<(), ArgError> {
    let mut forest = open_forest(args)?;
    forest.flush().map_err(|e| ArgError(e.to_string()))?;
    let report = forest.maintain().map_err(|e| ArgError(e.to_string()))?;
    println!(
        "compacted: {} merges over {} components, {} entries rewritten, {} tombstones dropped",
        report.merges,
        report.components_merged,
        report.entries_rewritten,
        report.tombstones_dropped
    );
    print_forest_stats(&forest);
    Ok(())
}

fn info(args: &Args) -> Result<(), ArgError> {
    if is_forest_index(args.required("index")?) {
        let forest = open_forest(args)?;
        print_forest_stats(&forest);
        println!("memtable cap:   {}", forest.memtable_capacity());
        println!("merge factor:   {}", forest.merge_factor());
        println!("combine mode:   {:?}", forest.config().combine);
        println!("split strategy: {:?}", forest.config().split);
        println!("leaf format:    {:?}", forest.config().leaf_format);
        return Ok(());
    }
    let recover: bool = args.num("recover", false)?;
    let tree = if recover {
        // Verified open: checks invariants and falls back across meta
        // slots — the post-crash path.
        let pool = open_pool(args)?;
        let (tree, report) = GaussTree::open_with_recovery(pool)
            .map_err(|e| ArgError(format!("cannot recover index: {e}")))?;
        println!(
            "recovery:       epoch {}{}, {} orphaned pages reclaimed",
            report.epoch,
            if report.fell_back { " (fell back)" } else { "" },
            report.orphaned_pages
        );
        tree
    } else {
        open_tree(args)?
    };
    println!("objects:        {}", tree.len());
    println!("dimensionality: {}", tree.dims());
    println!("height:         {}", tree.height());
    println!("pages:          {}", tree.pool().num_pages());
    println!("leaf capacity:  {}", tree.leaf_capacity());
    println!("inner capacity: {}", tree.inner_capacity());
    println!("combine mode:   {:?}", tree.config().combine);
    println!("split strategy: {:?}", tree.config().split);
    println!("leaf format:    {:?}", tree.config().leaf_format);
    println!("epoch:          {}", tree.epoch());
    println!("pinned snaps:   {}", tree.pinned_snapshots());
    let check: bool = args.num("check", false)?;
    if check {
        let errors = tree
            .check_invariants(false)
            .map_err(|e| ArgError(e.to_string()))?;
        if errors.is_empty() {
            println!("invariants:     ok");
        } else {
            println!("invariants:     {} violations", errors.len());
            for e in errors.iter().take(10) {
                println!("  - {e}");
            }
            return Err(ArgError("invariant check failed".into()));
        }
    }
    Ok(())
}

/// Parses the repeatable `--query` flag (at least one) and the `--threads`
/// worker count for the batch executor.
fn parse_batch(args: &Args) -> Result<(Vec<pfv::Pfv>, usize), ArgError> {
    let literals = args.get_all("query");
    if literals.is_empty() {
        return Err(ArgError("missing required flag --query".into()));
    }
    let queries = literals
        .into_iter()
        .map(parse_pfv)
        .collect::<Result<Vec<_>, _>>()?;
    let threads: usize = args.num("threads", 1)?;
    if threads == 0 {
        return Err(ArgError("--threads must be at least 1".into()));
    }
    Ok((queries, threads))
}

/// Parses `--pin-snapshot true|false` (default `false`): run the queries on
/// a pinned committed-epoch [`gauss_tree::Snapshot`] instead of the writer's
/// working state.
fn parse_pin(args: &Args) -> Result<bool, ArgError> {
    args.num("pin-snapshot", false)
}

fn mliq(args: &Args) -> Result<(), ArgError> {
    let (queries, threads) = parse_batch(args)?;
    let k: usize = args.num("k", 1)?;
    let accuracy: f64 = args.num("accuracy", 1e-4)?;
    if accuracy.is_nan() || accuracy <= 0.0 {
        return Err(ArgError(format!(
            "--accuracy must be positive, got {accuracy}"
        )));
    }
    if is_forest_index(args.required("index")?) {
        // Forest queries always run on a pinned snapshot — that *is* the
        // forest's read plane.
        let forest = open_forest(args)?;
        let snap = forest.snapshot().map_err(|e| ArgError(e.to_string()))?;
        eprintln!("(forest snapshot of epoch {})", snap.epoch());
        let t0 = std::time::Instant::now();
        let batches = snap
            .batch(threads)
            .k_mliq_refined(&queries, k, accuracy)
            .map_err(|e| ArgError(e.to_string()))?;
        return print_mliq(&batches, threads, t0.elapsed(), forest.stats());
    }
    let tree = open_tree(args)?;
    let pin = parse_pin(args)?;
    let t0 = std::time::Instant::now();
    let batches = if pin {
        let snap = tree.snapshot().map_err(|e| ArgError(e.to_string()))?;
        eprintln!("(pinned snapshot of committed epoch {})", snap.epoch());
        snap.batch(threads).k_mliq_refined(&queries, k, accuracy)
    } else {
        tree.batch(threads).k_mliq_refined(&queries, k, accuracy)
    }
    .map_err(|e| ArgError(e.to_string()))?;
    print_mliq(&batches, threads, t0.elapsed(), tree.stats())
}

/// Shared k-MLIQ result printer for trees and forests.
fn print_mliq(
    batches: &[Vec<gauss_tree::RefinedResult>],
    threads: usize,
    elapsed: std::time::Duration,
    stats: &std::sync::Arc<AccessStats>,
) -> Result<(), ArgError> {
    let mut total = 0usize;
    for (qi, hits) in batches.iter().enumerate() {
        let prefix = if batches.len() > 1 {
            format!("q{qi} ")
        } else {
            String::new()
        };
        for h in hits {
            println!(
                "{prefix}id={} P={:.4} [{:.4}, {:.4}] log_density={:.4}",
                h.id, h.probability, h.prob_lo, h.prob_hi, h.log_density
            );
        }
        total += hits.len();
    }
    let snap = stats.snapshot();
    eprintln!(
        "({total} results over {} queries, {threads} threads, {:.2} ms, {} page reads)",
        batches.len(),
        1e3 * elapsed.as_secs_f64(),
        snap.logical_reads
    );
    Ok(())
}

fn tiq(args: &Args) -> Result<(), ArgError> {
    let (queries, threads) = parse_batch(args)?;
    let theta: f64 = args.num_required("theta")?;
    if !(theta > 0.0 && theta <= 1.0) {
        return Err(ArgError(format!(
            "--theta must be a probability in (0, 1], got {theta}"
        )));
    }
    let accuracy: f64 = args.num("accuracy", 1e-4)?;
    if accuracy.is_nan() || accuracy <= 0.0 {
        return Err(ArgError(format!(
            "--accuracy must be positive, got {accuracy}"
        )));
    }
    let batches = if is_forest_index(args.required("index")?) {
        let forest = open_forest(args)?;
        let snap = forest.snapshot().map_err(|e| ArgError(e.to_string()))?;
        eprintln!("(forest snapshot of epoch {})", snap.epoch());
        snap.batch(threads).tiq(&queries, theta, accuracy)
    } else {
        let tree = open_tree(args)?;
        if parse_pin(args)? {
            let snap = tree.snapshot().map_err(|e| ArgError(e.to_string()))?;
            eprintln!("(pinned snapshot of committed epoch {})", snap.epoch());
            snap.batch(threads).tiq(&queries, theta, accuracy)
        } else {
            tree.batch(threads).tiq(&queries, theta, accuracy)
        }
    }
    .map_err(|e| ArgError(e.to_string()))?;
    let mut total = 0usize;
    for (qi, hits) in batches.iter().enumerate() {
        let prefix = if batches.len() > 1 {
            format!("q{qi} ")
        } else {
            String::new()
        };
        for h in hits {
            println!(
                "{prefix}id={} P={:.4} [{:.4}, {:.4}]",
                h.id, h.probability, h.prob_lo, h.prob_hi
            );
        }
        total += hits.len();
    }
    eprintln!("({total} results over {} queries)", batches.len());
    Ok(())
}

fn boxq(args: &Args) -> Result<(), ArgError> {
    let lo = parse_vec(args.required("lo")?)?;
    let hi = parse_vec(args.required("hi")?)?;
    let tau: f64 = args.num_required("tau")?;
    let hits = if is_forest_index(args.required("index")?) {
        let forest = open_forest(args)?;
        let snap = forest.snapshot().map_err(|e| ArgError(e.to_string()))?;
        snap.probabilistic_box_query(&lo, &hi, tau)
    } else {
        open_tree(args)?.probabilistic_box_query(&lo, &hi, tau)
    }
    .map_err(|e| ArgError(e.to_string()))?;
    for h in &hits {
        println!("id={} P={:.4}", h.id, h.probability);
    }
    eprintln!("({} results)", hits.len());
    Ok(())
}

fn delete(args: &Args) -> Result<(), ArgError> {
    let mut tree = open_tree(args)?;
    let id: u64 = args.num_required("id")?;
    let v = parse_pfv(args.required("query")?)?;
    match tree.delete(id, &v).map_err(|e| ArgError(e.to_string()))? {
        DeleteOutcome::Deleted => {
            tree.flush().map_err(|e| ArgError(e.to_string()))?;
            println!("deleted id={id}; {} objects remain", tree.len());
            Ok(())
        }
        DeleteOutcome::NotFound => Err(ArgError(format!(
            "no entry with id={id} and the given parameters"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new() -> Self {
            let d = std::env::temp_dir().join(format!(
                "gauss-cli-cmd-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::create_dir_all(&d).unwrap();
            Self(d)
        }
        fn p(&self, n: &str) -> String {
            self.0.join(n).to_string_lossy().into_owned()
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn run(args: &[&str]) -> Result<(), ArgError> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&argv)
    }

    #[test]
    fn full_cli_lifecycle() {
        let tmp = TempDir::new();
        let csv = tmp.p("data.csv");
        let idx = tmp.p("data.gtree");

        run(&[
            "generate", "--out", &csv, "--kind", "uniform", "--n", "300", "--dims", "3",
        ])
        .unwrap();
        run(&["build", "--data", &csv, "--index", &idx]).unwrap();
        run(&["info", "--index", &idx, "--check", "true"]).unwrap();
        run(&[
            "mliq",
            "--index",
            &idx,
            "--query",
            "0.5,0.5,0.5;0.1,0.1,0.1",
            "-k",
            "3",
        ])
        .unwrap();
        run(&[
            "tiq",
            "--index",
            &idx,
            "--query",
            "0.5,0.5,0.5;0.1,0.1,0.1",
            "--theta",
            "0.01",
        ])
        .unwrap();
        run(&[
            "boxq", "--index", &idx, "--lo", "0,0,0", "--hi", "1,1,1", "--tau", "0.5",
        ])
        .unwrap();
    }

    #[test]
    fn batch_queries_with_threads() {
        let tmp = TempDir::new();
        let csv = tmp.p("batch.csv");
        let idx = tmp.p("batch.gtree");
        run(&[
            "generate", "--out", &csv, "--kind", "uniform", "--n", "200", "--dims", "2",
        ])
        .unwrap();
        run(&["build", "--data", &csv, "--index", &idx]).unwrap();
        run(&[
            "mliq",
            "--index",
            &idx,
            "--query",
            "0.2,0.2;0.1,0.1",
            "--query",
            "0.8,0.8;0.1,0.1",
            "--query",
            "0.5,0.1;0.2,0.2",
            "-k",
            "2",
            "--threads",
            "3",
        ])
        .unwrap();
        run(&[
            "tiq",
            "--index",
            &idx,
            "--query",
            "0.4,0.6;0.1,0.1",
            "--query",
            "0.6,0.4;0.1,0.1",
            "--theta",
            "0.01",
            "--threads",
            "2",
        ])
        .unwrap();
        // --threads 0 is rejected.
        assert!(run(&[
            "mliq",
            "--index",
            &idx,
            "--query",
            "0.2,0.2;0.1,0.1",
            "--threads",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn incremental_build_and_delete() {
        let tmp = TempDir::new();
        let csv = tmp.p("d.csv");
        let idx = tmp.p("d.gtree");
        run(&[
            "generate", "--out", &csv, "--n", "50", "--dims", "2", "--seed", "9",
        ])
        .unwrap();
        run(&["build", "--data", &csv, "--index", &idx, "--bulk", "false"]).unwrap();

        // Read back the csv to learn object 0's exact parameters.
        let rows = csvio::read_csv(std::path::Path::new(&csv)).unwrap();
        let (id, v) = &rows[0];
        let lit = format!(
            "{};{}",
            v.means()
                .iter()
                .map(f64::to_string)
                .collect::<Vec<_>>()
                .join(","),
            v.sigmas()
                .iter()
                .map(f64::to_string)
                .collect::<Vec<_>>()
                .join(","),
        );
        run(&[
            "delete",
            "--index",
            &idx,
            "--id",
            &id.to_string(),
            "--query",
            &lit,
        ])
        .unwrap();
        // Deleting again fails cleanly.
        assert!(run(&[
            "delete",
            "--index",
            &idx,
            "--id",
            &id.to_string(),
            "--query",
            &lit
        ])
        .is_err());
    }

    #[test]
    fn parallel_budgeted_build_and_append() {
        let tmp = TempDir::new();
        let csv = tmp.p("base.csv");
        let more = tmp.p("more.csv");
        let idx = tmp.p("base.gtree");
        run(&[
            "generate", "--out", &csv, "--kind", "uniform", "--n", "400", "--dims", "3", "--seed",
            "7",
        ])
        .unwrap();
        // Tiny memory budget forces the spill path; two threads exercise
        // the parallel partitioner.
        run(&[
            "build",
            "--data",
            &csv,
            "--index",
            &idx,
            "--threads",
            "2",
            "--mem-budget",
            "16384",
        ])
        .unwrap();
        run(&["info", "--index", &idx, "--check", "true"]).unwrap();

        // Append a second CSV without a rebuild; the index keeps both runs.
        run(&[
            "generate", "--out", &more, "--kind", "uniform", "--n", "150", "--dims", "3", "--seed",
            "8",
        ])
        .unwrap();
        run(&[
            "build", "--data", &more, "--index", &idx, "--append", "true",
        ])
        .unwrap();
        run(&["info", "--index", &idx, "--check", "true"]).unwrap();

        // --threads 0 rejected; appending to a missing index fails cleanly.
        assert!(run(&["build", "--data", &csv, "--index", &idx, "--threads", "0"]).is_err());
        let missing = tmp.p("missing.gtree");
        assert!(run(&["build", "--data", &more, "--index", &missing, "--append", "true"]).is_err());
    }

    #[test]
    fn durable_build_append_and_recover() {
        let tmp = TempDir::new();
        let csv = tmp.p("dur.csv");
        let more = tmp.p("dur-more.csv");
        let idx = tmp.p("dur.gtree");
        run(&[
            "generate", "--out", &csv, "--kind", "uniform", "--n", "120", "--dims", "2", "--seed",
            "4",
        ])
        .unwrap();
        run(&[
            "build",
            "--data",
            &csv,
            "--index",
            &idx,
            "--durability",
            "fsync",
        ])
        .unwrap();
        run(&["info", "--index", &idx, "--check", "true"]).unwrap();

        // Durable append onto the existing index.
        run(&[
            "generate", "--out", &more, "--kind", "uniform", "--n", "40", "--dims", "2", "--seed",
            "5",
        ])
        .unwrap();
        run(&[
            "build",
            "--data",
            &more,
            "--index",
            &idx,
            "--append",
            "true",
            "--durability",
            "flush",
        ])
        .unwrap();
        // Verified (recovery) open passes and the tree checks out.
        run(&[
            "info",
            "--index",
            &idx,
            "--recover",
            "true",
            "--check",
            "true",
        ])
        .unwrap();
        // Incremental durable build works too, and bad levels are caught.
        let idx2 = tmp.p("dur2.gtree");
        run(&[
            "build",
            "--data",
            &csv,
            "--index",
            &idx2,
            "--bulk",
            "false",
            "--durability",
            "flush",
        ])
        .unwrap();
        assert!(run(&[
            "build",
            "--data",
            &csv,
            "--index",
            &idx2,
            "--durability",
            "paranoid"
        ])
        .is_err());
    }

    #[test]
    fn quantised_build_and_query() {
        let tmp = TempDir::new();
        let csv = tmp.p("q.csv");
        let idx = tmp.p("q.gtree");
        run(&[
            "generate", "--out", &csv, "--n", "250", "--dims", "2", "--seed", "11",
        ])
        .unwrap();
        run(&[
            "build",
            "--data",
            &csv,
            "--index",
            &idx,
            "--leaf-format",
            "quantised",
        ])
        .unwrap();
        // The invariant check includes quantise-stability for this format.
        run(&["info", "--index", &idx, "--check", "true"]).unwrap();
        run(&[
            "mliq",
            "--index",
            &idx,
            "--query",
            "0.5,0.5;0.1,0.1",
            "-k",
            "3",
        ])
        .unwrap();
        run(&[
            "tiq",
            "--index",
            &idx,
            "--query",
            "0.5,0.5;0.1,0.1",
            "--theta",
            "0.01",
        ])
        .unwrap();
        // Unknown formats are rejected.
        let bad = tmp.p("bad.gtree");
        assert!(run(&[
            "build",
            "--data",
            &csv,
            "--index",
            &bad,
            "--leaf-format",
            "half"
        ])
        .is_err());
    }

    #[test]
    fn forest_lifecycle() {
        let tmp = TempDir::new();
        let csv = tmp.p("f.csv");
        let dir = tmp.p("forest");

        run(&[
            "generate", "--out", &csv, "--kind", "uniform", "--n", "400", "--dims", "3", "--seed",
            "2",
        ])
        .unwrap();
        run(&[
            "build",
            "--forest",
            "true",
            "--data",
            &csv,
            "--index",
            &dir,
            "--memtable",
            "64",
        ])
        .unwrap();
        run(&["info", "--index", &dir]).unwrap();
        // Stream drift events (upserts + deletes) into the forest.
        run(&[
            "ingest",
            "--index",
            &dir,
            "--events",
            "500",
            "--sensors",
            "32",
            "--seed",
            "3",
        ])
        .unwrap();
        run(&["compact", "--index", &dir]).unwrap();
        run(&[
            "mliq",
            "--index",
            &dir,
            "--query",
            "0.5,0.5,0.5;0.1,0.1,0.1",
            "-k",
            "3",
            "--threads",
            "2",
        ])
        .unwrap();
        run(&[
            "tiq",
            "--index",
            &dir,
            "--query",
            "0.5,0.5,0.5;0.1,0.1,0.1",
            "--theta",
            "0.001",
        ])
        .unwrap();
        run(&[
            "boxq", "--index", &dir, "--lo", "0,0,0", "--hi", "1,1,1", "--tau", "0.1",
        ])
        .unwrap();
        // CSV ingest (pure upserts) also lands.
        run(&["ingest", "--index", &dir, "--data", &csv]).unwrap();
        run(&["info", "--index", &dir]).unwrap();
        // Building a forest over an existing one is refused.
        assert!(run(&["build", "--forest", "true", "--data", &csv, "--index", &dir]).is_err());
    }

    #[test]
    fn unknown_subcommand_is_reported() {
        let err = run(&["frobnicate"]).unwrap_err();
        assert!(err.0.contains("frobnicate"));
    }

    #[test]
    fn build_rejects_missing_file() {
        assert!(run(&[
            "build",
            "--data",
            "/nonexistent.csv",
            "--index",
            "/tmp/x.gt"
        ])
        .is_err());
    }
}
