//! The two write workloads over one drifting-sensor stream.
//!
//! * `drift-ingest` — the stream fed into a `GaussForest` on
//!   `DirComponentStores` (quantised leaves, `Durability::Fsync`, 4,096-
//!   record memtable), with `maintain()` at a fixed event cadence and a
//!   pinned-snapshot k-MLIQ every fixed number of events.
//! * `tree-upsert` — the same stream applied in place to one `GaussTree`
//!   on a `FileStore` (`Durability::Fsync`, a commit every 1,024 events),
//!   with a k-MLIQ on the working tree every fixed number of events.
//!
//! Set-up replays a fixed prefix of the stream through the workload's own
//! write path; the timed loop continues the stream from there.

use crate::metrics::{median, percentile, ratio, EndToEnd, Layers, Outcome};
use crate::oracle::{self, Answer, QueryKind};
use crate::query::QUERY;
use crate::stores::{self, IoCounters, IoSnapshot, TracedComponents, TracedStore};
use crate::trace::{self, Span};
use crate::{calib, mix, probes, Ctx};
use gauss_storage::forest::DirComponentStores;
use gauss_storage::{
    AccessStats, Durability, FileStore, MemStore, PageStore, SharedBufferPool, StatsSnapshot,
    DEFAULT_PAGE_SIZE,
};
use gauss_tree::{
    DeleteOutcome, ForestOptions, GaussForest, GaussTree, LeafFormat, ReadView, TreeConfig,
    TreeError, TreeOptions,
};
use gauss_workloads::{DriftConfig, DriftStream, SigmaSpec, StreamOp};
use pfv::Pfv;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Span names.
pub const FOREST_WRITE: &str = "core.forest.write";
/// Forest maintenance.
pub const MAINTAIN: &str = "core.forest.maintain";
/// Snapshot pinning.
pub const SNAPSHOT: &str = "core.forest.snapshot";
/// Tree insert.
pub const TREE_INSERT: &str = "core.tree.insert";
/// Tree delete.
pub const TREE_DELETE: &str = "core.tree.delete";
/// Tree commit.
pub const TREE_FLUSH: &str = "core.tree.flush";

const DIMS: usize = 8;
const K: usize = 10;
const MEMTABLE: usize = 4096;
const COMMIT_EVERY: usize = 1024;
/// Events per traced / untraced block. Every cadence below is chosen so
/// its calls fall into traced and untraced blocks alike.
const BLOCK: usize = 1024;
/// Forest `maintain()` cadence: 17 blocks, an odd count.
const MAINTAIN_EVERY: usize = 17 * BLOCK;
/// Repetitions per run, each from fresh stores: set-up time is their
/// median, throughput and probe latencies their best.
const REPS: usize = 5;
const PROBE_QUERIES: usize = 16;
/// Pool frames of the in-place tree (50 MiB of 8 KiB pages).
const TREE_FRAMES: usize = 6400;

/// What a write workload replays: set-up prefix, timed events, probes.
struct Inputs {
    /// The stream: the set-up prefix followed by the timed events.
    ops: Vec<StreamOp>,
    /// Length of the set-up prefix.
    warm: usize,
    /// Probe queries, used in rotation.
    queries: Vec<Pfv>,
    /// A probe query every this many timed events.
    probe_every: usize,
}

fn drift_config() -> DriftConfig {
    DriftConfig {
        initial_sensors: 1024,
        dims: DIMS,
        sigma: SigmaSpec::uniform(0.05, 0.4),
        update_fraction: 0.55,
        delete_fraction: 0.05,
        ..DriftConfig::default()
    }
}

/// The stream and probe queries of one run. `rate` is the nominal events
/// per second: the repetitions together measure about `--seconds` of
/// events.
fn inputs(ctx: &Ctx, warm: usize, rate: f64, probe_every: usize) -> Inputs {
    let scale = if ctx.small { 8 } else { 1 };
    let warm = warm / scale;
    let events = ((ctx.seconds * rate) as usize / REPS / scale).max(2 * BLOCK);
    let ops: Vec<StreamOp> = DriftStream::new(drift_config(), mix(ctx.seed, 0xD1))
        .take(warm + events)
        .collect();
    let queries: Vec<Pfv> = DriftStream::new(drift_config(), mix(ctx.seed, 0x9E))
        .filter_map(|op| match op {
            StreamOp::Upsert(_, v) => Some(v),
            StreamOp::Delete(_) => None,
        })
        .take(PROBE_QUERIES)
        .collect();
    Inputs {
        ops,
        warm,
        queries,
        probe_every,
    }
}

/// Applies `op` to the replayed live set.
fn replay(live: &mut HashMap<u64, Pfv>, op: &StreamOp) {
    match op {
        StreamOp::Upsert(id, v) => {
            live.insert(*id, v.clone());
        }
        StreamOp::Delete(id) => {
            live.remove(id);
        }
    }
}

fn sorted(live: &HashMap<u64, Pfv>) -> Vec<(u64, Pfv)> {
    let mut items: Vec<(u64, Pfv)> = live.iter().map(|(id, v)| (*id, v.clone())).collect();
    items.sort_by_key(|(id, _)| *id);
    items
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The system a write workload drives.
trait Target {
    /// Applies one event; `live` is the replayed live set before it.
    /// Returns whether every call succeeded.
    fn write(&mut self, live: &HashMap<u64, Pfv>, op: &StreamOp) -> bool;
    /// Periodic work after event `j` of a phase (maintenance, commits).
    fn after(&mut self, j: usize) -> bool;
    /// One probe query.
    fn query(&mut self, q: &Pfv) -> Result<Answer, TreeError>;
    /// Buffer-pool counters.
    fn pool_stats(&self) -> StatsSnapshot;
    /// Bytes the store occupies.
    fn store_bytes(&self) -> u64;
    /// Deterministic counters the target keeps itself.
    fn counts(&self) -> Vec<u64>;
}

/// Counters that must repeat exactly for a seed.
#[derive(Debug, Clone, PartialEq, Default)]
struct Counts {
    ops_pool: StatsSnapshot,
    ops_io: IoSnapshot,
    query_pool: StatsSnapshot,
    query_reads: u64,
    queries: u64,
    upsert_payload: u64,
    store_bytes: u64,
    live: u64,
    target: Vec<u64>,
}

/// One repetition: set-up, then the timed loop, on fresh stores.
struct Rep {
    /// Host-normalised set-up time.
    setup_s: f64,
    /// Host-normalised time of each segment of the timed loop.
    segment_s: Vec<f64>,
    /// Host-normalised latency of each probe query, by position.
    probe_s: Vec<f64>,
    counts: Counts,
    /// Raw per-event times in traced / untraced blocks (traced runs).
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
}

/// Events between host-speed reference samples.
const SEGMENT: usize = 64;

fn run_rep<T: Target>(
    ctx: &Ctx,
    target: &mut T,
    live: &mut HashMap<u64, Pfv>,
    inp: &Inputs,
    io: &IoCounters,
    out: &mut Outcome,
) -> Result<Rep, String> {
    let (ops, warm, queries, probe_every) = (&inp.ops, inp.warm, &inp.queries, inp.probe_every);
    let reference = calib::Reference::new();
    let t = Instant::now();
    for (j, op) in ops[..warm].iter().enumerate() {
        if !(target.write(live, op) && target.after(j)) {
            return Err("set-up write failed".into());
        }
        replay(live, op);
    }
    let setup_raw = t.elapsed().as_secs_f64();
    let setup_s = setup_raw * calib::bracket_scale(&reference);

    let pool0 = target.pool_stats();
    let io0 = io.snapshot();
    let mut counts = Counts::default();
    let (mut seg_s, mut seg_ref) = (Vec::new(), Vec::new());
    let mut probes: Vec<(usize, f64)> = Vec::new();
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let timed = &ops[warm..];
    let mut seg_start = Instant::now();
    for (j, op) in timed.iter().enumerate() {
        let on = ctx.traced(j, BLOCK);
        trace::set_enabled(on);
        trace::set_request(j as u64);
        let te = Instant::now();
        out.attempted += 1;
        if !(target.write(live, op) && target.after(j)) {
            out.failed += 1;
        }
        if matches!(op, StreamOp::Upsert(..)) {
            counts.upsert_payload += (16 * DIMS) as u64;
        }
        replay(live, op);
        if j % probe_every == probe_every - 1 {
            let (p0, i0) = (target.pool_stats(), io.snapshot());
            let t = Instant::now();
            let r = target.query(&queries[j / probe_every % queries.len()]);
            probes.push((j / SEGMENT, t.elapsed().as_secs_f64()));
            let (dp, di) = (target.pool_stats().since(&p0), io.snapshot().since(&i0));
            counts.query_pool.logical_reads += dp.logical_reads;
            counts.query_pool.physical_reads += dp.physical_reads;
            counts.query_pool.evictions += dp.evictions;
            counts.query_reads += di.reads;
            counts.queries += 1;
            out.attempted += 1;
            if !matches!(r, Ok(a) if !a.is_empty()) {
                out.failed += 1;
            }
        }
        if ctx.trace {
            let dt = te.elapsed().as_secs_f64();
            if on { &mut traced_s } else { &mut untraced_s }.push(dt);
        }
        if j % SEGMENT == SEGMENT - 1 || j + 1 == timed.len() {
            seg_s.push(seg_start.elapsed().as_secs_f64());
            seg_ref.push(reference.unit());
            seg_start = Instant::now();
        }
    }
    trace::set_enabled(false);
    let scales = calib::local_scales(&seg_ref, 5);
    counts.ops_pool = target.pool_stats().since(&pool0);
    counts.ops_io = io.snapshot().since(&io0);
    counts.store_bytes = target.store_bytes();
    counts.live = live.len() as u64;
    counts.target = target.counts();
    Ok(Rep {
        setup_s,
        segment_s: seg_s.iter().zip(&scales).map(|(s, k)| s * k).collect(),
        probe_s: probes.iter().map(|&(seg, dt)| dt * scales[seg]).collect(),
        counts,
        traced_s,
        untraced_s,
    })
}

/// What the repetitions of one write workload add up to.
struct Reps<T> {
    last: T,
    live: HashMap<u64, Pfv>,
    e2e: EndToEnd,
    counts: Counts,
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
}

/// Runs `REPS` repetitions on fresh targets and combines them: the median
/// is taken over each probe position's best latency across the
/// repetitions, the 95th percentile over every probe, and throughput is
/// that of a loop running each segment at its best time; set-up time is
/// the median. Counts must repeat exactly.
fn run_reps<T: Target>(
    ctx: &Ctx,
    mut make: impl FnMut(usize) -> Result<T, String>,
    inp: &Inputs,
    io: &IoCounters,
    out: &mut Outcome,
) -> Result<Reps<T>, String> {
    let mut last = None;
    let mut setup = Vec::new();
    let mut best: Vec<f64> = Vec::new();
    let mut best_segment: Vec<f64> = Vec::new();
    let mut pooled: Vec<f64> = Vec::new();
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut first_counts: Option<Counts> = None;
    for rep in 0..REPS {
        drop(last.take());
        let mut target = make(rep)?;
        let mut live = HashMap::new();
        let r = run_rep(ctx, &mut target, &mut live, inp, io, out)?;
        setup.push(r.setup_s);
        if rep == 0 {
            best = r.probe_s.clone();
            best_segment = r.segment_s.clone();
        }
        for (b, p) in best.iter_mut().zip(&r.probe_s) {
            *b = b.min(*p);
        }
        for (b, s) in best_segment.iter_mut().zip(&r.segment_s) {
            *b = b.min(*s);
        }
        pooled.extend(&r.probe_s);
        traced_s.extend(r.traced_s);
        untraced_s.extend(r.untraced_s);
        match &first_counts {
            None => first_counts = Some(r.counts),
            Some(c) if *c != r.counts => {
                out.failed += 1;
                out.notes
                    .push(format!("repetition {rep} counts differ from repetition 0"));
            }
            Some(_) => {}
        }
        last = Some((target, live));
    }
    let (Some((last, live)), Some(counts)) = (last, first_counts) else {
        return Err("no repetition ran".into());
    };
    let q = counts.queries as f64;
    let e2e = EndToEnd {
        setup_s: median(&setup),
        query_p50_us: percentile(&best, 0.50) * 1e6,
        query_p95_us: percentile(&pooled, 0.95) * 1e6,
        ops_per_s: (inp.ops.len() - inp.warm + best.len()) as f64
            / best_segment.iter().sum::<f64>(),
        pages_per_query: ratio(counts.query_pool.logical_reads as f64, q),
        write_amp: ratio(
            counts.ops_io.write_bytes as f64,
            counts.upsert_payload as f64,
        ),
        space_amp: ratio(
            counts.store_bytes as f64,
            (counts.live as usize * 16 * DIMS) as f64,
        ),
    };
    Ok(Reps {
        last,
        live,
        e2e,
        counts,
        traced_s,
        untraced_s,
    })
}

/// Per-layer figures both write workloads derive the same way.
fn common_layers(r: &Reps<impl Target>, spans: &[Span]) -> Layers {
    let c = &r.counts;
    let q = c.queries as f64;
    let ev = (r.traced_s.len() + r.untraced_s.len()) as f64 / REPS as f64;
    let traced_events = r.traced_s.len() as f64;
    let traced_queries = trace::durations(spans, QUERY).len() as f64;
    let a = trace::analyse(spans);
    let (mut self_us, mut store_ns, mut query_ns) = (Vec::new(), 0u64, 0u64);
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == QUERY) {
        self_us.push(a.self_time(spans, i) as f64 / 1e3);
        store_ns += a.children[i];
        query_ns += s.dur();
    }
    let total_us = |name: &str| trace::durations(spans, name).iter().sum::<u64>() as f64 / 1e3;
    Layers {
        hit_rate: c.query_pool.hit_ratio(),
        evictions_per_query: ratio(c.query_pool.evictions as f64, q),
        reads_per_query: ratio(c.query_reads as f64, q),
        read_us_per_query: ratio(
            trace::child_time_under(spans, QUERY, stores::READ) as f64 / 1e3,
            traced_queries,
        ),
        view_self_us_p50: median(&self_us),
        view_store_share: ratio(store_ns as f64, query_ns as f64),
        pages_written_per_op: ratio(c.ops_pool.physical_writes as f64, ev),
        write_calls_per_op: ratio(c.ops_pool.write_calls as f64, ev),
        write_us_per_op: ratio(total_us(stores::WRITE), traced_events),
        syncs_per_op: ratio(c.ops_io.syncs as f64, ev),
        sync_us_per_op: ratio(total_us(stores::SYNC), traced_events),
        overhead_frac: crate::metrics::overhead(&r.traced_s, &r.untraced_s),
        ..Layers::default()
    }
}

fn probe_costs<S: PageStore>(
    tree: &GaussTree<S>,
    queries: &[Pfv],
    out: &mut Outcome,
) -> probes::Costs {
    out.attempted += 1;
    probes::run(tree, queries).unwrap_or_else(|e| {
        out.failed += 1;
        out.notes.push(e);
        probes::Costs::default()
    })
}

/// Checks k-MLIQ answers of `view` against a tree bulk-loaded from the
/// replayed live set.
fn check_against_reference<S: PageStore>(
    view: &impl ReadView<S>,
    config: TreeConfig,
    live: &HashMap<u64, Pfv>,
    queries: &[Pfv],
    out: &mut Outcome,
) -> Result<GaussTree<MemStore>, String> {
    let pool = SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        4096,
        AccessStats::new_shared(),
    );
    let reference = GaussTree::bulk_load(pool, config, sorted(live))
        .map_err(|e| format!("reference build: {e}"))?;
    for q in queries {
        out.attempted += 1;
        let got = oracle::run_query(view, q, QueryKind::Mliq(K));
        let want = oracle::run_query(&reference, q, QueryKind::Mliq(K));
        if got.is_err() || got.ok() != want.ok() {
            out.failed += 1;
            out.notes
                .push("k-MLIQ differs from the reference tree over the live set".into());
        }
    }
    Ok(reference)
}

/// The forest target.
struct Forest {
    forest: GaussForest<TracedComponents<DirComponentStores>>,
    dir: PathBuf,
    flushes: u64,
    rewritten: u64,
    maintains: u64,
    components_max: u64,
}

impl Target for Forest {
    fn write(&mut self, _live: &HashMap<u64, Pfv>, op: &StreamOp) -> bool {
        let epoch = self.forest.epoch();
        let r = {
            let _s = trace::span(FOREST_WRITE);
            match op {
                StreamOp::Upsert(id, v) => self.forest.insert(*id, v),
                StreamOp::Delete(id) => self.forest.delete(*id).map(|_| ()),
            }
        };
        // Only a flush commits a manifest inside insert/delete.
        if self.forest.epoch() != epoch {
            self.flushes += 1;
        }
        r.is_ok()
    }

    fn after(&mut self, j: usize) -> bool {
        if j % MAINTAIN_EVERY != MAINTAIN_EVERY - 1 {
            return true;
        }
        let _s = trace::span(MAINTAIN);
        self.maintains += 1;
        match self.forest.maintain() {
            Ok(rep) => {
                self.rewritten += rep.entries_rewritten;
                true
            }
            Err(_) => false,
        }
    }

    fn query(&mut self, q: &Pfv) -> Result<Answer, TreeError> {
        let snap = {
            let _s = trace::span(SNAPSHOT);
            self.forest.snapshot()?
        };
        let r = {
            let _s = trace::span(QUERY);
            oracle::run_query(&snap, q, QueryKind::Mliq(K))
        };
        self.components_max = self
            .components_max
            .max(self.forest.component_stats().len() as u64);
        r
    }

    fn pool_stats(&self) -> StatsSnapshot {
        self.forest.stats().snapshot()
    }

    fn store_bytes(&self) -> u64 {
        dir_bytes(&self.dir)
    }

    fn counts(&self) -> Vec<u64> {
        vec![
            self.flushes,
            self.rewritten,
            self.maintains,
            self.components_max,
            self.forest.len(),
        ]
    }
}

/// `drift-ingest`: the stream into a Gauss-forest.
///
/// # Errors
/// Store failures during set-up.
pub fn run_forest(ctx: &Ctx) -> Result<Outcome, String> {
    let inp = inputs(ctx, 8 * MEMTABLE, 15_000.0, 256);
    let config = TreeConfig::new(DIMS).with_leaf_format(LeafFormat::Quantised);
    let opts = ForestOptions::new()
        .memtable_capacity(if ctx.small { MEMTABLE / 8 } else { MEMTABLE })
        .durability(Durability::Fsync);
    let io = IoCounters::new_shared();
    let mut out = Outcome::default();
    let make = |rep: usize| -> Result<Forest, String> {
        if rep > 0 {
            std::fs::remove_dir_all(ctx.dir.join(format!("forest-{}", rep - 1))).ok();
        }
        let dir = ctx.dir.join(format!("forest-{rep}"));
        let backend = TracedComponents::new(
            DirComponentStores::new(&dir, DEFAULT_PAGE_SIZE).map_err(|e| e.to_string())?,
            io.clone(),
        );
        let forest = GaussForest::create(backend, config, opts).map_err(|e| e.to_string())?;
        Ok(Forest {
            forest,
            dir,
            flushes: 0,
            rewritten: 0,
            maintains: 0,
            components_max: 0,
        })
    };
    let r = run_reps(ctx, make, &inp, &io, &mut out)?;
    out.e2e = r.e2e;

    // Oracle: a final snapshot against a tree bulk-loaded from the
    // replayed live set.
    out.attempted += 1;
    if r.last.forest.len() != r.live.len() as u64 {
        out.failed += 1;
        out.notes.push(format!(
            "forest holds {} objects, the replay {}",
            r.last.forest.len(),
            r.live.len()
        ));
    }
    let snap = r.last.forest.snapshot().map_err(|e| e.to_string())?;
    let reference = check_against_reference(&snap, config, &r.live, &inp.queries, &mut out)?;
    let t = &r.counts.target;
    out.notes.push(format!(
        "{REPS} repetitions of {} set-up + {} timed events; {} live objects, {} flushes, {} components at most",
        inp.warm,
        inp.ops.len() - inp.warm,
        r.live.len(),
        t[0],
        t[3]
    ));
    if ctx.trace {
        let spans = trace::take();
        let a = trace::analyse(&spans);
        let (mut mem_us, mut flush_us, mut all_us) = (Vec::new(), Vec::new(), Vec::new());
        for (i, s) in spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == FOREST_WRITE)
        {
            let us = s.dur() as f64 / 1e3;
            all_us.push(us);
            // A write whose span has children touched storage: a flush.
            if a.children[i] > 0 {
                &mut flush_us
            } else {
                &mut mem_us
            }
            .push(us);
        }
        let manifest_ns: u64 = [stores::MANIFEST_WRITE, stores::MANIFEST_SYNC]
            .iter()
            .flat_map(|n| trace::durations(&spans, n))
            .sum();
        let manifest_traced = trace::durations(&spans, stores::MANIFEST_WRITE).len() as f64;
        let maintain_ms: f64 = trace::durations(&spans, MAINTAIN).iter().sum::<u64>() as f64 / 1e6;
        let traced_maintains = trace::durations(&spans, MAINTAIN).len() as f64;
        let costs = probe_costs(&reference, &inp.queries, &mut out);
        out.layers = Layers {
            refine_ns_per_entry: costs.refine_ns_per_entry,
            screen_ns_per_entry: costs.screen_ns_per_entry,
            hull_ns_per_child: costs.hull_ns_per_child,
            decode_ns_per_page: costs.decode_ns_per_page,
            memtable_op_us_p50: median(&mem_us),
            forest_write_p999_us: percentile(&all_us, 0.999),
            flushes: t[0] as f64,
            flush_ms_p50: median(&flush_us) / 1e3,
            // Traced maintain time, scaled to every maintain of one repetition.
            maintain_ms_total: ratio(maintain_ms, traced_maintains) * t[2] as f64,
            entries_rewritten: t[1] as f64,
            components_max: t[3] as f64,
            snapshot_pin_us_p50: median(&crate::metrics::ns_to_us(&trace::durations(
                &spans, SNAPSHOT,
            ))),
            manifest_writes: r.counts.ops_io.manifest_writes as f64,
            manifest_us: ratio(manifest_ns as f64 / 1e3, manifest_traced),
            components_created: r.counts.ops_io.components_created as f64,
            ..common_layers(&r, &spans)
        };
        out.spans = spans;
    }
    Ok(out)
}

/// The in-place tree target.
struct Tree {
    tree: GaussTree<TracedStore<FileStore>>,
}

impl Target for Tree {
    /// An upsert of a live id deletes the old version first.
    fn write(&mut self, live: &HashMap<u64, Pfv>, op: &StreamOp) -> bool {
        let tree = &mut self.tree;
        let delete = |tree: &mut GaussTree<_>, id: u64, old: &Pfv| {
            let _s = trace::span(TREE_DELETE);
            matches!(tree.delete(id, old), Ok(DeleteOutcome::Deleted))
        };
        match op {
            StreamOp::Upsert(id, v) => {
                let deleted = live.get(id).is_none_or(|old| delete(tree, *id, old));
                let _s = trace::span(TREE_INSERT);
                tree.insert(*id, v).is_ok() && deleted
            }
            StreamOp::Delete(id) => live.get(id).is_none_or(|old| delete(tree, *id, old)),
        }
    }

    fn after(&mut self, j: usize) -> bool {
        if j % COMMIT_EVERY != COMMIT_EVERY - 1 {
            return true;
        }
        let _s = trace::span(TREE_FLUSH);
        self.tree.flush().is_ok()
    }

    fn query(&mut self, q: &Pfv) -> Result<Answer, TreeError> {
        let _s = trace::span(QUERY);
        oracle::run_query(&self.tree, q, QueryKind::Mliq(K))
    }

    fn pool_stats(&self) -> StatsSnapshot {
        self.tree.stats().snapshot()
    }

    fn store_bytes(&self) -> u64 {
        self.tree.pool().num_pages() * self.tree.pool().page_size() as u64
    }

    fn counts(&self) -> Vec<u64> {
        vec![self.tree.free_page_count() as u64, self.tree.len()]
    }
}

/// `tree-upsert`: the stream applied in place to one Gauss-tree.
///
/// # Errors
/// Store failures during set-up.
pub fn run_tree(ctx: &Ctx) -> Result<Outcome, String> {
    let inp = inputs(ctx, 4 * COMMIT_EVERY, 5_000.0, 128);
    let config = TreeConfig::new(DIMS);
    let topts = TreeOptions::new().durability(Durability::Fsync);
    let io = IoCounters::new_shared();
    let mut out = Outcome::default();
    let make = |rep: usize| -> Result<Tree, String> {
        if rep > 0 {
            std::fs::remove_file(ctx.dir.join(format!("tree-{}.gtree", rep - 1))).ok();
        }
        let path = ctx.dir.join(format!("tree-{rep}.gtree"));
        let store = FileStore::create(&path, DEFAULT_PAGE_SIZE).map_err(|e| e.to_string())?;
        let pool = SharedBufferPool::new(
            TracedStore::new(store, io.clone()),
            TREE_FRAMES,
            AccessStats::new_shared(),
        );
        let tree = GaussTree::create_with(pool, config, &topts).map_err(|e| e.to_string())?;
        Ok(Tree { tree })
    };
    let r = run_reps(ctx, make, &inp, &io, &mut out)?;
    out.e2e = r.e2e;
    let tree = &r.last.tree;

    // Oracle: the live set equals the replay, the invariants hold, and
    // k-MLIQ answers match a tree bulk-loaded from the replayed live set.
    out.attempted += 2;
    let mut stored = Vec::new();
    let scan = tree.for_each_entry(|id, v| stored.push((id, v.clone())));
    stored.sort_by_key(|(id, _)| *id);
    if scan.is_err() || stored != sorted(&r.live) {
        out.failed += 1;
        out.notes
            .push("tree live set differs from the replayed stream".into());
    }
    match tree.check_invariants(false) {
        Ok(errs) if errs.is_empty() => {}
        Ok(errs) => {
            out.failed += 1;
            out.notes.push(format!("invariant violations: {errs:?}"));
        }
        Err(e) => {
            out.failed += 1;
            out.notes.push(format!("invariant check failed: {e}"));
        }
    }
    check_against_reference(tree, config, &r.live, &inp.queries, &mut out)?;
    out.notes.push(format!(
        "{REPS} repetitions of {} set-up + {} timed events; {} live objects, {} store pages at the end",
        inp.warm,
        inp.ops.len() - inp.warm,
        r.live.len(),
        tree.pool().num_pages()
    ));
    if ctx.trace {
        let spans = trace::take();
        let us = |name| crate::metrics::ns_to_us(&trace::durations(&spans, name));
        let mut writes = us(TREE_INSERT);
        writes.extend(us(TREE_DELETE));
        let costs = probe_costs(tree, &inp.queries, &mut out);
        out.layers = Layers {
            refine_ns_per_entry: costs.refine_ns_per_entry,
            screen_ns_per_entry: costs.screen_ns_per_entry,
            hull_ns_per_child: costs.hull_ns_per_child,
            decode_ns_per_page: costs.decode_ns_per_page,
            tree_insert_us_p50: median(&us(TREE_INSERT)),
            tree_delete_us_p50: median(&us(TREE_DELETE)),
            tree_write_p999_us: percentile(&writes, 0.999),
            tree_flush_us_p50: median(&us(TREE_FLUSH)),
            free_pages_end: r.counts.target[0] as f64,
            ..common_layers(&r, &spans)
        };
        out.spans = spans;
    }
    Ok(out)
}
