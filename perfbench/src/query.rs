//! The two Figure 7 query workloads.
//!
//! * `ds1-warm` — data set 1 (27-d histograms) bulk-loaded into an
//!   exact-leaf tree on a `FileStore`; the pool holds the whole index and
//!   is warmed before timing, so time goes to hull sweeps, screening and
//!   exact refinement.
//! * `ds2-cold` — data set 2 (100k × 10-d uniform) on a `FileStore`
//!   behind a 512-frame pool, far below the index size, so pool misses,
//!   store reads and node decode dominate.
//!
//! Both rotate 1-MLIQ, TIQ(0.8) and TIQ(0.2) over a fixed query list.

use crate::metrics::{self, median, percentile, ratio, EndToEnd, Layers, Outcome};
use crate::oracle::{self, Answer, QueryKind};
use crate::stores::{self, IoCounters, TracedStore};
use crate::{calib, mix, probes, trace, Ctx};
use gauss_bench::ExperimentSpec;
use gauss_storage::{AccessStats, FileStore, SharedBufferPool, DEFAULT_PAGE_SIZE};
use gauss_tree::{GaussTree, TreeConfig};
use gauss_workloads::generate_queries;
use pfv::Pfv;
use std::time::Instant;

/// Which data set and cache regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Data set 1, whole index cached.
    Ds1Warm,
    /// Data set 2, 512-frame pool.
    Ds2Cold,
}

/// Span names.
pub const QUERY: &str = "core.view.query";
/// Bulk-load span.
pub const BULK: &str = "core.bulk.build";

/// The query rotation.
pub const ROTATION: [QueryKind; 3] = [QueryKind::Mliq(1), QueryKind::Tiq(0.8), QueryKind::Tiq(0.2)];

/// Index builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Queries checked against the scan before timing (a multiple of 3, so
/// every kind is covered equally).
const ORACLE_QUERIES: usize = 30;
/// Operations per traced / untraced block.
const BLOCK: usize = 32;

struct Plan {
    spec: ExperimentSpec,
    /// Pool frames.
    frames: usize,
    /// Distinct queries in the rotation (a multiple of 3).
    distinct: usize,
    /// Timed passes over the rotation.
    passes: usize,
    /// Queries run before timing (after a cold start) for `ds2-cold`;
    /// `None` warms with every distinct query.
    warm: Option<usize>,
}

fn plan(kind: Kind, ctx: &Ctx) -> Plan {
    // `rate` is the nominal queries per second: passes are sized so a run
    // measures about `--seconds` of queries.
    let (spec, frames, distinct, rate, warm) = match kind {
        // 50 MiB of 8 KiB frames: several times the ~1,000-page index.
        Kind::Ds1Warm => (ExperimentSpec::dataset1(ctx.small), 6400, 600, 400.0, None),
        Kind::Ds2Cold => (
            ExperimentSpec::dataset2(ctx.small),
            if ctx.small { 64 } else { 512 },
            60,
            24.0,
            Some(30),
        ),
    };
    let passes = ((ctx.seconds * rate / distinct as f64).round() as usize).max(3);
    Plan {
        spec,
        frames,
        distinct,
        passes,
        warm,
    }
}

/// Runs one query workload.
///
/// # Errors
/// Store or bulk-load failures during set-up.
pub fn run(kind: Kind, ctx: &Ctx) -> Result<Outcome, String> {
    let p = plan(kind, ctx);
    // The data set is the paper's, fixed; the seed chooses the queries.
    let spec = p.spec;
    let ds = spec.dataset();
    let dims = ds.dims();
    let items = ds.items();
    let distinct = p.distinct.min(items.len() / 3 * 3);
    let queries: Vec<Pfv> = generate_queries(&ds, distinct, spec.query_sigma, mix(ctx.seed, 0x51))
        .into_iter()
        .map(|q| q.query)
        .collect();
    let payload = (items.len() * 16 * dims) as f64;
    let mut out = Outcome::default();

    // Set-up: bulk-load the index SETUP_REPS times, keep the last build.
    let io = IoCounters::new_shared();
    let reference = calib::Reference::new();
    trace::set_enabled(ctx.trace);
    let mut setup_s = Vec::new();
    let mut build = None;
    for rep in 0..SETUP_REPS {
        drop(build.take());
        let path = ctx.dir.join(format!("index-{rep}.gtree"));
        let store = FileStore::create(&path, DEFAULT_PAGE_SIZE).map_err(|e| e.to_string())?;
        let pool = SharedBufferPool::new(
            TracedStore::new(store, io.clone()),
            p.frames,
            AccessStats::new_shared(),
        );
        let input = items.clone();
        let io0 = io.snapshot();
        trace::set_request(rep as u64);
        let t = Instant::now();
        let tree = {
            let _s = trace::span(BULK);
            GaussTree::bulk_load(pool, TreeConfig::new(dims), input)
        }
        .map_err(|e| format!("bulk load: {e}"))?;
        let raw = t.elapsed().as_secs_f64();
        setup_s.push(raw * calib::bracket_scale(&reference));
        build = Some((tree, io.snapshot().since(&io0)));
        if rep > 0 {
            std::fs::remove_file(ctx.dir.join(format!("index-{}.gtree", rep - 1))).ok();
        }
    }
    trace::set_enabled(false);
    let Some((tree, build_io)) = build else {
        return Err("no build".into());
    };
    let build_stats = tree.stats().snapshot();
    let mode = tree.config().combine;

    // Oracle: the first ORACLE_QUERIES answers against a brute-force scan.
    let mut expected: Vec<Option<Answer>> = vec![None; distinct];
    for (i, q) in queries.iter().enumerate().take(ORACLE_QUERIES) {
        let kind = ROTATION[i % 3];
        let want = oracle::scan(mode, &items, q, kind);
        let edge = match kind {
            QueryKind::Tiq(theta) => oracle::tiq_edge_ids(mode, &items, q, theta),
            QueryKind::Mliq(_) => Vec::new(),
        };
        out.attempted += 1;
        match oracle::run_query(&tree, q, kind) {
            Ok(got) if oracle::agrees(&got, &want, &edge) => expected[i] = Some(got),
            Ok(_) => {
                out.failed += 1;
                out.notes
                    .push(format!("query {i} ({kind:?}) disagrees with the scan"));
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("query {i} failed: {e}"));
            }
        }
    }

    // Warm-up: the whole rotation once (ds1), or a cold start followed by
    // a fixed prefix (ds2), so the loop starts from a deterministic state.
    match p.warm {
        None => {
            for (i, q) in queries.iter().enumerate() {
                oracle::run_query(&tree, q, ROTATION[i % 3]).map_err(|e| e.to_string())?;
            }
        }
        Some(n) => {
            tree.cold_start();
            for (i, q) in queries.iter().enumerate().take(n) {
                oracle::run_query(&tree, q, ROTATION[i % 3]).map_err(|e| e.to_string())?;
            }
        }
    }

    // Timed closed loop: `passes` identical passes over the rotation. Each
    // query's time is normalised to nominal host speed by the reference
    // units run around it (see `calib`). The median is taken over each
    // query's best time across the passes, the 95th percentile over every
    // timed query (so at least ten samples lie beyond it), and throughput
    // is that of one pass at each query's best time.
    let stats0 = tree.stats().snapshot();
    let io0 = io.snapshot();
    let mut best = vec![f64::INFINITY; distinct];
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut pass_lat = vec![0.0; distinct];
    let mut pass_ref = vec![0.0; distinct];
    let mut pooled = Vec::new();
    for pass in 0..p.passes {
        for (i, q) in queries.iter().enumerate() {
            let n = pass * distinct + i;
            let on = ctx.traced(n, BLOCK);
            trace::set_enabled(on);
            trace::set_request(n as u64);
            let t = Instant::now();
            let r = {
                let _s = trace::span(QUERY);
                oracle::run_query(&tree, q, ROTATION[i % 3])
            };
            let dt = t.elapsed().as_secs_f64();
            pass_lat[i] = dt;
            pass_ref[i] = reference.unit();
            if on { &mut traced_s } else { &mut untraced_s }.push(dt);
            out.attempted += 1;
            match (r, &expected[i]) {
                (Err(_), _) => out.failed += 1,
                (Ok(got), Some(want)) if &got != want => out.failed += 1,
                _ => {}
            }
        }
        let scales = calib::local_scales(&pass_ref, 10);
        let scaled: Vec<f64> = pass_lat.iter().zip(&scales).map(|(d, s)| d * s).collect();
        for (b, &dt) in best.iter_mut().zip(&scaled) {
            *b = b.min(dt);
        }
        pooled.extend(scaled.iter().copied());
    }
    trace::set_enabled(false);
    let st = tree.stats().snapshot().since(&stats0);
    let iod = io.snapshot().since(&io0);
    let n = (p.passes * distinct) as f64;

    out.e2e = EndToEnd {
        setup_s: median(&setup_s),
        query_p50_us: percentile(&best, 0.50) * 1e6,
        query_p95_us: percentile(&pooled, 0.95) * 1e6,
        ops_per_s: distinct as f64 / best.iter().sum::<f64>(),
        pages_per_query: st.logical_reads as f64 / n,
        write_amp: build_io.write_bytes as f64 / payload,
        space_amp: (tree.pool().num_pages() * tree.pool().page_size() as u64) as f64 / payload,
    };
    out.notes.push(format!(
        "{} objects x {dims} dims, {} index pages, {} pool frames, {} passes x {distinct} queries",
        items.len(),
        tree.pool().num_pages(),
        p.frames,
        p.passes
    ));

    if ctx.trace {
        let spans = trace::take();
        let a = trace::analyse(&spans);
        let traced_n = traced_s.len() as f64;
        let (mut self_us, mut store_ns, mut query_ns) = (Vec::new(), 0u64, 0u64);
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == QUERY) {
            self_us.push(a.self_time(&spans, i) as f64 / 1e3);
            store_ns += a.children[i];
            query_ns += s.dur();
        }
        let costs = match probes::run(&tree, &queries) {
            Ok(c) => c,
            Err(e) => {
                out.failed += 1;
                out.notes.push(e);
                probes::Costs::default()
            }
        };
        out.attempted += 1;
        out.layers = Layers {
            refine_ns_per_entry: costs.refine_ns_per_entry,
            screen_ns_per_entry: costs.screen_ns_per_entry,
            hull_ns_per_child: costs.hull_ns_per_child,
            decode_ns_per_page: costs.decode_ns_per_page,
            hit_rate: st.hit_ratio(),
            evictions_per_query: st.evictions as f64 / n,
            reads_per_query: iod.reads as f64 / n,
            read_us_per_query: ratio(
                trace::child_time_under(&spans, QUERY, stores::READ) as f64 / 1e3,
                traced_n,
            ),
            view_self_us_p50: median(&self_us),
            view_store_share: ratio(store_ns as f64, query_ns as f64),
            bulk_build_s: median(&metrics::ns_to_us(&trace::durations(&spans, BULK))) / 1e6,
            bulk_pages_written: build_stats.physical_writes as f64,
            bulk_write_calls: build_stats.write_calls as f64,
            pages_written_per_op: st.physical_writes as f64 / n,
            write_calls_per_op: st.write_calls as f64 / n,
            overhead_frac: metrics::overhead(&traced_s, &untraced_s),
            ..Layers::default()
        };
        out.spans = spans;
    }
    Ok(out)
}
