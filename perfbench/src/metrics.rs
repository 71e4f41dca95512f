//! Metric sets, summary statistics and the result line.

use crate::trace::Span;

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndToEnd {
    /// Median wall time of one set-up (index build or warm-up ingest).
    pub setup_s: f64,
    /// Median query latency.
    pub query_p50_us: f64,
    /// 95th-percentile query latency.
    pub query_p95_us: f64,
    /// Operations (queries, inserts and deletes) completed per second of
    /// the closed loop.
    pub ops_per_s: f64,
    /// Logical page accesses per query (the paper's Figure 7 metric).
    pub pages_per_query: f64,
    /// Bytes handed to page-store writes ÷ pfv payload bytes ingested.
    pub write_amp: f64,
    /// Store bytes at the end ÷ live pfv payload bytes.
    pub space_amp: f64,
}

impl EndToEnd {
    /// Name, value and unit of every metric, in `BENCHMARK.json` order.
    #[must_use]
    pub fn list(&self) -> Vec<Metric> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("query_p50_us", self.query_p50_us, "us"),
            ("query_p95_us", self.query_p95_us, "us"),
            ("ops_per_s", self.ops_per_s, "1/s"),
            ("pages_per_query", self.pages_per_query, "count"),
            ("write_amp", self.write_amp, "ratio"),
            ("space_amp", self.space_amp, "ratio"),
        ]
    }
}

/// Per-layer metrics from the traced run. A layer the workload does not
/// exercise reports 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    pub refine_ns_per_entry: f64,
    pub screen_ns_per_entry: f64,
    pub hull_ns_per_child: f64,
    pub decode_ns_per_page: f64,
    pub hit_rate: f64,
    pub evictions_per_query: f64,
    pub reads_per_query: f64,
    pub read_us_per_query: f64,
    pub view_self_us_p50: f64,
    pub view_store_share: f64,
    pub bulk_build_s: f64,
    pub bulk_pages_written: f64,
    pub bulk_write_calls: f64,
    pub memtable_op_us_p50: f64,
    pub forest_write_p999_us: f64,
    pub flushes: f64,
    pub flush_ms_p50: f64,
    pub maintain_ms_total: f64,
    pub entries_rewritten: f64,
    pub components_max: f64,
    pub snapshot_pin_us_p50: f64,
    pub tree_insert_us_p50: f64,
    pub tree_delete_us_p50: f64,
    pub tree_write_p999_us: f64,
    pub tree_flush_us_p50: f64,
    pub free_pages_end: f64,
    pub pages_written_per_op: f64,
    pub write_calls_per_op: f64,
    pub write_us_per_op: f64,
    pub syncs_per_op: f64,
    pub sync_us_per_op: f64,
    pub manifest_writes: f64,
    pub manifest_us: f64,
    pub components_created: f64,
    pub overhead_frac: f64,
}

impl Layers {
    /// Name, value and unit of every metric, in `BENCHMARK.json` order.
    #[must_use]
    pub fn list(&self) -> Vec<Metric> {
        vec![
            (
                "pfv.batch.refine_ns_per_entry",
                self.refine_ns_per_entry,
                "ns",
            ),
            (
                "pfv.batch.screen_ns_per_entry",
                self.screen_ns_per_entry,
                "ns",
            ),
            ("core.node.hull_ns_per_child", self.hull_ns_per_child, "ns"),
            (
                "core.node.decode_ns_per_page",
                self.decode_ns_per_page,
                "ns",
            ),
            ("storage.shared.hit_rate", self.hit_rate, "ratio"),
            (
                "storage.shared.evictions_per_query",
                self.evictions_per_query,
                "count",
            ),
            (
                "storage.store.reads_per_query",
                self.reads_per_query,
                "count",
            ),
            (
                "storage.store.read_us_per_query",
                self.read_us_per_query,
                "us",
            ),
            ("core.view.self_us_p50", self.view_self_us_p50, "us"),
            ("core.view.store_share", self.view_store_share, "ratio"),
            ("core.bulk.build_s", self.bulk_build_s, "s"),
            ("core.bulk.pages_written", self.bulk_pages_written, "count"),
            ("core.bulk.write_calls", self.bulk_write_calls, "count"),
            (
                "core.forest.memtable_op_us_p50",
                self.memtable_op_us_p50,
                "us",
            ),
            ("core.forest.write_p999_us", self.forest_write_p999_us, "us"),
            ("core.forest.flushes", self.flushes, "count"),
            ("core.forest.flush_ms_p50", self.flush_ms_p50, "ms"),
            (
                "core.forest.maintain_ms_total",
                self.maintain_ms_total,
                "ms",
            ),
            (
                "core.forest.entries_rewritten",
                self.entries_rewritten,
                "count",
            ),
            ("core.forest.components_max", self.components_max, "count"),
            (
                "core.forest.snapshot_pin_us_p50",
                self.snapshot_pin_us_p50,
                "us",
            ),
            ("core.tree.insert_us_p50", self.tree_insert_us_p50, "us"),
            ("core.tree.delete_us_p50", self.tree_delete_us_p50, "us"),
            ("core.tree.write_p999_us", self.tree_write_p999_us, "us"),
            ("core.tree.flush_us_p50", self.tree_flush_us_p50, "us"),
            ("core.tree.free_pages_end", self.free_pages_end, "count"),
            (
                "storage.shared.pages_written_per_op",
                self.pages_written_per_op,
                "count",
            ),
            (
                "storage.shared.write_calls_per_op",
                self.write_calls_per_op,
                "count",
            ),
            ("storage.store.write_us_per_op", self.write_us_per_op, "us"),
            ("storage.store.syncs_per_op", self.syncs_per_op, "count"),
            ("storage.store.sync_us_per_op", self.sync_us_per_op, "us"),
            (
                "storage.forest.manifest_writes",
                self.manifest_writes,
                "count",
            ),
            ("storage.forest.manifest_us", self.manifest_us, "us"),
            (
                "storage.forest.components_created",
                self.components_created,
                "count",
            ),
            ("trace.overhead_frac", self.overhead_frac, "ratio"),
        ]
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed operations plus oracle checks).
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// End-to-end metrics (meaningful when untraced).
    pub e2e: EndToEnd,
    /// Per-layer metrics (meaningful when traced).
    pub layers: Layers,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans recorded by a traced run.
    pub spans: Vec<Span>,
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples; 0 when
/// there are none.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples; 0 when there are none.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nanosecond span durations as microseconds.
#[must_use]
pub fn ns_to_us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// Tracing overhead: median operation time in traced blocks over the
/// median in untraced blocks, minus one. Medians, because a rare flush or
/// merge landing in one half would otherwise decide the figure.
#[must_use]
pub fn overhead(traced_s: &[f64], untraced_s: &[f64]) -> f64 {
    ratio(median(traced_s), median(untraced_s)) - 1.0
}

/// Renders the final result line.
#[must_use]
pub fn result_json(o: &Outcome, metrics: &[Metric]) -> String {
    let correct = o.failed == 0 && o.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    )
}
