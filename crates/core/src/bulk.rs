//! The parallel out-of-core bulk-load pipeline behind
//! [`GaussTree::bulk_load_with`].
//!
//! Ingestion runs in three stages:
//!
//! 1. **Streaming front end** — the item iterator is consumed in bounded
//!    chunks. While the resident buffer stays within
//!    [`BulkLoadOptions::mem_budget_entries`] nothing touches disk; the
//!    moment the budget is exceeded, buffered runs are encoded and spilled
//!    through a [`gauss_storage::PageStore`]-backed spill file
//!    (an in-memory store for tests, an unlinked-on-drop temp file for real
//!    builds), so peak decoded residency is bounded by the budget, not the
//!    input size.
//! 2. **Partitioning** — the STR-style recursion of
//!    [`crate::split::partition_groups`] descends into *independent*
//!    sub-ranges after every split, so in-memory ranges fan out across
//!    [`std::thread::scope`] workers (same work-stealing scheme as the
//!    query `BatchExecutor`). Ranges larger than the budget are split
//!    **externally**: per candidate axis, one streaming pass extracts the
//!    axis keys (a plain `Vec<f64>` — the only thing held in memory), a
//!    stable argsort fixes the exact same stable-median split the
//!    in-memory recursion would take, one more streaming pass prices both
//!    sides' parameter rectangles, and the winning axis redistributes the
//!    range into two sorted child runs with budget-sized gather windows.
//! 3. **Batched page writes** — node pages are staged in a
//!    [`gauss_storage::WriteBatch`] and group-committed as coalesced runs
//!    of consecutive pages ([`SharedBufferPool::write_batch`]), collapsing
//!    the per-node write storm into a few sequential multi-page transfers
//!    (`AccessStats::write_calls` vs `physical_writes` measures the
//!    coalescing factor).
//!
//! Every stage is deterministic: the produced tree is **byte-identical**
//! to the serial, fully-resident, per-node-write build for any thread
//! count, chunk size, memory budget and write mode. (The only theoretical
//! exception is inputs containing IEEE negative zero, where min/max union
//! order could differ; finite datasets in practice never hit it.)
//!
//! [`SharedBufferPool::write_batch`]: gauss_storage::SharedBufferPool::write_batch
//! [`AccessStats::write_calls`]: gauss_storage::StatsSnapshot

use crate::config::SplitStrategy;
use crate::node::{InnerEntry, LeafEntry, Node};
use crate::split::{
    candidate_axes, group_rect, log_add, node_cost, partition_into_n_parallel, Axis,
};
use crate::tree::{GaussTree, TreeError};
use gauss_storage::store::{Durability, PageStore};
use gauss_storage::{FileStore, MemStore, PageId, WriteBatch};
use pfv::{DimBounds, ParamRect, Pfv};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Pages staged in the write batch before an intermediate group commit, so
/// a huge level does not buffer the whole tree in memory.
const FLUSH_PAGES: usize = 256;

/// Spill page size: big pages amortise positioning, and entries are packed
/// with a fixed stride so single entries are addressable without decoding
/// their page.
const SPILL_PAGE_BYTES: usize = 64 * 1024;

/// Encoded bytes of one spilled entry: `id` (u64) plus the μ and σ columns.
#[must_use]
pub fn entry_stride_bytes(dims: usize) -> usize {
    8 + 16 * dims
}

/// Approximate resident bytes of one *decoded* entry: the encoded stride
/// plus `LeafEntry`/`Pfv` container overhead (two boxed slices and an id).
/// The single conversion factor between a byte budget and
/// [`BulkLoadOptions::mem_budget_entries`] — keep every byte→entries
/// translation (CLI `--mem-budget`, bench scenarios) on this helper.
#[must_use]
pub fn resident_entry_footprint_bytes(dims: usize) -> usize {
    entry_stride_bytes(dims) + 64
}

/// Entries a byte budget affords (at least 1).
#[must_use]
pub fn entries_for_byte_budget(bytes: u64, dims: usize) -> usize {
    usize::try_from(bytes / resident_entry_footprint_bytes(dims) as u64)
        .unwrap_or(usize::MAX)
        .max(1)
}

/// Where spilled runs live when the memory budget overflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillKind {
    /// A heap-backed page store — deterministic tests, no filesystem.
    Memory,
    /// A temp file (removed on drop) — the actual out-of-core mode.
    #[default]
    TempFile,
}

/// Knobs of the bulk-load pipeline. All combinations produce byte-identical
/// trees; they only trade memory, parallelism and write patterns.
#[derive(Debug, Clone)]
pub struct BulkLoadOptions {
    /// Worker threads for the partitioning fan-out (clamped to ≥ 1).
    pub threads: usize,
    /// Maximum decoded entries resident at once; `None` keeps everything
    /// in memory. Clamped upward so a single leaf group always fits.
    pub mem_budget_entries: Option<usize>,
    /// Streaming ingest granularity once spilling has started.
    pub chunk_entries: usize,
    /// Stage node pages in a [`WriteBatch`] (group commit) instead of one
    /// write call per node.
    pub batched_writes: bool,
    /// Spill backend used when the budget overflows.
    pub spill: SpillKind,
    /// The barrier the produced tree's commits issue (see
    /// [`crate::tree::TreeOptions::durability`]). The load never overwrites
    /// the committed empty tree, so a crash mid-load recovers to it; the
    /// final flush commits the loaded tree atomically.
    pub durability: Durability,
}

impl Default for BulkLoadOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            mem_budget_entries: None,
            chunk_entries: 8192,
            batched_writes: true,
            spill: SpillKind::TempFile,
            durability: Durability::None,
        }
    }
}

impl BulkLoadOptions {
    /// Sets the partitioning thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the resident-entry budget.
    #[must_use]
    pub fn with_mem_budget(mut self, entries: usize) -> Self {
        self.mem_budget_entries = Some(entries);
        self
    }

    /// Sets the spill backend.
    #[must_use]
    pub fn with_spill(mut self, spill: SpillKind) -> Self {
        self.spill = spill;
        self
    }

    /// Enables or disables batched page writes.
    #[must_use]
    pub fn with_batched_writes(mut self, batched: bool) -> Self {
        self.batched_writes = batched;
        self
    }

    /// Sets the crash-safety policy of the produced tree.
    #[must_use]
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }
}

/// What one bulk load did — the ingest metrics `build_bench` tracks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkLoadReport {
    /// Items loaded into the tree.
    pub total_entries: u64,
    /// High-water mark of decoded entries resident at once.
    pub peak_resident_entries: usize,
    /// Entries spilled by the streaming front end (0 = fully resident).
    pub spilled_entries: u64,
    /// Entries rewritten by external redistribution passes.
    pub rewritten_entries: u64,
    /// External (out-of-core) split steps performed.
    pub external_splits: u64,
}

impl BulkLoadReport {
    fn observe_resident(&mut self, n: usize) {
        if n > self.peak_resident_entries {
            self.peak_resident_entries = n;
        }
    }
}

/// Stages node pages for group commit, or writes them through one by one —
/// the two write modes whose byte-for-byte equality `build_bench` asserts.
struct NodeEmitter {
    batch: WriteBatch,
    batched: bool,
}

impl NodeEmitter {
    fn new(batched: bool) -> Self {
        Self {
            batch: WriteBatch::new(),
            batched,
        }
    }

    fn emit<S: PageStore>(
        &mut self,
        tree: &mut GaussTree<S>,
        page: PageId,
        node: &Node,
    ) -> Result<(), TreeError> {
        if self.batched {
            tree.stage_node(&mut self.batch, page, node);
            if self.batch.len() >= FLUSH_PAGES {
                tree.commit_batch(&mut self.batch)?;
            }
            Ok(())
        } else {
            tree.write_node_pub(page, node)
        }
    }

    fn finish<S: PageStore>(&mut self, tree: &GaussTree<S>) -> Result<(), TreeError> {
        tree.commit_batch(&mut self.batch)
    }
}

/// Immutable context of the leaf-level build.
struct LeafCtx {
    strategy: SplitStrategy,
    dims: usize,
    threads: usize,
    /// Effective resident-entry budget (usize::MAX when unbounded).
    budget: usize,
    /// Page of group 0 (the reused root page).
    first_page: PageId,
    /// First page of groups 1.. (consecutive), INVALID for a single group.
    extra_base: PageId,
}

impl LeafCtx {
    fn page_for(&self, group: usize) -> PageId {
        if group == 0 {
            self.first_page
        } else {
            PageId(self.extra_base.index() + (group as u64 - 1))
        }
    }
}

/// Runs the pipeline over a freshly created tree. Called by
/// [`GaussTree::bulk_load_with`].
pub(crate) fn run<S: PageStore>(
    tree: &mut GaussTree<S>,
    items: impl IntoIterator<Item = (u64, Pfv)>,
    opts: &BulkLoadOptions,
) -> Result<BulkLoadReport, TreeError> {
    let dims = tree.dims();
    let strategy = tree.config().split;
    let leaf_target = tree.bulk_leaf_target();
    let inner_target = tree.bulk_inner_target();
    let threads = opts.threads.max(1);
    // A budget below one leaf group could never materialise a group.
    let budget = opts.mem_budget_entries.map(|b| b.max(leaf_target).max(16));
    let mut report = BulkLoadReport::default();

    // Stage 1: streaming ingest under the budget.
    let mut resident: Vec<LeafEntry> = Vec::new();
    let mut spill: Option<SpillFile> = None;
    let chunk = opts.chunk_entries.max(1);
    let mut flush_at = budget.unwrap_or(usize::MAX);
    for (id, pfv) in items {
        if pfv.dims() != dims {
            return Err(TreeError::DimMismatch {
                expected: dims,
                got: pfv.dims(),
            });
        }
        resident.push(LeafEntry { id, pfv });
        report.observe_resident(resident.len());
        if resident.len() >= flush_at {
            let sp = match spill.as_mut() {
                Some(sp) => sp,
                None => spill.insert(SpillFile::new(opts.spill, dims)?),
            };
            for e in resident.drain(..) {
                sp.append(&e)?;
            }
            flush_at = chunk.min(budget.unwrap_or(usize::MAX));
        }
    }
    if let Some(sp) = spill.as_mut() {
        for e in resident.drain(..) {
            sp.append(&e)?;
        }
        report.spilled_entries = sp.len();
    }

    let total = spill.as_ref().map_or(resident.len() as u64, SpillFile::len);
    if total == 0 {
        return Ok(report);
    }
    report.total_entries = total;
    tree.set_len(total);

    // Stage 2+3: leaf level. The root page created by `create()` belongs
    // to the committed empty tree and must survive a crash mid-load, so
    // group 0 takes a fresh page and the old root is deferred to the free
    // list. The rest of the level is allocated in one consecutive run up
    // front, so page ids do not depend on write order.
    let old_root = tree.root_page();
    let first_page = tree.alloc_page()?;
    tree.free_page(old_root)?;
    // lint: allow(no-panic) -- u64 entry count to usize; the documented assumption is a 64-bit build
    let n = usize::try_from(total).expect("entry count fits usize");
    let n_groups = n.div_ceil(leaf_target);
    let extra_base = if n_groups > 1 {
        tree.pool().allocate_many(n_groups as u64 - 1)?
    } else {
        PageId::INVALID
    };
    let ctx = LeafCtx {
        strategy,
        dims,
        threads,
        budget: budget.unwrap_or(usize::MAX),
        first_page,
        extra_base,
    };
    let mut emitter = NodeEmitter::new(opts.batched_writes);
    let mut slots: Vec<Option<InnerEntry>> = (0..n_groups).map(|_| None).collect();
    match spill {
        None => emit_leaf_groups(
            tree,
            &mut emitter,
            &ctx,
            resident,
            n_groups,
            0,
            &mut slots,
            &mut report,
        )?,
        Some(mut sp) => build_leaves_external(
            tree,
            &mut emitter,
            &ctx,
            &mut sp,
            0..total,
            n_groups,
            0,
            &mut slots,
            &mut report,
        )?,
    }
    let level: Vec<InnerEntry> = slots
        .into_iter()
        // lint: allow(no-panic) -- the scope above joined every builder thread and each filled its own slot
        .map(|s| s.expect("every leaf slot filled"))
        .collect();

    let (root, height) =
        build_upper_levels(tree, &mut emitter, strategy, inner_target, threads, level)?;
    emitter.finish(tree)?;
    tree.set_root(root, height);
    tree.flush()?;
    Ok(report)
}

/// Partitions an in-memory range into its `n_groups` leaf groups (fanned
/// across workers) and emits each group to its preassigned page.
#[allow(clippy::too_many_arguments)]
fn emit_leaf_groups<S: PageStore>(
    tree: &mut GaussTree<S>,
    emitter: &mut NodeEmitter,
    ctx: &LeafCtx,
    entries: Vec<LeafEntry>,
    n_groups: usize,
    group_offset: usize,
    slots: &mut [Option<InnerEntry>],
    report: &mut BulkLoadReport,
) -> Result<(), TreeError> {
    report.observe_resident(entries.len());
    let groups = partition_into_n_parallel(ctx.strategy, entries, n_groups, ctx.threads);
    for (i, g) in groups.into_iter().enumerate() {
        let page = ctx.page_for(group_offset + i);
        let rect = group_rect(&g);
        let count = g.len() as u64;
        emitter.emit(tree, page, &Node::Leaf(g))?;
        slots[group_offset + i] = Some(InnerEntry {
            child: page,
            count,
            rect,
        });
    }
    Ok(())
}

/// The out-of-core leaf recursion: ranges within the budget load and run
/// the (parallel) in-memory partitioner; larger ranges split externally.
#[allow(clippy::too_many_arguments)]
fn build_leaves_external<S: PageStore>(
    tree: &mut GaussTree<S>,
    emitter: &mut NodeEmitter,
    ctx: &LeafCtx,
    sp: &mut SpillFile,
    range: Range<u64>,
    n_groups: usize,
    group_offset: usize,
    slots: &mut [Option<InnerEntry>],
    report: &mut BulkLoadReport,
) -> Result<(), TreeError> {
    // lint: allow(no-panic) -- u64 range length to usize; the documented assumption is a 64-bit build
    let len = usize::try_from(range.end - range.start).expect("range fits usize");
    if n_groups <= 1 || len <= ctx.budget {
        let entries = sp.decode_range(range)?;
        return emit_leaf_groups(
            tree,
            emitter,
            ctx,
            entries,
            n_groups,
            group_offset,
            slots,
            report,
        );
    }
    report.external_splits += 1;
    let g_left = n_groups / 2;
    let split_at = len * g_left / n_groups;
    let (left, right) = external_split(sp, ctx, range, split_at, report)?;
    build_leaves_external(
        tree,
        emitter,
        ctx,
        sp,
        left,
        g_left,
        group_offset,
        slots,
        report,
    )?;
    build_leaves_external(
        tree,
        emitter,
        ctx,
        sp,
        right,
        n_groups - g_left,
        group_offset + g_left,
        slots,
        report,
    )
}

/// One external split: reproduce exactly the stable-median axis decision of
/// the in-memory recursion, holding only axis keys, index permutations and
/// side bitmaps in memory, then rewrite the range into two sorted child
/// runs with budget-sized gather windows.
fn external_split(
    sp: &mut SpillFile,
    ctx: &LeafCtx,
    range: Range<u64>,
    split_at: usize,
    report: &mut BulkLoadReport,
) -> Result<(Range<u64>, Range<u64>), TreeError> {
    // lint: allow(no-panic) -- u64 range length to usize; the documented assumption is a 64-bit build
    let n = usize::try_from(range.end - range.start).expect("range fits usize");
    assert!(
        u32::try_from(n).is_ok(),
        "external range exceeds u32 indices"
    );
    let axes = match ctx.strategy {
        SplitStrategy::WidestMu => {
            let rect = sp.range_rect(range.clone())?;
            candidate_axes(ctx.strategy, ctx.dims, || rect)
        }
        _ => candidate_axes(ctx.strategy, ctx.dims, || {
            unreachable!("cost strategies need no covering rect")
        }),
    };

    // Pass 1 per axis: stable argsort of the keys fixes which entries land
    // left of the split (ties broken by current run order, exactly like
    // the stable in-memory sort).
    let mut bitmaps: Vec<Bitmap> = Vec::with_capacity(axes.len());
    for &axis in &axes {
        let keys = sp.axis_keys(range.clone(), axis)?;
        let perm = stable_argsort(&keys);
        let mut bm = Bitmap::new(n);
        for &i in &perm[..split_at] {
            bm.set(i as usize);
        }
        bitmaps.push(bm);
    }

    // Pass 2 (one streaming sweep): both sides' parameter rectangles for
    // every candidate axis at once.
    let mut sides: Vec<SideRects> = (0..axes.len()).map(|_| SideRects::new(ctx.dims)).collect();
    let mut means = vec![0.0f64; ctx.dims];
    let mut sigmas = vec![0.0f64; ctx.dims];
    for i in 0..n {
        sp.read_components(range.start + i as u64, &mut means, &mut sigmas)?;
        for (bm, side) in bitmaps.iter().zip(sides.iter_mut()) {
            side.extend(bm.get(i), &means, &sigmas);
        }
    }

    let mut best: Option<(f64, usize)> = None;
    for (a, side) in sides.iter().enumerate() {
        let cost = log_add(
            node_cost(ctx.strategy, &side.left_rect()),
            node_cost(ctx.strategy, &side.right_rect()),
        );
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, a));
        }
    }
    // lint: allow(no-panic) -- dims >= 1 is a TreeConfig invariant, so the candidate loop ran at least once
    let (_, winner) = best.expect("at least one candidate axis");

    // Redistribute along the winning axis in stable sorted order.
    let keys = sp.axis_keys(range.clone(), axes[winner])?;
    let perm = stable_argsort(&keys);
    let left = sp.rewrite(range.start, &perm[..split_at], ctx.budget, report)?;
    let right = sp.rewrite(range.start, &perm[split_at..], ctx.budget, report)?;
    Ok((left, right))
}

/// Builds the inner levels bottom-up until one root remains; returns
/// `(root page, height)`. Identical page-id sequence to the serial loader:
/// every level's pages are allocated in group order before the next
/// level's.
fn build_upper_levels<S: PageStore>(
    tree: &mut GaussTree<S>,
    emitter: &mut NodeEmitter,
    strategy: SplitStrategy,
    inner_target: usize,
    threads: usize,
    mut level: Vec<InnerEntry>,
) -> Result<(PageId, u32), TreeError> {
    let mut height = 0u32;
    while level.len() > 1 {
        height += 1;
        if level.len() <= tree.inner_capacity() {
            let page = tree.pool().allocate()?;
            emitter.emit(tree, page, &Node::Inner(level))?;
            return Ok((page, height));
        }
        let n_groups = level.len().div_ceil(inner_target);
        let base = tree.pool().allocate_many(n_groups as u64)?;
        let groups = partition_into_n_parallel(strategy, level, n_groups, threads);
        let mut next = Vec::with_capacity(groups.len());
        for (i, g) in groups.into_iter().enumerate() {
            let page = PageId(base.index() + i as u64);
            let rect = group_rect(&g);
            let count = g.iter().map(|e| e.count).sum();
            emitter.emit(tree, page, &Node::Inner(g))?;
            next.push(InnerEntry {
                child: page,
                count,
                rect,
            });
        }
        level = next;
    }
    Ok((level[0].child, 0))
}

/// Stable argsort: the permutation that stable-sorts `keys` ascending.
fn stable_argsort(keys: &[f64]) -> Vec<u32> {
    // lint: allow(no-panic) -- node fan-out is capped far below u32::MAX
    let mut perm: Vec<u32> = (0..u32::try_from(keys.len()).expect("fits u32")).collect();
    perm.sort_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
    perm
}

/// A plain bit set over `n` entry indices.
struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }
}

/// Streaming accumulator of the left/right parameter rectangles of one
/// candidate split.
struct SideRects {
    left: Option<Vec<DimBounds>>,
    right: Option<Vec<DimBounds>>,
}

impl SideRects {
    fn new(_dims: usize) -> Self {
        Self {
            left: None,
            right: None,
        }
    }

    fn extend(&mut self, left_side: bool, means: &[f64], sigmas: &[f64]) {
        let acc = if left_side {
            &mut self.left
        } else {
            &mut self.right
        };
        match acc {
            None => {
                *acc = Some(
                    means
                        .iter()
                        .zip(sigmas)
                        .map(|(&m, &s)| DimBounds::point(m, s))
                        .collect(),
                );
            }
            Some(ds) => {
                for (d, b) in ds.iter_mut().enumerate() {
                    *b = b.union(&DimBounds::point(means[d], sigmas[d]));
                }
            }
        }
    }

    fn left_rect(&self) -> ParamRect {
        // lint: allow(no-panic) -- the splitter only builds states with a non-empty left side
        ParamRect::from_dims(self.left.clone().expect("left side non-empty"))
    }

    fn right_rect(&self) -> ParamRect {
        // lint: allow(no-panic) -- the splitter only builds states with a non-empty right side
        ParamRect::from_dims(self.right.clone().expect("right side non-empty"))
    }
}

/// Fixed-stride encoded `(id, μ*, σ*)` runs packed into the pages of a
/// private [`PageStore`] — the spill area of the streaming front end.
/// Child runs produced by redistribution are appended after their parent
/// range (the parent's pages become garbage; the spill area is transient
/// and dropped whole after the build).
struct SpillFile {
    backend: SpillBackend,
    dims: usize,
    stride: usize,
    per_page: usize,
    /// Entries ever appended (global index space; ranges address into it).
    len: u64,
    full_pages: u64,
    tail: Vec<u8>,
    tail_count: usize,
    cache_page: Option<u64>,
    cache_buf: Vec<u8>,
}

enum SpillBackend {
    Mem(MemStore),
    File { store: FileStore, path: PathBuf },
}

impl SpillBackend {
    fn store_mut(&mut self) -> &mut dyn PageStore {
        match self {
            SpillBackend::Mem(s) => s,
            SpillBackend::File { store, .. } => store,
        }
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        if let SpillBackend::File { path, .. } = &self.backend {
            std::fs::remove_file(path).ok();
        }
    }
}

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

impl SpillFile {
    fn new(kind: SpillKind, dims: usize) -> Result<Self, TreeError> {
        let stride = entry_stride_bytes(dims);
        let page_size = SPILL_PAGE_BYTES.max(stride);
        let backend = match kind {
            SpillKind::Memory => SpillBackend::Mem(MemStore::new(page_size)),
            SpillKind::TempFile => {
                let path = std::env::temp_dir().join(format!(
                    "gauss-bulk-spill-{}-{}.run",
                    std::process::id(),
                    SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
                ));
                let store = FileStore::create(&path, page_size)?;
                SpillBackend::File { store, path }
            }
        };
        Ok(Self {
            backend,
            dims,
            stride,
            per_page: page_size / stride,
            len: 0,
            full_pages: 0,
            tail: vec![0u8; page_size],
            tail_count: 0,
            cache_page: None,
            cache_buf: vec![0u8; page_size],
        })
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn append(&mut self, e: &LeafEntry) -> Result<(), TreeError> {
        let off = self.tail_count * self.stride;
        let buf = &mut self.tail[off..off + self.stride];
        buf[..8].copy_from_slice(&e.id.to_le_bytes());
        for (d, &m) in e.pfv.means().iter().enumerate() {
            buf[8 + d * 8..16 + d * 8].copy_from_slice(&m.to_le_bytes());
        }
        let sig_base = 8 + self.dims * 8;
        for (d, &s) in e.pfv.sigmas().iter().enumerate() {
            buf[sig_base + d * 8..sig_base + 8 + d * 8].copy_from_slice(&s.to_le_bytes());
        }
        self.tail_count += 1;
        self.len += 1;
        if self.tail_count == self.per_page {
            let id = self.backend.store_mut().allocate()?;
            debug_assert_eq!(id.index(), self.full_pages);
            self.backend.store_mut().write_page(id, &self.tail)?;
            self.full_pages += 1;
            self.tail_count = 0;
            self.tail.fill(0);
        }
        Ok(())
    }

    /// Raw bytes of entry `idx`, served from the tail buffer or a one-page
    /// read cache (sequential and sorted access patterns hit it almost
    /// always).
    fn entry_bytes(&mut self, idx: u64) -> Result<&[u8], TreeError> {
        debug_assert!(idx < self.len);
        let pid = idx / self.per_page as u64;
        // lint: allow(no-panic) -- idx % per_page < per_page which is a small usize
        let off = usize::try_from(idx % self.per_page as u64).expect("offset fits") * self.stride;
        if pid == self.full_pages {
            return Ok(&self.tail[off..off + self.stride]);
        }
        if self.cache_page != Some(pid) {
            self.backend
                .store_mut()
                .read_page(PageId(pid), &mut self.cache_buf)?;
            self.cache_page = Some(pid);
        }
        Ok(&self.cache_buf[off..off + self.stride])
    }

    /// Copies entry `idx`'s feature columns into the scratch slices.
    fn read_components(
        &mut self,
        idx: u64,
        means: &mut [f64],
        sigmas: &mut [f64],
    ) -> Result<(), TreeError> {
        let dims = self.dims;
        let bytes = self.entry_bytes(idx)?;
        for d in 0..dims {
            means[d] =
                // lint: allow(no-panic) -- the 8-byte subslice makes the array conversion infallible
                f64::from_le_bytes(bytes[8 + d * 8..16 + d * 8].try_into().expect("8 bytes"));
            let sb = 8 + dims * 8 + d * 8;
            // lint: allow(no-panic) -- the 8-byte subslice makes the array conversion infallible
            sigmas[d] = f64::from_le_bytes(bytes[sb..sb + 8].try_into().expect("8 bytes"));
        }
        Ok(())
    }

    fn decode_entry(&mut self, idx: u64) -> Result<LeafEntry, TreeError> {
        let dims = self.dims;
        let bytes = self.entry_bytes(idx)?;
        // lint: allow(no-panic) -- the 8-byte subslice makes the array conversion infallible
        let id = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let mut means = Vec::with_capacity(dims);
        let mut sigmas = Vec::with_capacity(dims);
        for d in 0..dims {
            means.push(f64::from_le_bytes(
                // lint: allow(no-panic) -- the 8-byte subslice makes the array conversion infallible
                bytes[8 + d * 8..16 + d * 8].try_into().expect("8 bytes"),
            ));
            let sb = 8 + dims * 8 + d * 8;
            sigmas.push(f64::from_le_bytes(
                // lint: allow(no-panic) -- the 8-byte subslice makes the array conversion infallible
                bytes[sb..sb + 8].try_into().expect("8 bytes"),
            ));
        }
        let pfv = Pfv::new(means, sigmas).map_err(|_| TreeError::Corrupt("invalid spilled pfv"))?;
        Ok(LeafEntry { id, pfv })
    }

    fn decode_range(&mut self, range: Range<u64>) -> Result<Vec<LeafEntry>, TreeError> {
        let mut out =
            // lint: allow(no-panic) -- u64 range length to usize; the documented assumption is a 64-bit build
            Vec::with_capacity(usize::try_from(range.end - range.start).expect("fits usize"));
        for idx in range {
            out.push(self.decode_entry(idx)?);
        }
        Ok(out)
    }

    /// The axis keys of a range, in run order — one sequential pass.
    fn axis_keys(&mut self, range: Range<u64>, axis: Axis) -> Result<Vec<f64>, TreeError> {
        let off = match axis {
            Axis::Mu(i) => 8 + i * 8,
            Axis::Sigma(i) => 8 + (self.dims + i) * 8,
        };
        let mut keys =
            // lint: allow(no-panic) -- u64 range length to usize; the documented assumption is a 64-bit build
            Vec::with_capacity(usize::try_from(range.end - range.start).expect("fits usize"));
        for idx in range {
            let bytes = self.entry_bytes(idx)?;
            keys.push(f64::from_le_bytes(
                // lint: allow(no-panic) -- the 8-byte subslice makes the array conversion infallible
                bytes[off..off + 8].try_into().expect("8 bytes"),
            ));
        }
        Ok(keys)
    }

    /// Covering rectangle of a range (for the widest-μ baseline's axis
    /// choice), folded in run order like `group_rect`.
    fn range_rect(&mut self, range: Range<u64>) -> Result<ParamRect, TreeError> {
        let dims = self.dims;
        let mut means = vec![0.0f64; dims];
        let mut sigmas = vec![0.0f64; dims];
        let mut ds: Option<Vec<DimBounds>> = None;
        for idx in range {
            self.read_components(idx, &mut means, &mut sigmas)?;
            match &mut ds {
                None => {
                    ds = Some(
                        means
                            .iter()
                            .zip(&sigmas)
                            .map(|(&m, &s)| DimBounds::point(m, s))
                            .collect(),
                    );
                }
                Some(ds) => {
                    for (d, b) in ds.iter_mut().enumerate() {
                        *b = b.union(&DimBounds::point(means[d], sigmas[d]));
                    }
                }
            }
        }
        // lint: allow(no-panic) -- the caller checked the range is non-empty, so ds was set in the loop
        Ok(ParamRect::from_dims(ds.expect("non-empty range")))
    }

    /// Appends the entries `base + perm[..]` in permutation order as a new
    /// run, gathering at most `window` entries at a time (each window's
    /// sources are visited in ascending index order, so the one-page cache
    /// turns the gather into near-sequential reads).
    fn rewrite(
        &mut self,
        base: u64,
        perm: &[u32],
        window: usize,
        report: &mut BulkLoadReport,
    ) -> Result<Range<u64>, TreeError> {
        let start = self.len;
        let window = window.max(1);
        let mut buf: Vec<Option<LeafEntry>> = Vec::new();
        for chunk in perm.chunks(window) {
            let mut order: Vec<(u32, usize)> = chunk
                .iter()
                .enumerate()
                .map(|(rank, &src)| (src, rank))
                .collect();
            order.sort_unstable_by_key(|&(src, _)| src);
            buf.clear();
            buf.resize_with(chunk.len(), || None);
            for (src, rank) in order {
                buf[rank] = Some(self.decode_entry(base + u64::from(src))?);
            }
            report.observe_resident(chunk.len());
            for e in buf.drain(..) {
                // lint: allow(no-panic) -- the gather loop above stored a value for every rank in the chunk
                self.append(&e.expect("every rank gathered"))?;
            }
        }
        report.rewritten_entries += perm.len() as u64;
        Ok(start..self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use gauss_storage::{AccessStats, BufferPool};

    fn items(n: u64, dims: usize) -> Vec<(u64, Pfv)> {
        (0..n)
            .map(|i| {
                let means: Vec<f64> = (0..dims)
                    .map(|d| ((i * 13 + d as u64) as f64 * 0.29).sin() * 25.0)
                    .collect();
                let sigmas: Vec<f64> = (0..dims)
                    .map(|d| 0.03 + ((i * 5 + d as u64) % 11) as f64 * 0.08)
                    .collect();
                (i, Pfv::new(means, sigmas).unwrap())
            })
            .collect()
    }

    fn pool() -> BufferPool<MemStore> {
        BufferPool::new(MemStore::new(4096), 4096, AccessStats::new_shared())
    }

    /// Byte image of every page in a tree's store.
    fn store_image<S: PageStore>(tree: &GaussTree<S>) -> Vec<u8> {
        let pool = tree.pool();
        let mut out = Vec::new();
        for i in 0..pool.num_pages() {
            out.extend_from_slice(&pool.page(PageId(i)).unwrap());
        }
        out
    }

    #[test]
    fn spill_file_round_trips_entries() {
        let data = items(500, 3);
        let mut sp = SpillFile::new(SpillKind::Memory, 3).unwrap();
        for (id, pfv) in &data {
            sp.append(&LeafEntry {
                id: *id,
                pfv: pfv.clone(),
            })
            .unwrap();
        }
        assert_eq!(sp.len(), 500);
        // Random-access decode agrees with the source, including entries
        // still in the tail buffer.
        for idx in [0u64, 1, 17, 250, 499] {
            let e = sp.decode_entry(idx).unwrap();
            assert_eq!(e.id, data[idx as usize].0);
            assert_eq!(e.pfv, data[idx as usize].1);
        }
        // Axis keys match the decoded components.
        let keys = sp.axis_keys(0..500, Axis::Sigma(2)).unwrap();
        for (idx, k) in keys.iter().enumerate() {
            assert_eq!(*k, data[idx].1.sigmas()[2]);
        }
    }

    #[test]
    fn spilled_build_is_byte_identical_to_resident_build() {
        let data = items(1200, 2);
        let config = TreeConfig::new(2).with_capacities(8, 6);
        let reference = GaussTree::bulk_load(pool(), config, data.clone()).unwrap();
        let ref_image = store_image(&reference);

        for budget in [40usize, 97, 300, 5000] {
            let opts = BulkLoadOptions::default()
                .with_mem_budget(budget)
                .with_spill(SpillKind::Memory);
            let (tree, report) =
                GaussTree::bulk_load_with(pool(), config, data.clone(), &opts).unwrap();
            assert_eq!(store_image(&tree), ref_image, "budget {budget}");
            assert_eq!(report.total_entries, 1200);
            if budget < 1200 {
                assert_eq!(report.spilled_entries, 1200, "budget {budget}");
                assert!(
                    report.peak_resident_entries <= budget.max(tree.bulk_leaf_target()).max(16),
                    "budget {budget}: peak {}",
                    report.peak_resident_entries
                );
            }
        }
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        let data = items(3000, 3);
        let config = TreeConfig::new(3).with_capacities(10, 8);
        let reference = GaussTree::bulk_load(pool(), config, data.clone()).unwrap();
        let ref_image = store_image(&reference);
        for threads in [2usize, 4, 7] {
            let opts = BulkLoadOptions::default().with_threads(threads);
            let (tree, _) = GaussTree::bulk_load_with(pool(), config, data.clone(), &opts).unwrap();
            assert_eq!(store_image(&tree), ref_image, "threads {threads}");
        }
    }

    #[test]
    fn per_node_and_batched_writes_produce_identical_stores_with_fewer_calls() {
        let data = items(2000, 2);
        let config = TreeConfig::new(2).with_capacities(8, 6);
        let (batched, _) =
            GaussTree::bulk_load_with(pool(), config, data.clone(), &BulkLoadOptions::default())
                .unwrap();
        let (per_node, _) = GaussTree::bulk_load_with(
            pool(),
            config,
            data,
            &BulkLoadOptions::default().with_batched_writes(false),
        )
        .unwrap();
        assert_eq!(store_image(&batched), store_image(&per_node));
        let b = batched.stats().snapshot();
        let p = per_node.stats().snapshot();
        assert_eq!(b.physical_writes, p.physical_writes, "same pages written");
        assert!(
            b.write_calls * 4 <= p.write_calls,
            "batched {} vs per-node {} write calls",
            b.write_calls,
            p.write_calls
        );
    }

    #[test]
    fn temp_file_spill_builds_and_cleans_up() {
        let data = items(800, 2);
        let config = TreeConfig::new(2).with_capacities(8, 6);
        let reference = GaussTree::bulk_load(pool(), config, data.clone()).unwrap();
        let opts = BulkLoadOptions::default()
            .with_mem_budget(100)
            .with_spill(SpillKind::TempFile);
        let (tree, report) = GaussTree::bulk_load_with(pool(), config, data, &opts).unwrap();
        assert_eq!(store_image(&tree), store_image(&reference));
        assert!(report.spilled_entries > 0);
        assert!(report.external_splits > 0);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let config = TreeConfig::new(1).with_capacities(8, 6);
        let opts = BulkLoadOptions::default()
            .with_threads(4)
            .with_mem_budget(16)
            .with_spill(SpillKind::Memory);
        let (tree, report) = GaussTree::bulk_load_with(pool(), config, Vec::new(), &opts).unwrap();
        assert!(tree.is_empty());
        assert_eq!(report.total_entries, 0);

        let two = vec![
            (1u64, Pfv::new(vec![0.0], vec![0.1]).unwrap()),
            (2, Pfv::new(vec![1.0], vec![0.2]).unwrap()),
        ];
        let (tree, _) = GaussTree::bulk_load_with(pool(), config, two, &opts).unwrap();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.height(), 0);
    }
}
