//! The Gauss-forest: an LSM-style write-optimized store of Gauss-trees.
//!
//! The paper's Gauss-tree is bulk-built and read-optimized; per-object
//! inserts pay a full descent plus shadow page writes each, so sustained
//! ingest can never approach the bulk loader's throughput. The forest
//! closes that gap the way LSM-trees (O'Neil et al.) and bkd-style
//! stores layer writes over a static spatial index:
//!
//! * **Memtable** — an in-memory buffer absorbs [`GaussForest::insert`]
//!   and [`GaussForest::delete`] (deletes as tombstones). Values are
//!   quantised on entry when the leaf format calls for it, so memtable
//!   densities match post-flush densities bit for bit.
//! * **Flush** — at [`ForestOptions::memtable_capacity`] records the
//!   buffer is bulk-loaded (through the parallel pipeline of
//!   [`crate::bulk`]) into a fresh *immutable* level-0 component tree.
//! * **Merge** — [`GaussForest::maintain`] merges every level holding at
//!   least [`ForestOptions::merge_factor`] components into one component
//!   a level deeper, rewriting the union newest-wins and compacting
//!   tombstones away; with the default factor 2 component sizes double
//!   per level, bounding both component count and write amplification.
//! * **Manifest** — the component list is committed through dual
//!   checksummed slots with a data barrier first (the single tree's meta
//!   protocol lifted to the directory level), so a crash at any point
//!   recovers to the last committed forest.
//!
//! Newer data shadows older: a component's entry or tombstone for id `x`
//! hides any entry for `x` in an older component, and the memtable hides
//! everything. Each component keeps its shadow set up to date on the
//! write path, so pinning a view never recomputes it.
//!
//! Queries run on [`ForestSnapshot`]s — epoch-pinned views implementing
//! [`crate::ReadView`]. A snapshot's read-plane lists one part per
//! component (with its shadow set) plus the memtable image, and the one
//! query engine of [`crate::query`] walks a single best-first frontier
//! over `(component, node)` with memtable entries as ready objects and
//! one Bayes-denominator accumulator. k-MLIQ, ranking and box-query
//! answers are **bit-identical** to a single Gauss-tree holding the same
//! live set (the [`crate::query`] module docs say why).

pub(crate) mod manifest;
pub(crate) mod memtable;

use crate::bulk::BulkLoadOptions;
use crate::config::TreeConfig;
use crate::tree::{GaussTree, Snapshot, TreeError, TreeOptions};
use crate::view::ReadView;
use gauss_storage::forest::ComponentStores;
use gauss_storage::store::{Durability, PageStore};
use gauss_storage::{AccessStats, BufferPool};
use manifest::{ForestManifest, ManifestComponent};
use memtable::{Memtable, Records};
use pfv::Pfv;
use std::collections::HashSet;
use std::sync::Arc;

/// Tuning knobs for a [`GaussForest`], builder-style like
/// [`TreeOptions`].
#[derive(Debug, Clone, Copy)]
pub struct ForestOptions {
    pub(crate) memtable_capacity: usize,
    pub(crate) merge_factor: usize,
    pub(crate) durability: Durability,
    pub(crate) pool_frames: usize,
    pub(crate) threads: usize,
}

impl Default for ForestOptions {
    fn default() -> Self {
        Self {
            memtable_capacity: 4096,
            merge_factor: 2,
            durability: Durability::None,
            pool_frames: 2048,
            threads: 1,
        }
    }
}

impl ForestOptions {
    /// The defaults, ready for builder-style overrides.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Memtable records (tombstones included) that trigger an automatic
    /// flush. Persisted in the manifest; ignored by `open`.
    #[must_use]
    pub fn memtable_capacity(mut self, records: usize) -> Self {
        self.memtable_capacity = records.max(1);
        self
    }

    /// Components per level that trigger a merge in
    /// [`GaussForest::maintain`] (≥ 2; 2 doubles sizes per level).
    /// Persisted in the manifest; ignored by `open`.
    #[must_use]
    pub fn merge_factor(mut self, factor: usize) -> Self {
        self.merge_factor = factor.max(2);
        self
    }

    /// Durability policy for component builds and manifest commits.
    #[must_use]
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Buffer-pool frames per component tree.
    #[must_use]
    pub fn pool_frames(mut self, frames: usize) -> Self {
        self.pool_frames = frames.max(8);
        self
    }

    /// Worker threads for flush/merge bulk builds.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// One immutable component: a bulk-built Gauss-tree plus the shadowing
/// metadata the forest keeps in memory.
struct Component<S: PageStore> {
    id: u64,
    level: u32,
    tree: GaussTree<S>,
    /// Ids stored in `tree` — shadow same-id entries in older components.
    ids: HashSet<u64>,
    /// Deleted ids this component records against older components.
    tombstones: HashSet<u64>,
    /// `ids ∩ (memtable ids ∪ ids and tombstones of every newer
    /// component)`: the entries newer data shadows. Kept current by the
    /// write path; snapshots share it.
    hidden: Arc<HashSet<u64>>,
}

/// Per-component statistics reported by [`GaussForest::component_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentInfo {
    /// Backend component id.
    pub id: u64,
    /// LSM level (0 = freshest flush).
    pub level: u32,
    /// Entries stored in the component's tree.
    pub len: u64,
    /// Tombstones the component carries.
    pub tombstones: usize,
}

/// What one [`GaussForest::maintain`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainReport {
    /// Level merges performed.
    pub merges: usize,
    /// Source components consumed by those merges.
    pub components_merged: usize,
    /// Entries rewritten into merged components.
    pub entries_rewritten: u64,
    /// Tombstones compacted away (shadowed, redundant or bottomed-out).
    pub tombstones_dropped: usize,
}

/// The write-optimized forest store. See the [module docs](self).
pub struct GaussForest<B: ComponentStores> {
    backend: B,
    config: TreeConfig,
    stats: Arc<AccessStats>,
    mem: Memtable,
    /// Immutable components, newest first; levels ascend down the list
    /// and equal levels are contiguous.
    comps: Vec<Component<B::Store>>,
    epoch: u64,
    next_component_id: u64,
    /// Live objects visible across memtable + components.
    live: u64,
    memtable_capacity: usize,
    merge_factor: usize,
    durability: Durability,
    pool_frames: usize,
    threads: usize,
}

impl<B: ComponentStores> GaussForest<B> {
    /// Creates an empty forest on `backend` and commits its first
    /// manifest (epoch 1).
    ///
    /// # Errors
    /// Fails if the backend already holds a valid forest manifest, or on
    /// store errors.
    pub fn create(backend: B, config: TreeConfig, opts: ForestOptions) -> Result<Self, TreeError> {
        for slot in 0..gauss_storage::MANIFEST_SLOTS {
            if let Some(bytes) = backend.read_manifest_slot(slot)? {
                if ForestManifest::decode(&bytes).is_some() {
                    return Err(TreeError::Corrupt("backend already holds a forest"));
                }
            }
        }
        // Stray components with no manifest are debris of an aborted
        // create; clear them so ids can be reused.
        for cid in backend.list_components()? {
            backend.remove_component(cid)?;
        }
        let mut forest = Self {
            backend,
            config,
            stats: AccessStats::new_shared(),
            mem: Memtable::new(),
            comps: Vec::new(),
            epoch: 0,
            next_component_id: 0,
            live: 0,
            memtable_capacity: opts.memtable_capacity,
            merge_factor: opts.merge_factor,
            durability: opts.durability,
            pool_frames: opts.pool_frames,
            threads: opts.threads,
        };
        forest.commit_manifest()?;
        Ok(forest)
    }

    /// Opens the forest committed on `backend`. Runtime knobs
    /// (durability, pool size, threads) come from `opts`; the persisted
    /// manifest supplies config, memtable capacity and merge factor.
    /// Components present on the backend but absent from the winning
    /// manifest — debris of a crashed flush or merge — are removed.
    ///
    /// # Errors
    /// [`TreeError::NotAGaussTree`] if neither manifest slot is valid;
    /// [`TreeError::Corrupt`] if a component disagrees with the
    /// manifest; store errors otherwise.
    pub fn open(backend: B, opts: ForestOptions) -> Result<Self, TreeError> {
        let slot0 = backend.read_manifest_slot(0)?;
        let slot1 = backend.read_manifest_slot(1)?;
        let m = ForestManifest::choose([slot0.as_deref(), slot1.as_deref()])
            .ok_or(TreeError::NotAGaussTree)?;
        let manifest_ids: HashSet<u64> = m.components.iter().map(|c| c.id).collect();
        for cid in backend.list_components()? {
            if !manifest_ids.contains(&cid) {
                backend.remove_component(cid)?;
            }
        }
        let stats = AccessStats::new_shared();
        let topts = TreeOptions::new().durability(opts.durability);
        // The memtable starts empty, so only newer components shadow.
        let mut newer: HashSet<u64> = HashSet::new();
        let mut live = 0u64;
        let mut comps = Vec::with_capacity(m.components.len());
        for mc in &m.components {
            let store = backend.open_component(mc.id)?;
            let pool = BufferPool::new(store, opts.pool_frames, Arc::clone(&stats));
            let tree = GaussTree::open_with(pool, &topts)?;
            if tree.len() != mc.len || tree.config().dims != m.config.dims {
                return Err(TreeError::Corrupt("component disagrees with manifest"));
            }
            let mut ids = HashSet::with_capacity(mc.len as usize);
            tree.for_each_entry(|id, _| {
                ids.insert(id);
            })?;
            let tombstones: HashSet<u64> = mc.tombstones.iter().copied().collect();
            let hidden: HashSet<u64> = ids.intersection(&newer).copied().collect();
            live += (ids.len() - hidden.len()) as u64;
            newer.extend(ids.iter().copied());
            newer.extend(tombstones.iter().copied());
            comps.push(Component {
                id: mc.id,
                level: mc.level,
                tree,
                ids,
                tombstones,
                hidden: Arc::new(hidden),
            });
        }
        Ok(Self {
            backend,
            config: m.config,
            stats,
            mem: Memtable::new(),
            comps,
            epoch: m.epoch,
            next_component_id: m.next_component_id,
            live,
            memtable_capacity: m.memtable_capacity as usize,
            merge_factor: m.merge_factor as usize,
            durability: opts.durability,
            pool_frames: opts.pool_frames,
            threads: opts.threads,
        })
    }

    /// Live objects visible in the forest.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// Whether no live objects are visible.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Manifest commit epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Tree configuration shared by every component.
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// Records currently buffered in the memtable (tombstones included).
    pub fn memtable_len(&self) -> usize {
        self.mem.len()
    }

    /// Memtable records that trigger an automatic flush (from the
    /// manifest, not [`ForestOptions`], after an `open`).
    pub fn memtable_capacity(&self) -> usize {
        self.memtable_capacity
    }

    /// Components per level that trigger a merge in [`Self::maintain`].
    pub fn merge_factor(&self) -> usize {
        self.merge_factor
    }

    /// Shared I/O counters across every component pool.
    pub fn stats(&self) -> &Arc<AccessStats> {
        &self.stats
    }

    /// Per-component statistics, newest first.
    pub fn component_stats(&self) -> Vec<ComponentInfo> {
        self.comps
            .iter()
            .map(|c| ComponentInfo {
                id: c.id,
                level: c.level,
                len: c.tree.len(),
                tombstones: c.tombstones.len(),
            })
            .collect()
    }

    /// Whether `id` is live (memtable first, then components newest to
    /// oldest — the first entry or tombstone for `id` decides).
    pub fn contains(&self, id: u64) -> bool {
        match self.mem.get(id) {
            Some(Some(_)) => return true,
            Some(None) => return false,
            None => {}
        }
        for c in &self.comps {
            if c.ids.contains(&id) {
                return true;
            }
            if c.tombstones.contains(&id) {
                return false;
            }
        }
        false
    }

    /// Upserts one pfv. Quantises immediately under a quantised leaf
    /// format (so memtable and flushed densities agree bit for bit) and
    /// auto-flushes when the memtable reaches capacity.
    ///
    /// # Errors
    /// Dimensionality mismatch, quantisation range errors, or store
    /// errors from an auto-flush.
    pub fn insert(&mut self, id: u64, v: &Pfv) -> Result<(), TreeError> {
        if v.dims() != self.config.dims {
            return Err(TreeError::DimMismatch {
                expected: self.config.dims,
                got: v.dims(),
            });
        }
        let stored = match crate::tree::quantise_for(self.config.leaf_format, v)? {
            Some(q) => q,
            None => v.clone(),
        };
        if !self.put(id, Some(stored)) {
            self.live += 1;
        }
        self.maybe_flush()
    }

    /// Deletes one object (a tombstone until merges compact it away).
    /// Returns whether the id was live.
    ///
    /// # Errors
    /// Store errors from an auto-flush.
    pub fn delete(&mut self, id: u64) -> Result<bool, TreeError> {
        let existed = self.put(id, None);
        if existed {
            self.live -= 1;
        }
        self.maybe_flush()?;
        Ok(existed)
    }

    /// Buffers one mutation and returns whether `id` was live before it.
    ///
    /// When `id` is new to the memtable, the newest component storing it
    /// held its only visible copy: that component's shadow set gains the
    /// id. Older components already hide it, so the walk stops there (or
    /// at a tombstone) — the same walk as [`Self::contains`].
    fn put(&mut self, id: u64, value: Option<Pfv>) -> bool {
        if let Some(prev) = self.mem.put(id, value) {
            return prev.is_some();
        }
        for c in &mut self.comps {
            if c.ids.contains(&id) {
                Arc::make_mut(&mut c.hidden).insert(id);
                return true;
            }
            if c.tombstones.contains(&id) {
                return false;
            }
        }
        false
    }

    fn maybe_flush(&mut self) -> Result<(), TreeError> {
        if self.mem.len() >= self.memtable_capacity {
            self.flush()?;
        }
        Ok(())
    }

    /// Flushes the memtable into a new level-0 component and commits the
    /// manifest. Returns whether a component was produced (a memtable of
    /// nothing but no-op tombstones commits nothing).
    ///
    /// # Errors
    /// Store errors; on error the memtable is retained.
    pub fn flush(&mut self) -> Result<bool, TreeError> {
        if self.mem.is_empty() {
            return Ok(false);
        }
        let entries = self.mem.live_entries();
        // A tombstone must persist only while some older component still
        // stores the id; everything else it could shadow is gone.
        let tombstones: HashSet<u64> = self
            .mem
            .tombstones()
            .into_iter()
            .filter(|t| self.comps.iter().any(|c| c.ids.contains(t)))
            .collect();
        if entries.is_empty() && tombstones.is_empty() {
            self.mem.clear();
            return Ok(false);
        }
        // Older components' shadow sets stay valid: the flushed ids and
        // kept tombstones are exactly the memtable ids that shadow anything.
        let ids: HashSet<u64> = entries.iter().map(|(id, _)| *id).collect();
        let comp = self.build_component(0, entries, ids, tombstones, HashSet::new())?;
        self.comps.insert(0, comp);
        match self.commit_manifest() {
            Ok(()) => {
                self.mem.clear();
                Ok(true)
            }
            Err(e) => {
                // Unlink the uncommitted component so the in-memory list
                // matches the durable manifest; its store becomes an
                // orphan that `open` cleans up.
                self.comps.remove(0);
                Err(e)
            }
        }
    }

    /// Merges every level holding at least `merge_factor` components,
    /// repeatedly, until no level is over-full. Each merge rewrites the
    /// union of its level (newest entry per id wins), drops tombstones
    /// that are redundant or have nothing older left to shadow, commits
    /// the manifest and only then removes the consumed component stores.
    ///
    /// # Errors
    /// Store errors; the committed forest is never left half-merged.
    pub fn maintain(&mut self) -> Result<MaintainReport, TreeError> {
        let mut report = MaintainReport::default();
        loop {
            let mut run: Option<(u32, usize, usize)> = None; // (level, start, count)
            for (i, c) in self.comps.iter().enumerate() {
                match &mut run {
                    Some((level, _, count)) if *level == c.level => *count += 1,
                    Some((_, _, count)) if *count >= self.merge_factor => break,
                    _ => run = Some((c.level, i, 1)),
                }
            }
            let Some((level, start, count)) = run.filter(|&(_, _, n)| n >= self.merge_factor)
            else {
                break;
            };
            self.merge_run(level, start, count, &mut report)?;
            report.merges += 1;
        }
        Ok(report)
    }

    fn merge_run(
        &mut self,
        level: u32,
        start: usize,
        count: usize,
        report: &mut MaintainReport,
    ) -> Result<(), TreeError> {
        let group = &self.comps[start..start + count];
        // Newest-first shadowing inside the group: an id already claimed
        // (entry or tombstone) by a newer group member wins. A kept entry
        // is shadowed from above the group exactly when it was in the
        // shadow set of the member it came from, since no newer member
        // claims it.
        let mut group_seen: HashSet<u64> = HashSet::new();
        let mut entries: Vec<(u64, Pfv)> = Vec::new();
        let mut hidden: HashSet<u64> = HashSet::new();
        for c in group {
            c.tree.for_each_entry(|id, v| {
                if !group_seen.contains(&id) {
                    entries.push((id, v.clone()));
                    if c.hidden.contains(&id) {
                        hidden.insert(id);
                    }
                }
            })?;
            group_seen.extend(c.ids.iter().copied());
            group_seen.extend(c.tombstones.iter().copied());
        }
        entries.sort_by_key(|(id, _)| *id);
        let ids: HashSet<u64> = entries.iter().map(|(id, _)| *id).collect();
        let below = &self.comps[start + count..];
        let group_tombs: usize = group.iter().map(|c| c.tombstones.len()).sum();
        // Keep a tombstone only if it still shadows something: not
        // superseded by a kept entry, and present in some older
        // component. At the oldest level every tombstone bottoms out.
        // Every group id an older component holds thus survives as an
        // entry or a kept tombstone, so older shadow sets stay valid.
        let tombstones: HashSet<u64> = group
            .iter()
            .flat_map(|c| c.tombstones.iter().copied())
            .filter(|t| !ids.contains(t) && below.iter().any(|c| c.ids.contains(t)))
            .collect();
        report.components_merged += count;
        report.entries_rewritten += entries.len() as u64;
        report.tombstones_dropped += group_tombs - tombstones.len();
        // An empty result means the whole level cancelled out: commit its
        // removal.
        let merged = if entries.is_empty() && tombstones.is_empty() {
            None
        } else {
            Some(self.build_component(level + 1, entries, ids, tombstones, hidden)?)
        };
        let merged_len = usize::from(merged.is_some());
        let group: Vec<Component<B::Store>> =
            self.comps.splice(start..start + count, merged).collect();
        if let Err(e) = self.commit_manifest() {
            // Put the group back so the in-memory list matches the
            // durable manifest; an uncommitted merged component's store
            // becomes an orphan that `open` cleans up.
            drop(self.comps.splice(start..start + merged_len, group));
            return Err(e);
        }
        // Old stores go away only after the commit: a crash in between
        // leaves readable components plus a manifest that no longer
        // references them, cleaned up on open.
        for c in group {
            let cid = c.id;
            drop(c);
            self.backend.remove_component(cid)?;
        }
        Ok(())
    }

    fn build_component(
        &mut self,
        level: u32,
        entries: Vec<(u64, Pfv)>,
        ids: HashSet<u64>,
        tombstones: HashSet<u64>,
        hidden: HashSet<u64>,
    ) -> Result<Component<B::Store>, TreeError> {
        let id = self.next_component_id;
        self.next_component_id += 1;
        let store = self.backend.create_component(id)?;
        let pool = BufferPool::new(store, self.pool_frames, Arc::clone(&self.stats));
        let mut tree = if entries.is_empty() {
            GaussTree::create_with(
                pool,
                self.config,
                &TreeOptions::new().durability(self.durability),
            )?
        } else {
            let opts = BulkLoadOptions::default()
                .with_threads(self.threads)
                .with_durability(self.durability);
            GaussTree::bulk_load_with(pool, self.config, entries, &opts)?.0
        };
        // Commit the component so snapshots can pin it immediately.
        tree.flush()?;
        Ok(Component {
            id,
            level,
            tree,
            ids,
            tombstones,
            hidden: Arc::new(hidden),
        })
    }

    /// Commits the current component list: data barrier on every
    /// component's pages, then the manifest slot for the next epoch,
    /// then a manifest barrier.
    fn commit_manifest(&mut self) -> Result<(), TreeError> {
        let next_epoch = self.epoch + 1;
        let m = ForestManifest {
            epoch: next_epoch,
            config: self.config,
            memtable_capacity: self.memtable_capacity as u64,
            merge_factor: u32::try_from(self.merge_factor).unwrap_or(u32::MAX),
            next_component_id: self.next_component_id,
            components: self
                .comps
                .iter()
                .map(|c| ManifestComponent {
                    id: c.id,
                    level: c.level,
                    len: c.tree.len(),
                    tombstones: {
                        let mut t: Vec<u64> = c.tombstones.iter().copied().collect();
                        t.sort_unstable();
                        t
                    },
                })
                .collect(),
        };
        let bytes = m.encode();
        // Data barrier: every page the new manifest references must be
        // durable before the slot commits to them.
        for c in &self.comps {
            c.tree.pool().sync(self.durability)?;
        }
        let slot = ForestManifest::slot_for(next_epoch);
        self.backend.write_manifest_slot(slot, &bytes)?;
        self.backend.sync_manifest(self.durability)?;
        self.epoch = next_epoch;
        Ok(())
    }

    /// Pins a consistent, epoch-tagged view of the whole forest: the
    /// memtable plus a [`Snapshot`] of every component, each with its
    /// shadow set. The snapshot implements [`crate::ReadView`] and stays
    /// valid across later writes, flushes, merges and reopens of the
    /// forest.
    ///
    /// A pin costs O(components): it shares the memtable and every
    /// shadow set instead of copying them. While the pin is alive, the
    /// first write copies the memtable, plus one component's shadow set
    /// when that write shadows an id in that component for the first
    /// time; each shared structure is copied at most once per pin, and
    /// every other operation costs what it costs without the pin.
    ///
    /// # Errors
    /// Store errors while pinning component snapshots.
    pub fn snapshot(&self) -> Result<ForestSnapshot<B::Store>, TreeError> {
        let mut comps = Vec::with_capacity(self.comps.len());
        for c in &self.comps {
            let snap = c.tree.snapshot()?;
            let hidden = Arc::clone(&c.hidden);
            comps.push(SnapComponent { snap, hidden });
        }
        debug_assert_eq!(
            (self.mem.len() - self.mem.tombstones().len()) as u64
                + comps
                    .iter()
                    .map(|c| c.snap.len() - c.hidden.len() as u64)
                    .sum::<u64>(),
            self.live,
            "forest live count diverged from snapshot visibility"
        );
        Ok(ForestSnapshot {
            config: self.config,
            epoch: self.epoch,
            live: self.live,
            mem: self.mem.shared(),
            comps,
        })
    }

    /// Consumes the forest, returning its backend.
    pub fn into_backend(self) -> B {
        self.backend
    }
}

/// One component pinned by a [`ForestSnapshot`]: an epoch-pinned tree
/// snapshot plus the ids newer data shadows inside it.
pub(crate) struct SnapComponent<S: PageStore> {
    pub(crate) snap: Snapshot<S>,
    pub(crate) hidden: Arc<HashSet<u64>>,
}

impl<S: PageStore> Clone for SnapComponent<S> {
    fn clone(&self) -> Self {
        Self {
            snap: self.snap.clone(),
            hidden: Arc::clone(&self.hidden),
        }
    }
}

/// A consistent read view over the whole forest at one manifest epoch.
/// See [`GaussForest::snapshot`].
///
/// The memtable image and the shadow sets are shared with the forest and
/// with other snapshots, so a pin and a `clone()` both cost
/// O(components); the forest copies a shared structure only when it
/// next writes to it.
pub struct ForestSnapshot<S: PageStore> {
    pub(crate) config: TreeConfig,
    pub(crate) epoch: u64,
    pub(crate) live: u64,
    /// Memtable records at pin time (tombstones included), ascending id.
    pub(crate) mem: Arc<Records>,
    /// Pinned components, newest first.
    pub(crate) comps: Vec<SnapComponent<S>>,
}

impl<S: PageStore> Clone for ForestSnapshot<S> {
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            epoch: self.epoch,
            live: self.live,
            mem: Arc::clone(&self.mem),
            comps: self.comps.clone(),
        }
    }
}

impl<S: PageStore> ForestSnapshot<S> {
    /// Manifest epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live objects visible to the snapshot.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// Whether no live objects are visible.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Dimensionality of the indexed pfv.
    pub fn dims(&self) -> usize {
        self.config.dims
    }

    /// Tree configuration shared by every component.
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gauss_storage::MemComponentStores;

    fn v(seed: u64) -> Pfv {
        let x = (seed as f64 * 0.731).sin() * 10.0;
        let y = (seed as f64 * 0.377).cos() * 10.0;
        Pfv::new(vec![x, y], vec![0.1 + (seed % 5) as f64 * 0.1, 0.2]).unwrap()
    }

    fn small_forest(cap: usize) -> GaussForest<MemComponentStores> {
        GaussForest::create(
            MemComponentStores::new(4096),
            TreeConfig::new(2).with_capacities(6, 4),
            ForestOptions::new().memtable_capacity(cap),
        )
        .unwrap()
    }

    #[test]
    fn insert_flush_merge_and_counts() {
        let mut f = small_forest(8);
        for i in 0..50u64 {
            f.insert(i, &v(i)).unwrap();
        }
        assert_eq!(f.len(), 50);
        assert!(f.component_stats().len() > 1, "auto-flush should have run");
        // Upsert and delete across component boundaries.
        f.insert(3, &v(103)).unwrap();
        assert_eq!(f.len(), 50);
        assert!(f.delete(4).unwrap());
        assert!(!f.delete(4).unwrap());
        assert!(!f.delete(999).unwrap());
        assert_eq!(f.len(), 49);
        assert!(f.contains(3));
        assert!(!f.contains(4));
        f.flush().unwrap();
        let report = f.maintain().unwrap();
        assert!(report.merges > 0);
        assert_eq!(f.len(), 49);
        assert!(f.contains(3));
        assert!(!f.contains(4));
        // Fully merged forest has one component and no tombstones left.
        let stats = f.component_stats();
        assert_eq!(stats.len(), 1, "stats: {stats:?}");
        assert_eq!(stats[0].tombstones, 0);
        assert_eq!(stats[0].len, 49);
    }

    #[test]
    fn levels_double_and_stay_sorted() {
        let mut f = small_forest(4);
        for i in 0..40u64 {
            f.insert(i, &v(i)).unwrap();
            if i % 8 == 7 {
                f.maintain().unwrap();
            }
        }
        let stats = f.component_stats();
        for w in stats.windows(2) {
            assert!(w[0].level <= w[1].level, "levels out of order: {stats:?}");
        }
        // No level holds merge_factor components after maintain.
        f.flush().unwrap();
        f.maintain().unwrap();
        let stats = f.component_stats();
        for level in stats.iter().map(|c| c.level) {
            let n = stats.iter().filter(|c| c.level == level).count();
            assert!(n < 2, "level {level} still over-full: {stats:?}");
        }
    }

    #[test]
    fn reopen_restores_live_set_and_manifest() {
        let disk = MemComponentStores::new(4096);
        let config = TreeConfig::new(2).with_capacities(6, 4);
        let mut f = GaussForest::create(
            disk.clone(),
            config,
            ForestOptions::new().memtable_capacity(8),
        )
        .unwrap();
        for i in 0..30u64 {
            f.insert(i, &v(i)).unwrap();
        }
        f.delete(7).unwrap();
        f.insert(9, &v(109)).unwrap();
        f.flush().unwrap();
        let epoch = f.epoch();
        drop(f);
        let f = GaussForest::open(disk, ForestOptions::new()).unwrap();
        assert_eq!(f.epoch(), epoch);
        assert_eq!(f.len(), 29);
        assert_eq!(f.memtable_len(), 0);
        assert!(!f.contains(7));
        assert!(f.contains(9));
        // Manifest-persisted knobs survive the reopen.
        assert_eq!(f.memtable_capacity(), 8);
        assert_eq!(f.merge_factor(), 2);
    }

    #[test]
    fn create_refuses_existing_forest() {
        let disk = MemComponentStores::new(4096);
        let config = TreeConfig::new(2);
        let _f = GaussForest::create(disk.clone(), config, ForestOptions::new()).unwrap();
        assert!(matches!(
            GaussForest::create(disk, config, ForestOptions::new()),
            Err(TreeError::Corrupt(_))
        ));
    }

    /// Every answer a pinned snapshot gives for `q`: k-MLIQ, TIQ, the
    /// full ranking-cursor order and the `for_each_entry` visit order.
    #[allow(clippy::type_complexity)]
    fn answers<S: PageStore>(
        s: &ForestSnapshot<S>,
        q: &Pfv,
    ) -> (
        Vec<crate::MliqResult>,
        Vec<crate::TiqResult>,
        Vec<crate::MliqResult>,
        Vec<(u64, Pfv)>,
    ) {
        use crate::view::ReadView as _;
        let mut entries = Vec::new();
        s.for_each_entry(|id, v| entries.push((id, v.clone())))
            .unwrap();
        (
            s.k_mliq(q, 5).unwrap(),
            s.tiq(q, 0.01, 0.05).unwrap(),
            s.ranking_cursor(q).unwrap().take_while(|_| true).unwrap(),
            entries,
        )
    }

    #[test]
    fn snapshot_pins_across_mutation() {
        use crate::view::ReadView as _;
        let mut f = small_forest(8);
        for i in 0..20u64 {
            f.insert(i, &v(i)).unwrap();
        }
        // Components hold 0..16; the memtable holds 16..20.
        assert_eq!(f.memtable_len(), 4);
        let snap = f.snapshot().unwrap();
        let twin = snap.clone();
        assert_eq!(snap.len(), 20);
        let q = v(3);
        let before = answers(&snap, &q);
        assert_eq!(before.3.len(), 20);
        // Overwrite memtable ids, first-touch upsert component-only ids,
        // delete from both, then flush and merge: the shared memtable and
        // shadow sets must be copied, never mutated under the pin.
        f.insert(16, &v(116)).unwrap();
        f.insert(17, &v(117)).unwrap();
        f.insert(2, &v(102)).unwrap();
        f.insert(9, &v(109)).unwrap();
        assert!(f.delete(18).unwrap());
        assert!(f.delete(3).unwrap());
        assert!(f.delete(12).unwrap());
        assert_eq!(f.len(), 17);
        assert_eq!(answers(&snap, &q), before);
        f.flush().unwrap();
        f.maintain().unwrap();
        assert_eq!(answers(&snap, &q), before);
        assert_eq!(answers(&twin, &q), before);
        assert_ne!(answers(&f.snapshot().unwrap(), &q).3, before.3);
        // Mutate heavily: the pinned snapshot must not move.
        for i in 0..20u64 {
            f.delete(i).unwrap();
        }
        f.flush().unwrap();
        f.maintain().unwrap();
        assert_eq!(f.len(), 0);
        assert_eq!(answers(&snap, &q), before);
        assert_eq!(answers(&twin, &q), before);
        assert!(f.snapshot().unwrap().k_mliq(&q, 5).unwrap().is_empty());
    }

    /// The shadow sets as a from-scratch newest-first pass computes them
    /// — the reference the incremental write-path upkeep must match.
    fn rebuild_hidden<B: ComponentStores>(f: &GaussForest<B>) -> Vec<HashSet<u64>> {
        let mut newer: HashSet<u64> = f.mem.shared().keys().copied().collect();
        f.comps
            .iter()
            .map(|c| {
                let hidden: HashSet<u64> = c.ids.intersection(&newer).copied().collect();
                newer.extend(c.ids.iter().copied());
                newer.extend(c.tombstones.iter().copied());
                hidden
            })
            .collect()
    }

    #[test]
    fn incremental_shadow_sets_match_rebuild() {
        let opts = ForestOptions::new().memtable_capacity(7);
        let mut f = GaussForest::create(
            MemComponentStores::new(4096),
            TreeConfig::new(2).with_capacities(6, 4),
            opts,
        )
        .unwrap();
        let mut live: HashSet<u64> = HashSet::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut _pin = None;
        for step in 0..800u64 {
            let id = next() % 48;
            match next() % 100 {
                0..=39 => {
                    f.insert(id, &v(step)).unwrap();
                    live.insert(id);
                }
                40..=59 => {
                    // Overwrite a live id, wherever it is stored.
                    if let Some(&id) = live.iter().min_by_key(|&&x| x ^ id) {
                        f.insert(id, &v(step)).unwrap();
                    }
                }
                60..=84 => assert_eq!(f.delete(id).unwrap(), live.remove(&id)),
                85..=91 => {
                    f.flush().unwrap();
                }
                92..=97 => {
                    f.maintain().unwrap();
                }
                _ => {
                    f.flush().unwrap();
                    f = GaussForest::open(f.into_backend(), opts).unwrap();
                }
            }
            if step % 13 == 0 {
                // Keep a pin alive so later writes take the copy path.
                _pin = Some(f.snapshot().unwrap());
            }
            let rebuilt = rebuild_hidden(&f);
            let mut visible = f.mem.live_entries().len() as u64;
            for (c, want) in f.comps.iter().zip(&rebuilt) {
                assert_eq!(*c.hidden, *want, "step {step}: component {}", c.id);
                visible += (c.ids.len() - want.len()) as u64;
            }
            assert_eq!(f.len(), visible, "step {step}");
            assert_eq!(f.len(), live.len() as u64, "step {step}");
        }
        assert!(f.component_stats().len() > 1);
    }
}
