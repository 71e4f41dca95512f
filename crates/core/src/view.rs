//! The shared read-plane: one implementation of every read-only query,
//! consumed through the [`ReadView`] trait by the writer handle
//! ([`GaussTree`], which reads its *working* state), the pinned
//! [`Snapshot`](crate::tree::Snapshot) view (which reads a *committed*
//! epoch) and the [`ForestSnapshot`] (which reads a committed forest
//! manifest).
//!
//! Two types carry a view into the algorithms:
//!
//! * `Plane` is the page handle of one tree state: the configuration, the
//!   root page, the height, the length, and a way to read node pages
//!   (raw, or decoded through the shared node cache);
//! * `ReadPlane` is what every query runs on: a live memtable image plus
//!   a list of parts, each a `Plane` with the ids it hides. A single tree
//!   is a forest with one part, no memtable and nothing hidden.
//!
//! So the k-MLIQ / TIQ / cursor / box-query / traversal code exists once —
//! `query.rs`, `cursor.rs` and `interval.rs` implement against
//! `ReadPlane`, `check.rs` against `Plane` — and every public entry
//! point is a provided method of [`ReadView`]. Callers learn one concept
//! ([`GaussTree::snapshot`](crate::tree::GaussTree::snapshot)) and keep
//! calling the same query methods on whichever view they hold.

use crate::config::TreeConfig;
use crate::cursor::RankingCursor;
use crate::executor::BatchExecutor;
use crate::forest::memtable::Records;
use crate::forest::ForestSnapshot;
use crate::interval::BoxQueryResult;
use crate::node::{CachedNode, Node};
use crate::query::{ActiveNode, MliqResult, RefinedResult, TiqResult};
use crate::tree::{GaussTree, TreeError};
use gauss_storage::store::PageStore;
use gauss_storage::{PageId, SharedBufferPool, SideCache};
use pfv::Pfv;
use std::collections::HashSet;
use std::sync::Arc;

/// A borrowed, read-only view of one tree state (root + height + length +
/// page access) — one part of a `ReadPlane`.
///
/// All fields borrow from the owning [`GaussTree`] or
/// [`Snapshot`](crate::tree::Snapshot), so a `Plane` is a cheap `Copy`
/// token, not a pinned state by itself.
#[derive(Debug)]
pub(crate) struct Plane<'a, S: PageStore> {
    pub(crate) pool: &'a SharedBufferPool<S>,
    pub(crate) node_cache: &'a SideCache<CachedNode>,
    pub(crate) config: &'a TreeConfig,
    pub(crate) leaf_cap: usize,
    pub(crate) inner_cap: usize,
    pub(crate) root: PageId,
    pub(crate) height: u32,
    pub(crate) len: u64,
}

// Manual impls: the derives would add an implicit `S: Copy` bound, but a
// `Plane` is all borrows and always copyable regardless of the store.
impl<S: PageStore> Clone for Plane<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S: PageStore> Copy for Plane<'_, S> {}

impl<'a, S: PageStore> Plane<'a, S> {
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn height(&self) -> u32 {
        self.height
    }

    pub(crate) fn root_page(&self) -> PageId {
        self.root
    }

    pub(crate) fn leaf_capacity(&self) -> usize {
        self.leaf_cap
    }

    pub(crate) fn inner_capacity(&self) -> usize {
        self.inner_cap
    }

    /// Reads and decodes the node stored at `page`.
    pub(crate) fn read_node(&self, page: PageId) -> Result<Node, TreeError> {
        let bytes = self.pool.page(page)?;
        Ok(Node::read_from(
            self.config.dims,
            self.config.leaf_format,
            &bytes,
        )?)
    }

    /// Reads the node stored at `page` in query-ready cached form. The
    /// page is *always* requested from the buffer pool first — access
    /// accounting is identical to [`Plane::read_node`] — and only the
    /// decode step is skipped on a node-cache hit.
    ///
    /// A node-cache miss costs one pass: the pool hands out the frame
    /// (on a pool miss, one store read straight into the frame), and
    /// [`CachedNode::read_from`] parses it straight into the columnar form.
    /// No [`Pfv`] is built; those exist only on the write path
    /// ([`Plane::read_node`]).
    pub(crate) fn read_node_cached(&self, page: PageId) -> Result<Arc<CachedNode>, TreeError> {
        let bytes = self.pool.page(page)?;
        if let Some(cached) = self.node_cache.get(page) {
            return Ok(cached);
        }
        let cached = Arc::new(CachedNode::read_from(
            self.config.dims,
            self.config.leaf_format,
            &bytes,
        )?);
        self.node_cache.insert(page, Arc::clone(&cached));
        Ok(cached)
    }

    /// Visits every stored `(id, pfv)` pair (in tree order).
    pub(crate) fn for_each_entry(&self, mut f: impl FnMut(u64, &Pfv)) -> Result<(), TreeError> {
        let mut stack = vec![(self.root, self.height)];
        while let Some((page, level)) = stack.pop() {
            match self.read_node(page)? {
                Node::Leaf(es) => {
                    for e in &es {
                        f(e.id, &e.pfv);
                    }
                }
                Node::Inner(es) => {
                    if level == 0 {
                        return Err(TreeError::Corrupt("inner node at leaf level"));
                    }
                    for e in &es {
                        stack.push((e.child, level - 1));
                    }
                }
            }
        }
        Ok(())
    }
}

/// One tree of a `ReadPlane`: its page handle plus the ids it must not
/// report — entries shadowed by newer forest components or tombstones
/// (`None` when nothing is hidden, as for every single tree).
pub(crate) struct Part<'a, S: PageStore> {
    pub(crate) plane: Plane<'a, S>,
    pub(crate) hidden: Option<&'a HashSet<u64>>,
}

impl<S: PageStore> Part<'_, S> {
    /// Whether this part must skip entry `id`.
    pub(crate) fn hides(&self, id: u64) -> bool {
        self.hidden.is_some_and(|h| h.contains(&id))
    }
}

/// The read-plane behind every [`ReadView`]: a live memtable image plus
/// a list of trees, each with the ids it hides. A [`GaussTree`] or a
/// [`Snapshot`](crate::tree::Snapshot) is the one-part case — no
/// memtable and nothing hidden — and a [`ForestSnapshot`] contributes
/// one part per pinned component, newest first. Every query algorithm
/// runs once against this shape (see [`crate::query`]).
#[doc(hidden)]
pub struct ReadPlane<'a, S: PageStore> {
    pub(crate) config: &'a TreeConfig,
    /// Live objects visible through the plane.
    pub(crate) live: u64,
    /// Memtable records (tombstones included), ascending id; `None` for
    /// a single tree.
    pub(crate) mem: Option<&'a Records>,
    pub(crate) parts: Vec<Part<'a, S>>,
}

impl<'a, S: PageStore> ReadPlane<'a, S> {
    /// The one-part plane of a single tree state.
    pub(crate) fn tree(plane: Plane<'a, S>) -> Self {
        Self {
            config: plane.config,
            live: plane.len,
            mem: None,
            parts: vec![Part {
                plane,
                hidden: None,
            }],
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Live memtable entries, ascending id.
    pub(crate) fn mem(&self) -> impl Iterator<Item = (u64, &'a Pfv)> {
        self.mem
            .into_iter()
            .flatten()
            .filter_map(|(id, v)| v.as_ref().map(|v| (*id, v)))
    }

    /// The frontier seed of every best-first walk: each non-empty
    /// part's root, tagged with its part index and bounded by +∞.
    pub(crate) fn roots(&self) -> impl Iterator<Item = ActiveNode> + '_ {
        self.parts
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.plane.is_empty())
            .map(|(comp, p)| ActiveNode {
                log_upper: f64::INFINITY,
                log_lower: f64::NEG_INFINITY,
                count: p.plane.len(),
                comp,
                page: p.plane.root_page(),
            })
    }

    pub(crate) fn check_dims(&self, got: usize) -> Result<(), TreeError> {
        if got != self.config.dims {
            return Err(TreeError::DimMismatch {
                expected: self.config.dims,
                got,
            });
        }
        Ok(())
    }

    /// Visits every live entry: memtable first (ascending id), then each
    /// part in tree order, hidden ids skipped.
    pub(crate) fn for_each_entry(&self, mut f: impl FnMut(u64, &Pfv)) -> Result<(), TreeError> {
        for (id, v) in self.mem() {
            f(id, v);
        }
        for part in &self.parts {
            part.plane.for_each_entry(|id, v| {
                if !part.hides(id) {
                    f(id, v);
                }
            })?;
        }
        Ok(())
    }
}

/// Read-only query surface shared by the writer handle and pinned
/// snapshots.
///
/// Implemented by [`GaussTree`] (queries run against the tree's *working*
/// state, exactly as before the snapshot API existed), by
/// [`Snapshot`](crate::tree::Snapshot) (queries run lock-free against the
/// pinned *committed* epoch, concurrently with a writer shadow-building
/// the next one), and by [`ForestSnapshot`] (queries fan out across the
/// pinned forest manifest). Every method is provided — implementors only
/// supply [`ReadView::plane`].
pub trait ReadView<S: PageStore> {
    /// The raw read-plane this view exposes. Implementation detail —
    /// call the query methods instead.
    #[doc(hidden)]
    fn plane(&self) -> ReadPlane<'_, S>;

    /// k-most-likely identification query (paper §5.2.1, Definition 3).
    ///
    /// Returns up to `k` objects ranked by descending relative probability
    /// `p(q|v)`. Does not compute normalised probabilities — use
    /// [`ReadView::k_mliq_refined`] when you need `P(v|q)`.
    ///
    /// # Errors
    /// Dimensionality mismatch or storage errors.
    fn k_mliq(&self, q: &Pfv, k: usize) -> Result<Vec<MliqResult>, TreeError> {
        self.plane().k_mliq(q, k)
    }

    /// Probability-refined k-MLIQ (paper §5.2.2).
    ///
    /// Like [`ReadView::k_mliq`] but also determines the identification
    /// probability `P(v|q)` of every answer with guaranteed bounds whose
    /// width is at most `accuracy`.
    ///
    /// # Errors
    /// Dimensionality mismatch or storage errors.
    ///
    /// # Panics
    /// Panics if `accuracy <= 0`.
    fn k_mliq_refined(
        &self,
        q: &Pfv,
        k: usize,
        accuracy: f64,
    ) -> Result<Vec<RefinedResult>, TreeError> {
        self.plane().k_mliq_refined(q, k, accuracy)
    }

    /// Threshold identification query (paper §5.2.3, Figure 5,
    /// Definition 2): every object with `P(v|q) ≥ p_theta`, with
    /// probability bounds of width at most `accuracy`, and with every
    /// boundary candidate decided exactly.
    ///
    /// # Errors
    /// Dimensionality mismatch or storage errors.
    ///
    /// # Panics
    /// Panics unless `0 < p_theta <= 1` and `accuracy > 0`.
    fn tiq(&self, q: &Pfv, p_theta: f64, accuracy: f64) -> Result<Vec<TiqResult>, TreeError> {
        self.plane().tiq(q, p_theta, accuracy)
    }

    /// The literal Figure-5 algorithm: stops as soon as no unexplored node
    /// can contain a qualifying object, keeps every candidate whose
    /// probability *could* reach the threshold, and reports the
    /// conservative probability. Cheaper than [`ReadView::tiq`] but
    /// boundary candidates may be reported whose exact probability is
    /// slightly below the threshold.
    ///
    /// # Errors
    /// Dimensionality mismatch or storage errors.
    ///
    /// # Panics
    /// Panics unless `0 < p_theta <= 1`.
    fn tiq_anytime(&self, q: &Pfv, p_theta: f64) -> Result<Vec<TiqResult>, TreeError> {
        self.plane().tiq_anytime(q, p_theta)
    }

    /// Starts a lazy best-first ranking for `q` (highest relative
    /// probability first) — see [`RankingCursor`].
    ///
    /// # Errors
    /// Dimensionality mismatch.
    fn ranking_cursor(&self, q: &Pfv) -> Result<RankingCursor<'_, S>, TreeError> {
        self.plane().ranking_cursor(q)
    }

    /// Probabilistic box threshold query (interval uncertainty model of
    /// Cheng et al., see [`crate::interval`]): every object whose true
    /// feature vector lies in `[lo, hi]` with probability at least `tau`,
    /// sorted by descending probability.
    ///
    /// # Errors
    /// Dimensionality mismatch or storage errors.
    ///
    /// # Panics
    /// Panics unless `0 < tau <= 1` and the box is well-formed.
    fn probabilistic_box_query(
        &self,
        lo: &[f64],
        hi: &[f64],
        tau: f64,
    ) -> Result<Vec<BoxQueryResult>, TreeError> {
        self.plane().probabilistic_box_query(lo, hi, tau)
    }

    /// Visits every stored `(id, pfv)` pair (in tree order).
    ///
    /// # Errors
    /// Store / codec errors.
    fn for_each_entry(&self, f: impl FnMut(u64, &Pfv)) -> Result<(), TreeError>
    where
        Self: Sized,
    {
        self.plane().for_each_entry(f)
    }

    /// Fans batches of queries across `threads` worker threads over this
    /// view — shorthand for [`BatchExecutor::new`]`(self, threads)`.
    fn batch(&self, threads: usize) -> BatchExecutor<'_, S, Self>
    where
        Self: Sized + Sync,
        S: Send,
    {
        BatchExecutor::new(self, threads)
    }
}

impl<S: PageStore> ReadView<S> for GaussTree<S> {
    fn plane(&self) -> ReadPlane<'_, S> {
        ReadPlane::tree(self.working_plane())
    }
}

impl<S: PageStore> ReadView<S> for ForestSnapshot<S> {
    fn plane(&self) -> ReadPlane<'_, S> {
        ReadPlane {
            config: &self.config,
            live: self.live,
            mem: Some(&*self.mem),
            parts: self
                .comps
                .iter()
                .map(|c| Part {
                    plane: c.snap.tree_plane(),
                    hidden: (!c.hidden.is_empty()).then_some(&*c.hidden),
                })
                .collect(),
        }
    }
}
