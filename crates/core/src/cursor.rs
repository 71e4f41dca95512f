//! Incremental ranking cursor (extension).
//!
//! `k_mliq` answers a fixed-k query; many applications instead consume
//! matches lazily until some application-defined condition holds ("until a
//! human operator confirms", "until cumulative probability exceeds 99 %").
//! [`RankingCursor`] wraps the same Hjaltason–Samet best-first traversal and
//! yields objects one at a time in non-increasing density order, reading
//! only the pages needed so far. Expanded leaves are evaluated through the
//! batched columnar kernel ([`pfv::batch::log_densities`]), so the cursor's
//! per-hit densities are bit-identical to the scalar per-entry path.
//!
//! The frontier is the one every query runs on (see [`crate::query`]):
//! `(part, node)` bounds seeded from each part's root, plus memtable
//! entries as ready objects; hidden ids are skipped on leaf expansion. A
//! single tree is the one-part case. Because emission is ordered by exact
//! density, a forest's ranking equals the single-tree ranking over the
//! live set.

use crate::node::CachedNode;
use crate::query::MliqResult;
use crate::tree::TreeError;
use crate::view::ReadPlane;
use gauss_storage::store::PageStore;
use gauss_storage::PageId;
use pfv::{batch, combine, Pfv};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An element of the traversal frontier: either an unexpanded node (tagged
/// with the part it belongs to; 0 for a single tree) or a concrete
/// object, ordered by its (bound on the) log density.
#[derive(Debug, Clone, Copy)]
enum Frontier {
    NodeBound {
        log_upper: f64,
        comp: usize,
        page: PageId,
    },
    Object {
        log_density: f64,
        id: u64,
    },
}

impl Frontier {
    fn key(&self) -> f64 {
        match self {
            Frontier::NodeBound { log_upper, .. } => *log_upper,
            Frontier::Object { log_density, .. } => *log_density,
        }
    }
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Frontier {}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on the key. On exact key ties node bounds win, so a
        // node whose upper bound equals a ready object's density is
        // expanded *before* that object is emitted — it may hide an
        // equal-density entry with a smaller id, which the (density desc,
        // id asc) contract must rank first. Tied objects then emit in
        // ascending id order. Together this is a strict total order, so
        // emission is independent of heap arrival order — and over a
        // forest, of component order.
        self.key()
            .total_cmp(&other.key())
            .then_with(|| match (self, other) {
                (Frontier::NodeBound { .. }, Frontier::Object { .. }) => Ordering::Greater,
                (Frontier::Object { .. }, Frontier::NodeBound { .. }) => Ordering::Less,
                (Frontier::Object { id: a, .. }, Frontier::Object { id: b, .. }) => b.cmp(a),
                (Frontier::NodeBound { .. }, Frontier::NodeBound { .. }) => Ordering::Equal,
            })
    }
}

/// Lazy best-first ranking over one view state.
///
/// Created by [`ReadView::ranking_cursor`] — on a
/// [`GaussTree`](crate::tree::GaussTree) (working state), a pinned
/// [`Snapshot`](crate::tree::Snapshot) (committed epoch) or a
/// [`ForestSnapshot`](crate::ForestSnapshot) (committed forest manifest);
/// call [`RankingCursor::next_hit`] repeatedly. Holds the query and
/// frontier; borrows the view *shared*, so several cursors (even on
/// different threads) can rank over one tree at once.
///
/// [`ReadView::ranking_cursor`]: crate::view::ReadView::ranking_cursor
pub struct RankingCursor<'t, S: PageStore> {
    view: ReadPlane<'t, S>,
    query: Pfv,
    heap: BinaryHeap<Frontier>,
    emitted: u64,
    /// Scratch buffer for the batched leaf kernel, reused across leaves.
    dens: Vec<f64>,
}

impl<S: PageStore> std::fmt::Debug for RankingCursor<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankingCursor")
            .field("emitted", &self.emitted)
            .field("frontier", &self.heap.len())
            .finish_non_exhaustive()
    }
}

impl<'t, S: PageStore> RankingCursor<'t, S> {
    /// Number of objects emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Returns the next-most-likely object, or `None` when the database is
    /// exhausted.
    ///
    /// # Errors
    /// Storage / codec errors while expanding nodes.
    pub fn next_hit(&mut self) -> Result<Option<MliqResult>, TreeError> {
        let mode = self.view.config.combine;
        while let Some(top) = self.heap.pop() {
            match top {
                Frontier::Object { log_density, id } => {
                    self.emitted += 1;
                    return Ok(Some(MliqResult { id, log_density }));
                }
                Frontier::NodeBound { comp, page, .. } => {
                    let part = &self.view.parts[comp];
                    match &*part.plane.read_node_cached(page)? {
                        CachedNode::Leaf(leaf) => {
                            self.dens.resize(leaf.columns.len(), 0.0);
                            batch::log_densities(mode, &self.query, &leaf.columns, &mut self.dens);
                            for (&id, &log_density) in leaf.ids.iter().zip(self.dens.iter()) {
                                if !part.hides(id) {
                                    self.heap.push(Frontier::Object { log_density, id });
                                }
                            }
                        }
                        CachedNode::Inner(es) => {
                            // The cursor only orders by the upper bound, so no
                            // fused lower-bound evaluation is needed here.
                            for e in es {
                                self.heap.push(Frontier::NodeBound {
                                    log_upper: e.rect.log_upper_for_query(&self.query, mode),
                                    comp,
                                    page: e.child,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(None)
    }

    /// Drains hits until the closure returns `false` (inclusive of the last
    /// inspected hit).
    ///
    /// # Errors
    /// Storage / codec errors.
    pub fn take_while(
        &mut self,
        mut keep_going: impl FnMut(&MliqResult) -> bool,
    ) -> Result<Vec<MliqResult>, TreeError> {
        let mut out = Vec::new();
        while let Some(hit) = self.next_hit()? {
            let more = keep_going(&hit);
            out.push(hit);
            if !more {
                break;
            }
        }
        Ok(out)
    }
}

impl<'t, S: PageStore> ReadPlane<'t, S> {
    /// Starts a lazy best-first ranking for `q` — the constructor behind
    /// [`crate::view::ReadView::ranking_cursor`].
    pub(crate) fn ranking_cursor(self, q: &Pfv) -> Result<RankingCursor<'t, S>, TreeError> {
        self.check_dims(q.dims())?;
        let mode = self.config.combine;
        let mut heap: BinaryHeap<Frontier> = self
            .mem()
            .map(|(id, v)| Frontier::Object {
                log_density: combine::log_joint(mode, v, q),
                id,
            })
            .collect();
        heap.extend(self.roots().map(|r| Frontier::NodeBound {
            log_upper: r.log_upper,
            comp: r.comp,
            page: r.page,
        }));
        Ok(RankingCursor {
            view: self,
            query: q.clone(),
            heap,
            emitted: 0,
            dens: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use crate::tree::GaussTree;
    use crate::view::ReadView;
    use gauss_storage::{AccessStats, BufferPool, MemStore};
    use pfv::CombineMode;

    fn build(n: u64) -> (GaussTree<MemStore>, Vec<Pfv>) {
        let pool = BufferPool::new(MemStore::new(8192), 4096, AccessStats::new_shared());
        let mut tree = GaussTree::create(pool, TreeConfig::new(2).with_capacities(5, 4)).unwrap();
        let mut db = Vec::new();
        for i in 0..n {
            let v = Pfv::new(
                vec![
                    (i as f64 * 0.71).sin() * 10.0,
                    (i as f64 * 0.37).cos() * 10.0,
                ],
                vec![0.1 + (i % 4) as f64 * 0.2, 0.15],
            )
            .unwrap();
            tree.insert(i, &v).unwrap();
            db.push(v);
        }
        (tree, db)
    }

    #[test]
    fn cursor_yields_full_ranking_in_order() {
        let (tree, db) = build(120);
        let q = Pfv::new(vec![2.0, -1.0], vec![0.3, 0.3]).unwrap();
        let mut cursor = tree.ranking_cursor(&q).unwrap();
        let mut got = Vec::new();
        while let Some(hit) = cursor.next_hit().unwrap() {
            got.push(hit);
        }
        assert_eq!(got.len(), 120);
        // Non-increasing densities.
        for w in got.windows(2) {
            assert!(w[0].log_density >= w[1].log_density - 1e-12);
        }
        // Matches brute force exactly.
        let mut want: Vec<f64> = db
            .iter()
            .map(|v| combine::log_joint(CombineMode::Convolution, v, &q))
            .collect();
        want.sort_by(|a, b| b.total_cmp(a));
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.log_density - w).abs() < 1e-9);
        }
    }

    #[test]
    fn cursor_prefix_equals_k_mliq() {
        let (tree, _) = build(200);
        let q = Pfv::new(vec![0.0, 5.0], vec![0.2, 0.4]).unwrap();
        let fixed = tree.k_mliq(&q, 7).unwrap();
        let mut cursor = tree.ranking_cursor(&q).unwrap();
        for want in &fixed {
            let got = cursor.next_hit().unwrap().unwrap();
            assert!((got.log_density - want.log_density).abs() < 1e-12);
        }
        assert_eq!(cursor.emitted(), 7);
    }

    #[test]
    fn lazy_cursor_reads_fewer_pages_than_full_ranking() {
        let (tree, _) = build(2000);
        let q = Pfv::new(vec![2.0, -1.0], vec![0.05, 0.05]).unwrap();
        tree.cold_start();
        {
            let mut cursor = tree.ranking_cursor(&q).unwrap();
            let _ = cursor.next_hit().unwrap().unwrap();
        }
        let lazy = tree.stats().snapshot().physical_reads;
        let total = tree.pool().num_pages();
        assert!(
            lazy * 3 < total,
            "first hit read {lazy} of {total} pages — not lazy"
        );
    }

    #[test]
    fn take_while_cumulative_probability() {
        let (tree, db) = build(50);
        let q = Pfv::new(db[13].means().to_vec(), vec![0.1, 0.1]).unwrap();
        // First collect the denominator for normalisation.
        let posteriors = pfv::posteriors(CombineMode::Convolution, &db, &q);
        let denom: f64 =
            pfv::log_sum_exp(&posteriors.iter().map(|p| p.log_density).collect::<Vec<_>>());
        let mut cum = 0.0;
        let mut cursor = tree.ranking_cursor(&q).unwrap();
        let hits = cursor
            .take_while(|h| {
                cum += (h.log_density - denom).exp();
                cum < 0.99
            })
            .unwrap();
        assert!(!hits.is_empty());
        assert!(hits.len() < 50, "0.99 mass should need few objects");
        assert_eq!(hits[0].id, 13);
    }

    #[test]
    fn empty_tree_cursor() {
        let pool = BufferPool::new(MemStore::new(8192), 16, AccessStats::new_shared());
        let tree = GaussTree::create(pool, TreeConfig::new(2).with_capacities(4, 3)).unwrap();
        let q = Pfv::new(vec![0.0, 0.0], vec![0.1, 0.1]).unwrap();
        let mut cursor = tree.ranking_cursor(&q).unwrap();
        assert!(cursor.next_hit().unwrap().is_none());
    }
}
