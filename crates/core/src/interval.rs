//! Probabilistic box (threshold) queries — bridging to the *interval
//! uncertainty model* of Cheng et al. (§2 of the paper).
//!
//! The related work the paper contrasts against (SIGMOD'03 / VLDB'04)
//! asks: *which uncertain objects lie inside a given query rectangle with
//! probability ≥ τ?* The paper argues this is the wrong primitive for
//! identification — but it is a useful query in its own right, and the
//! Gauss-tree supports it directly (extension, not in the paper):
//!
//! * per object, the containment probability factorises over dimensions as
//!   `Πᵢ (Φ((hiᵢ−μᵢ)/σᵢ) − Φ((loᵢ−μᵢ)/σᵢ))`;
//! * per node, `mass ≤ ∫_lo^hi N̂(x) dx ≤ (hi−lo)·max_{x∈[lo,hi]} N̂(x)`
//!   gives a conservative per-dimension upper bound from the same Lemma-2
//!   hull the identification queries use, so subtrees whose bound falls
//!   below τ are pruned.

use crate::node::Node;
use crate::tree::TreeError;
use crate::view::{Part, ReadPlane};
use gauss_storage::store::PageStore;
use pfv::hull::DimBounds;
use pfv::Pfv;

/// One result of a probabilistic box query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxQueryResult {
    /// External object id.
    pub id: u64,
    /// Exact probability that the object's true vector lies in the box.
    pub probability: f64,
}

/// Exact containment probability of one pfv in `[lo, hi]`.
///
/// # Panics
/// Panics on dimensionality mismatch or a reversed box.
#[must_use]
pub fn containment_probability(v: &Pfv, lo: &[f64], hi: &[f64]) -> f64 {
    assert_eq!(v.dims(), lo.len(), "box dimensionality mismatch");
    assert_eq!(lo.len(), hi.len(), "box corners mismatch");
    let mut p = 1.0;
    for i in 0..v.dims() {
        assert!(lo[i] <= hi[i], "reversed box in dim {i}");
        let g = v.gaussian(i);
        p *= (g.cdf(hi[i]) - g.cdf(lo[i])).max(0.0);
        if p == 0.0 {
            return 0.0;
        }
    }
    p
}

/// Conservative upper bound on the containment mass of any Gaussian whose
/// parameters lie in `bounds`, over the interval `[lo, hi]`.
#[must_use]
pub fn mass_upper_1d(bounds: &DimBounds, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi);
    // max of N̂ over [lo, hi]: N̂ rises monotonically up to μ̌, is flat on
    // [μ̌, μ̂], and falls beyond — so the max is at the point of [lo, hi]
    // closest to the plateau.
    let x_star = if hi < bounds.mu_lo {
        hi
    } else if lo > bounds.mu_hi {
        lo
    } else {
        // Intervals overlap: plateau value.
        bounds.mu_lo.max(lo)
    };
    ((hi - lo) * bounds.upper(x_star)).min(1.0)
}

impl<S: PageStore> ReadPlane<'_, S> {
    /// Probabilistic box threshold query — the algorithm behind
    /// [`crate::view::ReadView::probabilistic_box_query`]: an exact filter
    /// over the memtable, then every part's pruned descent.
    pub(crate) fn probabilistic_box_query(
        &self,
        lo: &[f64],
        hi: &[f64],
        tau: f64,
    ) -> Result<Vec<BoxQueryResult>, TreeError> {
        assert!(tau > 0.0 && tau <= 1.0, "tau must be in (0,1], got {tau}");
        self.check_dims(lo.len())?;
        self.check_dims(hi.len())?;
        for i in 0..lo.len() {
            assert!(lo[i] <= hi[i], "reversed box in dim {i}");
        }
        let mut out: Vec<BoxQueryResult> = self
            .mem()
            .map(|(id, v)| BoxQueryResult {
                id,
                probability: containment_probability(v, lo, hi),
            })
            .filter(|r| r.probability >= tau)
            .collect();
        for part in &self.parts {
            part.box_query_scan(lo, hi, tau, &mut out)?;
        }
        out.sort_by(|a, b| {
            b.probability
                .total_cmp(&a.probability)
                .then_with(|| a.id.cmp(&b.id))
        });
        Ok(out)
    }
}

impl<S: PageStore> Part<'_, S> {
    /// The pruned box-query descent over this part's tree, appending
    /// qualifying visible objects to `out` (unsorted). Inputs are assumed
    /// validated by the caller.
    fn box_query_scan(
        &self,
        lo: &[f64],
        hi: &[f64],
        tau: f64,
        out: &mut Vec<BoxQueryResult>,
    ) -> Result<(), TreeError> {
        if self.plane.is_empty() {
            return Ok(());
        }
        let mut stack = vec![self.plane.root_page()];
        while let Some(page) = stack.pop() {
            match self.plane.read_node(page)? {
                Node::Leaf(es) => {
                    for e in &es {
                        if self.hides(e.id) {
                            continue;
                        }
                        let p = containment_probability(&e.pfv, lo, hi);
                        if p >= tau {
                            out.push(BoxQueryResult {
                                id: e.id,
                                probability: p,
                            });
                        }
                    }
                }
                Node::Inner(es) => {
                    for e in &es {
                        let mut bound = 1.0;
                        for (i, d) in e.rect.as_slice().iter().enumerate() {
                            bound *= mass_upper_1d(d, lo[i], hi[i]);
                            if bound < tau {
                                break;
                            }
                        }
                        if bound >= tau {
                            stack.push(e.child);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use crate::tree::GaussTree;
    use crate::view::ReadView;
    use gauss_storage::{AccessStats, BufferPool, MemStore};

    fn build(items: &[(u64, Pfv)]) -> GaussTree<MemStore> {
        let pool = BufferPool::new(MemStore::new(8192), 4096, AccessStats::new_shared());
        let mut tree = GaussTree::create(pool, TreeConfig::new(2).with_capacities(5, 4)).unwrap();
        for (id, v) in items {
            tree.insert(*id, v).unwrap();
        }
        tree
    }

    fn grid_items() -> Vec<(u64, Pfv)> {
        let mut out = Vec::new();
        let mut id = 0;
        for x in 0..10 {
            for y in 0..10 {
                let v = Pfv::new(
                    vec![x as f64, y as f64],
                    vec![0.1 + (x % 3) as f64 * 0.2, 0.1 + (y % 4) as f64 * 0.15],
                )
                .unwrap();
                out.push((id, v));
                id += 1;
            }
        }
        out
    }

    #[test]
    fn containment_probability_basics() {
        let v = Pfv::new(vec![0.0], vec![1.0]).unwrap();
        // Central 1σ interval holds ~68.3%.
        let p = containment_probability(&v, &[-1.0], &[1.0]);
        assert!((p - 0.6827).abs() < 1e-3, "p = {p}");
        // Full line ≈ 1, far box ≈ 0.
        assert!(containment_probability(&v, &[-50.0], &[50.0]) > 0.999_999);
        assert!(containment_probability(&v, &[40.0], &[50.0]) < 1e-12);
        // Multivariate factorisation.
        let v2 = Pfv::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let p2 = containment_probability(&v2, &[-1.0, -1.0], &[1.0, 1.0]);
        assert!((p2 - 0.6827 * 0.6827).abs() < 2e-3);
    }

    #[test]
    fn mass_upper_dominates_every_member() {
        let b = DimBounds::new(2.0, 4.0, 0.3, 1.0);
        for &(mu, sigma) in &[(2.0, 0.3), (3.0, 0.5), (4.0, 1.0), (2.5, 0.9)] {
            for &(lo, hi) in &[
                (0.0, 1.0),
                (1.5, 2.5),
                (2.9, 3.1),
                (5.0, 9.0),
                (-10.0, 10.0),
            ] {
                let v = Pfv::new(vec![mu], vec![sigma]).unwrap();
                let exact = containment_probability(&v, &[lo], &[hi]);
                let bound = mass_upper_1d(&b, lo, hi);
                assert!(
                    bound >= exact - 1e-12,
                    "bound {bound} < exact {exact} for N({mu},{sigma}) on [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn box_query_matches_brute_force() {
        let items = grid_items();
        let tree = build(&items);
        for (lo, hi, tau) in [
            ([2.5, 2.5], [4.5, 6.5], 0.5),
            ([0.0, 0.0], [9.0, 9.0], 0.9),
            ([4.9, 4.9], [5.1, 5.1], 0.05),
            ([-5.0, -5.0], [-1.0, -1.0], 0.01),
        ] {
            let got = tree.probabilistic_box_query(&lo, &hi, tau).unwrap();
            let mut want: Vec<(u64, f64)> = items
                .iter()
                .map(|(id, v)| (*id, containment_probability(v, &lo, &hi)))
                .filter(|&(_, p)| p >= tau)
                .collect();
            want.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            assert_eq!(got.len(), want.len(), "count mismatch for tau={tau}");
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g.id, w.0);
                assert!((g.probability - w.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn box_query_prunes_pages() {
        let items = grid_items();
        let tree = build(&items);
        tree.cold_start();
        // Tiny box in one corner: most of the grid must be pruned.
        let _ = tree
            .probabilistic_box_query(&[0.5, 0.5], &[1.5, 1.5], 0.2)
            .unwrap();
        let read = tree.stats().snapshot().physical_reads;
        let total = tree.pool().num_pages();
        assert!(
            read * 2 < total,
            "box query read {read} of {total} pages — no pruning?"
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let items = grid_items();
        let tree = build(&items);
        assert!(tree.probabilistic_box_query(&[0.0], &[1.0], 0.5).is_err());
        // A correct `lo` with a `hi` one dimension too long must report
        // the length of `hi`.
        assert!(matches!(
            tree.probabilistic_box_query(&[0.0, 0.0], &[1.0, 1.0, 1.0], 0.5),
            Err(TreeError::DimMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    #[should_panic(expected = "reversed box")]
    fn rejects_reversed_box() {
        let items = grid_items();
        let tree = build(&items);
        let _ = tree.probabilistic_box_query(&[1.0, 0.0], &[0.0, 1.0], 0.5);
    }
}
