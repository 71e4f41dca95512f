//! Query processing across the whole forest.
//!
//! Every algorithm of [`crate::query`] generalises from one tree to
//! memtable + components because the Gauss-tree's candidate selection is
//! a pure function of the *multiset of (id, density) pairs of the live
//! set* under a strict total order:
//!
//! * **k-MLIQ** pushes memtable densities and every component's
//!   best-first scan into one shared top-k heap. Densities are computed
//!   by the same kernels everywhere ([`pfv::combine::log_joint`] ≡
//!   [`pfv::batch`] per the PR-3 bit-identity gate, and memtable values
//!   are pre-quantised), ids are unique across the live set, and the
//!   `(density, id)` order is total — so the surviving k are independent
//!   of component boundaries and scan order: **bit-identical** to a
//!   single tree bulk-loaded with the same live set. A fuller shared
//!   heap only *tightens* each component's pruning bound.
//! * **Refined k-MLIQ / TIQ** aggregate the global Bayes denominator
//!   from per-component partial sums: one [`DenomBounds`] accumulator
//!   receives exact densities for memtable entries and expanded leaves,
//!   and per-node remainder terms priced with *asymmetric counts* — the
//!   upper remainder uses the node's full entry count (valid even when
//!   newer components shadow some entries), the lower uses the count
//!   minus the component's total shadowed ids (never over-counts what is
//!   visible). Hidden entries are excluded from the exact accumulator
//!   on leaf expansion, so the bounds converge to the exact live-set
//!   denominator; result *membership* and densities match the single
//!   tree, while the reported probability intervals may differ within
//!   the caller's accuracy (bounds are exploration-order dependent).
//! * **Box queries** filter the memtable exactly and run each
//!   component's pruned descent with its shadow set — bit-identical.

use super::{ForestSnapshot, SnapComponent};
use crate::interval::{containment_probability, BoxQueryResult};
use crate::node::CachedNode;
use crate::query::{
    active_children, clamped_probs, push_candidate, ActiveNode, Candidate, DenomBounds, MliqResult,
    RefinedResult, TiqResult,
};
use crate::tree::TreeError;
use crate::view::Plane;
use gauss_storage::store::PageStore;
use pfv::{batch, combine, Pfv};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The forest read-plane: borrowed view of a [`ForestSnapshot`]'s
/// memtable image and pinned components, mirroring [`Plane`] for a
/// single tree. Public only because [`crate::view::ViewPlane`] carries
/// it; not constructed outside the crate.
#[doc(hidden)]
pub struct ForestPlane<'a, S: PageStore> {
    pub(crate) snap: &'a ForestSnapshot<S>,
}

impl<S: PageStore> Clone for ForestPlane<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S: PageStore> Copy for ForestPlane<'_, S> {}

/// Queue entry of the forest-level best-first loops: an active node
/// tagged with its component index (part of the `Ord` key only to keep
/// the order total across components).
struct CompNode {
    node: ActiveNode,
    comp: usize,
}

impl PartialEq for CompNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for CompNode {}
impl PartialOrd for CompNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CompNode {
    fn cmp(&self, other: &Self) -> Ordering {
        self.node
            .log_upper
            .total_cmp(&other.node.log_upper)
            .then_with(|| self.comp.cmp(&other.comp))
            .then_with(|| self.node.page.cmp(&other.node.page))
    }
}

impl<'a, S: PageStore> ForestPlane<'a, S> {
    pub(crate) fn config(&self) -> &'a crate::config::TreeConfig {
        &self.snap.config
    }

    pub(crate) fn len(&self) -> u64 {
        self.snap.live
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.snap.live == 0
    }

    /// Live memtable entries at pin time, ascending id.
    pub(crate) fn mem(&self) -> impl Iterator<Item = (&'a u64, &'a Pfv)> {
        self.snap
            .mem
            .iter()
            .filter_map(|(id, v)| v.as_ref().map(|v| (id, v)))
    }

    pub(crate) fn comps(&self) -> &'a [SnapComponent<S>] {
        &self.snap.comps
    }

    pub(crate) fn check_dims(&self, got: usize) -> Result<(), TreeError> {
        if got == self.snap.config.dims {
            Ok(())
        } else {
            Err(TreeError::DimMismatch {
                expected: self.snap.config.dims,
                got,
            })
        }
    }

    /// k-MLIQ across the forest — one shared top-k heap over the
    /// memtable and every component scan (see module docs for why this
    /// is bit-identical to the single-tree answer).
    pub(crate) fn k_mliq(&self, q: &Pfv, k: usize) -> Result<Vec<MliqResult>, TreeError> {
        self.check_dims(q.dims())?;
        if k == 0 || self.is_empty() {
            return Ok(Vec::new());
        }
        let target = k.min(self.len() as usize);
        let mode = self.snap.config.combine;
        let mut best: BinaryHeap<std::cmp::Reverse<Candidate>> = BinaryHeap::new();
        for (id, v) in self.mem() {
            push_candidate(&mut best, target, combine::log_joint(mode, v, q), *id);
        }
        for c in self.comps() {
            let hidden = (!c.hidden.is_empty()).then_some(&*c.hidden);
            c.snap
                .tree_plane()
                .k_mliq_scan(q, target, hidden, &mut best)?;
        }
        let mut out: Vec<MliqResult> = best
            .into_iter()
            .map(|std::cmp::Reverse(c)| MliqResult {
                id: c.id,
                log_density: c.log_density,
            })
            .collect();
        out.sort_by(|a, b| {
            b.log_density
                .total_cmp(&a.log_density)
                .then_with(|| a.id.cmp(&b.id))
        });
        Ok(out)
    }

    /// Eagerly evaluates the memtable and every component root, the
    /// shared prologue of the denominator-tracking loops. Returns the
    /// exact objects `(id, log_density)` found (memtable + root leaves,
    /// shadowed ids excluded) and the priced root children.
    #[allow(clippy::type_complexity)]
    fn denom_roots(
        &self,
        planes: &[Plane<'a, S>],
        q: &Pfv,
        dens: &mut Vec<f64>,
    ) -> Result<(Vec<(u64, f64)>, Vec<CompNode>), TreeError> {
        let mode = self.snap.config.combine;
        let mut objects: Vec<(u64, f64)> = self
            .mem()
            .map(|(id, v)| (*id, combine::log_joint(mode, v, q)))
            .collect();
        let mut nodes: Vec<CompNode> = Vec::new();
        for (ci, (c, plane)) in self.comps().iter().zip(planes).enumerate() {
            if plane.is_empty() {
                continue;
            }
            match &*plane.read_node_cached(plane.root_page())? {
                CachedNode::Leaf(leaf) => {
                    dens.resize(leaf.columns.len(), 0.0);
                    batch::log_densities(mode, q, &leaf.columns, dens);
                    for (&id, &ld) in leaf.ids.iter().zip(dens.iter()) {
                        if !c.hidden.contains(&id) {
                            objects.push((id, ld));
                        }
                    }
                }
                CachedNode::Inner(es) => {
                    nodes.extend(
                        active_children(es, q, mode)
                            .into_iter()
                            .map(|node| CompNode { node, comp: ci }),
                    );
                }
            }
        }
        Ok((objects, nodes))
    }

    /// Remainder-term counts for a node of component `ci`: the upper
    /// bound prices all stored entries (shadowed ones only loosen it
    /// upward), the lower bound discounts every id the component hides
    /// (the node cannot hide more than the whole component does).
    fn node_counts(&self, ci: usize, node: &ActiveNode) -> (f64, f64) {
        let hidden = self.snap.comps[ci].hidden.len() as f64;
        ((node.count as f64 - hidden).max(0.0), node.count as f64)
    }

    /// Probability-refined k-MLIQ across the forest.
    pub(crate) fn k_mliq_refined(
        &self,
        q: &Pfv,
        k: usize,
        accuracy: f64,
    ) -> Result<Vec<RefinedResult>, TreeError> {
        assert!(accuracy > 0.0, "accuracy must be positive");
        self.check_dims(q.dims())?;
        if k == 0 || self.is_empty() {
            return Ok(Vec::new());
        }
        let mode = self.snap.config.combine;
        let target = k.min(self.len() as usize);
        let planes: Vec<Plane<'a, S>> = self.comps().iter().map(|c| c.snap.tree_plane()).collect();
        let mut dens: Vec<f64> = Vec::new();
        let (objects, nodes) = self.denom_roots(&planes, q, &mut dens)?;

        let anchor = nodes
            .iter()
            .map(|n| n.node.log_upper)
            .chain(objects.iter().map(|&(_, ld)| ld))
            .fold(f64::NEG_INFINITY, f64::max);
        let mut denom = DenomBounds::new(if anchor.is_finite() { anchor } else { 0.0 });
        let mut active: BinaryHeap<CompNode> = BinaryHeap::new();
        let mut best: BinaryHeap<std::cmp::Reverse<Candidate>> = BinaryHeap::new();
        let mut best_ld = f64::NEG_INFINITY;
        for (id, ld) in objects {
            denom.add_object(ld);
            push_candidate(&mut best, target, ld, id);
            best_ld = best_ld.max(ld);
        }
        for cn in nodes {
            let (lo_n, hi_n) = self.node_counts(cn.comp, &cn.node);
            denom.add_node_counts(cn.node.log_lower, lo_n, cn.node.log_upper, hi_n);
            active.push(cn);
        }

        loop {
            let settled = best.len() == target
                && active.peek().is_none_or(|t| {
                    // lint: allow(no-panic) -- guarded by best.len() == target > 0 earlier in the condition chain
                    best.peek().expect("non-empty").0.log_density >= t.node.log_upper
                });
            if settled && denom.prob_width(best_ld) <= accuracy {
                break;
            }
            let Some(top) = active.pop() else { break };
            let (lo_n, hi_n) = self.node_counts(top.comp, &top.node);
            denom.remove_node_counts(top.node.log_lower, lo_n, top.node.log_upper, hi_n);
            let hidden = &self.snap.comps[top.comp].hidden;
            match &*planes[top.comp].read_node_cached(top.node.page)? {
                CachedNode::Leaf(leaf) => {
                    dens.resize(leaf.columns.len(), 0.0);
                    batch::log_densities(mode, q, &leaf.columns, &mut dens);
                    for (&id, &ld) in leaf.ids.iter().zip(dens.iter()) {
                        if hidden.contains(&id) {
                            continue;
                        }
                        denom.add_object(ld);
                        push_candidate(&mut best, target, ld, id);
                        best_ld = best_ld.max(ld);
                    }
                }
                CachedNode::Inner(es) => {
                    for node in active_children(es, q, mode) {
                        let (lo_n, hi_n) = self.node_counts(top.comp, &node);
                        denom.add_node_counts(node.log_lower, lo_n, node.log_upper, hi_n);
                        active.push(CompNode {
                            node,
                            comp: top.comp,
                        });
                    }
                }
            }
        }

        let (lo, hi, mid) = (denom.log_lo(), denom.log_hi(), denom.log_mid());
        let mut out: Vec<RefinedResult> = best
            .into_iter()
            .map(|std::cmp::Reverse(c)| {
                let (probability, prob_lo, prob_hi) = clamped_probs(c.log_density, lo, hi, mid);
                RefinedResult {
                    id: c.id,
                    log_density: c.log_density,
                    probability,
                    prob_lo,
                    prob_hi,
                }
            })
            .collect();
        out.sort_by(|a, b| {
            b.log_density
                .total_cmp(&a.log_density)
                .then_with(|| a.id.cmp(&b.id))
        });
        Ok(out)
    }

    pub(crate) fn tiq(
        &self,
        q: &Pfv,
        p_theta: f64,
        accuracy: f64,
    ) -> Result<Vec<TiqResult>, TreeError> {
        self.tiq_impl(q, p_theta, Some(accuracy))
    }

    pub(crate) fn tiq_anytime(&self, q: &Pfv, p_theta: f64) -> Result<Vec<TiqResult>, TreeError> {
        self.tiq_impl(q, p_theta, None)
    }

    /// Threshold identification across the forest — the Figure-5 loop
    /// with the shared denominator accumulator of
    /// [`ForestPlane::k_mliq_refined`].
    fn tiq_impl(
        &self,
        q: &Pfv,
        p_theta: f64,
        accuracy: Option<f64>,
    ) -> Result<Vec<TiqResult>, TreeError> {
        assert!(
            p_theta > 0.0 && p_theta <= 1.0,
            "threshold must be in (0,1], got {p_theta}"
        );
        assert!(
            accuracy.is_none_or(|a| a > 0.0),
            "accuracy must be positive"
        );
        self.check_dims(q.dims())?;
        if self.is_empty() {
            return Ok(Vec::new());
        }
        let mode = self.snap.config.combine;
        let ln_theta = p_theta.ln();
        let planes: Vec<Plane<'a, S>> = self.comps().iter().map(|c| c.snap.tree_plane()).collect();
        let mut dens: Vec<f64> = Vec::new();
        let (objects, nodes) = self.denom_roots(&planes, q, &mut dens)?;

        let anchor = nodes
            .iter()
            .map(|n| n.node.log_upper)
            .chain(objects.iter().map(|&(_, ld)| ld))
            .fold(f64::NEG_INFINITY, f64::max);
        let mut denom = DenomBounds::new(if anchor.is_finite() { anchor } else { 0.0 });
        let mut active: BinaryHeap<CompNode> = BinaryHeap::new();
        let mut cands: Vec<(u64, f64)> = Vec::new();
        for (id, ld) in objects {
            denom.add_object(ld);
            cands.push((id, ld));
        }
        for cn in nodes {
            let (lo_n, hi_n) = self.node_counts(cn.comp, &cn.node);
            denom.add_node_counts(cn.node.log_lower, lo_n, cn.node.log_upper, hi_n);
            active.push(cn);
        }

        loop {
            let denom_lo = denom.log_lo();
            let denom_hi = denom.log_hi();
            cands.retain(|&(_, ld)| ld - denom_lo >= ln_theta);

            let explore_more = active
                .peek()
                .is_some_and(|t| t.node.log_upper - denom_lo >= ln_theta);
            let refine_more = match accuracy {
                Some(acc) => {
                    let any_undecided = cands
                        .iter()
                        .any(|&(_, ld)| ld - denom_hi < ln_theta && ld - denom_lo >= ln_theta);
                    let max_width = cands
                        .iter()
                        .map(|&(_, ld)| denom.prob_width(ld))
                        .fold(0.0, f64::max);
                    any_undecided || max_width > acc
                }
                None => false,
            };
            if !explore_more && !refine_more {
                break;
            }
            let Some(top) = active.pop() else { break };
            let (lo_n, hi_n) = self.node_counts(top.comp, &top.node);
            denom.remove_node_counts(top.node.log_lower, lo_n, top.node.log_upper, hi_n);
            let hidden = &self.snap.comps[top.comp].hidden;
            match &*planes[top.comp].read_node_cached(top.node.page)? {
                CachedNode::Leaf(leaf) => {
                    dens.resize(leaf.columns.len(), 0.0);
                    batch::log_densities(mode, q, &leaf.columns, &mut dens);
                    for (&id, &ld) in leaf.ids.iter().zip(dens.iter()) {
                        if hidden.contains(&id) {
                            continue;
                        }
                        denom.add_object(ld);
                        if ld - denom.log_lo() >= ln_theta {
                            cands.push((id, ld));
                        }
                    }
                }
                CachedNode::Inner(es) => {
                    for node in active_children(es, q, mode) {
                        let (lo_n, hi_n) = self.node_counts(top.comp, &node);
                        denom.add_node_counts(node.log_lower, lo_n, node.log_upper, hi_n);
                        active.push(CompNode {
                            node,
                            comp: top.comp,
                        });
                    }
                }
            }
        }

        let (lo, hi, mid) = (denom.log_lo(), denom.log_hi(), denom.log_mid());
        let mut out: Vec<TiqResult> = cands
            .into_iter()
            .filter(|&(_, ld)| match accuracy {
                Some(_) => ld - hi >= ln_theta,
                None => ld - lo >= ln_theta,
            })
            .map(|(id, ld)| {
                let (mid_p, prob_lo, prob_hi) = clamped_probs(ld, lo, hi, mid);
                TiqResult {
                    id,
                    log_density: ld,
                    probability: if accuracy.is_some() { mid_p } else { prob_lo },
                    prob_lo,
                    prob_hi,
                }
            })
            .collect();
        out.sort_by(|a, b| {
            b.log_density
                .total_cmp(&a.log_density)
                .then_with(|| a.id.cmp(&b.id))
        });
        Ok(out)
    }

    /// Probabilistic box query across the forest — exact memtable filter
    /// plus every component's pruned descent. Bit-identical to the
    /// single-tree answer over the live set.
    pub(crate) fn probabilistic_box_query(
        &self,
        lo: &[f64],
        hi: &[f64],
        tau: f64,
    ) -> Result<Vec<BoxQueryResult>, TreeError> {
        assert!(tau > 0.0 && tau <= 1.0, "tau must be in (0,1], got {tau}");
        self.check_dims(lo.len())
            .and_then(|()| self.check_dims(hi.len()))?;
        for i in 0..lo.len() {
            assert!(lo[i] <= hi[i], "reversed box in dim {i}");
        }
        let mut out = Vec::new();
        for (id, v) in self.mem() {
            let p = containment_probability(v, lo, hi);
            if p >= tau {
                out.push(BoxQueryResult {
                    id: *id,
                    probability: p,
                });
            }
        }
        for c in self.comps() {
            let hidden = (!c.hidden.is_empty()).then_some(&*c.hidden);
            c.snap
                .tree_plane()
                .box_query_scan(lo, hi, tau, hidden, &mut out)?;
        }
        out.sort_by(|a, b| {
            b.probability
                .total_cmp(&a.probability)
                .then_with(|| a.id.cmp(&b.id))
        });
        Ok(out)
    }

    /// Visits every live entry: memtable first (ascending id), then each
    /// component newest-first in tree order, shadowed ids skipped.
    pub(crate) fn for_each_entry(&self, mut f: impl FnMut(u64, &Pfv)) -> Result<(), TreeError> {
        for (id, v) in self.mem() {
            f(*id, v);
        }
        for c in self.comps() {
            c.snap.tree_plane().for_each_entry(|id, v| {
                if !c.hidden.contains(&id) {
                    f(id, v);
                }
            })?;
        }
        Ok(())
    }
}
