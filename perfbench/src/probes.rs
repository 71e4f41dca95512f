//! Unit-cost probes on a workload's own nodes and queries.
//!
//! Each probe first asserts the exact result of the function it times, so a
//! probe can never time a broken kernel:
//!
//! * decode: `Node::read_from` round-trips through `Node::write_to`;
//! * refine: `log_densities` is bit-identical to `log_density_one` for
//!   every entry;
//! * screen: `log_densities_upper` is never below the exact value;
//! * hull: `children_log_hulls` is bit-identical to the per-child
//!   `log_upper_for_query` / `log_lower_for_query` and never inverted.

use gauss_storage::{PageId, PageStore};
use gauss_tree::node::{InnerEntry, Node};
use gauss_tree::{children_log_hulls, GaussTree};
use pfv::batch::{log_densities, log_densities_upper, log_density_one};
use pfv::{ColumnarLeaf, FastScratch, Pfv};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nodes sampled per kind.
const MAX_LEAVES: usize = 96;
const MAX_INNER: usize = 48;
/// Queries each node is probed with.
const MAX_QUERIES: usize = 8;
/// Minimum measured time per probe.
const MIN_TIME: Duration = Duration::from_millis(40);

/// Per-unit costs in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Costs {
    /// Exact refine kernel, per leaf entry.
    pub refine_ns_per_entry: f64,
    /// Fast-tier screening kernel, per leaf entry.
    pub screen_ns_per_entry: f64,
    /// Fused hull sweep, per inner child.
    pub hull_ns_per_child: f64,
    /// Page decode into the query-ready form, per page.
    pub decode_ns_per_page: f64,
}

/// Repeats `f` until [`MIN_TIME`] has passed; returns ns per call.
fn time_per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed() < MIN_TIME || calls == 0 {
        f();
        calls += 1;
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// Samples pages of `tree` (breadth-first, evenly spread per kind).
fn sample_pages<S: PageStore>(tree: &GaussTree<S>) -> Result<Vec<(Vec<u8>, Node)>, String> {
    let cfg = tree.config();
    let mut all = Vec::new();
    let mut frontier = vec![tree.root_page()];
    while !frontier.is_empty() {
        let mut next: Vec<PageId> = Vec::new();
        for page in frontier {
            let bytes = tree.pool().page(page).map_err(|e| e.to_string())?;
            let node =
                Node::read_from(cfg.dims, cfg.leaf_format, &bytes).map_err(|e| e.to_string())?;
            if let Node::Inner(es) = &node {
                next.extend(es.iter().map(|e| e.child));
            }
            all.push((bytes.to_vec(), node));
        }
        frontier = next;
    }
    let (leaves, inner): (Vec<_>, Vec<_>) = all.into_iter().partition(|(_, n)| n.is_leaf());
    let spread = |v: Vec<(Vec<u8>, Node)>, max: usize| -> Vec<(Vec<u8>, Node)> {
        let step = v.len().div_ceil(max).max(1);
        v.into_iter().step_by(step).collect()
    };
    let mut out = spread(leaves, MAX_LEAVES);
    out.extend(spread(inner, MAX_INNER));
    Ok(out)
}

/// Runs every probe on `tree`'s nodes with `queries`.
///
/// # Errors
/// An exactness check failed, or a page could not be read.
pub fn run<S: PageStore>(tree: &GaussTree<S>, queries: &[Pfv]) -> Result<Costs, String> {
    let cfg = *tree.config();
    let (dims, format, mode) = (cfg.dims, cfg.leaf_format, cfg.combine);
    let pages = sample_pages(tree)?;
    let queries = &queries[..queries.len().min(MAX_QUERIES)];

    // Decode: round-trip check, then time decode + columnar materialising.
    let mut scratch = vec![0u8; tree.pool().page_size()];
    for (_, node) in &pages {
        scratch.fill(0);
        node.write_to(dims, format, &mut scratch);
        let again = Node::read_from(dims, format, &scratch).map_err(|e| e.to_string())?;
        if &again != node {
            return Err("decode probe: Node::read_from does not round-trip".into());
        }
    }
    let decode_ns = time_per_call(|| {
        for (bytes, _) in &pages {
            let node = Node::read_from(dims, format, bytes).map(|n| n.into_cached(dims));
            black_box(node.ok());
        }
    }) / pages.len() as f64;

    let leaves: Vec<ColumnarLeaf> = pages
        .iter()
        .filter_map(|(_, n)| match n {
            Node::Leaf(es) if !es.is_empty() => {
                Some(ColumnarLeaf::from_pfvs(dims, es.iter().map(|e| &e.pfv)))
            }
            _ => None,
        })
        .collect();
    let inner: Vec<&Vec<InnerEntry>> = pages
        .iter()
        .filter_map(|(_, n)| match n {
            Node::Inner(es) => Some(es),
            Node::Leaf(_) => None,
        })
        .collect();

    // Refine and screen: exactness first.
    let mut out = Vec::new();
    let mut fast = FastScratch::new();
    for leaf in &leaves {
        out.resize(leaf.len(), 0.0);
        for q in queries {
            log_densities(mode, q, leaf, &mut out);
            log_densities_upper(mode, q, leaf, &mut fast);
            for (e, &batch) in out.iter().enumerate() {
                let one = log_density_one(mode, q, leaf, e);
                if batch.to_bits() != one.to_bits() {
                    return Err("refine probe: log_densities differs from log_density_one".into());
                }
                if fast.upper()[e] < one {
                    return Err("screen probe: log_densities_upper below the exact value".into());
                }
            }
        }
    }
    let entries: usize = leaves.iter().map(ColumnarLeaf::len).sum::<usize>() * queries.len();
    let refine_ns = time_per_call(|| {
        for leaf in &leaves {
            for q in queries {
                for e in 0..leaf.len() {
                    black_box(log_density_one(mode, q, leaf, e));
                }
            }
        }
    }) / entries.max(1) as f64;
    let screen_ns = time_per_call(|| {
        for leaf in &leaves {
            for q in queries {
                log_densities_upper(mode, q, leaf, &mut fast);
                black_box(fast.upper());
            }
        }
    }) / entries.max(1) as f64;

    // Hull sweep: exactness first.
    for es in &inner {
        for q in queries {
            let fused = children_log_hulls(es, q, mode);
            for (e, &(up, lo)) in es.iter().zip(&fused) {
                if up.to_bits() != e.rect.log_upper_for_query(q, mode).to_bits()
                    || lo.to_bits() != e.rect.log_lower_for_query(q, mode).to_bits()
                    || up < lo
                {
                    return Err("hull probe: fused sweep differs from per-child bounds".into());
                }
            }
        }
    }
    let children: usize = inner.iter().map(|es| es.len()).sum::<usize>() * queries.len();
    let hull_ns = time_per_call(|| {
        for es in &inner {
            for q in queries {
                black_box(children_log_hulls(es, q, mode));
            }
        }
    }) / children.max(1) as f64;

    Ok(Costs {
        refine_ns_per_entry: refine_ns,
        screen_ns_per_entry: screen_ns,
        hull_ns_per_child: if inner.is_empty() { 0.0 } else { hull_ns },
        decode_ns_per_page: decode_ns,
    })
}
