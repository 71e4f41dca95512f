//! Node layouts and page (de)serialisation.
//!
//! A page holds exactly one node. Layout:
//!
//! ```text
//! [kind: u8] [count: u16] [reserved: 5 bytes]
//! leaf entry   := [id: u64] [means: d × f64] [sigmas: d × f64]
//! leaf-q entry := [id: u64] [means: d × f32] [sigmas: d × f32]
//! inner entry  := [child: u64] [subtree count: u64]
//!                 [per dim: mu_lo, mu_hi, sigma_lo, sigma_hi : f64]
//! ```
//!
//! Which leaf layout a tree uses is fixed at creation by
//! [`LeafFormat`] and persisted in the meta page; the node kind byte is
//! validated against it on every decode, so an exact tree can never
//! silently misread a quantised page (or vice versa). Quantised leaves
//! narrow with [`pfv::quant::to_f32_exact`] — ingest already stored the
//! widened `f32` value, so encoding is lossless and a decoded node
//! compares equal to the staged one.

use crate::config::LeafFormat;
use gauss_storage::{PageId, Reader, Writer};
use pfv::batch::{ColumnarLeaf, LANE_WIDTH};
use pfv::{quant, CombineMode, DimBounds, ParamRect, Pfv, MIN_SIGMA};

/// Bytes reserved at the start of every node page.
pub const NODE_HEADER_BYTES: usize = 8;

const KIND_LEAF: u8 = 0;
const KIND_INNER: u8 = 1;
const KIND_LEAF_Q: u8 = 2;

/// Entry of a leaf node: one pfv plus the external object id.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafEntry {
    /// External object identifier.
    pub id: u64,
    /// The stored probabilistic feature vector.
    pub pfv: Pfv,
}

/// Entry of an inner node: a child pointer, the number of pfv in the child's
/// subtree (needed for the `n·Ň ≤ Σ ≤ n·N̂` sum bounds of §5.2.2), and the
/// parameter-space MBR of the subtree.
#[derive(Debug, Clone, PartialEq)]
pub struct InnerEntry {
    /// Child page.
    pub child: PageId,
    /// Number of pfv stored below `child`.
    pub count: u64,
    /// Parameter-space bounds of the subtree.
    pub rect: ParamRect,
}

/// A deserialised node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Leaf level: stores pfv.
    Leaf(Vec<LeafEntry>),
    /// Inner level: stores child descriptors.
    Inner(Vec<InnerEntry>),
}

/// A decoded leaf in query-ready columnar form: the external ids plus the
/// struct-of-arrays feature columns the batched Lemma-1 kernel
/// ([`pfv::batch::log_densities`]) consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarLeafNode {
    /// External object ids, in entry order.
    pub ids: Box<[u64]>,
    /// Per-dimension contiguous `μ`/`σ`/`σ²` columns.
    pub columns: ColumnarLeaf,
}

/// A node decoded once and cached for the read path (see
/// [`crate::GaussTree`]'s node cache): leaves are materialized as columnar
/// scans, inner nodes keep their entry vector for hull sweeps.
///
/// Queries build it with [`CachedNode::read_from`], one pass from the page
/// bytes to the columns with no [`Pfv`] in between;
/// [`Node::into_cached`] converts an already-decoded write-path [`Node`]
/// to the same, bit-identical form.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedNode {
    /// Leaf level, columnar.
    Leaf(ColumnarLeafNode),
    /// Inner level.
    Inner(Vec<InnerEntry>),
}

/// Conservative bounds `(ln N̂, ln Ň)` of every child of an inner node for
/// query `q`, priced in one sweep over the entry vector (fused Lemma-2/3
/// evaluation via [`ParamRect::log_bounds_for_query`]). Bit-identical to
/// calling `log_upper_for_query` and `log_lower_for_query` per child.
///
/// # Panics
/// Panics on dimensionality mismatch.
#[must_use]
pub fn children_log_hulls(entries: &[InnerEntry], q: &Pfv, mode: CombineMode) -> Vec<(f64, f64)> {
    entries
        .iter()
        .map(|e| e.rect.log_bounds_for_query(q, mode))
        .collect()
}

/// Errors from node (de)serialisation.
#[derive(Debug)]
pub enum NodeCodecError {
    /// The page did not contain a valid node.
    Corrupt(&'static str),
    /// Buffer ran short while decoding.
    Short(gauss_storage::codec::ShortBuffer),
}

impl std::fmt::Display for NodeCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeCodecError::Corrupt(what) => write!(f, "corrupt node page: {what}"),
            NodeCodecError::Short(e) => write!(f, "corrupt node page: {e}"),
        }
    }
}

impl std::error::Error for NodeCodecError {}

impl From<gauss_storage::codec::ShortBuffer> for NodeCodecError {
    fn from(e: gauss_storage::codec::ShortBuffer) -> Self {
        NodeCodecError::Short(e)
    }
}

impl Node {
    /// Whether this is a leaf node.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf(_))
    }

    /// Converts the node into its cached, query-ready representation,
    /// materializing leaves as [`ColumnarLeafNode`]s. Not the query path,
    /// which decodes pages with [`CachedNode::read_from`] directly; this
    /// serves callers that already hold a decoded [`Node`].
    #[must_use]
    pub fn into_cached(self, dims: usize) -> CachedNode {
        match self {
            Node::Leaf(es) => CachedNode::Leaf(ColumnarLeafNode {
                ids: es.iter().map(|e| e.id).collect(),
                columns: ColumnarLeaf::from_pfvs(dims, es.iter().map(|e| &e.pfv)),
            }),
            Node::Inner(es) => CachedNode::Inner(es),
        }
    }

    /// Number of entries in the node.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(es) => es.len(),
            Node::Inner(es) => es.len(),
        }
    }

    /// Whether the node has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pfv stored in the subtree rooted at this node.
    #[must_use]
    pub fn subtree_count(&self) -> u64 {
        match self {
            Node::Leaf(es) => es.len() as u64,
            Node::Inner(es) => es.iter().map(|e| e.count).sum(),
        }
    }

    /// Parameter-space MBR of everything below this node.
    ///
    /// # Panics
    /// Panics on an empty node (an empty node has no bounds).
    #[must_use]
    pub fn bounding_rect(&self) -> ParamRect {
        match self {
            Node::Leaf(es) => {
                assert!(!es.is_empty(), "empty leaf has no bounds");
                ParamRect::covering(es.iter().map(|e| &e.pfv))
            }
            Node::Inner(es) => {
                assert!(!es.is_empty(), "empty inner node has no bounds");
                let mut rect = es[0].rect.clone();
                for e in &es[1..] {
                    rect.extend_rect(&e.rect);
                }
                rect
            }
        }
    }

    /// Serialises the node into a page buffer using the tree's leaf
    /// `format`.
    ///
    /// # Panics
    /// Panics if the node does not fit the page (capacity violations are
    /// caught by the tree before writing), or — for
    /// [`LeafFormat::Quantised`] — if a leaf value is not exactly
    /// `f32`-representable (ingest quantises every stored parameter, so
    /// this indicates in-memory corruption, not a data error).
    pub fn write_to(&self, dims: usize, format: LeafFormat, page: &mut [u8]) {
        let mut w = Writer::new(page);
        match self {
            Node::Leaf(es) if format == LeafFormat::Quantised => {
                w.put_u8(KIND_LEAF_Q);
                // lint: allow(no-panic) -- entry counts are capped by the node capacity, far below u16::MAX
                w.put_u16(u16::try_from(es.len()).expect("node entry count fits u16"));
                for _ in 0..(NODE_HEADER_BYTES - 3) {
                    w.put_u8(0);
                }
                for e in es {
                    debug_assert_eq!(e.pfv.dims(), dims);
                    w.put_u64(e.id);
                    for &m in e.pfv.means() {
                        w.put_f32(quant::to_f32_exact(m));
                    }
                    for &s in e.pfv.sigmas() {
                        w.put_f32(quant::to_f32_exact(s));
                    }
                }
            }
            Node::Leaf(es) => {
                w.put_u8(KIND_LEAF);
                // lint: allow(no-panic) -- entry counts are capped by the node capacity, far below u16::MAX
                w.put_u16(u16::try_from(es.len()).expect("node entry count fits u16"));
                for _ in 0..(NODE_HEADER_BYTES - 3) {
                    w.put_u8(0);
                }
                for e in es {
                    debug_assert_eq!(e.pfv.dims(), dims);
                    w.put_u64(e.id);
                    w.put_f64_slice(e.pfv.means());
                    w.put_f64_slice(e.pfv.sigmas());
                }
            }
            Node::Inner(es) => {
                w.put_u8(KIND_INNER);
                // lint: allow(no-panic) -- entry counts are capped by the node capacity, far below u16::MAX
                w.put_u16(u16::try_from(es.len()).expect("node entry count fits u16"));
                for _ in 0..(NODE_HEADER_BYTES - 3) {
                    w.put_u8(0);
                }
                for e in es {
                    debug_assert_eq!(e.rect.dims(), dims);
                    w.put_u64(e.child.index());
                    w.put_u64(e.count);
                    for d in e.rect.as_slice() {
                        w.put_f64(d.mu_lo);
                        w.put_f64(d.mu_hi);
                        w.put_f64(d.sigma_lo);
                        w.put_f64(d.sigma_hi);
                    }
                }
            }
        }
    }

    /// Deserialises a node from a page buffer, validating the node kind
    /// against the tree's leaf `format`. This is the write path's decoder
    /// (it builds one [`Pfv`] per leaf entry); queries read pages through
    /// [`CachedNode::read_from`], which shares every check.
    ///
    /// # Errors
    /// [`NodeCodecError`] on malformed pages, including a leaf kind byte
    /// that does not match `format` and an entry count the page cannot
    /// hold (rejected before anything is allocated).
    pub fn read_from(dims: usize, format: LeafFormat, page: &[u8]) -> Result<Node, NodeCodecError> {
        match NodeRows::parse(dims, format, page)? {
            NodeRows::Leaf(rows) => {
                let mut es = Vec::with_capacity(rows.len());
                for row in rows.iter() {
                    let mut means = Vec::with_capacity(dims);
                    let mut sigmas = Vec::with_capacity(dims);
                    let id = rows.decode(row, |_, m, s| {
                        means.push(m);
                        sigmas.push(s);
                    })?;
                    let pfv = Pfv::new(means, sigmas)
                        .map_err(|_| NodeCodecError::Corrupt("invalid pfv in leaf"))?;
                    es.push(LeafEntry { id, pfv });
                }
                Ok(Node::Leaf(es))
            }
            NodeRows::Inner(rows) => Ok(Node::Inner(rows.decode()?)),
        }
    }
}

impl CachedNode {
    /// Decodes a node page straight into its query-ready form: leaf
    /// entries are parsed directly into the padded `μ`/`σ` columns and the
    /// `ids` of a [`ColumnarLeafNode`] (then
    /// [`ColumnarLeaf::from_columns`] derives `σ²`, `ln σ` and the peak
    /// bound), with no intermediate [`Pfv`] or per-entry allocation.
    ///
    /// Runs the same validation as [`Node::read_from`] and yields a node
    /// bit-identical to `Node::read_from(..)?.into_cached(dims)`; the two
    /// accept and reject exactly the same pages.
    ///
    /// # Errors
    /// [`NodeCodecError`] on malformed pages, as for [`Node::read_from`].
    pub fn read_from(
        dims: usize,
        format: LeafFormat,
        page: &[u8],
    ) -> Result<CachedNode, NodeCodecError> {
        match NodeRows::parse(dims, format, page)? {
            NodeRows::Leaf(rows) => {
                let len = rows.len();
                let stride = len.next_multiple_of(LANE_WIDTH);
                let mut ids = Vec::with_capacity(len);
                let mut mu = vec![0.0f64; dims * stride].into_boxed_slice();
                let mut sigma = vec![1.0f64; dims * stride].into_boxed_slice();
                for (e, row) in rows.iter().enumerate() {
                    ids.push(rows.decode(row, |d, m, s| {
                        mu[d * stride + e] = m;
                        sigma[d * stride + e] = s;
                    })?);
                }
                Ok(CachedNode::Leaf(ColumnarLeafNode {
                    ids: ids.into_boxed_slice(),
                    columns: ColumnarLeaf::from_columns(dims, len, mu, sigma),
                }))
            }
            NodeRows::Inner(rows) => Ok(CachedNode::Inner(rows.decode()?)),
        }
    }
}

/// A node page that passed the header checks shared by both decoders:
/// the kind byte is known and matches the tree's [`LeafFormat`], and
/// `count × entry bytes` fits the page body, so the entries split into
/// exactly `count` fixed-width rows. Nothing has been allocated yet; the
/// per-value checks run as each row is decoded.
enum NodeRows<'a> {
    Leaf(LeafRows<'a>),
    Inner(InnerRows<'a>),
}

impl<'a> NodeRows<'a> {
    fn parse(dims: usize, format: LeafFormat, page: &'a [u8]) -> Result<Self, NodeCodecError> {
        let mut r = Reader::new(page);
        let kind = r.get_u8()?;
        let count = usize::from(r.get_u16()?);
        for _ in 0..(NODE_HEADER_BYTES - 3) {
            let _ = r.get_u8()?;
        }
        let body = &page[NODE_HEADER_BYTES..];
        let rows = |entry_bytes: usize| -> Result<&'a [u8], NodeCodecError> {
            if count > 0 && dims == 0 {
                return Err(NodeCodecError::Corrupt("entries without dimensions"));
            }
            match count.checked_mul(entry_bytes) {
                Some(n) if n <= body.len() => Ok(&body[..n]),
                _ => Err(NodeCodecError::Corrupt("entry count exceeds the page")),
            }
        };
        match kind {
            KIND_LEAF | KIND_LEAF_Q => {
                let quantised = kind == KIND_LEAF_Q;
                if quantised != (format == LeafFormat::Quantised) {
                    return Err(NodeCodecError::Corrupt(
                        "leaf kind does not match tree leaf format",
                    ));
                }
                let value_bytes = if quantised { 4 } else { 8 };
                let entry_bytes = 8 + 2 * dims * value_bytes;
                Ok(NodeRows::Leaf(LeafRows {
                    body: rows(entry_bytes)?,
                    entry_bytes,
                    dims,
                    quantised,
                }))
            }
            KIND_INNER => {
                let entry_bytes = 16 + 32 * dims;
                Ok(NodeRows::Inner(InnerRows {
                    body: rows(entry_bytes)?,
                    entry_bytes,
                    dims,
                }))
            }
            _ => Err(NodeCodecError::Corrupt("unknown node kind")),
        }
    }
}

/// The rows of a leaf page: `[id: u64] [means: d × w] [sigmas: d × w]`
/// with `w` = 8 (`f64`) or 4 (`f32`, quantised).
struct LeafRows<'a> {
    body: &'a [u8],
    entry_bytes: usize,
    dims: usize,
    quantised: bool,
}

impl<'a> LeafRows<'a> {
    fn len(&self) -> usize {
        self.body.len() / self.entry_bytes
    }

    fn iter(&self) -> std::slice::ChunksExact<'a, u8> {
        self.body.chunks_exact(self.entry_bytes)
    }

    /// Validates one row and hands each dimension's `(d, μ, σ)` to `put`
    /// in dimension order, `σ` clamped exactly as [`Pfv::new`] stores it;
    /// returns the entry's id.
    fn decode(
        &self,
        row: &[u8],
        mut put: impl FnMut(usize, f64, f64),
    ) -> Result<u64, NodeCodecError> {
        let (id, values) = row
            .split_first_chunk::<8>()
            .ok_or(NodeCodecError::Corrupt("short leaf row"))?;
        if self.quantised {
            // f32 → f64 widening is exact: the decoded node is
            // bit-identical to the staged one.
            let (words, _) = values.as_chunks::<4>();
            let (means, sigmas) = words.split_at(self.dims);
            for (d, (m, s)) in means.iter().zip(sigmas).enumerate() {
                let m = f64::from(f32::from_le_bytes(*m));
                put(
                    d,
                    m,
                    admissible_sigma(m, f64::from(f32::from_le_bytes(*s)))?,
                );
            }
        } else {
            let (words, _) = values.as_chunks::<8>();
            let (means, sigmas) = words.split_at(self.dims);
            for (d, (m, s)) in means.iter().zip(sigmas).enumerate() {
                let m = f64::from_le_bytes(*m);
                put(d, m, admissible_sigma(m, f64::from_le_bytes(*s))?);
            }
        }
        Ok(u64::from_le_bytes(*id))
    }
}

/// [`Pfv::new`]'s admission rule for one `(μ, σ)` pair: both finite and
/// `σ ≥ 0`, with `σ` then clamped to [`MIN_SIGMA`].
#[inline]
fn admissible_sigma(m: f64, s: f64) -> Result<f64, NodeCodecError> {
    if !m.is_finite() || !s.is_finite() || s < 0.0 {
        return Err(NodeCodecError::Corrupt("invalid pfv in leaf"));
    }
    Ok(if s < MIN_SIGMA { MIN_SIGMA } else { s })
}

/// The rows of an inner page: `[child: u64] [subtree count: u64]` then
/// `mu_lo, mu_hi, sigma_lo, sigma_hi` (`f64`) per dimension.
struct InnerRows<'a> {
    body: &'a [u8],
    entry_bytes: usize,
    dims: usize,
}

impl InnerRows<'_> {
    /// Validates and decodes every row: a valid child pointer and finite,
    /// ordered bounds in every dimension.
    fn decode(&self) -> Result<Vec<InnerEntry>, NodeCodecError> {
        let mut es = Vec::with_capacity(self.body.len() / self.entry_bytes);
        for row in self.body.chunks_exact(self.entry_bytes) {
            let (words, _) = row.as_chunks::<8>();
            let (head, bounds) = words.split_at(2);
            let child = PageId(u64::from_le_bytes(head[0]));
            if !child.is_valid() {
                return Err(NodeCodecError::Corrupt("invalid child pointer"));
            }
            let mut ds = Vec::with_capacity(self.dims);
            for b in bounds.chunks_exact(4) {
                let [mu_lo, mu_hi, sigma_lo, sigma_hi] =
                    [0, 1, 2, 3].map(|i| f64::from_le_bytes(b[i]));
                if !(mu_lo.is_finite()
                    && mu_hi.is_finite()
                    && sigma_lo.is_finite()
                    && sigma_hi.is_finite())
                    || mu_lo > mu_hi
                    || sigma_lo > sigma_hi
                {
                    return Err(NodeCodecError::Corrupt("invalid bounds"));
                }
                ds.push(DimBounds::new(mu_lo, mu_hi, sigma_lo, sigma_hi));
            }
            es.push(InnerEntry {
                child,
                count: u64::from_le_bytes(head[1]),
                rect: ParamRect::from_dims(ds),
            });
        }
        Ok(es)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_leaf() -> Node {
        Node::Leaf(vec![
            LeafEntry {
                id: 7,
                pfv: Pfv::new(vec![1.0, 2.0], vec![0.1, 0.2]).unwrap(),
            },
            LeafEntry {
                id: 42,
                pfv: Pfv::new(vec![-3.5, 0.0], vec![0.5, 1.5]).unwrap(),
            },
        ])
    }

    fn sample_inner() -> Node {
        Node::Inner(vec![
            InnerEntry {
                child: PageId(3),
                count: 10,
                rect: ParamRect::from_dims(vec![
                    DimBounds::new(0.0, 1.0, 0.1, 0.2),
                    DimBounds::new(-1.0, 2.0, 0.3, 0.9),
                ]),
            },
            InnerEntry {
                child: PageId(9),
                count: 4,
                rect: ParamRect::from_dims(vec![
                    DimBounds::new(5.0, 6.0, 0.1, 0.1),
                    DimBounds::new(5.0, 5.0, 0.2, 0.4),
                ]),
            },
        ])
    }

    /// A leaf whose values are all exactly f32-representable (as ingest
    /// guarantees for a quantised tree).
    fn sample_leaf_q() -> Node {
        let quantise = |v: &Pfv| {
            let means: Vec<f64> = v
                .means()
                .iter()
                .map(|&m| f64::from(pfv::quant::quantise_mu(m).unwrap()))
                .collect();
            let sigmas: Vec<f64> = v
                .sigmas()
                .iter()
                .map(|&s| f64::from(pfv::quant::quantise_sigma(s).unwrap()))
                .collect();
            Pfv::new(means, sigmas).unwrap()
        };
        Node::Leaf(vec![
            LeafEntry {
                id: 7,
                pfv: quantise(&Pfv::new(vec![1.1, 2.7], vec![0.13, 0.21]).unwrap()),
            },
            LeafEntry {
                id: 42,
                pfv: quantise(&Pfv::new(vec![-3.51, 0.004], vec![0.57, 1.53]).unwrap()),
            },
        ])
    }

    #[test]
    fn leaf_round_trip() {
        let node = sample_leaf();
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Exact, &mut page);
        let back = Node::read_from(2, LeafFormat::Exact, &page).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn quantised_leaf_round_trip_is_bit_exact() {
        let node = sample_leaf_q();
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Quantised, &mut page);
        assert_eq!(page[0], 2, "quantised leaves use their own kind byte");
        let back = Node::read_from(2, LeafFormat::Quantised, &page).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn quantised_entries_are_half_the_size() {
        let node = sample_leaf_q();
        let mut exact = vec![0u8; 4096];
        let mut quant = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Exact, &mut exact);
        node.write_to(2, LeafFormat::Quantised, &mut quant);
        // 2 entries × (8 + 2·8·f64) vs 2 entries × (8 + 2·8·f32): find the
        // last non-zero byte as a proxy for the payload extent.
        let used = |p: &[u8]| p.iter().rposition(|&b| b != 0).unwrap() + 1;
        assert!(used(&quant) < used(&exact));
        assert!(used(&quant) <= NODE_HEADER_BYTES + 2 * (8 + 2 * 4 + 2 * 4));
    }

    #[test]
    fn leaf_kind_must_match_format() {
        let node = sample_leaf_q();
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Quantised, &mut page);
        let err = Node::read_from(2, LeafFormat::Exact, &page).unwrap_err();
        assert!(err.to_string().contains("leaf format"), "{err}");
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Exact, &mut page);
        let err = Node::read_from(2, LeafFormat::Quantised, &page).unwrap_err();
        assert!(err.to_string().contains("leaf format"), "{err}");
        // Inner nodes are format-agnostic.
        let inner = sample_inner();
        let mut page = vec![0u8; 4096];
        inner.write_to(2, LeafFormat::Quantised, &mut page);
        assert!(Node::read_from(2, LeafFormat::Exact, &page).is_ok());
    }

    #[test]
    #[should_panic(expected = "not exactly f32-representable")]
    fn quantised_encode_rejects_unquantised_values() {
        // 0.1 is not f32-exact — staging such a leaf into a quantised tree
        // is a bug upstream (ingest must quantise), and must not silently
        // lose precision.
        let node = sample_leaf();
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Quantised, &mut page);
    }

    #[test]
    fn inner_round_trip() {
        let node = sample_inner();
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Exact, &mut page);
        let back = Node::read_from(2, LeafFormat::Exact, &page).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn subtree_counts() {
        assert_eq!(sample_leaf().subtree_count(), 2);
        assert_eq!(sample_inner().subtree_count(), 14);
    }

    #[test]
    fn bounding_rect_covers_entries() {
        let node = sample_leaf();
        let rect = node.bounding_rect();
        if let Node::Leaf(es) = &node {
            for e in es {
                assert!(rect.contains_pfv(&e.pfv));
            }
        }
        let inner = sample_inner();
        let rect = inner.bounding_rect();
        if let Node::Inner(es) = &inner {
            for e in es {
                assert!(rect.contains_rect(&e.rect));
            }
        }
    }

    #[test]
    fn rejects_unknown_kind() {
        let mut page = vec![0u8; 64];
        page[0] = 9;
        assert!(Node::read_from(2, LeafFormat::Exact, &page).is_err());
    }

    #[test]
    fn rejects_truncated_page() {
        let node = sample_leaf();
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Exact, &mut page);
        // Cut the page short mid-entry.
        assert!(Node::read_from(2, LeafFormat::Exact, &page[..40]).is_err());
    }

    #[test]
    fn rejects_impossible_entry_count_before_allocating() {
        // A corrupt header claiming u16::MAX entries would ask for MBs of
        // entry vectors/columns; the size check must fail it first, as a
        // `Corrupt` error (a late read would surface as `Short` instead).
        for (node, format) in [
            (sample_leaf(), LeafFormat::Exact),
            (sample_leaf_q(), LeafFormat::Quantised),
            (sample_inner(), LeafFormat::Exact),
        ] {
            let mut page = vec![0u8; 4096];
            node.write_to(2, format, &mut page);
            page[1..3].copy_from_slice(&u16::MAX.to_le_bytes());
            let err = Node::read_from(2, format, &page).unwrap_err();
            assert!(
                matches!(err, NodeCodecError::Corrupt("entry count exceeds the page")),
                "{err}"
            );
            let err = CachedNode::read_from(2, format, &page).unwrap_err();
            assert!(
                matches!(err, NodeCodecError::Corrupt("entry count exceeds the page")),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_reversed_bounds() {
        let node = sample_inner();
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Exact, &mut page);
        // Swap mu_lo/mu_hi of the first dim of the first entry:
        // header(8) + child(8) + count(8) = offset 24 for mu_lo.
        let mu_lo = f64::from_le_bytes(page[24..32].try_into().unwrap());
        let mu_hi = f64::from_le_bytes(page[32..40].try_into().unwrap());
        page[24..32].copy_from_slice(&mu_hi.to_le_bytes());
        page[32..40].copy_from_slice(&mu_lo.to_le_bytes());
        assert!(Node::read_from(2, LeafFormat::Exact, &page).is_err());
    }

    #[test]
    fn into_cached_round_trips_leaf_content() {
        let node = sample_leaf();
        let Node::Leaf(es) = node.clone() else {
            unreachable!()
        };
        let CachedNode::Leaf(leaf) = node.into_cached(2) else {
            panic!("leaf must cache as columnar leaf");
        };
        assert_eq!(leaf.ids.as_ref(), &[7, 42]);
        for (e, entry) in es.iter().enumerate() {
            assert_eq!(leaf.columns.pfv(e), entry.pfv);
        }
    }

    #[test]
    fn into_cached_keeps_inner_entries() {
        let node = sample_inner();
        let Node::Inner(es) = node.clone() else {
            unreachable!()
        };
        let CachedNode::Inner(cached) = node.into_cached(2) else {
            panic!("inner must cache as inner");
        };
        assert_eq!(cached, es);
    }

    #[test]
    fn children_log_hulls_match_per_child_bounds() {
        let Node::Inner(es) = sample_inner() else {
            unreachable!()
        };
        let q = Pfv::new(vec![0.5, 1.0], vec![0.2, 0.3]).unwrap();
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            let hulls = children_log_hulls(&es, &q, mode);
            assert_eq!(hulls.len(), es.len());
            for (h, e) in hulls.iter().zip(es.iter()) {
                assert_eq!(
                    h.0.to_bits(),
                    e.rect.log_upper_for_query(&q, mode).to_bits()
                );
                assert_eq!(
                    h.1.to_bits(),
                    e.rect.log_lower_for_query(&q, mode).to_bits()
                );
            }
        }
    }

    #[test]
    fn header_size_matches_constant() {
        // If the header layout changes, capacity maths must change with it.
        let node = Node::Leaf(vec![]);
        let mut page = vec![0u8; 64];
        node.write_to(2, LeafFormat::Exact, &mut page);
        let r = Node::read_from(2, LeafFormat::Exact, &page).unwrap();
        assert!(r.is_empty());
    }
}
