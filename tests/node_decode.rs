//! Property tests of the node-page decoders.
//!
//! Queries decode a page straight into its query-ready form
//! (`CachedNode::read_from`); the write path decodes it into `Pfv`s
//! (`Node::read_from`), which `Node::into_cached` can then columnarise.
//! Both run the same validation, so on every input they must agree on
//! `Ok`/`Err`, and on `Ok` the direct decode must be bit-identical to the
//! two-step one — every column, padding lanes included, compared with
//! `to_bits` (`f64 ==` would hide `-0.0` versus `0.0`). Neither may panic,
//! whatever the bytes.

use gausstree::pfv::batch::LANE_WIDTH;
use gausstree::pfv::{DimBounds, ParamRect, Pfv, MIN_SIGMA};
use gausstree::storage::PageId;
use gausstree::tree::node::{
    CachedNode, InnerEntry, LeafEntry, Node, NodeCodecError, NODE_HEADER_BYTES,
};
use gausstree::tree::{LeafFormat, TreeConfig};
use proptest::prelude::*;

const PAGE: usize = 4096;
const DIMS: [usize; 4] = [1, 8, 10, 27];

/// The node a generated page encodes, before any clamping.
#[derive(Debug, Clone)]
enum Spec {
    /// `(id, means, sigmas)` per entry; quantised leaves hold `f32`
    /// values (widened here).
    Leaf {
        quantised: bool,
        entries: Vec<(u64, Vec<f64>, Vec<f64>)>,
    },
    /// `(child, count, [mu_lo, mu_hi, sigma_lo, sigma_hi] per dim)`.
    Inner(Vec<(u64, u64, Vec<[f64; 4]>)>),
}

impl Spec {
    fn format(&self) -> LeafFormat {
        match self {
            Spec::Leaf {
                quantised: true, ..
            } => LeafFormat::Quantised,
            _ => LeafFormat::Exact,
        }
    }

    /// Encodes the documented page layout byte by byte, independent of
    /// `Node::write_to` (which cannot express σ below `MIN_SIGMA`).
    fn page(&self) -> Vec<u8> {
        let mut page = vec![0u8; PAGE];
        let (kind, count) = match self {
            Spec::Leaf { quantised, entries } => (if *quantised { 2 } else { 0 }, entries.len()),
            Spec::Inner(es) => (1, es.len()),
        };
        page[0] = kind;
        page[1..3].copy_from_slice(&u16::try_from(count).unwrap().to_le_bytes());
        let mut at = NODE_HEADER_BYTES;
        let mut put = |bytes: &[u8]| {
            page[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        };
        match self {
            Spec::Leaf { quantised, entries } => {
                for (id, means, sigmas) in entries {
                    put(&id.to_le_bytes());
                    for &v in means.iter().chain(sigmas) {
                        if *quantised {
                            #[allow(clippy::cast_possible_truncation)] // values are f32 already
                            put(&(v as f32).to_le_bytes());
                        } else {
                            put(&v.to_le_bytes());
                        }
                    }
                }
            }
            Spec::Inner(es) => {
                for (child, n, bounds) in es {
                    put(&child.to_le_bytes());
                    put(&n.to_le_bytes());
                    for b in bounds {
                        for v in b {
                            put(&v.to_le_bytes());
                        }
                    }
                }
            }
        }
        page
    }

    /// The expected query-ready node, built through `Pfv::new` /
    /// `DimBounds::new` and `Node::into_cached` without parsing any bytes.
    fn expected(&self, dims: usize) -> CachedNode {
        match self {
            Spec::Leaf { entries, .. } => Node::Leaf(
                entries
                    .iter()
                    .map(|(id, m, s)| LeafEntry {
                        id: *id,
                        pfv: Pfv::new(m.clone(), s.clone()).unwrap(),
                    })
                    .collect(),
            )
            .into_cached(dims),
            Spec::Inner(es) => Node::Inner(
                es.iter()
                    .map(|(child, count, bounds)| InnerEntry {
                        child: PageId(*child),
                        count: *count,
                        rect: ParamRect::from_dims(
                            bounds
                                .iter()
                                .map(|&[a, b, c, d]| DimBounds::new(a, b, c, d))
                                .collect(),
                        ),
                    })
                    .collect(),
            )
            .into_cached(dims),
        }
    }
}

/// A σ drawn to hit the clamp: exactly zero, negative zero, tiny values
/// below `MIN_SIGMA`, and ordinary spreads.
fn sigma() -> impl Strategy<Value = f64> {
    (0u8..8, 0.0..1.0f64).prop_map(|(pick, u)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => u * MIN_SIGMA,
        3 => MIN_SIGMA,
        _ => 1e-6 + 5.0 * u,
    })
}

fn widen(quantised: bool, v: f64) -> f64 {
    #[allow(clippy::cast_possible_truncation)] // quantised pages hold f32
    if quantised {
        f64::from(v as f32)
    } else {
        v
    }
}

/// Entry counts: empty, full, and anything in between (mostly not a
/// `LANE_WIDTH` multiple).
fn count(cap: usize) -> impl Strategy<Value = usize> {
    (0u8..4, 0..=cap).prop_map(move |(pick, n)| match pick {
        0 => 0,
        1 => cap,
        _ => n,
    })
}

fn leaf_spec(dims: usize, quantised: bool) -> impl Strategy<Value = Spec> {
    let mut config = TreeConfig::new(dims);
    if quantised {
        config.leaf_format = LeafFormat::Quantised;
    }
    count(config.leaf_capacity(PAGE)).prop_flat_map(move |n| {
        let entry = (
            0..u64::MAX,
            prop::collection::vec(-1e3..1e3f64, dims),
            prop::collection::vec(sigma(), dims),
        );
        prop::collection::vec(entry, n).prop_map(move |es| Spec::Leaf {
            quantised,
            entries: es
                .into_iter()
                .map(|(id, m, s)| {
                    let w = |v: Vec<f64>| v.into_iter().map(|x| widen(quantised, x)).collect();
                    (id, w(m), w(s))
                })
                .collect(),
        })
    })
}

fn inner_spec(dims: usize) -> impl Strategy<Value = Spec> {
    count(TreeConfig::new(dims).inner_capacity(PAGE)).prop_flat_map(move |n| {
        let bounds = (-1e3..1e3f64, 0.0..10.0f64, sigma(), 0.0..3.0f64)
            .prop_map(|(lo, w, s, sw)| [lo, lo + w, s, s + sw]);
        let entry = (
            0..u64::MAX - 1,
            0..u64::MAX,
            prop::collection::vec(bounds, dims),
        );
        prop::collection::vec(entry, n).prop_map(Spec::Inner)
    })
}

/// A valid page spec at one of the tested dimensionalities.
fn spec() -> impl Strategy<Value = (usize, Spec)> {
    (0..DIMS.len()).prop_flat_map(|i| {
        let dims = DIMS[i];
        (
            Just(dims),
            prop_oneof![
                leaf_spec(dims, false),
                leaf_spec(dims, true),
                inner_spec(dims)
            ],
        )
    })
}

fn bits(c: &[f64]) -> Vec<u64> {
    c.iter().map(|x| x.to_bits()).collect()
}

/// Asserts two cached nodes are bit-identical.
fn assert_same(a: &CachedNode, b: &CachedNode) {
    match (a, b) {
        (CachedNode::Leaf(a), CachedNode::Leaf(b)) => {
            assert_eq!(a.ids, b.ids);
            assert_eq!(a.columns.len(), b.columns.len());
            assert_eq!(a.columns.dims(), b.columns.dims());
            for (x, y) in a
                .columns
                .padded_columns()
                .into_iter()
                .zip(b.columns.padded_columns())
            {
                assert_eq!(bits(x), bits(y));
            }
        }
        (CachedNode::Inner(a), CachedNode::Inner(b)) => {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!((x.child, x.count), (y.child, y.count));
                let flat = |e: &InnerEntry| {
                    e.rect
                        .as_slice()
                        .iter()
                        .flat_map(|d| [d.mu_lo, d.mu_hi, d.sigma_lo, d.sigma_hi])
                        .map(f64::to_bits)
                        .collect::<Vec<_>>()
                };
                assert_eq!(flat(x), flat(y));
            }
        }
        _ => panic!("node kinds differ"),
    }
}

/// Runs both decoders on `page`; they must agree on `Ok`/`Err` and, on
/// `Ok`, be bit-identical. Returns the direct decoder's result.
fn decode_both(dims: usize, format: LeafFormat, page: &[u8]) -> Result<CachedNode, NodeCodecError> {
    let direct = CachedNode::read_from(dims, format, page);
    let two_step = Node::read_from(dims, format, page).map(|n| n.into_cached(dims));
    match (&direct, &two_step) {
        (Ok(a), Ok(b)) => assert_same(a, b),
        (Err(_), Err(_)) => {}
        _ => panic!(
            "decoders disagree: direct {:?}, two-step {:?}",
            direct.as_ref().err(),
            two_step.as_ref().err()
        ),
    }
    direct
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid pages decode identically both ways, and to the node they
    /// encode (σ below `MIN_SIGMA` clamped exactly as `Pfv::new` does).
    #[test]
    fn valid_pages_decode_bit_identically((dims, spec) in spec()) {
        let page = spec.page();
        let direct = decode_both(dims, spec.format(), &page).unwrap();
        assert_same(&direct, &spec.expected(dims));
        if let CachedNode::Leaf(leaf) = &direct {
            prop_assert_eq!(leaf.columns.padded_len() % LANE_WIDTH, 0);
        }
    }

    /// Flipping a few bits of a valid page (header included) never makes
    /// the decoders panic or disagree.
    #[test]
    fn bit_flipped_pages_agree(
        (dims, spec) in spec(),
        flips in prop::collection::vec((0usize..PAGE, 0u32..8, 0u8..2), 1..4),
    ) {
        let mut page = spec.page();
        let used = page.iter().rposition(|&b| b != 0).map_or(NODE_HEADER_BYTES, |p| p + 1);
        for (at, bit, header) in flips {
            // Half the flips land in the header, the rest in the payload.
            let at = if header == 0 { at % NODE_HEADER_BYTES } else { at % used };
            page[at] ^= 1 << bit;
        }
        let _ = decode_both(dims, spec.format(), &page);
    }

    /// Arbitrary bytes of arbitrary length: both decoders agree and
    /// neither panics.
    #[test]
    fn arbitrary_bytes_agree(
        i in 0..DIMS.len(),
        kind in 0u8..4,
        count in 0u16..=u16::MAX,
        body in prop::collection::vec(0u8..=u8::MAX, 0..1200),
        quantised in 0u8..2,
    ) {
        let format = if quantised == 1 { LeafFormat::Quantised } else { LeafFormat::Exact };
        let mut page = vec![kind, 0, 0, 0, 0, 0, 0, 0];
        page[1..3].copy_from_slice(&(count % 64).to_le_bytes());
        page.extend_from_slice(&body);
        for cut in [0, 1, 3, NODE_HEADER_BYTES, page.len()] {
            let _ = decode_both(DIMS[i], format, &page[..cut.min(page.len())]);
        }
        page[1..3].copy_from_slice(&count.to_le_bytes());
        let _ = decode_both(DIMS[i], format, &page);
    }
}
