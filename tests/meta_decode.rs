//! Property tests of the meta-slot decoder.
//!
//! `GaussTree::open` parses both meta slots (pages 0–1) and follows the
//! free-list overflow chain of the one it picks; `open_with_recovery`
//! additionally verifies the chosen epoch and falls back. Whatever the
//! bytes of a slot or a chain carrier, both must return `Ok` or `Err` and
//! never panic, and a tree that recovery returns must pass the invariant
//! check. Half of the mutated slots get their FNV checksum recomputed, so
//! the parser past the checksum sees the mutation too.
//!
//! Only the current (v3) format opens: hand-built files of the older
//! single-slot v1 and leaf-format-less v2 layouts give `NotAGaussTree`.

use gausstree::pfv::Pfv;
use gausstree::storage::{fnv1a64, AccessStats, BufferPool, MemStore, PageId, PageStore};
use gausstree::tree::node::{LeafEntry, Node};
use gausstree::tree::{GaussTree, LeafFormat, TreeConfig, TreeError, TreeOptions};
use proptest::prelude::*;
use std::sync::OnceLock;

const MAGIC: u32 = 0x4754_5245;
/// Byte range of the checksum inside a slot.
const CHECKSUM: std::ops::Range<usize> = 8..16;
/// Bytes of the fixed slot header before the in-slot free ids.
const HEADER: usize = 79;
/// `(offset, width)` of every fixed field after the checksum: epoch,
/// allocated pages, dims, combine, split, leaf format, leaf cap, inner
/// cap, root, height, len, in-slot free count, overflow chain pointer.
const FIELDS: [(usize, usize); 13] = [
    (16, 8),
    (24, 8),
    (32, 4),
    (36, 1),
    (37, 1),
    (38, 1),
    (39, 4),
    (43, 4),
    (47, 8),
    (55, 4),
    (59, 8),
    (67, 4),
    (71, 8),
];

/// The page images of a committed tree.
struct Fixture {
    pages: Vec<Vec<u8>>,
    /// Slot holding the newest epoch.
    newest: usize,
    /// First overflow-chain carrier of the newest slot, if it has one.
    carrier: Option<usize>,
}

fn pfv(dims: usize, i: u64) -> Pfv {
    Pfv::new(
        (0..dims)
            .map(|d| ((i * 31 + d as u64 * 7) % 97) as f64 * 0.3 - 14.0)
            .collect::<Vec<_>>(),
        (0..dims)
            .map(|d| 0.05 + ((i + d as u64) % 6) as f64 * 0.07)
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

fn fixture(page: usize, dims: usize, format: LeafFormat, n: u64, deleted: u64) -> Fixture {
    let pool = BufferPool::new(MemStore::new(page), 4096, AccessStats::new_shared());
    let config = TreeConfig::new(dims).with_capacities(4, 4);
    let mut tree =
        GaussTree::create_with(pool, config, &TreeOptions::new().leaf_format(format)).unwrap();
    for i in 0..n {
        tree.insert(i, &pfv(dims, i)).unwrap();
    }
    tree.flush().unwrap();
    for i in 0..deleted {
        tree.delete(i, &pfv(dims, i)).unwrap();
    }
    tree.flush().unwrap();
    let newest = usize::from(!tree.epoch().is_multiple_of(2));
    let mut store = tree.into_store();
    let mut pages = Vec::new();
    for i in 0..store.num_pages() {
        let mut buf = vec![0u8; page];
        store.read_page(PageId(i), &mut buf).unwrap();
        pages.push(buf);
    }
    let next = u64::from_le_bytes(pages[newest][71..79].try_into().unwrap());
    let carrier = PageId(next).is_valid().then_some(next as usize);
    Fixture {
        pages,
        newest,
        carrier,
    }
}

/// A 1 KiB-page exact tree whose free list overflows into a carrier
/// chain, and a 4 KiB-page quantised one whose free list fits its slot.
fn fixtures() -> &'static [Fixture] {
    static F: OnceLock<Vec<Fixture>> = OnceLock::new();
    F.get_or_init(|| {
        let chained = fixture(1024, 2, LeafFormat::Exact, 400, 370);
        assert!(chained.carrier.is_some(), "fixture needs an overflow chain");
        vec![chained, fixture(4096, 8, LeafFormat::Quantised, 150, 40)]
    })
}

fn reseal(slot: &mut [u8]) {
    slot[CHECKSUM].fill(0);
    let sum = fnv1a64(slot);
    slot[CHECKSUM].copy_from_slice(&sum.to_le_bytes());
}

fn store_of(pages: &[Vec<u8>]) -> MemStore {
    let mut store = MemStore::new(pages[0].len());
    for bytes in pages {
        let id = store.allocate().unwrap();
        store.write_page(id, bytes).unwrap();
    }
    store
}

fn pool_of(pages: &[Vec<u8>]) -> BufferPool<MemStore> {
    BufferPool::new(store_of(pages), 256, AccessStats::new_shared())
}

/// Opens `pages` both ways. Neither may panic; a recovered tree must be
/// sound.
fn open_both(pages: &[Vec<u8>]) -> Result<(), TreeError> {
    let plain = GaussTree::open(pool_of(pages)).map(|_| ());
    if let Ok((tree, _)) = GaussTree::open_with_recovery(pool_of(pages)) {
        let errs = tree.check_invariants(false).unwrap();
        assert!(errs.is_empty(), "recovered tree is unsound: {errs:?}");
    }
    plain
}

/// One way to damage a page.
#[derive(Debug, Clone)]
enum Damage {
    /// `(byte, bit)` flips inside the page's used prefix.
    Flips(Vec<(usize, u8)>),
    /// One fixed header field set to an arbitrary value.
    Field(usize, u64),
    /// Random bytes written at an offset.
    Bytes(usize, Vec<u8>),
}

fn damage() -> impl Strategy<Value = Damage> {
    let value = prop_oneof![0u64..8, 0u64..512, 0..u64::MAX];
    prop_oneof![
        prop::collection::vec((0usize..4096, 0u8..8), 1..8).prop_map(Damage::Flips),
        (0..FIELDS.len(), value).prop_map(|(f, v)| Damage::Field(f, v)),
        (0usize..4096, prop::collection::vec(0u8..=u8::MAX, 1..64))
            .prop_map(|(at, bytes)| Damage::Bytes(at, bytes)),
    ]
}

fn apply(page: &mut [u8], damage: &Damage) {
    match damage {
        Damage::Flips(flips) => {
            let used = page.iter().rposition(|&b| b != 0).map_or(HEADER, |p| p + 1);
            for &(at, bit) in flips {
                page[at % used] ^= 1 << bit;
            }
        }
        Damage::Field(f, v) => {
            let (at, width) = FIELDS[*f];
            page[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
        }
        Damage::Bytes(at, bytes) => {
            let at = at % page.len();
            let end = (at + bytes.len()).min(page.len());
            page[at..end].copy_from_slice(&bytes[..end - at]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Damaging the newest slot, the older slot or the first chain
    /// carrier of a valid tree never makes open or recovery panic.
    #[test]
    fn damaged_slots_and_carriers_never_panic(
        which in 0usize..2,
        target in 0u8..3,
        damage in damage(),
        resealed in 0u8..2,
    ) {
        let fx = &fixtures()[which];
        let mut pages = fx.pages.clone();
        let page = match target {
            0 => fx.newest,
            1 => 1 - fx.newest,
            _ => fx.carrier.unwrap_or(fx.newest),
        };
        apply(&mut pages[page], &damage);
        if resealed == 1 && page < 2 {
            reseal(&mut pages[page]);
        }
        let _ = open_both(&pages);
    }

    /// Arbitrary bytes in both slots, half of them with the right magic
    /// and version and half resealed, never make open or recovery panic.
    #[test]
    fn arbitrary_slot_bytes_never_panic(
        which in 0usize..2,
        a in prop::collection::vec(0u8..=u8::MAX, 4096),
        b in prop::collection::vec(0u8..=u8::MAX, 4096),
        headed in 0u8..2,
        resealed in 0u8..2,
    ) {
        let fx = &fixtures()[which];
        let mut pages = fx.pages.clone();
        for (slot, bytes) in [(0, a), (1, b)] {
            let page = &mut pages[slot];
            let len = page.len();
            page.copy_from_slice(&bytes[..len]);
            if headed == 1 {
                page[..4].copy_from_slice(&MAGIC.to_le_bytes());
                page[4..8].copy_from_slice(&3u32.to_le_bytes());
            }
            if resealed == 1 {
                reseal(page);
            }
        }
        prop_assert!(open_both(&pages).is_err() || headed == 1);
    }
}

#[test]
fn undamaged_fixtures_open_and_recover() {
    for fx in fixtures() {
        open_both(&fx.pages).unwrap();
        let (_, report) = GaussTree::open_with_recovery(pool_of(&fx.pages)).unwrap();
        assert!(!report.fell_back);
    }
}

/// The leaf page both hand-built legacy files hold.
fn legacy_leaf(page: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; page];
    let entries = vec![
        LeafEntry {
            id: 7,
            pfv: pfv(1, 7),
        },
        LeafEntry {
            id: 9,
            pfv: pfv(1, 9),
        },
    ];
    Node::Leaf(entries).write_to(1, LeafFormat::Exact, &mut bytes);
    bytes
}

#[test]
fn v1_single_slot_file_is_not_a_gauss_tree() {
    // The pre-dual-slot layout: one meta page at 0 (no checksum, epoch or
    // allocation count), the root leaf at page 1.
    let mut meta = vec![0u8; 1024];
    let mut at = 0;
    let mut put = |bytes: &[u8]| {
        meta[at..at + bytes.len()].copy_from_slice(bytes);
        at += bytes.len();
    };
    put(&MAGIC.to_le_bytes());
    put(&1u32.to_le_bytes());
    put(&1u32.to_le_bytes()); // dims
    put(&[0, 0]); // combine, split
    put(&4u32.to_le_bytes()); // leaf cap
    put(&4u32.to_le_bytes()); // inner cap
    put(&1u64.to_le_bytes()); // root
    put(&0u32.to_le_bytes()); // height
    put(&2u64.to_le_bytes()); // len
    put(&0u32.to_le_bytes()); // free count
    put(&PageId::INVALID.index().to_le_bytes());
    let pages = vec![meta, legacy_leaf(1024)];
    assert!(matches!(open_both(&pages), Err(TreeError::NotAGaussTree)));
    assert!(matches!(
        GaussTree::open_with_recovery(pool_of(&pages)),
        Err(TreeError::NotAGaussTree)
    ));
}

#[test]
fn v2_dual_slot_file_is_not_a_gauss_tree() {
    // The dual-slot layout without the leaf-format byte, in both slots.
    for fx in fixtures() {
        let mut pages = fx.pages.clone();
        for page in &mut pages[..2] {
            page.remove(38);
            page.push(0);
            page[4..8].copy_from_slice(&2u32.to_le_bytes());
            reseal(page);
        }
        assert!(matches!(open_both(&pages), Err(TreeError::NotAGaussTree)));
        assert!(matches!(
            GaussTree::open_with_recovery(pool_of(&pages)),
            Err(TreeError::NotAGaussTree)
        ));
    }
}
