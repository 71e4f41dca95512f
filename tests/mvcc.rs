//! MVCC snapshot-isolation suite.
//!
//! Pins down the contract of [`GaussTree::snapshot`]: a [`Snapshot`] is a
//! frozen committed epoch — queries on it are bit-identical to the same
//! queries on the quiesced tree at commit time, no matter what a concurrent
//! writer does afterwards — and the pages backing a pinned epoch are only
//! reclaimed once the last snapshot of it is dropped.

use gausstree::pfv::Pfv;
use gausstree::storage::{AccessStats, BufferPool, Durability, MemStore};
use gausstree::tree::{GaussTree, ReadView, Snapshot, TreeConfig, TreeOptions};

fn mem_pool(cap: usize) -> BufferPool<MemStore> {
    BufferPool::new(MemStore::new(1024), cap, AccessStats::new_shared())
}

fn pfv2(i: u64, salt: u64) -> Pfv {
    Pfv::new(
        vec![
            ((i * 29 + salt) % 97) as f64 * 0.4 - 19.0,
            ((i * 13 + salt * 7) % 89) as f64 * 0.4 - 17.0,
        ],
        vec![
            0.05 + (i % 7) as f64 * 0.05,
            0.05 + ((i + salt) % 5) as f64 * 0.07,
        ],
    )
    .unwrap()
}

fn build(n: u64, durability: Durability) -> GaussTree<MemStore> {
    let mut tree = GaussTree::create_with(
        mem_pool(4096),
        TreeConfig::new(2).with_capacities(5, 4),
        &TreeOptions::new().durability(durability),
    )
    .unwrap();
    for i in 0..n {
        tree.insert(i, &pfv2(i, 3)).unwrap();
    }
    tree.flush().unwrap();
    tree
}

/// Order-independent, bit-exact logical content of any read view.
fn logical_state<V: ReadView<MemStore>>(view: &V) -> Vec<(u64, Vec<u64>, Vec<u64>)> {
    let mut entries = Vec::new();
    view.for_each_entry(|id, pfv| {
        entries.push((
            id,
            pfv.means().iter().map(|m| m.to_bits()).collect(),
            pfv.sigmas().iter().map(|s| s.to_bits()).collect(),
        ));
    })
    .unwrap();
    entries.sort();
    entries
}

/// Every query family on the quiesced committed tree, captured bit-exactly
/// so snapshot results can be compared for equality, not approximation.
fn query_fingerprint<V: ReadView<MemStore>>(view: &V, q: &Pfv) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = view
        .k_mliq(q, 10)
        .unwrap()
        .into_iter()
        .map(|h| (h.id, h.log_density.to_bits()))
        .collect();
    for h in view.tiq(q, 0.05, 1e-6).unwrap() {
        out.push((h.id, h.probability.to_bits()));
    }
    let mut cursor = view.ranking_cursor(q).unwrap();
    for _ in 0..5 {
        if let Some(h) = cursor.next_hit().unwrap() {
            out.push((h.id, h.log_density.to_bits()));
        }
    }
    for h in view
        .probabilistic_box_query(&[-5.0, -5.0], &[5.0, 5.0], 0.01)
        .unwrap()
    {
        out.push((h.id, h.probability.to_bits()));
    }
    out
}

#[test]
fn snapshot_matches_quiesced_tree_bit_for_bit_under_racing_writer() {
    for durability in [Durability::None, Durability::Fsync] {
        let mut tree = build(200, durability);
        let q = Pfv::new(vec![1.5, -2.0], vec![0.3, 0.3]).unwrap();

        // Quiesced ground truth at the commit, then pin it.
        let want_state = logical_state(&tree);
        let want_queries = query_fingerprint(&tree, &q);
        let snap = tree.snapshot().unwrap();
        let epoch0 = snap.epoch();
        assert_eq!(snap.len(), 200);

        // Readers race the writer: the writer inserts, extends and commits
        // new epochs while snapshot readers keep querying the pinned one.
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    let snap = snap.clone();
                    let q = q.clone();
                    scope.spawn(move || {
                        let mut fps = Vec::new();
                        for _ in 0..20 {
                            fps.push(query_fingerprint(&snap, &q));
                        }
                        fps
                    })
                })
                .collect();
            for round in 0u64..5 {
                for i in 0..40 {
                    tree.insert(1_000 + round * 100 + i, &pfv2(i, round + 11))
                        .unwrap();
                }
                tree.extend(
                    (0..10u64)
                        .map(|i| (2_000 + round * 100 + i, pfv2(i, round + 29)))
                        .collect::<Vec<_>>(),
                )
                .unwrap();
                tree.flush().unwrap();
            }
            for w in workers {
                for fp in w.join().unwrap() {
                    assert_eq!(fp, want_queries, "racing snapshot read diverged");
                }
            }
        });

        // The writer moved on; the snapshot did not.
        assert!(tree.epoch() > epoch0, "writer must have committed");
        assert_eq!(tree.len(), 200 + 5 * 50);
        assert_eq!(snap.len(), 200);
        assert_eq!(logical_state(&snap), want_state);
        assert_eq!(query_fingerprint(&snap, &q), want_queries);

        // The batch executor fans out over the snapshot too.
        let serial = snap.k_mliq(&q, 5).unwrap();
        let batched = snap.batch(4).k_mliq(&[q.clone(), q.clone()], 5).unwrap();
        assert_eq!(batched, vec![serial.clone(), serial]);

        // And the pinned structure itself stays sound.
        assert!(snap.check_invariants(true).unwrap().is_empty());
    }
}

#[test]
fn page_reclaim_waits_for_the_last_pin() {
    let mut tree = build(300, Durability::None);
    let want = logical_state(&tree);
    let snap = tree.snapshot().unwrap();
    assert_eq!(tree.pinned_snapshots(), 1);

    // Dissolve most of the tree: the superseded pages of the pinned epoch
    // park in the aging list instead of becoming reusable.
    for i in 0..250u64 {
        tree.delete(i, &pfv2(i, 3)).unwrap();
    }
    tree.flush().unwrap();
    let pages_pinned = tree.pool().num_pages();

    // New growth must not cannibalise the pinned epoch's pages: the store
    // grows even though plenty of pages were just freed.
    for i in 0..150u64 {
        tree.insert(10_000 + i, &pfv2(i, 57)).unwrap();
    }
    tree.flush().unwrap();
    assert!(
        tree.pool().num_pages() > pages_pinned,
        "allocation while pinned must grow the store, not reuse pinned pages"
    );
    // ... which is exactly what keeps the snapshot intact:
    assert_eq!(logical_state(&snap), want);

    // Unpin. The aged pages become reusable, so the same amount of new
    // growth is now served from the free pool without growing the store.
    drop(snap);
    assert_eq!(tree.pinned_snapshots(), 0);
    let pages_unpinned = tree.pool().num_pages();
    for i in 0..150u64 {
        tree.insert(20_000 + i, &pfv2(i, 91)).unwrap();
    }
    tree.flush().unwrap();
    assert_eq!(
        tree.pool().num_pages(),
        pages_unpinned,
        "aged pages must be reused once the last pin is gone"
    );
    assert!(tree.check_invariants(false).unwrap().is_empty());
}

#[test]
fn uncommitted_working_state_snapshots_the_last_commit() {
    let mut tree = build(50, Durability::None);
    let q = Pfv::new(vec![1.5, -2.0], vec![0.3, 0.3]).unwrap();
    let want_state = logical_state(&tree);
    let want_queries = query_fingerprint(&tree, &q);
    let epoch0 = tree.epoch();

    // Uncommitted inserts and deletes with no snapshot pinned: mutation
    // shadow-pages regardless of the barrier, so the last commit is intact
    // and pinning it needs no flush first.
    for i in 0..30u64 {
        tree.insert(500 + i, &pfv2(i, 1)).unwrap();
    }
    for i in 0..20u64 {
        tree.delete(i, &pfv2(i, 3)).unwrap();
    }
    assert_eq!(tree.len(), 60);
    let s0 = tree.snapshot().unwrap();
    assert_eq!(s0.epoch(), epoch0);
    assert_eq!(s0.len(), 50);
    assert_eq!(logical_state(&s0), want_state);
    assert_eq!(query_fingerprint(&s0, &q), want_queries);
    assert!(s0.check_invariants(true).unwrap().is_empty());

    // After a commit a new snapshot sees the new state; the old one still
    // sees its own.
    tree.flush().unwrap();
    let s1 = tree.snapshot().unwrap();
    assert!(s1.epoch() > epoch0);
    assert_eq!(s1.len(), 60);
    assert_eq!(logical_state(&s1), logical_state(&tree));
    assert_eq!(logical_state(&s0), want_state);
}

#[test]
fn live_pin_forces_shadow_paging_even_without_durability() {
    let mut tree = build(50, Durability::None);
    let snap = tree.snapshot().unwrap();
    // While `snap` lives, mutation shadow-pages, so the working state never
    // diverges from a committed epoch in place — a second snapshot after a
    // commit is always possible.
    for i in 0..40u64 {
        tree.insert(600 + i, &pfv2(i, 77)).unwrap();
    }
    tree.flush().unwrap();
    let snap2 = tree.snapshot().unwrap();
    assert!(snap2.epoch() > snap.epoch());
    assert_eq!(snap.len(), 50);
    assert_eq!(snap2.len(), 90);
    assert_eq!(tree.pinned_snapshots(), 2);
}

#[test]
fn clone_repins_and_drop_unpins() {
    let mut tree = build(20, Durability::None);
    let s1 = tree.snapshot().unwrap();
    let s2 = s1.clone();
    let s3 = tree.snapshot().unwrap();
    assert_eq!(tree.pinned_snapshots(), 3);
    drop(s1);
    assert_eq!(tree.pinned_snapshots(), 2);

    // Snapshots survive the writer: they hold shared ownership of the pool.
    let held: Snapshot<MemStore> = s2;
    tree.flush().unwrap();
    drop(tree);
    assert_eq!(held.len(), 20);
    assert!(!held.is_empty());
    assert_eq!(held.dims(), 2);
    drop(held);
    drop(s3);
}
