//! Property-based equivalence of the Gauss-forest write path.
//!
//! The forest's contract is that the LSM machinery — memtable, tombstone
//! shadowing, flushes into immutable components, multi-way merges — is
//! *invisible* to readers: after ANY interleaving of `insert`, `delete`,
//! `flush` and `maintain`, a snapshot must answer exactly like a fresh
//! single Gauss-tree bulk-loaded from the surviving live set.
//!
//! * k-MLIQ (and the streaming ranking cursor) are asserted
//!   **bit-identical**: same ids, same order, same `log_density` bits;
//! * box queries are asserted **bit-identical** (ids, order, probability
//!   bits);
//! * refined k-MLIQ ids, order and `log_density` bits are asserted
//!   identical, with probabilities agreeing within the requested accuracy;
//! * TIQ id sets are asserted identical, with per-id probabilities agreeing
//!   to well under the query accuracy (the interval *bounds* may close in
//!   different exploration orders across component forests, so only the
//!   settled answer is contractual);
//! * `contains`/`len` bookkeeping matches a plain map replay, and both
//!   leaf formats are exercised (the memtable pre-quantises, so flushing
//!   must never re-round).

use gausstree::pfv::Pfv;
use gausstree::storage::MemComponentStores;
use gausstree::storage::{AccessStats, BufferPool, MemStore};
use gausstree::tree::{ForestOptions, GaussForest, GaussTree, LeafFormat, ReadView, TreeConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One step of the interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, Vec<f64>, Vec<f64>),
    Delete(u64),
    Flush,
    Maintain,
}

fn op_strategy(dims: usize, id_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (
            0..id_space,
            prop::collection::vec(-20.0..20.0f64, dims),
            prop::collection::vec(0.05..3.0f64, dims),
        )
            .prop_map(|(id, m, s)| Op::Insert(id, m, s)),
        2 => (0..id_space).prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => Just(Op::Maintain),
    ]
}

/// Replays `ops` against a forest and a plain map side by side.
fn run_ops(
    ops: &[Op],
    dims: usize,
    format: LeafFormat,
    memtable_capacity: usize,
) -> (GaussForest<MemComponentStores>, BTreeMap<u64, Pfv>) {
    let config = TreeConfig::new(dims)
        .with_capacities(6, 4)
        .with_leaf_format(format);
    let mut forest = GaussForest::create(
        MemComponentStores::new(4096),
        config,
        ForestOptions::new().memtable_capacity(memtable_capacity),
    )
    .expect("create forest");
    let mut model: BTreeMap<u64, Pfv> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Insert(id, m, s) => {
                let v = Pfv::new(m.clone(), s.clone()).expect("valid pfv");
                forest.insert(*id, &v).expect("insert");
                model.insert(*id, v);
            }
            Op::Delete(id) => {
                let existed = forest.delete(*id).expect("delete");
                assert_eq!(existed, model.remove(id).is_some(), "delete({id}) status");
            }
            Op::Flush => {
                forest.flush().expect("flush");
            }
            Op::Maintain => {
                forest.maintain().expect("maintain");
            }
        }
        assert_eq!(forest.len(), model.len() as u64, "live count after {op:?}");
    }
    (forest, model)
}

/// Bulk-loads the model's live set into a fresh single tree.
fn reference_tree(model: &BTreeMap<u64, Pfv>, config: TreeConfig) -> GaussTree<MemStore> {
    let items: Vec<(u64, Pfv)> = model.iter().map(|(id, v)| (*id, v.clone())).collect();
    let pool = BufferPool::new(MemStore::new(4096), 256, AccessStats::new_shared());
    if items.is_empty() {
        return GaussTree::create(pool, config).expect("empty reference");
    }
    GaussTree::bulk_load(pool, config, items).expect("reference bulk load")
}

fn check_equivalence(ops: &[Op], dims: usize, format: LeafFormat, queries: &[Pfv]) {
    let (forest, model) = run_ops(ops, dims, format, 4);
    let config = *forest.config();
    let reference = reference_tree(&model, config);
    let snap = forest.snapshot().expect("snapshot");
    assert_eq!(snap.len(), reference.len());

    for id in model.keys() {
        assert!(forest.contains(*id));
    }

    for q in queries {
        // k-MLIQ: bit-identical ids, order and densities.
        let k = 5;
        let a = snap.k_mliq(q, k).expect("forest k-mliq");
        let b = reference.k_mliq(q, k).expect("reference k-mliq");
        assert_eq!(a, b, "k-MLIQ diverged");

        // Ranking cursor agrees with k-MLIQ prefix semantics too.
        let mut cursor = snap.ranking_cursor(q).expect("cursor");
        let mut cursor_ids: Vec<u64> = Vec::new();
        while cursor_ids.len() < k {
            match cursor.next_hit().expect("cursor hit") {
                Some(hit) => cursor_ids.push(hit.id),
                None => break,
            }
        }
        let ref_ids: Vec<u64> = b.iter().map(|h| h.id).collect();
        assert_eq!(cursor_ids, ref_ids, "ranking cursor diverged");

        // Refined k-MLIQ: ids, order and densities bit-identical; the
        // probabilities agree within the accuracy both sides refined to.
        let accuracy = 1e-7;
        let ra = snap.k_mliq_refined(q, k, accuracy).expect("forest refined");
        let rb = reference
            .k_mliq_refined(q, k, accuracy)
            .expect("reference refined");
        let key = |r: &[gausstree::tree::RefinedResult]| -> Vec<(u64, u64)> {
            r.iter().map(|h| (h.id, h.log_density.to_bits())).collect()
        };
        assert_eq!(key(&ra), key(&rb), "refined k-MLIQ diverged");
        for (x, y) in ra.iter().zip(&rb) {
            for h in [x, y] {
                assert!(
                    h.prob_lo <= h.probability && h.probability <= h.prob_hi,
                    "unordered probability bounds: {h:?}"
                );
            }
            assert!(
                (x.probability - y.probability).abs() <= accuracy,
                "refined probability diverged for id {}: {x:?} vs {y:?}",
                x.id
            );
        }

        // Box query around the query mean: bit-identical answers.
        let lo: Vec<f64> = q.means().iter().map(|m| m - 3.0).collect();
        let hi: Vec<f64> = q.means().iter().map(|m| m + 3.0).collect();
        let bits = |r: &[gausstree::tree::BoxQueryResult]| -> Vec<(u64, u64)> {
            r.iter().map(|h| (h.id, h.probability.to_bits())).collect()
        };
        for tau in [0.01, 0.5] {
            let ba = snap
                .probabilistic_box_query(&lo, &hi, tau)
                .expect("forest box query");
            let bb = reference
                .probabilistic_box_query(&lo, &hi, tau)
                .expect("reference box query");
            assert_eq!(bits(&ba), bits(&bb), "box query diverged (tau {tau})");
        }

        // TIQ: identical id sets; probabilities equal to far tighter than
        // the accuracy both sides refined to.
        let theta = 0.05;
        let accuracy = 1e-7;
        let mut fa = snap.tiq(q, theta, accuracy).expect("forest tiq");
        let mut fb = reference.tiq(q, theta, accuracy).expect("reference tiq");
        fa.sort_by_key(|h| h.id);
        fb.sort_by_key(|h| h.id);
        let ids_a: Vec<u64> = fa.iter().map(|h| h.id).collect();
        let ids_b: Vec<u64> = fb.iter().map(|h| h.id).collect();
        assert_eq!(ids_a, ids_b, "TIQ id sets diverged");
        for (x, y) in fa.iter().zip(&fb) {
            assert!(
                (x.probability - y.probability).abs() <= 1e-6,
                "TIQ probability diverged for id {}: {} vs {}\nforest: {:?}\nreference: {:?}",
                x.id,
                x.probability,
                y.probability,
                fa,
                fb
            );
        }
    }

    // The full visible entry stream matches the model exactly.
    let mut seen: Vec<(u64, Pfv)> = Vec::new();
    snap.for_each_entry(|id, v| seen.push((id, v.clone())))
        .expect("for_each_entry");
    seen.sort_by_key(|(id, _)| *id);
    let expect: Vec<(u64, Pfv)> = if format == LeafFormat::Quantised {
        // The tree stores the quantised image of what was inserted; the
        // round-trip through the forest must quantise exactly once.
        let ref_snap = reference.snapshot().expect("reference snapshot");
        let mut stored: Vec<(u64, Pfv)> = Vec::new();
        ref_snap
            .for_each_entry(|id, v| stored.push((id, v.clone())))
            .expect("reference entries");
        stored.sort_by_key(|(id, _)| *id);
        stored
    } else {
        model.iter().map(|(id, v)| (*id, v.clone())).collect()
    };
    assert_eq!(seen, expect, "visible entry set diverged");
}

fn queries_for(dims: usize) -> Vec<Pfv> {
    [(0.0, 0.5), (5.0, 1.0), (-8.0, 0.2), (15.0, 2.0)]
        .iter()
        .map(|&(m, s)| Pfv::new(vec![m; dims], vec![s; dims]).expect("query"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleavings_match_fresh_bulk_load_exact(
        ops in prop::collection::vec(op_strategy(2, 24), 1..80),
    ) {
        check_equivalence(&ops, 2, LeafFormat::Exact, &queries_for(2));
    }

    #[test]
    fn interleavings_match_fresh_bulk_load_quantised(
        ops in prop::collection::vec(op_strategy(3, 16), 1..60),
    ) {
        check_equivalence(&ops, 3, LeafFormat::Quantised, &queries_for(3));
    }
}

/// A deterministic deep workload: enough volume to stack several levels,
/// heavy same-id churn, then full compaction — the shape proptest's small
/// cases rarely reach.
#[test]
fn deep_churn_matches_reference() {
    let dims = 2;
    let mut ops: Vec<Op> = Vec::new();
    for round in 0..6u64 {
        for i in 0..40u64 {
            let id = i % 24;
            let x = (id as f64) - 10.0 + round as f64 * 0.1;
            ops.push(Op::Insert(id, vec![x, -x], vec![0.3, 0.7]));
        }
        ops.push(Op::Flush);
        if round % 2 == 1 {
            ops.push(Op::Maintain);
        }
        for id in (round * 3)..(round * 3 + 3) {
            ops.push(Op::Delete(id % 24));
        }
    }
    ops.push(Op::Flush);
    ops.push(Op::Maintain);
    check_equivalence(&ops, dims, LeafFormat::Exact, &queries_for(dims));
}
