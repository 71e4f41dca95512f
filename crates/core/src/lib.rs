//! The Gauss-tree — an index for probabilistic feature vectors.
//!
//! Implements the index structure of *"The Gauss-Tree: Efficient Object
//! Identification in Databases of Probabilistic Feature Vectors"* (Böhm,
//! Pryakhin, Schubert — ICDE 2006, §5):
//!
//! * a balanced tree from the R-tree family that indexes not the Gaussians
//!   as spatial objects but the **parameter space** `(μᵢ, σᵢ)` of their
//!   means and uncertainties (Definition 4);
//! * conservative per-node bounds from Lemmas 2/3 (see [`pfv::hull`]);
//! * best-first query processing over a priority queue
//!   (Hjaltason–Samet style) for
//!   [k-most-likely identification queries](ReadView::k_mliq),
//!   [probability-refined k-MLIQ](ReadView::k_mliq_refined) (§5.2.2) and
//!   [threshold identification queries](ReadView::tiq) (§5.2.3, Figure 5);
//! * the insertion strategy of §5.3 (exact-fit preference, then minimal
//!   hull-cost enlargement) and the split strategy that minimises the
//!   integral `∫ N̂(x) dx` of the resulting hull functions, for which the
//!   closed form lives in [`pfv::hull::DimBounds::hull_integral`];
//! * a parallel, out-of-core STR-style [bulk loader](GaussTree::bulk_load)
//!   (an extension — the paper only describes incremental insertion) whose
//!   pipeline runs in three stages (see [`bulk`]): a streaming front end
//!   that spills runs past a configurable memory budget, partitioning
//!   fanned across scoped worker threads (the recursion's sub-ranges are
//!   independent), and batched page writes group-committed as coalesced
//!   sequential runs — every combination byte-identical to the serial
//!   resident build; plus [`GaussTree::extend`], the batched sorted-run
//!   merge into an existing tree (one descent per batch);
//! * [structural invariant checking](GaussTree::check_invariants),
//!   including exact page accounting: every allocated page is the meta
//!   page, reachable from the root, or on the free list deletions refill;
//! * a columnar read hot path: decoded nodes are cached next to their pages
//!   ([`CachedNode`] behind a [`gauss_storage::SideCache`]), leaves are
//!   materialized struct-of-arrays and evaluated with the batched Lemma-1
//!   kernel [`pfv::batch::log_densities`], and inner children are priced in
//!   one fused hull sweep ([`children_log_hulls`]) — all bit-identical to
//!   the scalar per-entry path. A cache miss is one pass: one store read
//!   straight into the pool frame ([`gauss_storage::SharedBufferPool::page`]),
//!   then one parse of the page straight into the columns
//!   ([`CachedNode::read_from`]); [`pfv::Pfv`]s are built only on the write
//!   path.
//!
//! Nodes live in fixed-size pages behind a [`gauss_storage::SharedBufferPool`],
//! so every query reports the same page-access statistics the paper measures
//! — and, because the pool has interior mutability, every read-only query
//! takes `&self` and can run concurrently with others over one shared tree
//! (see the [`executor`] module for the multi-threaded batch API).
//!
//! Every query entry point is a provided method of the [`ReadView`] trait
//! (module [`view`]), implemented both by [`GaussTree`] — queries see the
//! tree's current working state — and by the pinned [`Snapshot`] handed out
//! by [`GaussTree::snapshot`], which keeps serving one committed epoch
//! lock-free while a writer shadow-builds the next (see the *Snapshots &
//! MVCC* section of the README).
//!
//! For write-heavy workloads the [`forest`] module layers an LSM-style
//! store on top: [`GaussForest`] absorbs inserts/deletes in a memtable
//! (deletes as tombstones), flushes it through the bulk loader into
//! immutable components of doubling sizes, and merges components on
//! [`GaussForest::maintain`]; queries fan out across the memtable and
//! every component behind the same [`ReadView`] trait and return results
//! bit-identical to a single tree over the live set.
//!
//! # Example
//!
//! ```
//! use gauss_tree::{GaussTree, ReadView, TreeConfig};
//! use gauss_storage::{BufferPool, MemStore, AccessStats};
//! use pfv::Pfv;
//!
//! let config = TreeConfig::new(2);
//! let pool = BufferPool::new(MemStore::new(4096), 64, AccessStats::new_shared());
//! let mut tree = GaussTree::create(pool, config).unwrap();
//!
//! tree.insert(1, &Pfv::new(vec![1.0, 2.0], vec![0.1, 0.2]).unwrap()).unwrap();
//! tree.insert(2, &Pfv::new(vec![5.0, 6.0], vec![0.3, 0.1]).unwrap()).unwrap();
//!
//! let q = Pfv::new(vec![1.1, 2.1], vec![0.2, 0.2]).unwrap();
//! let hits = tree.k_mliq(&q, 1).unwrap();
//! assert_eq!(hits[0].id, 1);
//! ```

#![forbid(unsafe_code)]

/// Parallel out-of-core bulk loading.
pub mod bulk;
/// Structural invariant checking for debugging and tests.
pub mod check;
/// Tree construction and split-strategy configuration.
pub mod config;
/// Streaming cursors over leaf entries.
pub mod cursor;
/// Deletion and node-underflow handling.
pub mod delete;
/// Parallel batch-query execution.
pub mod executor;
/// The LSM-style Gauss-forest: memtable + immutable component trees.
pub mod forest;
/// Conservative probability-interval bounds for subtree pruning.
pub mod interval;
/// On-page node layout: inner/leaf entries and their codecs.
pub mod node;
/// Probabilistic identification queries (MLIQ / k-MLIQ / TIQ).
pub mod query;
/// Node splitting, including the parallel partition pipeline.
pub mod split;
/// The Gauss-tree itself: build, insert, query entry points.
pub mod tree;
/// The shared read-plane: the [`ReadView`] query trait and its substrate.
pub mod view;

pub use bulk::{BulkLoadOptions, BulkLoadReport, SpillKind};
pub use check::InvariantError;
pub use config::{LeafFormat, SplitStrategy, TreeConfig};
pub use cursor::RankingCursor;
pub use delete::DeleteOutcome;
pub use executor::BatchExecutor;
pub use forest::{ComponentInfo, ForestOptions, ForestSnapshot, GaussForest, MaintainReport};
pub use interval::BoxQueryResult;
pub use node::{children_log_hulls, CachedNode, ColumnarLeafNode};
pub use query::{MliqResult, RefinedResult, TiqResult};
pub use tree::{GaussTree, RecoveryReport, Snapshot, TreeError, TreeOptions};
pub use view::ReadView;
