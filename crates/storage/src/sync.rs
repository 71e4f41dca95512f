//! Rank-checked mutexes: the workspace's only sanctioned lock primitive.
//!
//! The concurrent core of this repo — the sharded [`crate::SharedBufferPool`],
//! the [`crate::SideCache`], the bulk-load work queue and the batch executor's
//! result slots — grew one mutex at a time, and nothing enforced a consistent
//! acquisition order between them. [`TrackedMutex`] fixes that with a *static
//! lock hierarchy*:
//!
//! | rank | [`LockRank`]  | guards                                            |
//! |-----:|---------------|---------------------------------------------------|
//! | 0    | `Store`       | the backing [`crate::store::PageStore`]           |
//! | 1    | `Shard`       | one buffer-pool cache shard (`seq` = shard index) |
//! | 2    | `SideCache`   | one side-cache shard (`seq` = shard index)        |
//! | 3    | `WorkQueue`   | the bulk-load partition queue                     |
//! | 4    | `ResultSlot`  | executor/bulk-load output slots (`seq` = slot)    |
//! | 5    | `EpochRegistry` | the snapshot epoch-pin registry ([`EpochRegistry`]) |
//!
//! A thread may only acquire a lock whose `(rank, seq)` pair is **strictly
//! greater** than every lock it already holds. Equal ranks are ordered by
//! `seq`, so a writer may hold many pool shards at once — but only by taking
//! them in ascending shard order, and never after the side cache. Acquiring
//! out of order (the classic shard-then-store inversion) panics immediately
//! under `debug_assertions` or the `lock-tracking` feature, naming both
//! acquisition sites; in release builds without the feature every check
//! compiles away and [`TrackedMutex::lock`] is a plain `Mutex::lock`.
//!
//! Beyond the per-thread rank check, every nested acquisition feeds a global
//! *lock-order graph* keyed by `(rank, seq, name)`: observing edge `A → B`
//! after some thread recorded `B → A` panics with both first-seen sites even
//! if the two threads never actually deadlock in this run — the detector
//! turns a probabilistic hang into a deterministic failure.
//!
//! Poisoning: every lock here guards either a pure cache (dropping the
//! protected state is always safe) or scoped-thread state whose owning scope
//! re-raises the worker's panic anyway, so [`TrackedMutex::lock`] recovers
//! from [`PoisonError`](std::sync::PoisonError) instead of cascading a second panic out of every
//! subsequent reader. A panicking query thread therefore cannot wedge the
//! queries that follow it.

#[cfg(any(debug_assertions, feature = "lock-tracking"))]
use std::cell::RefCell;
#[cfg(any(debug_assertions, feature = "lock-tracking"))]
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
#[cfg(any(debug_assertions, feature = "lock-tracking"))]
use std::panic::Location;
#[cfg(any(debug_assertions, feature = "lock-tracking"))]
use std::sync::OnceLock;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Whether lock-order tracking is compiled into this build.
///
/// `true` under `debug_assertions` or the `lock-tracking` feature; release
/// bench builds must report `false` (the CI perf gate checks this through
/// the `throughput` bench's JSON output).
pub const LOCK_TRACKING: bool = cfg!(any(debug_assertions, feature = "lock-tracking"));

/// Static acquisition rank of a [`TrackedMutex`], outermost first.
///
/// See the [module docs](self) for the full table. Two locks of the same
/// rank are ordered by their `seq` (e.g. the shard index), so sibling locks
/// can be held together when taken in ascending `seq` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum LockRank {
    /// The backing page store — the outermost lock.
    Store = 0,
    /// A buffer-pool cache shard.
    Shard = 1,
    /// A side-cache shard.
    SideCache = 2,
    /// A work-distribution queue (bulk-load partitioning).
    WorkQueue = 3,
    /// A per-result output slot.
    ResultSlot = 4,
    /// The snapshot epoch-pin registry — the innermost lock, always
    /// acquired alone (pin/unpin/min-query are single short critical
    /// sections that never call back into any other subsystem).
    EpochRegistry = 5,
}

impl LockRank {
    fn as_u8(self) -> u8 {
        // lint: allow(cast-truncation) -- discriminants are 0..=5, the cast is lossless
        self as u8
    }
}

impl fmt::Display for LockRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LockRank::Store => "store",
            LockRank::Shard => "shard",
            LockRank::SideCache => "side-cache",
            LockRank::WorkQueue => "work-queue",
            LockRank::ResultSlot => "result-slot",
            LockRank::EpochRegistry => "epoch-registry",
        };
        f.write_str(name)
    }
}

/// Identity of a lock in panic messages and the global order graph.
///
/// Derived from the constructor arguments, not the allocation address, so
/// the graph's memory of an edge survives the locks being dropped and
/// re-created (allocator address reuse must not alias two different locks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LockKey {
    rank: u8,
    seq: u32,
    name: &'static str,
}

impl fmt::Display for LockKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{} (rank {})", self.name, self.seq, self.rank)
    }
}

#[cfg(any(debug_assertions, feature = "lock-tracking"))]
mod tracking {
    use super::{HashMap, Location, LockKey, Mutex, OnceLock, RefCell};

    /// One lock currently held by this thread.
    pub(super) struct Held {
        pub key: LockKey,
        pub site: &'static Location<'static>,
        /// Unique acquisition token: guards can be dropped out of
        /// acquisition order (e.g. a `Vec` of shard guards), so release
        /// removes by token instead of popping.
        pub token: u64,
    }

    thread_local! {
        pub(super) static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    /// First-seen acquisition sites for every nested pair `held → acquired`.
    type OrderGraph =
        HashMap<(LockKey, LockKey), (&'static Location<'static>, &'static Location<'static>)>;

    pub(super) fn graph() -> &'static Mutex<OrderGraph> {
        static GRAPH: OnceLock<Mutex<OrderGraph>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Rank check + order-graph update for acquiring `key` at `site`.
    ///
    /// Panics (the whole point) when `key` is not strictly above every lock
    /// this thread already holds, or when the global graph has already seen
    /// the opposite ordering of the same pair on any thread.
    pub(super) fn check_acquire(key: LockKey, site: &'static Location<'static>) {
        HELD.with(|held| {
            let held = held.borrow();
            for h in held.iter() {
                if (key.rank, key.seq) <= (h.key.rank, h.key.seq) {
                    // lint: allow(no-panic) -- the detector's contract is to panic on inversion
                    panic!(
                        "lock-order violation: acquiring {key} at {site} while \
                         holding {held_key} acquired at {held_site}; locks must be \
                         taken in strictly increasing (rank, seq) order",
                        held_key = h.key,
                        held_site = h.site,
                    );
                }
            }
            if let Some(innermost) = held.last() {
                // Feed the global order graph and fail on a previously seen
                // reverse edge — this catches inconsistent same-pair
                // orderings even when the ranks were (mis)declared equal in
                // some refactor and the two threads never actually collide.
                let mut graph = graph()
                    .lock()
                    .unwrap_or_else(super::PoisonError::into_inner);
                if let Some(&(rev_held_site, rev_acq_site)) = graph.get(&(key, innermost.key)) {
                    // lint: allow(no-panic) -- the detector's contract is to panic on a cycle
                    panic!(
                        "lock-order cycle: acquiring {key} at {site} while holding \
                         {held_key} (acquired at {held_site}), but the opposite \
                         order was recorded earlier: {key} held at {rev_held_site} \
                         while {held_key} was acquired at {rev_acq_site}",
                        held_key = innermost.key,
                        held_site = innermost.site,
                    );
                }
                graph
                    .entry((innermost.key, key))
                    .or_insert((innermost.site, site));
            }
        });
    }

    pub(super) fn record_acquire(key: LockKey, site: &'static Location<'static>) -> u64 {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        HELD.with(|held| held.borrow_mut().push(Held { key, site, token }));
        token
    }

    pub(super) fn record_release(token: u64) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| h.token == token) {
                held.remove(pos);
            }
        });
    }
}

/// A [`Mutex`] carrying a static [`LockRank`], checked on every acquisition
/// when lock tracking is compiled in (see [`LOCK_TRACKING`]).
///
/// [`TrackedMutex::lock`] returns the guard directly rather than a
/// [`Result`]: poisoning is recovered via [`PoisonError::into_inner`]
/// because every tracked lock in this workspace protects state that stays
/// valid across an unwinding panic (see the [module docs](self)).
pub struct TrackedMutex<T> {
    inner: Mutex<T>,
    key: LockKey,
}

impl<T> TrackedMutex<T> {
    /// Wraps `value` with acquisition rank `rank`.
    ///
    /// `seq` orders locks *within* a rank (shard index, slot index); pass 0
    /// for singletons. It is saturated to `u32::MAX` — ordering between
    /// sibling locks beyond four billion of them degrades to "equal", which
    /// the checker treats conservatively as a violation. `name` appears in
    /// lock-order panic messages.
    pub fn new(value: T, rank: LockRank, seq: usize, name: &'static str) -> Self {
        Self {
            inner: Mutex::new(value),
            key: LockKey {
                rank: rank.as_u8(),
                seq: u32::try_from(seq).unwrap_or(u32::MAX),
                name,
            },
        }
    }

    /// Acquires the lock, enforcing the rank discipline when tracking is
    /// compiled in and recovering from poison (see the type docs).
    ///
    /// # Panics
    /// Panics under [`LOCK_TRACKING`] if this acquisition inverts the lock
    /// hierarchy — the message names this site and the conflicting one.
    #[track_caller]
    pub fn lock(&self) -> TrackedGuard<'_, T> {
        #[cfg(any(debug_assertions, feature = "lock-tracking"))]
        let token = {
            let site = Location::caller();
            tracking::check_acquire(self.key, site);
            // Record only after the check passed *and* before blocking on
            // the OS mutex: a would-be deadlock still reports the correct
            // held set from the other thread's perspective.
            tracking::record_acquire(self.key, site)
        };
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        TrackedGuard {
            inner: Some(guard),
            #[cfg(any(debug_assertions, feature = "lock-tracking"))]
            token,
        }
    }

    /// Consumes the mutex and returns the protected value, recovering from
    /// poison.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The lock's rank/sequence/name identity, for diagnostics.
    fn describe(&self) -> LockKey {
        self.key
    }
}

impl<T: fmt::Debug> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("key", &self.describe())
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard returned by [`TrackedMutex::lock`]; releases the thread's
/// hierarchy slot on drop. Guards may be dropped in any order.
pub struct TrackedGuard<'a, T> {
    // `Option` so `TrackedCondvar::wait` can move the raw guard out without
    // running the release bookkeeping (the lock is re-acquired on wake).
    inner: Option<MutexGuard<'a, T>>,
    #[cfg(any(debug_assertions, feature = "lock-tracking"))]
    token: u64,
}

impl<T> Deref for TrackedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .unwrap_or_else(|| unreachable!("guard taken only by TrackedCondvar::wait"))
    }
}

impl<T> DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .unwrap_or_else(|| unreachable!("guard taken only by TrackedCondvar::wait"))
    }
}

impl<T> Drop for TrackedGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(any(debug_assertions, feature = "lock-tracking"))]
        if self.inner.is_some() {
            tracking::record_release(self.token);
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for TrackedGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TrackedGuard").field(&self.inner).finish()
    }
}

/// Companion condition variable for [`TrackedMutex`].
///
/// While a thread is parked in [`TrackedCondvar::wait`] the mutex is
/// released by the OS but the thread's hierarchy slot is deliberately kept:
/// on wake the lock is re-acquired at the same position, and a parked
/// thread acquires nothing else in between, so the conservative accounting
/// can never produce a false pass.
#[derive(Debug, Default)]
pub struct TrackedCondvar {
    inner: Condvar,
}

impl TrackedCondvar {
    /// A fresh condition variable.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks until notified, atomically releasing and re-acquiring the
    /// tracked lock; recovers from poison exactly like
    /// [`TrackedMutex::lock`].
    pub fn wait<'a, T>(&self, mut guard: TrackedGuard<'a, T>) -> TrackedGuard<'a, T> {
        let raw = guard
            .inner
            .take()
            .unwrap_or_else(|| unreachable!("wait consumes a live guard"));
        #[cfg(any(debug_assertions, feature = "lock-tracking"))]
        let token = guard.token;
        // `guard.inner` is now `None`, so dropping it releases nothing and
        // keeps the hierarchy slot for the re-acquired lock below. The
        // workspace denies mem_forget; this is the one sanctioned use.
        #[allow(clippy::mem_forget)]
        std::mem::forget(guard);
        let raw = self.inner.wait(raw).unwrap_or_else(PoisonError::into_inner);
        TrackedGuard {
            inner: Some(raw),
            #[cfg(any(debug_assertions, feature = "lock-tracking"))]
            token,
        }
    }

    /// Wakes one waiter ([`Condvar::notify_one`]).
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter ([`Condvar::notify_all`]).
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Refcounted registry of *pinned* commit epochs, backing snapshot-isolated
/// (MVCC) reads.
///
/// A reader pins the epoch it wants to observe with [`EpochRegistry::pin`];
/// the writer consults [`EpochRegistry::min_pinned`] before reusing pages
/// freed at a later epoch. The registry only gates reuse: the writer never
/// overwrites a committed page in the first place (it shadow-pages every
/// mutation), pins or no pins. Pin and unpin counts must balance: a leaked
/// pin permanently parks every page freed after its epoch.
///
/// The interior map is guarded by a [`TrackedMutex`] at
/// [`LockRank::EpochRegistry`], the innermost rank — every operation here
/// is a short, self-contained critical section that acquires nothing else,
/// so it can be called while any other workspace lock is held.
#[derive(Debug)]
pub struct EpochRegistry {
    /// epoch → number of live pins at that epoch.
    pins: TrackedMutex<std::collections::BTreeMap<u64, u64>>,
    /// Total live pins across all epochs, readable without the lock.
    total: std::sync::atomic::AtomicU64,
}

impl Default for EpochRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochRegistry {
    /// An empty registry (no pinned epochs).
    #[must_use]
    pub fn new() -> Self {
        Self {
            pins: TrackedMutex::new(
                std::collections::BTreeMap::new(),
                LockRank::EpochRegistry,
                0,
                "epoch-registry",
            ),
            total: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Records one additional pin of `epoch`.
    pub fn pin(&self, epoch: u64) {
        let mut pins = self.pins.lock();
        *pins.entry(epoch).or_insert(0) += 1;
        // Published while the lock is held so `pinned_count` can never
        // report no pins after a pin that `min_pinned` would still see.
        self.total
            .fetch_add(1, std::sync::atomic::Ordering::Release);
    }

    /// Releases one pin of `epoch`. Unpinning an epoch that holds no pins
    /// is a no-op (never a panic): the registry is shared infrastructure
    /// and a destructor must not take down an unrelated reader.
    pub fn unpin(&self, epoch: u64) {
        let mut pins = self.pins.lock();
        if let Some(n) = pins.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&epoch);
            }
            self.total
                .fetch_sub(1, std::sync::atomic::Ordering::Release);
        }
    }

    /// The smallest currently pinned epoch, or `None` when nothing is
    /// pinned. Pages freed while building epoch `C` may be reused once
    /// `min_pinned()` is `None` or `>= C`.
    #[must_use]
    pub fn min_pinned(&self) -> Option<u64> {
        self.pins.lock().keys().next().copied()
    }

    /// Total number of live pins across all epochs (lock-free).
    #[must_use]
    pub fn pinned_count(&self) -> u64 {
        self.total.load(std::sync::atomic::Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_lock() -> TrackedMutex<u32> {
        TrackedMutex::new(0, LockRank::Store, 0, "test-store")
    }

    fn shard_lock(seq: usize) -> TrackedMutex<u32> {
        TrackedMutex::new(0, LockRank::Shard, seq, "test-shard")
    }

    #[test]
    fn in_order_acquisition_is_fine() {
        let store = store_lock();
        let s0 = shard_lock(0);
        let s1 = shard_lock(1);
        let g0 = store.lock();
        let g1 = s0.lock();
        let g2 = s1.lock();
        assert_eq!(*g0 + *g1 + *g2, 0);
    }

    #[test]
    fn guards_can_be_dropped_out_of_order() {
        let store = store_lock();
        let shard = shard_lock(0);
        let g_store = store.lock();
        let g_shard = shard.lock();
        drop(g_store); // release the outer lock first
        drop(g_shard);
        // The stack is clean again: a fresh in-order pass must succeed.
        let _g = store.lock();
        let _h = shard.lock();
    }

    #[test]
    fn reacquire_after_release_is_fine() {
        let shard = shard_lock(3);
        drop(shard.lock());
        drop(shard.lock());
    }

    #[cfg(any(debug_assertions, feature = "lock-tracking"))]
    mod tracking_on {
        use super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        fn panic_message(f: impl FnOnce()) -> String {
            let err = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
            err.downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default()
        }

        #[test]
        fn shard_then_store_inversion_panics_naming_both_sites() {
            let store = store_lock();
            let shard = shard_lock(0);
            let msg = panic_message(|| {
                let _shard_first = shard.lock();
                let _then_store = store.lock(); // rank 0 after rank 1: inversion
            });
            assert!(msg.contains("lock-order violation"), "got: {msg}");
            assert!(msg.contains("test-store"), "got: {msg}");
            assert!(msg.contains("test-shard"), "got: {msg}");
            // Both *sites* are named: the message carries two file:line refs.
            assert_eq!(msg.matches("sync.rs").count(), 2, "got: {msg}");
        }

        #[test]
        fn same_rank_descending_seq_panics() {
            let s0 = shard_lock(0);
            let s5 = shard_lock(5);
            let msg = panic_message(|| {
                let _hi = s5.lock();
                let _lo = s0.lock();
            });
            assert!(msg.contains("lock-order violation"), "got: {msg}");
        }

        #[test]
        fn self_reentry_panics_instead_of_deadlocking() {
            let q = TrackedMutex::new(0u32, LockRank::WorkQueue, 0, "test-queue");
            let msg = panic_message(|| {
                let _a = q.lock();
                let _b = q.lock();
            });
            assert!(msg.contains("lock-order violation"), "got: {msg}");
        }

        #[test]
        fn violation_unwinding_leaves_a_clean_stack() {
            let store = store_lock();
            let shard = shard_lock(0);
            let _ = panic_message(|| {
                let _s = shard.lock();
                let _t = store.lock();
            });
            // The panicking acquisition was never recorded and the shard
            // guard was dropped during unwinding: in-order use still works.
            let _g = store.lock();
            let _h = shard.lock();
        }
    }

    #[test]
    fn epoch_registry_tracks_pins_and_minimum() {
        let reg = EpochRegistry::new();
        assert_eq!(reg.pinned_count(), 0);
        assert_eq!(reg.min_pinned(), None);
        reg.pin(5);
        reg.pin(3);
        reg.pin(3);
        assert_eq!(reg.pinned_count(), 3);
        assert_eq!(reg.min_pinned(), Some(3));
        reg.unpin(3);
        assert_eq!(reg.min_pinned(), Some(3), "one pin of epoch 3 remains");
        reg.unpin(3);
        assert_eq!(reg.min_pinned(), Some(5));
        reg.unpin(5);
        assert_eq!(reg.pinned_count(), 0);
        // Unbalanced unpin is a no-op, not a panic.
        reg.unpin(99);
        assert_eq!(reg.pinned_count(), 0);
    }

    #[test]
    fn epoch_registry_is_innermost() {
        // Pinning while holding any other workspace lock must be legal:
        // the registry's rank is strictly above every other rank.
        let reg = EpochRegistry::new();
        let slot = TrackedMutex::new(0u32, LockRank::ResultSlot, 0, "test-slot");
        let store = store_lock();
        let _gs = store.lock();
        let _gr = slot.lock();
        reg.pin(1);
        assert_eq!(reg.min_pinned(), Some(1));
        reg.unpin(1);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = std::sync::Arc::new(TrackedMutex::new(
            7u32,
            LockRank::SideCache,
            0,
            "test-cache",
        ));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*m.lock(), 7, "poison must not cascade");
        let m = std::sync::Arc::try_unwrap(m).expect("thread joined, sole owner");
        assert_eq!(m.into_inner(), 7, "into_inner recovers from poison too");
    }

    #[test]
    fn condvar_roundtrip_keeps_tracking_consistent() {
        use std::sync::Arc;
        let pair = Arc::new((
            TrackedMutex::new(false, LockRank::WorkQueue, 1, "test-cv-queue"),
            TrackedCondvar::new(),
        ));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                ready = cv.wait(ready);
            }
            drop(ready);
            // After the wait the stack must be balanced: an innermost lock
            // is still acquirable.
            let slot = TrackedMutex::new(1u32, LockRank::ResultSlot, 0, "test-cv-slot");
            assert_eq!(*slot.lock(), 1);
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        waiter.join().expect("waiter must not panic");
    }
}
