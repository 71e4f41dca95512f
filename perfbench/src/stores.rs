//! Counting, tracing wrappers around the storage layer's public traits.
//!
//! [`TracedStore`] implements [`PageStore`] over any store (the benchmark
//! wraps `FileStore`), and [`TracedComponents`] implements
//! [`ComponentStores`] over any backend (the benchmark wraps
//! `DirComponentStores`, so every component store it hands out is itself a
//! [`TracedStore`]). Both forward every call unchanged, count calls and
//! bytes in shared [`IoCounters`] (always on: the end-to-end `write_amp`
//! uses them), and open a `storage.store.*` / `storage.forest.*` span
//! around the call, which the enclosing layer span records as a child.

use crate::trace;
use gauss_storage::forest::ComponentStores;
use gauss_storage::{Durability, PageId, PageStore, StoreError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Span names recorded by the wrappers.
pub const READ: &str = "storage.store.read";
/// Page writes (single pages and coalesced runs).
pub const WRITE: &str = "storage.store.write";
/// Durability barriers.
pub const SYNC: &str = "storage.store.sync";
/// Page allocations (zero-extension of the file).
pub const ALLOC: &str = "storage.store.alloc";
/// Component store creation.
pub const CREATE: &str = "storage.forest.create";
/// Component removal.
pub const REMOVE: &str = "storage.forest.remove";
/// Manifest slot write.
pub const MANIFEST_WRITE: &str = "storage.forest.manifest_write";
/// Manifest barrier.
pub const MANIFEST_SYNC: &str = "storage.forest.manifest_sync";

/// Call and byte counters shared by every wrapper of one workload.
#[derive(Debug, Default)]
pub struct IoCounters {
    reads: AtomicU64,
    read_bytes: AtomicU64,
    write_calls: AtomicU64,
    write_pages: AtomicU64,
    write_bytes: AtomicU64,
    syncs: AtomicU64,
    allocs: AtomicU64,
    components_created: AtomicU64,
    components_removed: AtomicU64,
    manifest_writes: AtomicU64,
    manifest_bytes: AtomicU64,
    manifest_syncs: AtomicU64,
}

/// Point-in-time copy of [`IoCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// `read_page` calls.
    pub reads: u64,
    /// Bytes read through `read_page`.
    pub read_bytes: u64,
    /// `write_page` / `write_pages` calls.
    pub write_calls: u64,
    /// Pages handed to those calls.
    pub write_pages: u64,
    /// Bytes handed to those calls.
    pub write_bytes: u64,
    /// `sync` calls that asked for a real barrier (not `Durability::None`).
    pub syncs: u64,
    /// Pages allocated.
    pub allocs: u64,
    /// Component stores created.
    pub components_created: u64,
    /// Component stores removed.
    pub components_removed: u64,
    /// Manifest slot writes.
    pub manifest_writes: u64,
    /// Bytes written to manifest slots.
    pub manifest_bytes: u64,
    /// Manifest barriers.
    pub manifest_syncs: u64,
}

impl IoSnapshot {
    /// Counter-wise `self − earlier`.
    #[must_use]
    pub fn since(&self, e: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - e.reads,
            read_bytes: self.read_bytes - e.read_bytes,
            write_calls: self.write_calls - e.write_calls,
            write_pages: self.write_pages - e.write_pages,
            write_bytes: self.write_bytes - e.write_bytes,
            syncs: self.syncs - e.syncs,
            allocs: self.allocs - e.allocs,
            components_created: self.components_created - e.components_created,
            components_removed: self.components_removed - e.components_removed,
            manifest_writes: self.manifest_writes - e.manifest_writes,
            manifest_bytes: self.manifest_bytes - e.manifest_bytes,
            manifest_syncs: self.manifest_syncs - e.manifest_syncs,
        }
    }
}

fn bump(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

impl IoCounters {
    /// A fresh shareable counter set.
    #[must_use]
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Current values.
    #[must_use]
    pub fn snapshot(&self) -> IoSnapshot {
        let l = |c: &AtomicU64| c.load(Ordering::Relaxed);
        IoSnapshot {
            reads: l(&self.reads),
            read_bytes: l(&self.read_bytes),
            write_calls: l(&self.write_calls),
            write_pages: l(&self.write_pages),
            write_bytes: l(&self.write_bytes),
            syncs: l(&self.syncs),
            allocs: l(&self.allocs),
            components_created: l(&self.components_created),
            components_removed: l(&self.components_removed),
            manifest_writes: l(&self.manifest_writes),
            manifest_bytes: l(&self.manifest_bytes),
            manifest_syncs: l(&self.manifest_syncs),
        }
    }
}

/// A [`PageStore`] that forwards to `inner` and records every call.
#[derive(Debug)]
pub struct TracedStore<S> {
    inner: S,
    io: Arc<IoCounters>,
}

impl<S: PageStore> TracedStore<S> {
    /// Wraps `inner`, counting into `io`.
    pub fn new(inner: S, io: Arc<IoCounters>) -> Self {
        Self { inner, io }
    }
}

impl<S: PageStore> PageStore for TracedStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn allocate(&mut self) -> Result<PageId, StoreError> {
        let _s = trace::span(ALLOC);
        bump(&self.io.allocs, 1);
        self.inner.allocate()
    }

    fn allocate_many(&mut self, n: u64) -> Result<PageId, StoreError> {
        let _s = trace::span(ALLOC);
        bump(&self.io.allocs, n);
        self.inner.allocate_many(n)
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StoreError> {
        let _s = trace::span(READ);
        bump(&self.io.reads, 1);
        bump(&self.io.read_bytes, buf.len() as u64);
        self.inner.read_page(id, buf)
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<(), StoreError> {
        let _s = trace::span(WRITE);
        bump(&self.io.write_calls, 1);
        bump(&self.io.write_pages, 1);
        bump(&self.io.write_bytes, buf.len() as u64);
        self.inner.write_page(id, buf)
    }

    fn write_pages(&mut self, first: PageId, pages: &[&[u8]]) -> Result<(), StoreError> {
        let _s = trace::span(WRITE);
        bump(&self.io.write_calls, 1);
        bump(&self.io.write_pages, pages.len() as u64);
        bump(
            &self.io.write_bytes,
            pages.iter().map(|p| p.len() as u64).sum(),
        );
        self.inner.write_pages(first, pages)
    }

    fn sync(&mut self, durability: Durability) -> Result<(), StoreError> {
        let _s = trace::span(SYNC);
        if durability != Durability::None {
            bump(&self.io.syncs, 1);
        }
        self.inner.sync(durability)
    }
}

/// A [`ComponentStores`] backend that forwards to `inner`, wraps every
/// component store in a [`TracedStore`], and records every call.
#[derive(Debug, Clone)]
pub struct TracedComponents<B> {
    inner: B,
    io: Arc<IoCounters>,
}

impl<B: ComponentStores> TracedComponents<B> {
    /// Wraps `inner`, counting into `io`.
    pub fn new(inner: B, io: Arc<IoCounters>) -> Self {
        Self { inner, io }
    }
}

impl<B: ComponentStores> ComponentStores for TracedComponents<B> {
    type Store = TracedStore<B::Store>;

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn create_component(&self, id: u64) -> Result<Self::Store, StoreError> {
        let _s = trace::span(CREATE);
        bump(&self.io.components_created, 1);
        let store = self.inner.create_component(id)?;
        Ok(TracedStore::new(store, Arc::clone(&self.io)))
    }

    fn open_component(&self, id: u64) -> Result<Self::Store, StoreError> {
        let store = self.inner.open_component(id)?;
        Ok(TracedStore::new(store, Arc::clone(&self.io)))
    }

    fn remove_component(&self, id: u64) -> Result<(), StoreError> {
        let _s = trace::span(REMOVE);
        bump(&self.io.components_removed, 1);
        self.inner.remove_component(id)
    }

    fn list_components(&self) -> Result<Vec<u64>, StoreError> {
        self.inner.list_components()
    }

    fn read_manifest_slot(&self, slot: usize) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read_manifest_slot(slot)
    }

    fn write_manifest_slot(&self, slot: usize, bytes: &[u8]) -> Result<(), StoreError> {
        let _s = trace::span(MANIFEST_WRITE);
        bump(&self.io.manifest_writes, 1);
        bump(&self.io.manifest_bytes, bytes.len() as u64);
        self.inner.write_manifest_slot(slot, bytes)
    }

    fn sync_manifest(&self, durability: Durability) -> Result<(), StoreError> {
        let _s = trace::span(MANIFEST_SYNC);
        if durability != Durability::None {
            bump(&self.io.manifest_syncs, 1);
        }
        self.inner.sync_manifest(durability)
    }
}
