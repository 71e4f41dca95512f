//! The forest's in-memory write buffer.
//!
//! A sorted map from object id to the *latest* mutation: `Some(pfv)` for
//! an upsert, `None` for a tombstone. Values are quantised at insert
//! time (when the forest's leaf format calls for it), so the density a
//! memtable entry contributes to a query is bit-identical to what the
//! same entry contributes after it is flushed into a component tree.
//!
//! The map sits behind an [`Arc`] so a forest snapshot pins it with one
//! reference-count bump instead of a copy. Writes go through
//! [`Arc::make_mut`]: while no snapshot shares the map they mutate it in
//! place, and the first write after a pin that is still alive copies the
//! map once, leaving the pinned image untouched. A flush installs a fresh
//! map rather than clearing the shared one.

use pfv::Pfv;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The memtable's records: id → latest mutation (`None` is a tombstone).
pub(crate) type Records = BTreeMap<u64, Option<Pfv>>;

/// Latest per-id mutation buffered in memory. `None` is a tombstone.
#[derive(Debug, Clone, Default)]
pub(crate) struct Memtable {
    records: Arc<Records>,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered records, tombstones included — this is what
    /// the flush threshold compares against.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the buffer holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records a mutation, returning the previous one for the same id.
    /// Copies the map first if a snapshot still shares it.
    pub fn put(&mut self, id: u64, value: Option<Pfv>) -> Option<Option<Pfv>> {
        Arc::make_mut(&mut self.records).insert(id, value)
    }

    /// The buffered mutation for `id`: `None` (nothing buffered),
    /// `Some(None)` (tombstone) or `Some(Some(_))` (live value).
    pub fn get(&self, id: u64) -> Option<&Option<Pfv>> {
        self.records.get(&id)
    }

    /// Live entries in ascending id order — the flush input.
    pub fn live_entries(&self) -> Vec<(u64, Pfv)> {
        self.records
            .iter()
            .filter_map(|(id, v)| v.as_ref().map(|p| (*id, p.clone())))
            .collect()
    }

    /// Ids with a buffered tombstone, ascending.
    pub fn tombstones(&self) -> Vec<u64> {
        self.records
            .iter()
            .filter_map(|(id, v)| v.is_none().then_some(*id))
            .collect()
    }

    /// A shared handle on the current records — what a snapshot pins.
    pub fn shared(&self) -> Arc<Records> {
        Arc::clone(&self.records)
    }

    /// Drops every buffered record, e.g. after a flush. Installs a fresh
    /// map, so snapshots sharing the old one keep it.
    pub fn clear(&mut self) {
        self.records = Arc::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(mu: f64) -> Pfv {
        Pfv::new(vec![mu], vec![1.0]).unwrap()
    }

    #[test]
    fn latest_mutation_wins() {
        let mut m = Memtable::new();
        assert!(m.is_empty());
        m.put(1, Some(v(1.0)));
        m.put(2, None);
        m.put(1, None);
        m.put(3, Some(v(3.0)));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(1), Some(&None));
        assert!(m.get(9).is_none());
        assert_eq!(m.live_entries().len(), 1);
        assert_eq!(m.live_entries()[0].0, 3);
        assert_eq!(m.tombstones(), vec![1, 2]);
        assert_eq!(
            m.shared().keys().copied().collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        m.clear();
        assert!(m.is_empty());
    }
}
