//! Input sources: named, pre-generated datasets standing in for
//! `ctx.textFile(...)` over HDFS — one executor's [`DataRegistry`], and the
//! packed [`SharedInput`] every executor of a cluster reads instead.

use crate::records::Records;
use mheap::{Payload, WireBatch};
use std::cell::LazyCell;
use std::collections::HashMap;
use std::rc::Rc;

/// What makes a registered dataset's records, on first read.
type Generator = Box<dyn FnOnce() -> Records>;

/// One registered dataset: generated and sized on first read, shared by
/// the registry's clones.
type Source = Rc<LazyCell<Records, Generator>>;

/// Registry of named input datasets.
///
/// Datasets are stored as shared [`Records`] so the engine can hold a
/// source RDD's records, and their sizes, without copying the vector or
/// walking it again every time a lineage re-computation re-reads the
/// input. A dataset registered with [`DataRegistry::register_with`] is
/// generated and sized on its first read, once for the registry and all
/// its clones, and never if nothing reads it.
#[derive(Debug, Clone, Default)]
pub struct DataRegistry {
    sources: HashMap<String, Source>,
}

impl DataRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a dataset under `name`, replacing any previous one.
    pub fn register(&mut self, name: &str, records: Vec<Payload>) {
        self.register_with(name, move || records);
    }

    /// Register the dataset `gen` makes under `name`, replacing any
    /// previous one. `gen` runs on the first read of `name`, if any.
    pub fn register_with(&mut self, name: &str, gen: impl FnOnce() -> Vec<Payload> + 'static) {
        let gen: Generator = Box::new(move || Records::measure(gen()));
        self.sources
            .insert(name.to_string(), Rc::new(LazyCell::new(gen)));
    }

    /// Whether a dataset is registered under `name` (generates nothing).
    pub fn contains(&self, name: &str) -> bool {
        self.sources.contains_key(name)
    }

    /// The records of `name`.
    ///
    /// # Panics
    ///
    /// Panics if no dataset was registered under `name` — a mis-wired
    /// workload, not a runtime condition.
    pub fn records(&self, name: &str) -> &[Payload] {
        self.records_shared_ref(name)
    }

    /// The records of `name` with their sizes, shared (no copy).
    ///
    /// # Panics
    ///
    /// Panics if no dataset was registered under `name`.
    pub fn records_shared(&self, name: &str) -> Records {
        self.records_shared_ref(name).clone()
    }

    fn records_shared_ref(&self, name: &str) -> &Records {
        LazyCell::force(
            self.sources
                .get(name)
                .unwrap_or_else(|| panic!("no dataset registered under {name:?}")),
        )
    }

    /// Total modelled bytes of a dataset.
    pub fn bytes(&self, name: &str) -> u64 {
        self.records_shared_ref(name).bytes()
    }

    /// Registered dataset names (sorted).
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.sources.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

/// A cluster run's input: every dataset of one [`DataRegistry`], packed
/// into one [`WireBatch`] each. It is `Send` and read-only, so the cluster
/// driver builds it once and every executor incarnation, restarts
/// included, decodes just the partitions it owns out of the same copy.
#[derive(Debug)]
pub struct SharedInput {
    sources: HashMap<String, WireBatch>,
}

impl SharedInput {
    /// Pack every dataset of `data`, generating the ones not yet read.
    pub fn pack(data: &DataRegistry) -> SharedInput {
        SharedInput {
            sources: (data.names().into_iter())
                .map(|name| (name.to_string(), WireBatch::encode(data.records(name))))
                .collect(),
        }
    }

    /// The packed records of `name`.
    ///
    /// # Panics
    ///
    /// Panics if the packed registry had no dataset under `name`.
    pub fn source(&self, name: &str) -> &WireBatch {
        self.sources
            .get(name)
            .unwrap_or_else(|| panic!("no dataset registered under {name:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn register_and_fetch() {
        let mut r = DataRegistry::new();
        r.register("edges", vec![Payload::keyed(1, Payload::Long(2))]);
        assert_eq!(r.records("edges").len(), 1);
        assert_eq!(r.bytes("edges"), 32);
        assert_eq!(r.names(), vec!["edges"]);
    }

    #[test]
    #[should_panic(expected = "no dataset registered")]
    fn missing_dataset_panics() {
        DataRegistry::new().records("nope");
    }

    #[test]
    fn a_lazy_dataset_is_generated_once_on_first_read_and_shared_by_clones() {
        let runs = Rc::new(Cell::new(0));
        let mut r = DataRegistry::new();
        let counted = Rc::clone(&runs);
        r.register_with("nums", move || {
            counted.set(counted.get() + 1);
            (0..3).map(Payload::Long).collect()
        });
        let copy = r.clone();
        assert_eq!(r.names(), vec!["nums"]);
        assert_eq!(runs.get(), 0, "naming a dataset does not generate it");
        assert_eq!(copy.records("nums").len(), 3);
        assert!(Records::ptr_eq(
            &r.records_shared("nums"),
            &copy.records_shared("nums")
        ));
        assert_eq!(runs.get(), 1);
        drop((r, copy));
        let mut unread = DataRegistry::new();
        unread.register_with("never", || panic!("generated without a read"));
        drop(unread);
    }

    #[test]
    fn shared_input_packs_every_dataset_in_order() {
        let mut r = DataRegistry::new();
        r.register("a", (0..5).map(Payload::Long).collect());
        r.register_with("b", Vec::new);
        let input = SharedInput::pack(&r);
        let a: Vec<Payload> = input.source("a").payloads().collect();
        assert_eq!(a.as_slice(), r.records("a"));
        assert!(input.source("b").is_empty());
    }
}
