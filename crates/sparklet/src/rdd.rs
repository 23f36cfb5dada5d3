//! The runtime RDD graph: one node per RDD *instance* created while the
//! driver program executes.
//!
//! Unlike the program IR — where `ranks` is a single variable — the runtime
//! graph gets a fresh node every time a binding re-executes in a loop,
//! which is exactly the instance churn Panthera's analysis reasons about
//! (each iteration's old instance is left cached and unused).

use crate::records::Records;
use mheap::ObjId;
use sparklang::ast::{MemoryTag, StorageLevel, Transform};
use std::fmt;

/// Identity of a runtime RDD instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RddId(pub u32);

impl fmt::Display for RddId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rdd[{}]", self.0)
    }
}

/// How a runtime RDD is produced.
#[derive(Debug, Clone, PartialEq)]
pub enum RddOp {
    /// An input source, resolved by name in the data registry.
    Source(String),
    /// A transformation over parent instances. Wide transforms make this
    /// node a `ShuffledRDD`-style stage input when it materializes.
    Transformed {
        /// The transformation.
        transform: Transform,
        /// Parent instances.
        parents: Vec<RddId>,
    },
}

/// Heap anchorage of a materialized RDD: the top object and one backbone
/// array per partition (Figure 1 of the paper). The tuples hang off the
/// arrays' refs.
#[derive(Debug, Clone, PartialEq)]
pub struct MatData {
    /// The `org.apache.spark.rdd.RDD` top object.
    pub top: ObjId,
    /// The partitions' backbone arrays, in partition order. For serialized
    /// storage levels these are the compact byte buffers themselves.
    pub arrays: Vec<ObjId>,
    /// The records the RDD was materialized from, in partition order, and
    /// their only copy: the heap's tuples hold their sizes, not the
    /// records. A read charges the heap objects above and hands out this
    /// vector.
    pub records: Records,
    /// Stored in serialized form (`*_SER` levels): reads must deserialize.
    pub serialized: bool,
}

/// One runtime RDD instance.
#[derive(Debug, Clone)]
pub struct RddNode {
    /// This node's id.
    pub id: RddId,
    /// Producing operation.
    pub op: RddOp,
    /// The variable name it was last bound to, for reports.
    pub label: Option<String>,
    /// Storage level, if `persist` was called on it.
    pub persisted: Option<StorageLevel>,
    /// The memory tag the runtime knows: from instrumented `rdd_alloc`
    /// calls or from lineage back-propagation. DRAM wins merges.
    pub tag: Option<MemoryTag>,
    /// Heap objects, once materialized.
    pub materialized: Option<MatData>,
    /// `checkpoint()` was called on this instance: snapshot it to durable
    /// NVM storage when it next materializes (cluster mode only).
    pub checkpointed: bool,
}

impl RddNode {
    /// Create an unmaterialized node.
    pub fn new(id: RddId, op: RddOp) -> Self {
        RddNode {
            id,
            op,
            label: None,
            persisted: None,
            tag: None,
            materialized: None,
            checkpointed: false,
        }
    }

    /// Merge a tag into the node (DRAM wins conflicts).
    pub fn merge_tag(&mut self, tag: MemoryTag) {
        self.tag = Some(match self.tag {
            Some(existing) => existing.max(tag),
            None => tag,
        });
    }

    /// Parent instances, if any.
    pub fn parents(&self) -> &[RddId] {
        match &self.op {
            RddOp::Source(_) => &[],
            RddOp::Transformed { parents, .. } => parents,
        }
    }

    /// Is this node the output of a wide transformation (a shuffle)?
    pub fn is_wide(&self) -> bool {
        matches!(&self.op, RddOp::Transformed { transform, .. } if transform.is_wide())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparklang::ast::MemoryTag;

    #[test]
    fn tag_merging_prefers_dram() {
        let mut n = RddNode::new(RddId(0), RddOp::Source("x".into()));
        assert_eq!(n.tag, None);
        n.merge_tag(MemoryTag::Nvm);
        assert_eq!(n.tag, Some(MemoryTag::Nvm));
        n.merge_tag(MemoryTag::Dram);
        assert_eq!(n.tag, Some(MemoryTag::Dram));
        n.merge_tag(MemoryTag::Nvm);
        assert_eq!(n.tag, Some(MemoryTag::Dram), "DRAM sticks");
    }

    #[test]
    fn wideness_tracks_transform() {
        let src = RddNode::new(RddId(0), RddOp::Source("x".into()));
        assert!(!src.is_wide());
        assert!(src.parents().is_empty());
        let shuffled = RddNode::new(
            RddId(1),
            RddOp::Transformed {
                transform: Transform::GroupByKey,
                parents: vec![RddId(0)],
            },
        );
        assert!(shuffled.is_wide());
        assert_eq!(shuffled.parents(), &[RddId(0)]);
    }
}
