//! InfiniBand-style local identifier (LID) space with LID mask control (LMC).
//!
//! IB switches forward by *destination LID*. Each HCA port owns a base LID
//! plus `2^LMC - 1` consecutive extra LIDs; the subnet manager computes
//! forwarding entries for every LID as if it were a distinct endpoint, which
//! is the multi-pathing mechanism PARX builds on (paper Section 3.2.1).

use hxtopo::hyperx::Quadrant;
use hxtopo::{NodeId, Topology};

/// A local identifier. LID 0 is reserved (invalid), as in InfiniBand.
pub type Lid = u32;

/// LIDs per quadrant under [`LidPolicy::QuadrantBlocks`].
const QUADRANT_BLOCK: Lid = 1000;

/// How LIDs are laid out over the nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LidPolicy {
    /// Dense sequential assignment: node `i` owns LIDs
    /// `1 + i*2^lmc .. 1 + (i+1)*2^lmc`.
    Sequential,
    /// The paper's PARX artifact policy for 2-D HyperX systems: nodes in
    /// quadrant `q` own LIDs in `[q*1000, (q+1)*1000)`, so the messaging
    /// layer can recover the quadrant as `q = lid / 1000` (paper footnote 9).
    QuadrantBlocks,
}

/// Mapping between nodes and their LID ranges.
#[derive(Debug, Clone)]
pub struct LidMap {
    /// LID mask control: each node owns `2^lmc` LIDs.
    pub lmc: u8,
    policy: LidPolicy,
    /// Base LID per node.
    base: Vec<Lid>,
    /// Owner node per LID (dense over the LID space), `u32::MAX` = unowned.
    owner: Vec<u32>,
}

impl LidMap {
    /// Builds a LID map for a topology.
    ///
    /// `QuadrantBlocks` requires a 2-D even-dimension HyperX topology and at
    /// most 1000 LIDs worth of nodes per quadrant.
    pub fn new(topo: &Topology, lmc: u8, policy: LidPolicy) -> LidMap {
        assert!(lmc <= 7, "IB allows LMC up to 7");
        let per_node = 1u32 << lmc;
        let n = topo.num_nodes();
        let mut base = vec![0u32; n];
        match policy {
            LidPolicy::Sequential => {
                for (i, b) in base.iter_mut().enumerate() {
                    *b = 1 + (i as u32) * per_node;
                }
            }
            LidPolicy::QuadrantBlocks => {
                let hx = topo
                    .meta
                    .as_hyperx()
                    .expect("QuadrantBlocks requires a HyperX topology");
                let mut next = [0u32; 4]; // next free slot per quadrant
                for node in topo.nodes() {
                    let q = hx
                        .quadrant(topo.node_switch(node).0)
                        .expect("QuadrantBlocks requires a 2-D even-extent HyperX")
                        .index();
                    let lid = q as u32 * QUADRANT_BLOCK
                        + next[q] * per_node
                        + if q == 0 { per_node } else { 0 };
                    // Quadrant 0 starts at LID per_node to keep LID 0 reserved.
                    assert!(
                        lid + per_node <= (q as u32 + 1) * QUADRANT_BLOCK,
                        "quadrant {q} LID block overflow"
                    );
                    base[node.idx()] = lid;
                    next[q] += 1;
                }
            }
        }
        let max_lid = base.iter().map(|&b| b + per_node).max().unwrap_or(1);
        let mut owner = vec![u32::MAX; max_lid as usize];
        for (i, &b) in base.iter().enumerate() {
            for x in 0..per_node {
                owner[(b + x) as usize] = i as u32;
            }
        }
        LidMap {
            lmc,
            policy,
            base,
            owner,
        }
    }

    /// Number of LIDs each node owns.
    #[inline]
    pub fn lids_per_node(&self) -> u32 {
        1 << self.lmc
    }

    /// Size of the LID space (exclusive upper bound on valid LIDs).
    #[inline]
    pub fn lid_space(&self) -> usize {
        self.owner.len()
    }

    /// Base LID of a node.
    #[inline]
    pub fn base(&self, n: NodeId) -> Lid {
        self.base[n.idx()]
    }

    /// The `x`-th LID of a node (`x < 2^lmc`).
    #[inline]
    pub fn lid(&self, n: NodeId, x: u32) -> Lid {
        debug_assert!(x < self.lids_per_node());
        self.base[n.idx()] + x
    }

    /// Owner of a LID, if any.
    #[inline]
    pub fn owner(&self, lid: Lid) -> Option<NodeId> {
        self.owner
            .get(lid as usize)
            .and_then(|&o| (o != u32::MAX).then_some(NodeId(o)))
    }

    /// LID index (`0..2^lmc`) of a LID within its owner's block.
    #[inline]
    pub fn lid_index(&self, lid: Lid) -> Option<u32> {
        let n = self.owner(lid)?;
        Some(lid - self.base[n.idx()])
    }

    /// All valid destination LIDs with their owners.
    pub fn lids(&self) -> impl Iterator<Item = (Lid, NodeId)> + '_ {
        self.owner
            .iter()
            .enumerate()
            .filter_map(|(l, &o)| (o != u32::MAX).then_some((l as Lid, NodeId(o))))
    }

    /// Recovers a quadrant from a LID under the [`LidPolicy::QuadrantBlocks`]
    /// policy (`q = lid / 1000`), as the paper's modified bfo PML does.
    pub fn quadrant_of_lid(&self, lid: Lid) -> Option<Quadrant> {
        if self.policy != LidPolicy::QuadrantBlocks {
            return None;
        }
        let q = Quadrant::try_from((lid / QUADRANT_BLOCK) as usize).ok()?;
        self.owner(lid).is_some().then_some(q)
    }

    /// True when every quadrant's nodes fit its [`QUADRANT_BLOCK`] at
    /// `2^lmc` LIDs each (quadrant 0 also holds the reserved LID slot),
    /// i.e. when [`LidPolicy::QuadrantBlocks`] can lay out `topo`, a 2-D
    /// even-extent HyperX. False for any other topology.
    pub(crate) fn quadrant_blocks_fit(topo: &Topology, lmc: u8) -> bool {
        let Some(hx) = topo.meta.as_hyperx() else {
            return false;
        };
        let mut slots = [1u32, 0, 0, 0];
        for node in topo.nodes() {
            match hx.quadrant(topo.node_switch(node).0) {
                Ok(q) => slots[q.index()] += 1,
                Err(_) => return false,
            }
        }
        slots.iter().all(|&n| n << lmc <= QUADRANT_BLOCK)
    }

    /// The layout policy.
    pub fn policy(&self) -> LidPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxtopo::hyperx::HyperXConfig;

    fn hx() -> Topology {
        HyperXConfig::t2_hyperx(672).build()
    }

    #[test]
    fn sequential_layout() {
        let t = hx();
        let m = LidMap::new(&t, 2, LidPolicy::Sequential);
        assert_eq!(m.lids_per_node(), 4);
        assert_eq!(m.base(NodeId(0)), 1);
        assert_eq!(m.base(NodeId(1)), 5);
        assert_eq!(m.lid(NodeId(1), 3), 8);
        assert_eq!(m.owner(0), None); // LID 0 reserved
        assert_eq!(m.owner(1), Some(NodeId(0)));
        assert_eq!(m.owner(8), Some(NodeId(1)));
        assert_eq!(m.lid_index(8), Some(3));
    }

    #[test]
    fn quadrant_blocks_match_topology_quadrants() {
        let t = hx();
        let hxm = t.meta.as_hyperx().unwrap().clone();
        let m = LidMap::new(&t, 2, LidPolicy::QuadrantBlocks);
        for node in t.nodes() {
            let q_topo = hxm.quadrant(t.node_switch(node).0).unwrap();
            for x in 0..4 {
                let lid = m.lid(node, x);
                assert_eq!(m.quadrant_of_lid(lid), Some(q_topo), "node {node}");
                assert_eq!(m.owner(lid), Some(node));
            }
        }
    }

    #[test]
    fn quadrant_blocks_fit_1000_per_quadrant() {
        let t = hx();
        let m = LidMap::new(&t, 2, LidPolicy::QuadrantBlocks);
        // 168 nodes per quadrant x 4 LIDs = 672 <= 1000.
        assert!(m.lid_space() <= 4000);
        assert_eq!(m.owner(0), None);
        assert!(LidMap::quadrant_blocks_fit(&t, 2));
    }

    #[test]
    fn quadrant_blocks_fit_is_exact() {
        // Each quadrant of 2x2:t250 holds 250 nodes x 4 LIDs = 1000, and
        // quadrant 0 also the reserved slot: it overflows by one node.
        // 2x2:t249 fills quadrant 0 exactly.
        let t = HyperXConfig::new(vec![2, 2], 250).build();
        assert!(!LidMap::quadrant_blocks_fit(&t, 2));
        let t = HyperXConfig::new(vec![2, 2], 249).build();
        assert!(LidMap::quadrant_blocks_fit(&t, 2));
        LidMap::new(&t, 2, LidPolicy::QuadrantBlocks);
        let t = HyperXConfig::new(vec![16, 16], 4).build();
        assert!(!LidMap::quadrant_blocks_fit(&t, 2));
        let t = HyperXConfig::new(vec![4, 4, 4], 1).build();
        assert!(!LidMap::quadrant_blocks_fit(&t, 2));
    }

    #[test]
    fn lids_iterator_counts() {
        let t = hx();
        let m = LidMap::new(&t, 2, LidPolicy::Sequential);
        assert_eq!(m.lids().count(), 672 * 4);
        let m0 = LidMap::new(&t, 0, LidPolicy::Sequential);
        assert_eq!(m0.lids().count(), 672);
        assert_eq!(m0.lids_per_node(), 1);
    }

    #[test]
    fn sequential_has_no_quadrants() {
        let t = hx();
        let m = LidMap::new(&t, 2, LidPolicy::Sequential);
        assert_eq!(m.quadrant_of_lid(1), None);
    }
}
