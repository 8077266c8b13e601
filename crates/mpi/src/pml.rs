//! Point-to-point messaging layers (PMLs).
//!
//! The paper modifies Open MPI's `bfo` PML to pick the virtual destination
//! LID per message: quadrant of source and destination plus the 512-byte
//! size threshold select the Table-1 column; when two choices exist one is
//! picked at random (Section 3.2.4). The paper's PML recovers quadrants from
//! the LID ranges (footnote 9); `bfo-parx` here reads them from the
//! switch coordinates of the HyperX, so it needs the 2-D quadrant layout:
//! PARX on a 2-D even-extent HyperX, four LIDs per node. `bfo` is
//! "less tuned" than the default `ob1`, costing extra software overhead per
//! message — the root cause of the paper's Barrier regression (Figure 5b).

use crate::rail::flow_hash;
use hxroute::table1::{select_lid, SizeClass};
use hxroute::Routes;
use hxtopo::hyperx::HyperXShape;
use hxtopo::{NodeId, Topology};

/// A point-to-point messaging layer: selects the destination LID index and
/// carries its software-overhead penalty.
#[derive(Debug, Clone)]
pub enum Pml {
    /// Open MPI default: base LID only, no penalty.
    Ob1,
    /// bfo in its stock configuration: round-robin over the `2^lmc` LIDs.
    BfoRoundRobin,
    /// The paper's modified bfo: Table-1 LID selection by quadrant pair and
    /// message size.
    BfoParx {
        /// Small/large threshold in bytes (paper default: 512).
        threshold: u64,
    },
    /// FatPaths-style layer selection: a deterministic flow hash over
    /// `(src, dst, seq)` spreads flows across the `2^lmc` routing layers
    /// (one layer per LID offset; see `hxroute::engines::FatPaths`).
    /// Hashing at the flow level keeps every flow on one layer — no
    /// packet-level reordering — while neighboring flows diverge.
    FlowHash,
}

impl Pml {
    /// The paper's PARX messaging configuration.
    pub fn parx() -> Pml {
        Pml::BfoParx {
            threshold: hxroute::DEFAULT_THRESHOLD,
        }
    }

    /// PML label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Pml::Ob1 => "ob1",
            Pml::BfoRoundRobin => "bfo-rr",
            Pml::BfoParx { .. } => "bfo-parx",
            Pml::FlowHash => "flow-hash",
        }
    }

    /// Whether this PML pays the bfo software penalty. Flow hashing is one
    /// multiply-and-mask in the hot path — ob1-class overhead, not bfo.
    pub fn is_bfo(&self) -> bool {
        !matches!(self, Pml::Ob1 | Pml::FlowHash)
    }

    /// Whether [`Pml::select_lid_index`] ignores the sequence number, so two
    /// identical exchanges route identically wherever they sit in a
    /// program. The round model re-adds a repeated ring step's cost only
    /// under such a PML (see `rounds`).
    pub fn ignores_seq(&self) -> bool {
        matches!(self, Pml::Ob1)
    }

    /// Selects the destination LID index for a message.
    ///
    /// `seq` is the sender's message sequence number (drives the round-robin
    /// and stands in for the random pick among Table-1 alternatives).
    pub fn select_lid_index(
        &self,
        topo: &Topology,
        routes: &Routes,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        seq: u64,
    ) -> u32 {
        let per_node = routes.lid_map.lids_per_node();
        match self {
            Pml::Ob1 => 0,
            Pml::BfoRoundRobin => (seq % per_node as u64) as u32,
            Pml::FlowHash => {
                // FNV-1a over the flow identity; `seq` is folded in so
                // repeated flows between one pair still sample all layers
                // across a campaign, like FatPaths' per-flowlet rehash.
                (flow_hash(src.idx(), dst.idx(), seq) % per_node as u64) as u32
            }
            Pml::BfoParx { threshold } => {
                let hx: &HyperXShape = topo
                    .meta
                    .as_hyperx()
                    .expect("bfo-parx requires a HyperX fabric");
                debug_assert_eq!(per_node, 4, "PARX uses LMC=2");
                let sq = hx
                    .quadrant(topo.node_switch(src).0)
                    .expect("bfo-parx requires the 2-D even-extent quadrant layout");
                let dq = hx
                    .quadrant(topo.node_switch(dst).0)
                    .expect("bfo-parx requires the 2-D even-extent quadrant layout");
                let size = SizeClass::of(bytes, *threshold);
                select_lid(sq, dq, size, seq) as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxroute::engines::{Dfsssp, Parx, RoutingEngine};
    use hxroute::table1::lid_choices;
    use hxtopo::hyperx::HyperXConfig;

    #[test]
    fn ob1_always_base_lid() {
        let t = HyperXConfig::new(vec![4, 4], 1).build();
        let r = Dfsssp::default().route(&t).unwrap();
        let pml = Pml::Ob1;
        for seq in 0..5 {
            assert_eq!(
                pml.select_lid_index(&t, &r, NodeId(0), NodeId(5), 1 << 20, seq),
                0
            );
        }
    }

    #[test]
    fn round_robin_cycles() {
        let t = HyperXConfig::new(vec![4, 4], 1).build();
        let r = Parx::default().route(&t).unwrap(); // LMC=2
        let pml = Pml::BfoRoundRobin;
        let idx: Vec<u32> = (0..8)
            .map(|s| pml.select_lid_index(&t, &r, NodeId(0), NodeId(5), 100, s))
            .collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn parx_pml_respects_table1() {
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let hx = t.meta.as_hyperx().unwrap().clone();
        let r = Parx::default().route(&t).unwrap();
        let pml = Pml::parx();
        for src in t.nodes() {
            for dst in t.nodes() {
                if src == dst {
                    continue;
                }
                let sq = hx.quadrant(t.node_switch(src).0).unwrap();
                let dq = hx.quadrant(t.node_switch(dst).0).unwrap();
                for (bytes, class) in [(64u64, SizeClass::Small), (1 << 16, SizeClass::Large)] {
                    for seq in 0..3 {
                        let x = pml.select_lid_index(&t, &r, src, dst, bytes, seq);
                        assert!(
                            lid_choices(sq, dq, class).contains(&(x as u8)),
                            "{src}->{dst} {bytes}B chose LID{x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn threshold_boundary() {
        let t = HyperXConfig::new(vec![4, 4], 1).build();
        let hx = t.meta.as_hyperx().unwrap().clone();
        let r = Parx::default().route(&t).unwrap();
        let pml = Pml::parx();
        let (src, dst) = (NodeId(0), NodeId(1));
        let sq = hx.quadrant(t.node_switch(src).0).unwrap();
        let dq = hx.quadrant(t.node_switch(dst).0).unwrap();
        let small = pml.select_lid_index(&t, &r, src, dst, 511, 0);
        let large = pml.select_lid_index(&t, &r, src, dst, 512, 0);
        assert!(lid_choices(sq, dq, SizeClass::Small).contains(&(small as u8)));
        assert!(lid_choices(sq, dq, SizeClass::Large).contains(&(large as u8)));
    }

    #[test]
    fn names() {
        assert_eq!(Pml::Ob1.name(), "ob1");
        assert!(!Pml::Ob1.is_bfo());
        assert!(Pml::parx().is_bfo());
        assert!(Pml::BfoRoundRobin.is_bfo());
        assert_eq!(Pml::FlowHash.name(), "flow-hash");
        assert!(!Pml::FlowHash.is_bfo());
    }

    #[test]
    fn flow_hash_is_deterministic_and_spreads_layers() {
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = hxroute::FatPaths::default().route(&t).unwrap();
        let pml = Pml::FlowHash;
        let mut used = [false; 4];
        for src in t.nodes() {
            for dst in t.nodes() {
                if src == dst {
                    continue;
                }
                for seq in 0..4 {
                    let a = pml.select_lid_index(&t, &r, src, dst, 1 << 20, seq);
                    let b = pml.select_lid_index(&t, &r, src, dst, 64, seq);
                    // Flow identity, not message size, picks the layer.
                    assert_eq!(a, b);
                    assert!(a < 4);
                    used[a as usize] = true;
                }
            }
        }
        assert_eq!(used, [true; 4], "some layer never selected");
    }
}
