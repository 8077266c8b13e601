//! # hxtopo — network topology substrate
//!
//! Graph representation of switched interconnection networks plus generators
//! for the two topologies compared in the SC'19 paper "HyperX Topology: First
//! At-Scale Implementation and Comparison to the Fat-Tree":
//!
//! * [`fattree`] — k-ary n-trees / folded-Clos networks, including the
//!   undersubscribed 3-level tree of the TSUBAME2 system (15 of 18 leaf ports
//!   populated),
//! * [`hyperx`] — HyperX direct networks `(L; S; K; T)`, including the
//!   paper's 12x8 2-D HyperX with 7 terminals per switch,
//! * [`faults`] — deterministic, seeded cable-removal matching the paper's
//!   imperfect deployment (15/684 HyperX AOCs, 197/2662 Fat-Tree links),
//! * [`props`] — structural properties (diameter, bisection, path diversity)
//!   used to validate the generators against the paper's Figure 2.
//!
//! Switches, terminal nodes and links are referenced through dense integer
//! ids ([`SwitchId`], [`NodeId`], [`LinkId`]) so routing and simulation layers
//! can use flat `Vec` indexing throughout (no hashing in hot paths).
//!
//! # Example
//!
//! Build the paper's 12x8 HyperX, break the 15 cables the real deployment
//! was missing, and check the structural claims of Section 2.3:
//!
//! ```
//! use hxtopo::{FaultPlan, TopologyProps};
//! use hxtopo::hyperx::HyperXConfig;
//!
//! let mut hx = HyperXConfig::t2_hyperx(672).build();
//! assert_eq!(hx.num_switches(), 96);
//! assert_eq!(hx.num_nodes(), 672);
//!
//! let removed = FaultPlan::t2_hyperx().apply(&mut hx);
//! assert_eq!(removed.len(), 15);
//! assert!(hx.is_connected());
//!
//! // "slightly over half-bisection bandwidth, i.e., 57.1% to be precise"
//! let pristine = HyperXConfig::t2_hyperx(672).build();
//! let bisection = TopologyProps::bisection_ratio(&pristine);
//! assert!((bisection - 0.571).abs() < 0.001);
//! ```

#![deny(missing_docs)]

pub mod cost;
pub mod fattree;
pub mod faults;
pub mod graph;
pub mod hyperx;
pub mod ids;
pub mod props;

pub use cost::{BillOfMaterials, CostModel};
pub use fattree::{FatTreeConfig, TreeLevels};
pub use faults::FaultPlan;
pub use graph::{AdjEntry, Endpoint, Link, LinkClass, Topology, TopologyBuilder};
pub use hyperx::{HyperXConfig, HyperXShape};
pub use ids::{LinkId, NodeId, SwitchId};
pub use props::TopologyProps;

/// FNV-1a offset basis: the starting state of every [`fnv1a`] fold.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a state — the repo-wide fingerprint and
/// flow-hash primitive. Start from [`FNV_OFFSET`].
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Topology-kind specific metadata attached to a [`Topology`].
#[derive(Debug, Clone)]
pub enum TopoMeta {
    /// A leveled indirect network (Fat-Tree / folded Clos).
    FatTree(TreeLevels),
    /// A direct HyperX network with its integer-lattice shape.
    HyperX(HyperXShape),
    /// Hand-built topology without generator metadata.
    Custom,
}

impl TopoMeta {
    /// Returns the tree levels if this is a Fat-Tree.
    pub fn as_tree(&self) -> Option<&TreeLevels> {
        match self {
            TopoMeta::FatTree(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the HyperX shape if this is a HyperX.
    pub fn as_hyperx(&self) -> Option<&HyperXShape> {
        match self {
            TopoMeta::HyperX(h) => Some(h),
            _ => None,
        }
    }
}
