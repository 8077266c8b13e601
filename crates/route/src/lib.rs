//! # hxroute — InfiniBand-style static routing engines
//!
//! Implements the full routing stack of the paper's evaluation:
//!
//! * [`lid`] — LID space with LID mask control (LMC), including the PARX
//!   quadrant-block LID policy,
//! * [`lft`] — per-switch linear forwarding tables, path extraction, and
//!   service-level (virtual lane) state,
//! * [`dijkstra`] — the weight-balancing, maskable shortest-path core shared
//!   by SSSP, DFSSSP and PARX,
//! * [`cdg`] — channel dependency graphs and VL layering (Dally & Seitz
//!   deadlock avoidance),
//! * [`engines`] — `ftree`, `Up*/Down*`, `SSSP`, `DFSSSP`, `MinHop` and the
//!   paper's novel `PARX` (Algorithm 1),
//! * [`table1`] — the paper's Table 1 (LID selection by quadrant pair and
//!   message size) and rules R1–R4,
//! * [`demand`] — communication-demand profiles PARX ingests,
//! * [`pathdb`] — the epoch-versioned, CSR-compressed path store every
//!   consumer (simulator, MPI layer, verification) resolves paths from,
//! * [`plane`] — per-plane shard handle over `Arc<PathDb>` stores for
//!   K-plane fabrics with independent live epochs,
//! * [`verify`] — loop-freedom, reachability and deadlock-freedom checks.
//!
//! # Example
//!
//! Route a small HyperX with the paper's PARX (Algorithm 1) and inspect a
//! minimal and a forced-detour path:
//!
//! ```
//! use hxroute::engines::{Parx, RoutingEngine};
//! use hxroute::{verify_deadlock_free, verify_paths};
//! use hxtopo::hyperx::HyperXConfig;
//! use hxtopo::NodeId;
//!
//! let topo = HyperXConfig::new(vec![4, 4], 2).build();
//! let routes = Parx::default().route(&topo).unwrap();
//!
//! // Criteria (3) and (4) of Section 3.2:
//! verify_paths(&topo, &routes).unwrap();
//! let vls = verify_deadlock_free(&topo, &routes).unwrap();
//! assert!(vls <= 8, "within the QDR hardware's virtual lanes");
//!
//! // Nodes 0 and 2 share the top-left quadrant on different switches:
//! // LID1 (remove right half) is minimal, LID0 (remove left half) detours.
//! let (a, b) = (NodeId(0), NodeId(2));
//! let minimal = routes.path_to(&topo, a, b, 1).unwrap();
//! let detour = routes.path_to(&topo, a, b, 0).unwrap();
//! assert!(detour.isl_hops() > minimal.isl_hops());
//! ```

pub mod cdg;
pub mod demand;
pub mod dijkstra;
pub mod engines;
pub mod lft;
pub mod lid;
pub mod opensm;
pub mod pathdb;
pub mod plane;
pub mod table1;
pub mod verify;

pub use demand::{Demand, NormalizedDemand};
pub use dijkstra::{dijkstra_to_dest, DestTree, EdgeWeights};
pub use engines::{
    engine_by_name, Dfsssp, FatPaths, FtHyperX, Ftree, IncrementalRepair, Lash, LftDelta, MinHop,
    Multipath, Parx, RoutingEngine, Sssp, UpDown, ENGINE_NAMES,
};
pub use lft::{DirLink, Path, RouteError, Routes};
pub use lid::{Lid, LidMap, LidPolicy};
pub use opensm::{FabricSnapshot, SubnetManager, SweepReport, WhatIfReport};
pub use pathdb::PathDb;
pub use plane::PlaneSet;
pub use table1::{lid_choices, select_lid, SizeClass, DEFAULT_THRESHOLD};
pub use verify::{verify_deadlock_free, verify_paths, PathStats};
