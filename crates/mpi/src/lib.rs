//! # hxmpi — simulated MPI layer
//!
//! The software stack between workloads and the network simulator,
//! mirroring the paper's Open MPI 1.10 setup with one rank per node:
//!
//! * [`placement`] — the paper's three rank-to-node placements: linear,
//!   clustered (geometric stride, p = 0.8) and random (Section 4.4.3),
//! * [`pml`] — point-to-point messaging layers: the default `ob1` and the
//!   modified `bfo` with round-robin or PARX Table-1 LID selection and its
//!   per-message software penalty (Section 3.2.4),
//! * [`fabric`] — resolves rank-to-rank messages onto routed paths
//!   (placement + LFT walk + PML LID choice), implementing
//!   [`hxsim::PathResolver`],
//! * [`rail`] — NIC rail selection over K fabric planes (round-robin,
//!   flow-hash, least-loaded) with plane-failover health masking,
//! * [`rounds`] — collective algorithm schedules (binomial, recursive
//!   doubling, ring, Bruck, pairwise...) as round programs; the
//!   round-synchronous fast evaluator for full-system sweeps; their
//!   lowering to per-rank programs for the exact DES; and the DAL-style
//!   adaptive-routing model.
//!
//! # Example
//!
//! Price a 1 MiB allreduce at 16 ranks over a routed HyperX:
//!
//! ```
//! use hxmpi::{estimate, Fabric, Placement, Pml, RoundProgram};
//! use hxroute::engines::{Dfsssp, RoutingEngine};
//! use hxsim::NetParams;
//! use hxtopo::hyperx::HyperXConfig;
//!
//! let topo = HyperXConfig::new(vec![4, 4], 1).build();
//! let routes = Dfsssp::default().route(&topo).unwrap();
//! let nodes: Vec<_> = topo.nodes().collect();
//! let fabric = Fabric::new(
//!     &topo,
//!     &routes,
//!     Placement::linear(&nodes, 16),
//!     Pml::Ob1,
//!     NetParams::qdr(),
//! )
//! .expect("routable fabric");
//! let mut rp = RoundProgram::new(16);
//! rp.allreduce(1 << 20); // ring algorithm for large payloads
//! let seconds = estimate(&fabric, &rp);
//! assert!(seconds > 0.0 && seconds < 0.1);
//! ```

pub mod fabric;
pub mod placement;
pub mod pml;
pub mod rail;
pub mod rounds;

pub use fabric::Fabric;
pub use placement::Placement;
pub use pml::Pml;
pub use rail::{MultiFabric, RailPolicy};
pub use rounds::{estimate, estimate_adaptive, Phase, RoundProgram};
