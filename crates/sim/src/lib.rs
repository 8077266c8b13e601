//! # hxsim — hybrid network simulator
//!
//! A flow-level ("fluid") network model with a discrete-event executor on
//! top, standing in for the paper's physical QDR InfiniBand fabric:
//!
//! * [`flow`] — max-min fair bandwidth allocation over routed paths
//!   (progressive filling),
//! * [`solver`] — the congestion engine: a [`solver::RateSolver`] trait with
//!   an `Exact` oracle and a component-wise `Incremental` backend that
//!   re-solves only flows transitively sharing cables with a change
//!   (bit-identical by construction; DESIGN.md §8),
//! * [`fluid`] — event-driven fluid transfers: rates are re-solved whenever
//!   the set of active flows changes, completions answered from a lazy heap,
//! * [`des`] — per-rank program execution (send/recv/compute) with message
//!   matching, LogGP-style latency and the fluid network underneath,
//! * [`params`] — latency/overhead constants calibrated to QDR InfiniBand,
//! * [`noise`] — seeded run-to-run variability (system noise),
//! * [`stats`] — whisker summaries (min/quartiles/median/max) matching the
//!   paper's plots.
//!
//! Why flow-level and not flit-level: the paper's observations — seven
//! streams sharing one cable (Figure 1), PARX trading latency for path
//! diversity, eBB collapse at scale — are bandwidth-sharing and path-length
//! phenomena. Max-min fair sharing over the exact routed paths reproduces
//! them faithfully at a cost that allows the full 672-node parameter sweeps
//! (see DESIGN.md §3).
//!
//! # Example
//!
//! The Figure-1 effect in four lines: seven 1 MiB flows forced over one
//! QDR cable each finish seven times slower than a lone flow:
//!
//! ```
//! use hxsim::flow::FlowSpec;
//! use hxsim::FluidNet;
//! use hxroute::DirLink;
//! use hxtopo::hyperx::HyperXConfig;
//!
//! // Two switches, seven nodes each, one cable between them.
//! let topo = HyperXConfig::new(vec![2], 7).build();
//! let (isl, cable) = topo
//!     .links()
//!     .find(|(_, l)| l.class != hxtopo::LinkClass::Terminal)
//!     .unwrap();
//! let shared = DirLink::new(isl, true);
//! let flows: Vec<FlowSpec> = (0..7)
//!     .map(|_| FlowSpec { path: vec![shared], bytes: 1 << 20 })
//!     .collect();
//! let times = FluidNet::complete_times(&topo, &flows);
//! let expected = 7.0 * (1u64 << 20) as f64 / cable.capacity;
//! assert!((times[0] - expected).abs() < expected * 1e-6);
//! ```

pub mod des;
pub mod flow;
pub mod fluid;
pub mod noise;
pub mod params;
pub mod solver;
pub mod stats;

pub use des::{Op, PathResolver, Program, ResolvedPath, RunResult, Simulator};
pub use flow::{max_min_rates, FlowSpec};
pub use fluid::FluidNet;
pub use noise::NoiseModel;
pub use params::NetParams;
pub use solver::{RateSolver, RateTable, SolveStats, SolverKind};
pub use stats::Whisker;
