//! # hxcore — the T2HX system model and experiment runner
//!
//! Assembles the substrates into the paper's experimental platform:
//!
//! * [`system`] — plane-generic assembly ([`System`]: one swept
//!   [`SubnetManager`](hxroute::SubnetManager) per plane, each epoch a
//!   [`FabricSnapshot`](hxroute::FabricSnapshot) with a shared path store)
//!   and the dual-plane T2HX preset: 672 compute nodes attached to both a
//!   3-level Fat-Tree plane and a 12x8 HyperX plane, each routed by the
//!   paper's engines and degraded by the paper's cable faults,
//! * [`combos`] — the five (topology, routing, placement) combinations of
//!   Section 4.4.3,
//! * [`experiment`] — capability-run executor: 10 repetitions, seeded
//!   noise, the 15-minute walltime cutoff, and relative-gain computation
//!   against the Fat-Tree/ftree/linear baseline,
//! * [`report`] — text renderers for the paper's figure formats (gain
//!   grids, whisker rows, bandwidth heatmaps),
//! * [`campaign`] — deterministic fault-churn campaigns on a K-plane fabric
//!   (K = 1 is the single-plane case): seeded MTBF/MTTR cable
//!   failure/recovery streams driven against a live workload, with
//!   incremental re-routing, per-rail live epoch propagation, and NIC rail
//!   failover of in-flight flows onto surviving planes,
//! * [`service`] — the resident `hxd` read side: epoch-versioned
//!   [`FabricSnapshot`](hxroute::FabricSnapshot) publication with
//!   lock-free reader pinning, and the resolve / what-if / place / stats
//!   query engine with per-epoch result caching.
//!
//! # Example
//!
//! Build a miniature dual-plane system and reproduce the paper's Barrier
//! regression (Figure 5b) in miniature:
//!
//! ```
//! use hxcore::{Combo, Runner, T2hx};
//! use hxload::imb::ImbCollective;
//!
//! let sys = T2hx::mini().unwrap();
//! let runner = Runner::default();
//! let gain = runner.imb_gain(
//!     &sys,
//!     Combo::HxParxClustered,
//!     ImbCollective::Barrier,
//!     16,
//!     0,
//! );
//! // The bfo PML penalty slows PARX's Barrier well below the baseline.
//! assert!(gain < -0.3, "gain {gain}");
//! ```

pub mod campaign;
pub mod capacity;
pub mod combos;
pub mod experiment;
pub mod report;
pub mod service;
pub mod system;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport};
pub use capacity::{run_capacity_combo, run_capacity_scale, ScaleConfig, ScaleReport};
pub use combos::Combo;
pub use experiment::{Runner, Samples};
pub use service::{Answer, FabricService, Query, QueryError, ServiceReader};
pub use system::{System, T2hx};
