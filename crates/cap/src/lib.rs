//! # hxcap — capacity mode: the multi-application scheduler and the
//! fragmentation-aware job allocator
//!
//! Two layers of the paper's capacity-mode story live here:
//!
//! * **The Figure-7 reproduction** ([`capacity`]): 14 applications run
//!   concurrently for three hours on dedicated 32-/56-node sets (664 of
//!   672 nodes), with inter-job bandwidth competition dilating every
//!   communication phase — the paper's Section 4.4.2/5.3 experiment.
//! * **The allocator subsystem** ([`alloc`], [`policy`],
//!   [`mod@interference`]): a live [`Allocator`] tracking job
//!   arrivals/departures over a quadrant-major node pool, three placement
//!   policies (contiguous first-fit, scattered, network-aware
//!   candidate-slate scoring), a fragmentation index over the free pool,
//!   and solver-backed per-job slowdowns. This is the machinery behind
//!   the `capacity_scale` day-scale harness and the `hxd` service's
//!   `place(k, policy)` query (DESIGN.md §15).
//!
//! Both layers share one interference model: each job's flows are rated
//! by the exact max-min [`hxsim::solver`] kernel alone and together with
//! every co-runner, and the ratio is the job's slowdown. The allocator
//! feeds it each job's ring flows; the Figure-7 layer feeds it each
//! application's own exchange traffic and dilates its communication time
//! by the slowdown.

#![deny(missing_docs)]

pub mod alloc;
pub mod capacity;
pub mod interference;
pub mod place;
pub mod policy;

pub use alloc::{Allocator, JobId, LiveJob};
pub use capacity::{paper_mix, run_capacity, AppResult, AppSlot, CapacityConfig, CapacityResult};
pub use interference::{interference, InterferenceReport, JobInterference};
pub use place::{place_ranks_with, quadrant_pool_order, PlaceError, Placed};
pub use policy::{
    mean_pairwise_isl_hops, ring_links, PolicyKind, PoolView, POLICY_KINDS, POLICY_NAMES,
};
