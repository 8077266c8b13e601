//! Quadrant-aware rank placement for the `hxd` `place(k)` query.
//!
//! The capacity study (Section 5.3) slices consecutive blocks off an
//! ordered node pool; the PARX evaluation shows locality within a HyperX
//! quadrant is what keeps a job off the congested long dimensions. This
//! module combines the two: order the pool quadrant-major (so a `k`-node
//! slice spans as few quadrants as possible), select `k` free nodes under
//! a [`PolicyKind`], and score the result by mean pairwise ISL hops
//! measured on the epoch's path store — the same metric Table 1 optimizes
//! per message.

use crate::policy::{mean_pairwise_isl_hops, PolicyKind, PoolView};
use hxroute::{PathDb, Routes};
use hxtopo::{NodeId, SwitchId, Topology};

/// Why a placement request could not be satisfied. Typed, like the
/// routing layer's [`hxroute::RouteError`]: callers can tell a malformed
/// request ([`PlaceError::ZeroRanks`]) from an exhausted pool
/// ([`PlaceError::Insufficient`]) without parsing strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceError {
    /// A zero-rank job was requested; retrying cannot succeed.
    ZeroRanks,
    /// The free pool cannot satisfy the request right now. Retryable: a
    /// departure may free enough nodes.
    Insufficient {
        /// Ranks requested.
        requested: usize,
        /// Free nodes available when the request was refused.
        free: usize,
    },
    /// The job id names no live job (already departed, or never placed).
    UnknownJob(u64),
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::ZeroRanks => write!(f, "zero-rank job"),
            PlaceError::Insufficient { requested, free } => {
                write!(f, "pool cannot satisfy {requested} ranks ({free} free)")
            }
            PlaceError::UnknownJob(id) => write!(f, "job {id} is not live"),
        }
    }
}

impl std::error::Error for PlaceError {}

/// A `place(k)` answer: the chosen nodes plus the locality score of the
/// slice, measured against one path-store epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Placed {
    /// Chosen nodes, in placement order.
    pub nodes: Vec<NodeId>,
    /// Mean pairwise switch-to-switch hops across all ordered pairs of the
    /// slice (0.0 for a single-rank job).
    pub mean_isl_hops: f64,
    /// Distinct HyperX quadrants the slice touches (0 when the topology
    /// has no quadrant structure — non-HyperX or odd extents).
    pub quadrant_spread: u32,
}

/// Orders the node pool for allocation slicing: quadrant-major, then
/// switch-major, on a 2-D even-extent HyperX; plain node order everywhere
/// else. A consecutive `k`-slice of this order is the quadrant-aware
/// placement the capacity combos feed to [`crate::run_capacity`].
pub fn quadrant_pool_order(topo: &Topology) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = topo.nodes().collect();
    if let Some(hx) = topo.meta.as_hyperx() {
        if hx.quadrant(SwitchId(0)).is_ok() {
            pool.sort_by_key(|&n| {
                let (sw, _) = topo.node_switch(n);
                let q = hx.quadrant(sw).map(|q| q.index()).unwrap_or(usize::MAX);
                (q, sw.0, n.0)
            });
        }
    }
    pool
}

/// Distinct quadrants a node set touches (0 without quadrant structure).
fn quadrant_spread(topo: &Topology, nodes: &[NodeId]) -> u32 {
    let Some(hx) = topo.meta.as_hyperx() else {
        return 0;
    };
    let mut seen = [false; 4];
    for &n in nodes {
        let (sw, _) = topo.node_switch(n);
        if let Ok(q) = hx.quadrant(sw) {
            seen[q.index()] = true;
        } else {
            return 0;
        }
    }
    seen.iter().filter(|&&s| s).count() as u32
}

/// Places a `k`-rank job on an idle fabric under the given policy and
/// scores the slice by mean pairwise ISL hops on the given path-store
/// epoch. `seed` feeds the scattered draw (and the network-aware slate's
/// scattered candidate); contiguous placement ignores it. Refusals are
/// typed: [`PlaceError::ZeroRanks`] for a malformed request,
/// [`PlaceError::Insufficient`] when the plane is smaller than the job.
pub fn place_ranks_with(
    topo: &Topology,
    routes: &Routes,
    db: &PathDb,
    k: usize,
    policy: PolicyKind,
    seed: u64,
) -> Result<Placed, PlaceError> {
    let pool = quadrant_pool_order(topo);
    let free = vec![true; pool.len()];
    let link_share = vec![0u32; topo.num_links() * 2];
    let view = PoolView {
        routes,
        db,
        pool: &pool,
        free: &free,
        link_share: &link_share,
    };
    let nodes = policy.select(&view, k, seed)?;
    let mean_isl_hops = mean_pairwise_isl_hops(routes, db, &nodes);
    let quadrant_spread = quadrant_spread(topo, &nodes);
    Ok(Placed {
        nodes,
        mean_isl_hops,
        quadrant_spread,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxroute::engines::{RoutingEngine, Sssp};
    use hxtopo::hyperx::HyperXConfig;

    fn swept(topo: &Topology) -> (Routes, PathDb) {
        let routes = Sssp::default().route(topo).unwrap();
        let db = PathDb::build(topo, &routes, 1, 1).unwrap();
        (routes, db)
    }

    /// The default `place(k)`: contiguous, quadrant-major.
    fn contiguous(
        topo: &Topology,
        routes: &Routes,
        db: &PathDb,
        k: usize,
    ) -> Result<Placed, PlaceError> {
        place_ranks_with(topo, routes, db, k, PolicyKind::Contiguous, 0)
    }

    #[test]
    fn pool_order_is_quadrant_major() {
        let topo = HyperXConfig::new(vec![4, 4], 2).build();
        let hx = topo.meta.as_hyperx().unwrap().clone();
        let pool = quadrant_pool_order(&topo);
        assert_eq!(pool.len(), topo.num_nodes());
        let qs: Vec<usize> = pool
            .iter()
            .map(|&n| hx.quadrant(topo.node_switch(n).0).unwrap().index())
            .collect();
        // Quadrant indices are non-decreasing: a k-slice stays local.
        assert!(qs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(qs.first(), Some(&0));
        assert_eq!(qs.last(), Some(&3));
    }

    #[test]
    fn small_jobs_stay_in_one_quadrant() {
        let topo = HyperXConfig::new(vec![4, 4], 2).build();
        let (routes, db) = swept(&topo);
        // 8 ranks fit a single 2x2-switch quadrant (2 terminals each).
        let p = contiguous(&topo, &routes, &db, 8).unwrap();
        assert_eq!(p.nodes.len(), 8);
        assert_eq!(p.quadrant_spread, 1);
        // Whole-machine jobs span all four.
        let p = contiguous(&topo, &routes, &db, topo.num_nodes()).unwrap();
        assert_eq!(p.quadrant_spread, 4);
        // Locality: the small slice is tighter than the full machine.
        let small = contiguous(&topo, &routes, &db, 8).unwrap();
        assert!(small.mean_isl_hops < p.mean_isl_hops);
    }

    #[test]
    fn malformed_sizes_are_typed_errors() {
        let topo = HyperXConfig::new(vec![4, 4], 2).build();
        let (routes, db) = swept(&topo);
        assert_eq!(
            contiguous(&topo, &routes, &db, 0),
            Err(PlaceError::ZeroRanks)
        );
        assert_eq!(
            contiguous(&topo, &routes, &db, topo.num_nodes() + 1),
            Err(PlaceError::Insufficient {
                requested: topo.num_nodes() + 1,
                free: topo.num_nodes()
            })
        );
    }

    #[test]
    fn policies_change_the_placement() {
        let topo = HyperXConfig::new(vec![4, 4], 2).build();
        let (routes, db) = swept(&topo);
        let tight = place_ranks_with(&topo, &routes, &db, 8, PolicyKind::Contiguous, 1).unwrap();
        let loose = place_ranks_with(&topo, &routes, &db, 8, PolicyKind::Scattered, 1).unwrap();
        assert_ne!(tight.nodes, loose.nodes);
        assert!(tight.mean_isl_hops <= loose.mean_isl_hops);
        let aware = place_ranks_with(&topo, &routes, &db, 8, PolicyKind::NetworkAware, 1).unwrap();
        assert!(aware.mean_isl_hops <= loose.mean_isl_hops + 1e-9);
    }

    #[test]
    fn non_quadrant_planes_fall_back_to_node_order() {
        // 1-D HyperX has no quadrants: pool order is plain node order.
        let topo = HyperXConfig::new(vec![4], 2).build();
        let pool = quadrant_pool_order(&topo);
        assert_eq!(pool, topo.nodes().collect::<Vec<_>>());
        let (routes, db) = swept(&topo);
        let p = contiguous(&topo, &routes, &db, 4).unwrap();
        assert_eq!(p.quadrant_spread, 0);
    }
}
