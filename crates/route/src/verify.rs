//! Routing verification: the paper's Section 3.2 criteria (4) — loop
//! freedom, fault tolerance (reachability) and deadlock freedom — checked
//! explicitly on any [`Routes`].

use crate::engines::walk_lft;
use crate::lft::{DirLink, RouteError, Routes};
use crate::pathdb::PathDb;
use hxtopo::Topology;

/// Aggregate path statistics from a full verification sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStats {
    /// Verified (source node, destination LID) pairs (excluding self-sends).
    pub pairs: usize,
    /// Maximum inter-switch hops over all pairs.
    pub max_isl_hops: usize,
    /// Mean inter-switch hops.
    pub avg_isl_hops: f64,
    /// Histogram of ISL hop counts (index = hops).
    pub hist: Vec<usize>,
}

/// Walks every (source node, destination LID) pair through the LFTs,
/// verifying reachability and loop freedom, and collecting hop statistics.
///
/// Implemented as a [`PathDb`] build-and-discard: the extraction walk *is*
/// the verification pass, so this can never disagree with what consumers
/// resolve from the shared store.
pub fn verify_paths(topo: &Topology, routes: &Routes) -> Result<PathStats, RouteError> {
    Ok(PathDb::build(topo, routes, 0, 1)?.stats())
}

/// Rebuilds the channel dependency graph of every virtual lane from the
/// actual forwarding state and SL table, and checks each for acyclicity
/// (Dally & Seitz). Returns the number of VLs populated.
///
/// An independent oracle for the VL assignment: the per-lane graphs are
/// plain adjacency lists checked by their own Kahn pass, sharing no cycle
/// code with the incremental order of [`crate::cdg::Cdg`].
pub fn verify_deadlock_free(topo: &Topology, routes: &Routes) -> Result<u8, RouteError> {
    let channels = topo.num_links() * 2;
    // `lanes[vl][c]`: the distinct channels `c` depends on in lane `vl`.
    let mut lanes: Vec<Vec<Vec<u32>>> = Vec::new();
    let mut hops: Vec<DirLink> = Vec::new();
    for src_sw in topo.switches() {
        if topo.attached_nodes(src_sw).next().is_none() {
            continue;
        }
        for (lid, owner) in routes.lid_map.lids() {
            let (dsw, _) = topo.node_switch(owner);
            if dsw == src_sw {
                continue;
            }
            hops.clear();
            walk_lft(topo, routes, src_sw, lid, |dl| hops.push(dl))?;
            if hops.len() < 2 {
                continue;
            }
            let vl = routes.sl(src_sw, lid) as usize;
            if vl >= lanes.len() {
                lanes.resize_with(vl + 1, || vec![Vec::new(); channels]);
            }
            for w in hops.windows(2) {
                let outs = &mut lanes[vl][w[0].index()];
                let to = w[1].index() as u32;
                if !outs.contains(&to) {
                    outs.push(to);
                }
            }
        }
    }
    for (vl, adj) in lanes.iter().enumerate() {
        if !kahn_acyclic(adj) {
            return Err(RouteError::DeadlockCycle { vl: vl as u8 });
        }
    }
    Ok(lanes
        .iter()
        .rposition(|adj| adj.iter().any(|outs| !outs.is_empty()))
        .map_or(1, |i| i as u8 + 1))
}

/// Kahn's algorithm: whether repeatedly removing in-degree-0 channels
/// empties the graph.
fn kahn_acyclic(adj: &[Vec<u32>]) -> bool {
    let mut indeg = vec![0u32; adj.len()];
    for &d in adj.iter().flatten() {
        indeg[d as usize] += 1;
    }
    let mut ready: Vec<usize> = (0..adj.len()).filter(|&c| indeg[c] == 0).collect();
    let mut removed = 0;
    while let Some(c) = ready.pop() {
        removed += 1;
        for &d in &adj[c] {
            indeg[d as usize] -= 1;
            if indeg[d as usize] == 0 {
                ready.push(d as usize);
            }
        }
    }
    removed == adj.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{MinHop, RoutingEngine};
    use crate::lid::{LidMap, LidPolicy};
    use hxtopo::hyperx::HyperXConfig;
    use hxtopo::{LinkClass, NodeId, SwitchId, TopologyBuilder};

    #[test]
    fn stats_on_small_hyperx() {
        let t = HyperXConfig::new(vec![3, 3], 2).build();
        let r = MinHop::default().route(&t).unwrap();
        let s = verify_paths(&t, &r).unwrap();
        assert_eq!(s.pairs, 18 * 17);
        assert!(s.max_isl_hops <= 2);
        assert_eq!(s.hist.iter().sum::<usize>(), s.pairs);
        assert!(s.avg_isl_hops > 0.0);
    }

    #[test]
    fn deadlock_check_flags_cyclic_triangle() {
        // Hand-build the paper's Section 3.2 triangle counter-example:
        // A sends to C via B, and B sends to A via C, and C sends to B via A
        // => three-way dependency cycle on one VL.
        let mut b = TopologyBuilder::new("tri", 3);
        for i in 0..3u32 {
            b.attach_node(SwitchId(i));
        }
        let ab = b.link_switches(SwitchId(0), SwitchId(1), LinkClass::Aoc);
        let bc = b.link_switches(SwitchId(1), SwitchId(2), LinkClass::Aoc);
        let ca = b.link_switches(SwitchId(2), SwitchId(0), LinkClass::Aoc);
        let t = b.build();
        let m = LidMap::new(&t, 0, LidPolicy::Sequential);
        let mut r = crate::lft::Routes::new(&t, m, "manual");
        let term = |n: u32| t.node_switch(NodeId(n)).1;
        // lid of node i = i+1. Route every destination the "long way round".
        // dest n2 (lid 3): A -> B -> C.
        r.set(SwitchId(0), 3, ab);
        r.set(SwitchId(1), 3, bc);
        r.set(SwitchId(2), 3, term(2));
        // dest n0 (lid 1): B -> C -> A.
        r.set(SwitchId(1), 1, bc);
        r.set(SwitchId(2), 1, ca);
        r.set(SwitchId(0), 1, term(0));
        // dest n1 (lid 2): C -> A -> B.
        r.set(SwitchId(2), 2, ca);
        r.set(SwitchId(0), 2, ab);
        r.set(SwitchId(1), 2, term(1));
        assert!(verify_paths(&t, &r).is_ok(), "paths are loop-free");
        assert_eq!(
            verify_deadlock_free(&t, &r),
            Err(RouteError::DeadlockCycle { vl: 0 }),
            "cyclic credit dependency must be detected"
        );
    }

    #[test]
    fn kahn_detects_added_cycle() {
        let mut adj = vec![Vec::new(); 5];
        adj[0].push(1);
        assert!(kahn_acyclic(&adj));
        adj[1].push(0);
        assert!(!kahn_acyclic(&adj));
    }

    #[test]
    fn verify_reports_missing_routes() {
        let t = HyperXConfig::new(vec![2, 2], 1).build();
        let m = LidMap::new(&t, 0, LidPolicy::Sequential);
        let r = crate::lft::Routes::new(&t, m, "empty");
        assert!(matches!(
            verify_paths(&t, &r),
            Err(RouteError::NoRoute { .. })
        ));
    }
}
