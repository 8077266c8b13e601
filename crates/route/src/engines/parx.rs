//! PARX — Pattern-Aware Routing for 2-D HyperX topologies (the paper's
//! Algorithm 1 and central contribution).
//!
//! PARX exploits InfiniBand's LMC multi-LID feature: each HCA port receives
//! four virtual destination LIDs (LMC = 2). When the routing engine computes
//! paths towards LID index `x`, it *temporarily removes* the links inside
//! one half of the HyperX (rules R1–R4 of Section 3.2.1):
//!
//! * LID0 — remove all links within the left half,
//! * LID1 — right half, LID2 — top half, LID3 — bottom half.
//!
//! Depending on the destination's quadrant, some of its LIDs therefore get
//! minimal paths and others forced detours (Figure 3), and the modified bfo
//! PML chooses among them by message size via Table 1.
//!
//! Path calculation is DFSSSP's modified Dijkstra; the edge-weight updates
//! are demand-driven: for destinations listed in the ingested communication
//! profile, each source's weight contribution is its normalized demand
//! `w in 1..=255` rather than the oblivious `+1`, separating high-traffic
//! paths as much as possible (Section 3.2.3). Deadlock freedom comes from
//! the same VL layering as DFSSSP; the paper measured 5–8 VLs for its runs.

use super::{assign_vls, install_tree, walk_lft, RoutingEngine};
use crate::demand::Demand;
use crate::dijkstra::{dijkstra_to_dest, EdgeWeights};
use crate::lft::{RouteError, Routes};
use crate::lid::{LidMap, LidPolicy};
use crate::table1::{rule_for_lid, RemovedHalf};
use hxtopo::{NodeId, Topology};

/// PARX configuration.
#[derive(Debug, Clone, Default)]
pub struct Parx {
    /// Ingested communication profile (node-level, see [`Demand`]); `None`
    /// degrades PARX to oblivious `+1` balancing for all destinations.
    pub demand: Option<Demand>,
    /// Hardware virtual-lane limit; 0 means the QDR default of 8.
    pub max_vls: u8,
}

impl Parx {
    /// PARX with a communication profile.
    pub fn with_demand(demand: Demand) -> Parx {
        Parx {
            demand: Some(demand),
            max_vls: 8,
        }
    }

    /// Builds the four link masks implementing rules R1–R4: `masks[x][link]`
    /// is false when routing towards LID index `x` must ignore the cable.
    fn build_masks(topo: &Topology) -> Result<[Vec<bool>; 4], RouteError> {
        let hx = topo
            .meta
            .as_hyperx()
            .ok_or(RouteError::UnsupportedTopology(
                "PARX requires a HyperX topology",
            ))?;
        if hx.dims() != 2 || hx.shape.iter().any(|&s| s % 2 != 0) {
            return Err(RouteError::UnsupportedTopology(
                "PARX prototype supports 2-D HyperX with even dimensions",
            ));
        }
        let (sx, sy) = (hx.shape[0], hx.shape[1]);
        let mut masks = [(); 4].map(|_| vec![true; topo.num_links()]);
        for (id, link) in topo.links() {
            let (Some(a), Some(b)) = (link.a.switch(), link.b.switch()) else {
                continue; // terminal cables are never removed
            };
            let (ca, cb) = (hx.coord(a), hx.coord(b));
            for x in 0u8..4 {
                // Indices without a rule (non-LMC-2 spaces) remove nothing:
                // their LIDs simply route minimally.
                let Some(half) = rule_for_lid(x) else {
                    continue;
                };
                let inside = |c: &[u32]| match half {
                    RemovedHalf::Left => c[0] < sx / 2,
                    RemovedHalf::Right => c[0] >= sx / 2,
                    RemovedHalf::Top => c[1] < sy / 2,
                    RemovedHalf::Bottom => c[1] >= sy / 2,
                };
                if inside(&ca) && inside(&cb) {
                    masks[x as usize][id.idx()] = false;
                }
            }
        }
        Ok(masks)
    }
}

impl RoutingEngine for Parx {
    fn name(&self) -> &'static str {
        "parx"
    }

    fn with_demand(&self, demand: Demand) -> Option<Box<dyn RoutingEngine>> {
        Some(Box::new(Parx::with_demand(demand)))
    }

    fn route(&self, topo: &Topology) -> Result<Routes, RouteError> {
        let masks = Self::build_masks(topo)?;
        let lid_map = LidMap::new(topo, 2, LidPolicy::QuadrantBlocks);
        let mut routes = Routes::new(topo, lid_map, "parx");
        let mut weights = EdgeWeights::new(topo);

        let norm = self.demand.as_ref().map(|d| d.normalized());

        // Destination order: demand-listed nodes first (profile order), then
        // every other node — Algorithm 1's two outer loops.
        let listed: Vec<NodeId> = self
            .demand
            .as_ref()
            .map(|d| d.listed_destinations())
            .unwrap_or_default();
        let mut is_listed = vec![false; topo.num_nodes()];
        for &n in &listed {
            is_listed[n.idx()] = true;
        }
        let rest: Vec<NodeId> = topo.nodes().filter(|n| !is_listed[n.idx()]).collect();

        for (phase_norm, dests) in [(norm.as_ref(), &listed), (None, &rest)] {
            for &nd in dests {
                let (dsw, dlink) = topo.node_switch(nd);
                for x in 0u32..4 {
                    let lid = routes.lid_map.lid(nd, x);
                    // Temporary graph I* with rule-R(x) links removed.
                    let tree = dijkstra_to_dest(topo, dsw, &weights, Some(&masks[x as usize]));
                    install_tree(&mut routes, &tree, lid, dlink);

                    // Fault tolerance (paper footnote 7): switches isolated
                    // by the removal fall back to the unrestricted graph.
                    if tree
                        .out
                        .iter()
                        .enumerate()
                        .any(|(s, o)| o.is_none() && s != dsw.idx())
                    {
                        let full = dijkstra_to_dest(topo, dsw, &weights, None);
                        for s in topo.switches() {
                            if s != dsw && !tree.reachable(s) {
                                if let Some(link) = full.out[s.idx()] {
                                    routes.set(s, lid, link);
                                }
                            }
                        }
                    }

                    // Edge-weight update before the next round.
                    if let Some(norm) = phase_norm {
                        for (nx, w) in norm.senders_to(nd) {
                            if nx == nd {
                                continue;
                            }
                            let (ssw, _) = topo.node_switch(nx);
                            if ssw == dsw {
                                continue;
                            }
                            walk_lft(topo, &routes, ssw, lid, |dl| weights.add(dl, w as u64))?;
                        }
                    } else {
                        for nx in topo.nodes() {
                            if nx == nd {
                                continue;
                            }
                            let (ssw, _) = topo.node_switch(nx);
                            if ssw == dsw {
                                continue;
                            }
                            walk_lft(topo, &routes, ssw, lid, |dl| weights.add(dl, 1))?;
                        }
                    }
                }
            }
        }

        // Deadlock-free VL layering over all paths, including virtual LIDs.
        let max_vls = if self.max_vls == 0 { 8 } else { self.max_vls };
        assign_vls(topo, &mut routes, max_vls)?;
        Ok(routes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::{lid_choices, SizeClass};
    use crate::verify::{verify_deadlock_free, verify_paths};
    use hxtopo::hyperx::{HyperXConfig, Quadrant};
    use hxtopo::props::bfs_dist;
    use hxtopo::SwitchId;

    fn small_hx() -> Topology {
        HyperXConfig::new(vec![4, 4], 2).build()
    }

    #[test]
    fn parx_rejects_non_hyperx() {
        let t = hxtopo::fattree::FatTreeConfig::k_ary_n_tree(4, 2);
        assert!(matches!(
            Parx::default().route(&t),
            Err(RouteError::UnsupportedTopology(_))
        ));
    }

    #[test]
    fn parx_rejects_odd_dimensions() {
        let t = HyperXConfig::new(vec![3, 4], 1).build();
        assert!(matches!(
            Parx::default().route(&t),
            Err(RouteError::UnsupportedTopology(_))
        ));
    }

    #[test]
    fn parx_all_lids_reachable_and_deadlock_free() {
        let t = small_hx();
        let r = Parx::default().route(&t).unwrap();
        let stats = verify_paths(&t, &r).unwrap();
        // 32 nodes x 31 peers x 4 LIDs each.
        assert_eq!(stats.pairs, 32 * 31 * 4);
        let vls = verify_deadlock_free(&t, &r).unwrap();
        assert!(vls <= 8, "paper: PARX needs 5-8 VLs, got {vls}");
    }

    #[test]
    fn small_lids_give_minimal_paths_large_forced_detours() {
        // The structural heart of PARX (Figure 3 / Table 1): for every node
        // pair, the Table-1a LID yields a hop-minimal route, and for
        // same-quadrant remote pairs the Table-1b LID is strictly longer.
        let t = small_hx();
        let hx = t.meta.as_hyperx().unwrap().clone();
        let r = Parx::default().route(&t).unwrap();
        let mut detours = 0usize;
        for src in t.nodes() {
            let (ssw, _) = t.node_switch(src);
            let min_dist = bfs_dist(&t, ssw);
            for dst in t.nodes() {
                if src == dst {
                    continue;
                }
                let (dsw, _) = t.node_switch(dst);
                if ssw == dsw {
                    continue;
                }
                let (sq, dq) = (hx.quadrant(ssw).unwrap(), hx.quadrant(dsw).unwrap());
                let minimal = min_dist[dsw.idx()];
                for &x in lid_choices(sq, dq, SizeClass::Small) {
                    let p = r.path_to(&t, src, dst, x as u32).unwrap();
                    assert_eq!(
                        p.isl_hops(),
                        minimal,
                        "small {src}->{dst} via LID{x}: {sq:?}->{dq:?}"
                    );
                }
                if sq == dq {
                    for &x in lid_choices(sq, dq, SizeClass::Large) {
                        let p = r.path_to(&t, src, dst, x as u32).unwrap();
                        assert!(p.isl_hops() >= minimal, "large path shorter than minimal?");
                        if p.isl_hops() > minimal {
                            detours += 1;
                        }
                    }
                }
            }
        }
        assert!(detours > 0, "large same-quadrant traffic must detour");
    }

    #[test]
    fn parx_increases_path_diversity_between_adjacent_switches() {
        // Paper Section 3.2.1: between two switches in one half, the four
        // LIDs' paths use more distinct first cables than the single
        // minimal route.
        let t = HyperXConfig::new(vec![8, 4], 2).build();
        let hx = t.meta.as_hyperx().unwrap().clone();
        let r = Parx::default().route(&t).unwrap();
        // Nodes on switches (0,0) and (1,0): same row, both left-top (Q0).
        let s0 = hx.switch_at(&[0, 0]);
        let s1 = hx.switch_at(&[1, 0]);
        let n0 = t.attached_nodes(s0).next().unwrap().0;
        let n1 = t.attached_nodes(s1).next().unwrap().0;
        let mut first_isl = std::collections::HashSet::new();
        for x in 0..4 {
            let p = r.path_to(&t, n0, n1, x).unwrap();
            if p.isl_hops() > 0 {
                first_isl.insert(p.hops[1]);
            }
        }
        assert!(
            first_isl.len() >= 2,
            "PARX should provide disjoint alternatives, got {first_isl:?}"
        );
        let _ = Quadrant::Q0;
    }

    #[test]
    fn parx_with_demand_shifts_weights() {
        // A demand profile concentrates weight, so the resulting tables must
        // differ from the oblivious run somewhere.
        let t = small_hx();
        let oblivious = Parx::default().route(&t).unwrap();
        let mut d = Demand::new(t.num_nodes());
        // Heavy all-to-all among the first 8 nodes.
        for i in 0..8u32 {
            for j in 0..8u32 {
                if i != j {
                    d.add(hxtopo::NodeId(i), hxtopo::NodeId(j), 1 << 20);
                }
            }
        }
        let aware = Parx::with_demand(d).route(&t).unwrap();
        verify_paths(&t, &aware).unwrap();
        verify_deadlock_free(&t, &aware).unwrap();
        let mut differs = false;
        'outer: for src in t.nodes() {
            for (lid, dst) in oblivious.lid_map.lids() {
                if dst == src {
                    continue;
                }
                // Note: LID layouts coincide (same policy), so compare paths.
                if oblivious.path(&t, src, lid).unwrap().hops
                    != aware.path(&t, src, lid).unwrap().hops
                {
                    differs = true;
                    break 'outer;
                }
            }
        }
        assert!(differs, "demand must influence routing");
    }

    #[test]
    fn parx_fault_tolerant_fallback() {
        use hxtopo::faults::{FaultCount, FaultPlan};
        let mut t = HyperXConfig::t2_hyperx(56).build();
        // Aggressive but survivable damage.
        FaultPlan {
            count: FaultCount::Absolute(40),
            class: None,
            seed: 7,
        }
        .apply(&mut t);
        let r = Parx::default().route(&t).unwrap();
        verify_paths(&t, &r).unwrap();
        verify_deadlock_free(&t, &r).unwrap();
    }

    #[test]
    fn parx_uses_quadrant_lid_blocks() {
        let t = small_hx();
        let r = Parx::default().route(&t).unwrap();
        let hx = t.meta.as_hyperx().unwrap().clone();
        for n in t.nodes() {
            let q = hx.quadrant(t.node_switch(n).0).unwrap();
            assert_eq!(r.lid_map.quadrant_of_lid(r.lid_map.base(n)), Some(q));
        }
        let _ = SwitchId(0);
    }
}
