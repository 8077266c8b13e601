//! Up*/Down* routing (Autonet, Schroeder et al. '91): links are oriented
//! towards a root switch; legal paths climb zero or more "up" links, then
//! descend zero or more "down" links. Cyclic channel dependencies are
//! impossible, so one virtual lane suffices on any topology — the classic
//! deadlock-avoidance reference the paper cites alongside Nue.
//!
//! Because InfiniBand forwarding is destination-based and memoryless, the
//! implementation uses the consistent "descend as soon as a pure-down path
//! exists" rule: a switch with a finite down-only distance to the
//! destination always descends (every switch on a pure-down path also has
//! one), and all other switches climb towards the root, which always has a
//! pure-down path. Transitions are therefore only up->up, up->down and
//! down->down, keeping the channel dependency graph acyclic. Paths may be
//! non-minimal — the well-known cost of Up*/Down*.

use super::RoutingEngine;
use crate::lft::{RouteError, Routes};
use crate::lid::{LidMap, LidPolicy};
use hxtopo::props::bfs_dist;
use hxtopo::{LinkId, SwitchId, Topology};

/// Up*/Down* configuration.
#[derive(Debug, Clone, Default)]
pub struct UpDown {
    /// Root switch; defaults to the switch with the highest degree (ties to
    /// the lowest id), which approximates the usual "most central" pick.
    pub root: Option<SwitchId>,
}

impl UpDown {
    fn pick_root(&self, topo: &Topology) -> Result<SwitchId, RouteError> {
        match self.root {
            Some(r) if r.idx() < topo.num_switches() => Ok(r),
            Some(_) => Err(RouteError::UnsupportedTopology(
                "updown: the configured root is not a switch of this topology",
            )),
            None => topo
                .switches()
                .max_by_key(|&s| {
                    (
                        topo.active_switch_neighbors(s).count(),
                        usize::MAX - s.idx(),
                    )
                })
                .ok_or(RouteError::UnsupportedTopology(
                    "updown: the topology has no switches",
                )),
        }
    }
}

impl RoutingEngine for UpDown {
    fn name(&self) -> &'static str {
        "updown"
    }

    fn route(&self, topo: &Topology) -> Result<Routes, RouteError> {
        let root = self.pick_root(topo)?;
        let depth = bfs_dist(topo, root);
        let n = topo.num_switches();
        // Total order: closer to the root (then lower id) = "upper" end.
        // An s -> p move is "up" iff ord(p) < ord(s).
        let ord = |s: SwitchId| (depth[s.idx()], s.idx());

        let lid_map = LidMap::new(topo, 0, LidPolicy::Sequential);
        let mut routes = Routes::new(topo, lid_map, "updown");

        // Switches sorted by ord ascending (root-most first).
        let mut by_ord: Vec<SwitchId> = topo.switches().collect();
        by_ord.sort_by_key(|&s| ord(s));

        let dests: Vec<_> = routes.lid_map.lids().collect();
        let inf = u32::MAX;
        for (lid, dst) in dests {
            let (dsw, dlink) = topo.node_switch(dst);

            // dd[s]: shortest down-only distance s -> dsw (down moves go to
            // strictly higher ord). dd[s] depends on higher-ord neighbors,
            // so process ord-descending.
            let mut dd = vec![inf; n];
            dd[dsw.idx()] = 0;
            for &s in by_ord.iter().rev() {
                if s == dsw {
                    continue;
                }
                let mut best = inf;
                for (p, _) in topo.active_switch_neighbors(s) {
                    if ord(p) > ord(s) && dd[p.idx()] != inf {
                        best = best.min(dd[p.idx()].saturating_add(1));
                    }
                }
                dd[s.idx()] = best;
            }

            // h[s]: climb distance until a pure-down path is available.
            // h = dd where finite; otherwise 1 + min over up-neighbors.
            // Up moves decrease ord, so process ord-ascending.
            let mut h = dd.clone();
            for &s in &by_ord {
                if h[s.idx()] != inf {
                    continue;
                }
                let mut best = inf;
                for (p, _) in topo.active_switch_neighbors(s) {
                    if ord(p) < ord(s) && h[p.idx()] != inf {
                        best = best.min(h[p.idx()].saturating_add(1));
                    }
                }
                h[s.idx()] = best;
            }

            for s in topo.switches() {
                if s == dsw {
                    routes.set(s, lid, dlink);
                    continue;
                }
                let mut cands: Vec<LinkId> = Vec::new();
                if dd[s.idx()] != inf {
                    // Descend: every candidate also has a pure-down path.
                    for (p, link) in topo.active_switch_neighbors(s) {
                        if ord(p) > ord(s) && dd[p.idx()] != inf && dd[p.idx()] + 1 == dd[s.idx()] {
                            cands.push(link);
                        }
                    }
                } else if h[s.idx()] != inf {
                    // Climb towards a switch that can descend.
                    for (p, link) in topo.active_switch_neighbors(s) {
                        if ord(p) < ord(s) && h[p.idx()] != inf && h[p.idx()] + 1 == h[s.idx()] {
                            cands.push(link);
                        }
                    }
                }
                if !cands.is_empty() {
                    routes.set(s, lid, cands[lid as usize % cands.len()]);
                }
            }
        }
        Ok(routes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_deadlock_free, verify_paths};
    use hxtopo::fattree::FatTreeConfig;
    use hxtopo::hyperx::HyperXConfig;

    #[test]
    fn switchless_topology_or_foreign_root_is_a_typed_error() {
        let empty = hxtopo::TopologyBuilder::new("empty", 0).build();
        assert!(matches!(
            UpDown::default().route(&empty),
            Err(RouteError::UnsupportedTopology(_))
        ));
        let t = HyperXConfig::new(vec![2, 2], 1).build();
        let far = UpDown {
            root: Some(SwitchId(4)),
        };
        assert!(matches!(
            far.route(&t),
            Err(RouteError::UnsupportedTopology(_))
        ));
    }

    #[test]
    fn updown_routes_hyperx_one_vl() {
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = UpDown::default().route(&t).unwrap();
        verify_paths(&t, &r).unwrap();
        let vls = verify_deadlock_free(&t, &r).unwrap();
        assert_eq!(vls, 1, "up*/down* must be deadlock-free with one VL");
    }

    #[test]
    fn updown_routes_fattree() {
        let t = FatTreeConfig::k_ary_n_tree(3, 3);
        let r = UpDown::default().route(&t).unwrap();
        let stats = verify_paths(&t, &r).unwrap();
        assert!(stats.max_isl_hops <= 6);
        verify_deadlock_free(&t, &r).unwrap();
    }

    #[test]
    fn updown_paths_may_exceed_minimal() {
        // The price of up*/down* on a direct network: some paths are longer
        // than the 2-hop HyperX minimum, but never unreasonable.
        let t = HyperXConfig::new(vec![4, 4], 1).build();
        let r = UpDown::default().route(&t).unwrap();
        let stats = verify_paths(&t, &r).unwrap();
        assert!(stats.max_isl_hops >= 2);
        assert!(stats.max_isl_hops <= 4, "{stats:?}");
    }

    #[test]
    fn updown_explicit_root() {
        let t = HyperXConfig::new(vec![3, 3], 1).build();
        let r = UpDown {
            root: Some(SwitchId(4)),
        }
        .route(&t)
        .unwrap();
        verify_paths(&t, &r).unwrap();
        verify_deadlock_free(&t, &r).unwrap();
    }

    #[test]
    fn updown_survives_faults() {
        use hxtopo::faults::FaultPlan;
        let mut t = HyperXConfig::t2_hyperx(70).build();
        FaultPlan::t2_hyperx().apply(&mut t);
        let r = UpDown::default().route(&t).unwrap();
        verify_paths(&t, &r).unwrap();
        verify_deadlock_free(&t, &r).unwrap();
    }

    #[test]
    fn updown_deterministic() {
        let t = HyperXConfig::new(vec![4, 3], 2).build();
        let a = UpDown::default().route(&t).unwrap();
        let b = UpDown::default().route(&t).unwrap();
        for src in t.nodes() {
            for (lid, _) in a.lid_map.lids() {
                assert_eq!(a.path(&t, src, lid).unwrap(), b.path(&t, src, lid).unwrap());
            }
        }
    }
}
