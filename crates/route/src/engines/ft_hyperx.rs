//! FT-HyperX — fault-tolerant HyperX routing after Camarero & Cano
//! (arXiv 2404.04315): minimal dimension-ordered paths on the healthy
//! lattice, locally re-selected non-minimal hops around faults, and —
//! the point of the exercise — link churn absorbed by recomputing only
//! the destination trees the dead cable carried, *never* a global
//! resweep.
//!
//! ## The routing rule
//!
//! For destination switch `d`, every switch `s` forwards along the
//! active neighbor edge `(s, w, link)` minimizing, lexicographically:
//!
//! 1. `dist(w, d)` must equal `dist(s, d) - 1` (BFS distance over the
//!    *faulted* lattice — strictly decreasing, hence loop-free);
//! 2. prefer *aligned* hops — `w` differs from `s` in exactly the
//!    dimension where `w` already matches `d`'s coordinate (the
//!    offset-eliminating minimal move of dimension-ordered HyperX
//!    routing); a non-aligned hop is the paper's local deroute, taken
//!    only when faults leave no aligned choice at this distance;
//! 3. lowest link id (deterministic tie-break, matching
//!    [`dijkstra_to_dest`](crate::dijkstra::dijkstra_to_dest)).
//!
//! The rule is *history-free*: each tree is a pure function of the
//! active lattice. That is what makes engine-owned repair exact — a
//! patched tree is bit-identical to what a from-scratch resweep would
//! compute, which `crates/route/tests/engines_repair.rs` pins over
//! random churn sequences.
//!
//! The rule reads only the destination *switch*, so every LID hosted on
//! one switch gets the same tree. [`RoutingEngine::route`] builds each
//! switch's tree once and installs it for all of the switch's LIDs; the
//! repair calls keep a per-call table of the trees they computed,
//! indexed by switch and dropped on return, so one event computes a tree
//! at most once however many terminals share its switch.
//!
//! ## Incremental repair
//!
//! * [`IncrementalRepair::on_fail`]: a tree changes iff some switch's
//!   installed entry used the dead cable (removing a non-chosen
//!   candidate never moves the argmin, and distances are realized by
//!   installed paths, so they only change for trees that used it).
//!   Those trees are recomputed; everything else is untouched. An LFT
//!   entry names a cable incident to its switch, so the test reads the
//!   entries of the cable's two endpoint switches only.
//! * [`IncrementalRepair::on_recover`]: restoring `(u, v)` changes a
//!   tree iff the endpoints' installed hop counts differ by ≥ 2 (a
//!   distance actually improves), an endpoint lost the destination
//!   entirely, or the restored edge beats an endpoint's current argmin
//!   at equal distance (alignment/link-id preference).

use super::{
    assign_vls, install_tree, walked_hops, IncrementalRepair, LftDelta, Multipath, RoutingEngine,
};
use crate::dijkstra::DestTree;
use crate::lft::{RouteError, Routes};
use crate::lid::{Lid, LidMap, LidPolicy};
use hxtopo::hyperx::HyperXShape;
use hxtopo::props::bfs_dist;
use hxtopo::{LinkId, SwitchId, Topology};

/// Fault-tolerant HyperX routing (Camarero/Cano). LMC 0, sequential
/// LIDs; deadlock freedom via the DFSSSP-style lowest-acyclic-VL
/// assignment over the (possibly derouted) path set.
#[derive(Debug, Clone)]
pub struct FtHyperX {
    /// Virtual lanes available for deadlock-free layering.
    pub max_vls: u8,
}

impl Default for FtHyperX {
    fn default() -> FtHyperX {
        FtHyperX { max_vls: 8 }
    }
}

/// Hop preference at fixed distance: aligned (offset-eliminating) moves
/// before deroutes, then lowest link id.
type HopKey = (bool, u32);

impl FtHyperX {
    fn shape(topo: &Topology) -> Result<&HyperXShape, RouteError> {
        topo.meta.as_hyperx().ok_or(RouteError::UnsupportedTopology(
            "FT-HyperX routes HyperX lattices only",
        ))
    }

    /// Whether the neighbor hop `s -> w` eliminates a coordinate offset
    /// toward the destination at `cd` (a minimal dimension-ordered move).
    fn aligned(hx: &HyperXShape, s: SwitchId, w: SwitchId, cd: &[u32]) -> bool {
        let (cs, cw) = (hx.coord(s), hx.coord(w));
        cs.iter()
            .zip(&cw)
            .zip(cd)
            .all(|((&a, &b), &d)| a == b || b == d)
    }

    /// `false` = deroute: the key orders aligned hops first.
    fn hop_key(hx: &HyperXShape, s: SwitchId, w: SwitchId, cd: &[u32], link: LinkId) -> HopKey {
        (!Self::aligned(hx, s, w, cd), link.0)
    }

    /// The destination tree the rule induces on the current (faulted)
    /// lattice. `hops` carries the BFS distances (`u32::MAX` =
    /// unreachable).
    fn local_tree(hx: &HyperXShape, topo: &Topology, dsw: SwitchId) -> DestTree {
        let dist = bfs_dist(topo, dsw);
        let cd = hx.coord(dsw);
        let n = topo.num_switches();
        let mut out: Vec<Option<LinkId>> = vec![None; n];
        let mut hops = vec![u32::MAX; n];
        for s in topo.switches() {
            let ds = dist[s.idx()];
            if ds == usize::MAX {
                continue;
            }
            hops[s.idx()] = ds as u32;
            if s == dsw {
                continue;
            }
            let mut best: Option<(HopKey, LinkId)> = None;
            for (w, link) in topo.active_switch_neighbors(s) {
                if dist[w.idx()] == usize::MAX || dist[w.idx()] + 1 != ds {
                    continue;
                }
                let key = Self::hop_key(hx, s, w, &cd, link);
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, link));
                }
            }
            out[s.idx()] = best.map(|(_, l)| l);
        }
        DestTree {
            dst: dsw,
            hops,
            out,
        }
    }

    /// The tree toward `dsw` from the per-call `trees` table (indexed by
    /// switch), computing it on first use. Every LID of one switch shares
    /// the tree, so an event computes it at most once.
    fn tree_for<'a>(
        trees: &'a mut [Option<DestTree>],
        hx: &HyperXShape,
        topo: &Topology,
        dsw: SwitchId,
    ) -> &'a DestTree {
        trees[dsw.idx()].get_or_insert_with(|| Self::local_tree(hx, topo, dsw))
    }

    /// Diffs one destination LID's recomputed `tree` against the installed
    /// state and appends the entry rewrites. Errs when a node-hosting
    /// switch lost the destination (unroutable — the manager rolls the
    /// event back). Returns whether anything changed.
    fn patch_tree(
        topo: &Topology,
        tree: &DestTree,
        routes: &Routes,
        lid: Lid,
        dlink: LinkId,
        delta: &mut LftDelta,
    ) -> Result<bool, RouteError> {
        for s in topo.switches() {
            if !tree.reachable(s) && topo.attached_nodes(s).next().is_some() {
                return Err(RouteError::NoRoute { switch: s, lid });
            }
        }
        let before = delta.entries.len();
        for s in topo.switches() {
            // Mirror install_tree exactly: the destination switch
            // forwards to the terminal, everything else along the tree.
            let new = if s == tree.dst {
                Some(dlink)
            } else {
                tree.out[s.idx()]
            };
            if routes.get(s, lid) != new {
                delta.entries.push((s, lid, new));
            }
        }
        let changed = delta.entries.len() > before;
        if changed {
            delta.touched.push(lid);
        }
        Ok(changed)
    }

    /// Whether the restored edge `l` (endpoint `s`, peer `w` at walked
    /// hops `hw` vs `s`'s `hs`) beats `s`'s installed argmin choice.
    #[allow(clippy::too_many_arguments)]
    fn endpoint_improves(
        hx: &HyperXShape,
        topo: &Topology,
        routes: &Routes,
        lid: Lid,
        cd: &[u32],
        s: SwitchId,
        w: SwitchId,
        l: LinkId,
        hs: u32,
        hw: u32,
    ) -> bool {
        if hw + 1 != hs {
            return false; // not distance-decreasing through the new edge
        }
        let Some(cur) = routes.get(s, lid) else {
            return true;
        };
        let cur_peer = topo
            .link(cur)
            .a
            .switch()
            .filter(|&p| p != s)
            .or_else(|| topo.link(cur).b.switch().filter(|&p| p != s));
        let Some(cur_peer) = cur_peer else {
            return false; // s is the destination switch (terminal entry)
        };
        Self::hop_key(hx, s, w, cd, l) < Self::hop_key(hx, s, cur_peer, cd, cur)
    }
}

impl RoutingEngine for FtHyperX {
    fn name(&self) -> &'static str {
        "ft-hyperx"
    }

    fn route(&self, topo: &Topology) -> Result<Routes, RouteError> {
        let hx = Self::shape(topo)?;
        let lid_map = LidMap::new(topo, 0, LidPolicy::Sequential);
        let mut routes = Routes::new(topo, lid_map, "ft-hyperx");
        // The tree depends on the destination switch only: build it once
        // and install it for every LID that switch hosts.
        let mut by_switch: Vec<Vec<(Lid, LinkId)>> = vec![Vec::new(); topo.num_switches()];
        for (lid, dst) in routes.lid_map.lids() {
            let (dsw, dlink) = topo.node_switch(dst);
            by_switch[dsw.idx()].push((lid, dlink));
        }
        for (dsw, lids) in topo.switches().zip(&by_switch) {
            if lids.is_empty() {
                continue;
            }
            let tree = Self::local_tree(hx, topo, dsw);
            for &(lid, dlink) in lids {
                install_tree(&mut routes, &tree, lid, dlink);
            }
        }
        assign_vls(topo, &mut routes, self.max_vls)?;
        Ok(routes)
    }

    fn incremental(&self) -> Option<&dyn IncrementalRepair> {
        Some(self)
    }

    fn multipath(&self) -> Option<&dyn Multipath> {
        None
    }
}

impl IncrementalRepair for FtHyperX {
    fn on_fail(&self, topo: &Topology, routes: &Routes, l: LinkId) -> Result<LftDelta, RouteError> {
        let hx = Self::shape(topo)?;
        // An LFT entry names a cable incident to its switch, so only the
        // dead cable's endpoint switches can hold it.
        let link = topo.link(l);
        let ends = [link.a.switch(), link.b.switch()];
        let mut trees: Vec<Option<DestTree>> = vec![None; topo.num_switches()];
        let mut delta = LftDelta::default();
        for (lid, dst) in routes.lid_map.lids() {
            // History-free rule: a tree changes iff an installed entry
            // used the dead cable (see module docs for the argument).
            let uses = ends
                .iter()
                .flatten()
                .any(|&s| routes.get(s, lid) == Some(l));
            if !uses {
                continue;
            }
            let (dsw, dlink) = topo.node_switch(dst);
            let tree = Self::tree_for(&mut trees, hx, topo, dsw);
            Self::patch_tree(topo, tree, routes, lid, dlink, &mut delta)?;
        }
        Ok(delta)
    }

    fn on_recover(
        &self,
        topo: &Topology,
        routes: &Routes,
        l: LinkId,
    ) -> Result<LftDelta, RouteError> {
        let hx = Self::shape(topo)?;
        let link = topo.link(l);
        let (Some(u), Some(v)) = (link.a.switch(), link.b.switch()) else {
            return Err(RouteError::UnsupportedTopology(
                "terminal recovery is a membership change",
            ));
        };
        let mut trees: Vec<Option<DestTree>> = vec![None; topo.num_switches()];
        let mut delta = LftDelta::default();
        for (lid, dst) in routes.lid_map.lids() {
            let (dsw, dlink) = topo.node_switch(dst);
            let cd = hx.coord(dsw);
            let touched = match (
                walked_hops(topo, routes, u, lid),
                walked_hops(topo, routes, v, lid),
            ) {
                (Some(hu), Some(hv)) if hu.abs_diff(hv) < 2 => {
                    // No distance changed anywhere; only the endpoints'
                    // argmin can move (the edge is a new candidate there).
                    Self::endpoint_improves(hx, topo, routes, lid, &cd, u, v, l, hu, hv)
                        || Self::endpoint_improves(hx, topo, routes, lid, &cd, v, u, l, hv, hu)
                }
                // A distance improves through the edge, or an endpoint
                // had no live route at all: recompute the tree.
                _ => true,
            };
            if touched {
                let tree = Self::tree_for(&mut trees, hx, topo, dsw);
                Self::patch_tree(topo, tree, routes, lid, dlink, &mut delta)?;
            }
        }
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathdb::PathDb;
    use crate::verify::{verify_deadlock_free, verify_paths};
    use hxtopo::faults::{FaultCount, FaultPlan};
    use hxtopo::hyperx::HyperXConfig;
    use hxtopo::{fnv1a, LinkClass, FNV_OFFSET};

    fn hx44() -> Topology {
        HyperXConfig::new(vec![4, 4], 2).build()
    }

    #[test]
    fn routes_minimally_on_healthy_lattice() {
        let t = hx44();
        let r = FtHyperX::default().route(&t).unwrap();
        let stats = verify_paths(&t, &r).unwrap();
        assert_eq!(stats.pairs, 32 * 31);
        // HyperX diameter 2: no healthy path exceeds 2 ISL hops.
        assert!(
            stats.hist.iter().skip(3).all(|&n| n == 0),
            "hist {:?}",
            stats.hist
        );
        verify_deadlock_free(&t, &r).unwrap();
    }

    #[test]
    fn rejects_non_hyperx() {
        let t = hxtopo::fattree::FatTreeConfig::tsubame2(28);
        assert!(matches!(
            FtHyperX::default().route(&t),
            Err(RouteError::UnsupportedTopology(_))
        ));
    }

    #[test]
    fn fault_forces_deroute_but_stays_connected() {
        let mut t = HyperXConfig::new(vec![4], 2).build();
        // Kill one ring... 1-D 4-switch HyperX is a clique on 4 switches;
        // kill a direct cable and the pair must deroute to 2 hops.
        let victim = t
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        t.deactivate(victim);
        let r = FtHyperX::default().route(&t).unwrap();
        let stats = verify_paths(&t, &r).unwrap();
        assert_eq!(stats.pairs, 8 * 7);
        assert!(stats.hist.len() >= 3, "no deroute took 2 ISL hops");
    }

    #[test]
    fn on_fail_patch_is_bit_identical_to_resweep() {
        let engine = FtHyperX::default();
        let mut t = hx44();
        let r = engine.route(&t).unwrap();
        let victim = t
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        t.deactivate(victim);
        let delta = engine.on_fail(&t, &r, victim).unwrap();
        assert!(!delta.touched.is_empty(), "victim carried no tree?");
        let mut patched = r.clone();
        delta.apply(&mut patched);
        let fresh = engine.route(&t).unwrap();
        assert!(patched.lft_eq(&fresh));
        // And only a strict subset of trees was recomputed.
        assert!(delta.touched.len() < r.lid_map.lids().count());
        PathDb::build(&t, &patched, 1, 1).unwrap();
    }

    #[test]
    fn on_recover_patch_is_bit_identical_to_resweep() {
        let engine = FtHyperX::default();
        let mut t = hx44();
        let victim = t
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        t.deactivate(victim);
        let faulted = engine.route(&t).unwrap();
        t.activate(victim);
        let delta = engine.on_recover(&t, &faulted, victim).unwrap();
        let mut patched = faulted.clone();
        delta.apply(&mut patched);
        let fresh = engine.route(&t).unwrap();
        assert!(patched.lft_eq(&fresh));
    }

    /// FNV-1a over every LFT entry, every SL byte and `num_vls`.
    fn fold(t: &Topology, r: &Routes) -> u64 {
        let mut h = FNV_OFFSET;
        for s in t.switches() {
            for lid in 0..r.lid_space() as Lid {
                let out = r.get(s, lid).map_or(u32::MAX, |l| l.0);
                h = fnv1a(fnv1a(h, &out.to_le_bytes()), &[r.sl(s, lid)]);
            }
        }
        fnv1a(h, &[r.num_vls])
    }

    #[test]
    fn sweeps_are_pinned() {
        // Taken from the engine that built one tree per destination LID;
        // building one per destination switch must reproduce them.
        let spec = |s: &str| HyperXConfig::parse_spec(s).unwrap().build();
        let mut faulty = spec("4x4x4:t4");
        FaultPlan {
            count: FaultCount::Absolute(6),
            class: None,
            seed: 7,
        }
        .apply(&mut faulty);
        for (name, t, pin) in [
            ("4x4:t2", spec("4x4:t2"), 0x000c9c84282fc798),
            ("4x4x4:t4 - 6 faults", faulty, 0xdfa90b76f2cf17cd),
            ("6x4:t3", spec("6x4:t3"), 0xff7cb34b89bbc9e0),
        ] {
            let r = FtHyperX::default().route(&t).unwrap();
            assert_eq!(fold(&t, &r), pin, "{name}");
        }
    }
}
