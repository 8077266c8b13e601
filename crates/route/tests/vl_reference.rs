//! Equivalence of the engines' virtual-lane assignment with a reference
//! assigner written from scratch: greedy lowest-lane placement of every
//! `(source switch, destination LID)` path, walking the LFTs itself and
//! testing each lane for cycles with plain depth-first reachability. The
//! SL table and the VL count must match the engines' output exactly.

use hxroute::engines::engine_by_name;
use hxroute::Routes;
use hxtopo::faults::{FaultCount, FaultPlan};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{Endpoint, SwitchId, Topology};
use std::collections::HashSet;

/// The engines that place paths on virtual lanes.
const ENGINES: [&str; 5] = ["parx", "dfsssp", "fatpaths", "lash", "ft-hyperx"];

/// One lane: adjacency lists plus the edge set, over channel ids
/// `2 * link + direction`.
struct Lane {
    adj: Vec<Vec<u32>>,
    edges: HashSet<(u32, u32)>,
}

impl Lane {
    fn new(channels: usize) -> Lane {
        Lane {
            adj: vec![Vec::new(); channels],
            edges: HashSet::new(),
        }
    }

    fn reaches(&self, from: u32, to: u32) -> bool {
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![from];
        seen[from as usize] = true;
        while let Some(c) = stack.pop() {
            if c == to {
                return true;
            }
            for &d in &self.adj[c as usize] {
                if !seen[d as usize] {
                    seen[d as usize] = true;
                    stack.push(d);
                }
            }
        }
        false
    }

    /// Adds the chain's edges if the lane stays acyclic; otherwise leaves
    /// the lane untouched and returns `false`.
    fn try_add(&mut self, chain: &[(u32, u32)]) -> bool {
        let mut new: Vec<(u32, u32)> = Vec::new();
        for &e in chain {
            if !self.edges.contains(&e) && !new.contains(&e) {
                new.push(e);
            }
        }
        for &(a, b) in &new {
            self.adj[a as usize].push(b);
        }
        // With every new edge in place, `a -> b` lies on a cycle iff `b`
        // reaches `a`.
        if new.iter().any(|&(a, b)| self.reaches(b, a)) {
            for &(a, _) in new.iter().rev() {
                self.adj[a as usize].pop();
            }
            return false;
        }
        self.edges.extend(new);
        true
    }
}

/// The channels a packet from `from` to `lid` traverses between switches.
fn isl_channels(topo: &Topology, routes: &Routes, from: SwitchId, lid: u32) -> Vec<u32> {
    let mut cur = from;
    let mut out = Vec::new();
    loop {
        let l = routes.get(cur, lid).expect("routed");
        let link = topo.link(l);
        let (dir, head) = if link.a == Endpoint::Switch(cur) {
            (0, link.b)
        } else {
            (1, link.a)
        };
        match head {
            Endpoint::Switch(next) => {
                out.push(2 * l.0 + dir);
                cur = next;
                assert!(out.len() <= topo.num_switches(), "forwarding loop");
            }
            Endpoint::Node(_) => return out,
        }
    }
}

/// The reference assignment: the SL of every `(switch, LID)` (0 where no
/// lane is assigned) and the lane count.
fn reference_sl(topo: &Topology, routes: &Routes) -> (Vec<Vec<u8>>, u8) {
    let lids: Vec<_> = routes.lid_map.lids().collect();
    let mut sl = vec![vec![0u8; routes.lid_space()]; topo.num_switches()];
    let channels = topo.num_links() * 2;
    let mut lanes = vec![Lane::new(channels)];
    for &(lid, owner) in &lids {
        let (dsw, _) = topo.node_switch(owner);
        for s in topo.switches() {
            if s == dsw || topo.attached_nodes(s).next().is_none() {
                continue;
            }
            let hops = isl_channels(topo, routes, s, lid);
            let chain: Vec<(u32, u32)> = hops.windows(2).map(|w| (w[0], w[1])).collect();
            if chain.is_empty() {
                continue;
            }
            let vl = match lanes.iter_mut().position(|lane| lane.try_add(&chain)) {
                Some(vl) => vl,
                None => {
                    let mut lane = Lane::new(channels);
                    assert!(lane.try_add(&chain), "a path's chain is acyclic");
                    lanes.push(lane);
                    lanes.len() - 1
                }
            };
            sl[s.idx()][lid as usize] = vl as u8;
        }
    }
    (sl, lanes.len() as u8)
}

fn assert_matches_reference(shape: &str, topo: &Topology) {
    let mut most_vls = 0;
    for name in ENGINES {
        let routes = engine_by_name(name).unwrap().route(topo).unwrap();
        let (sl, num_vls) = reference_sl(topo, &routes);
        assert_eq!(routes.num_vls, num_vls, "{name} on {shape}: VL count");
        most_vls = most_vls.max(num_vls);
        for s in topo.switches() {
            for lid in 0..routes.lid_space() as u32 {
                assert_eq!(
                    routes.sl(s, lid),
                    sl[s.idx()][lid as usize],
                    "{name} on {shape}: SL of {s} -> LID {lid}"
                );
            }
        }
    }
    assert!(most_vls > 1, "{shape} never opens a second lane");
}

#[test]
fn sl_tables_match_reference_on_4x4() {
    let t = HyperXConfig::new(vec![4, 4], 2).build();
    assert_matches_reference("4x4", &t);
}

#[test]
fn sl_tables_match_reference_on_faulted_6x4() {
    let mut t = HyperXConfig::new(vec![6, 4], 2).build();
    FaultPlan {
        count: FaultCount::Absolute(4),
        class: None,
        seed: 11,
    }
    .apply(&mut t);
    assert_matches_reference("faulted 6x4", &t);
}

#[test]
fn sl_tables_match_reference_on_degraded_12x8() {
    let mut t = HyperXConfig::t2_hyperx(672).build();
    FaultPlan::t2_hyperx().apply(&mut t);
    assert_matches_reference("degraded 12x8", &t);
}
