//! NIC rail selection over a multi-plane fabric.
//!
//! A K-plane system gives every node K NICs — one per plane ("rail").
//! [`MultiFabric`] bundles the per-plane [`Fabric`]s behind one
//! [`hxsim::PathResolver`] and picks the rail per message with a
//! [`RailPolicy`]:
//!
//! * [`RailPolicy::RoundRobin`] — cycle through healthy rails,
//! * [`RailPolicy::FlowHash`] — FNV-1a over `(src, dst, seq)`, so a flow
//!   sticks to one rail (no reordering) while the population spreads,
//! * [`RailPolicy::LeastLoaded`] — the healthy rail with the fewest bytes
//!   resolved so far (cumulative-load balancing).
//!
//! Rails carry a health mask: when a plane's subnet degrades mid-campaign,
//! [`MultiFabric::fail_plane`] takes it out of selection and every policy
//! deterministically fails over onto the surviving rails; recovery puts it
//! back. Selection state is atomic, so concurrent resolvers never lock.

use crate::fabric::Fabric;
use hxsim::{PathResolver, ResolvedPath};
use hxtopo::{fnv1a, FNV_OFFSET};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Which NIC rail (fabric plane) a message leaves on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RailPolicy {
    /// Cycle through healthy rails per message.
    RoundRobin,
    /// Hash `(src, dst, seq)` so each flow pins to one rail.
    FlowHash,
    /// Pick the healthy rail with the fewest cumulative resolved bytes.
    LeastLoaded,
}

impl RailPolicy {
    /// Stable label for reports and bench records.
    pub fn label(&self) -> &'static str {
        match self {
            RailPolicy::RoundRobin => "rr",
            RailPolicy::FlowHash => "hash",
            RailPolicy::LeastLoaded => "load",
        }
    }

    /// All policies, for sweeps.
    pub fn all() -> [RailPolicy; 3] {
        [
            RailPolicy::RoundRobin,
            RailPolicy::FlowHash,
            RailPolicy::LeastLoaded,
        ]
    }
}

/// FNV-1a over the flow identity — cheap, stable across runs.
pub(crate) fn flow_hash(src: usize, dst: usize, seq: u64) -> u64 {
    [src as u64, dst as u64, seq]
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_le_bytes()))
}

/// K per-plane fabrics behind one resolver, with per-rail health and load
/// tracking. Every rank has one NIC on every rail, so any rail can carry
/// any message; the policy just decides which one does.
pub struct MultiFabric<'a> {
    rails: Vec<Fabric<'a>>,
    policy: RailPolicy,
    rr: AtomicU64,
    /// Cumulative resolved bytes per rail ([`RailPolicy::LeastLoaded`]).
    load: Vec<AtomicU64>,
    healthy: Vec<AtomicBool>,
}

impl<'a> MultiFabric<'a> {
    /// Bundles per-plane fabrics (plane order) under a selection policy.
    /// Panics on an empty rail set.
    pub fn new(rails: Vec<Fabric<'a>>, policy: RailPolicy) -> MultiFabric<'a> {
        assert!(!rails.is_empty(), "a multi-fabric needs at least one rail");
        let k = rails.len();
        MultiFabric {
            rails,
            policy,
            rr: AtomicU64::new(0),
            load: (0..k).map(|_| AtomicU64::new(0)).collect(),
            healthy: (0..k).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    /// Number of rails (planes).
    pub fn num_rails(&self) -> usize {
        self.rails.len()
    }

    /// The selection policy.
    pub fn policy(&self) -> RailPolicy {
        self.policy
    }

    /// One plane's fabric.
    pub fn rail(&self, plane: usize) -> &Fabric<'a> {
        &self.rails[plane]
    }

    /// Takes a plane out of rail selection (its subnet is degraded).
    pub fn fail_plane(&self, plane: usize) {
        self.healthy[plane].store(false, Ordering::Relaxed);
    }

    /// Returns a plane to rail selection.
    pub fn recover_plane(&self, plane: usize) {
        self.healthy[plane].store(true, Ordering::Relaxed);
    }

    /// True when the plane participates in selection.
    pub fn is_healthy(&self, plane: usize) -> bool {
        self.healthy[plane].load(Ordering::Relaxed)
    }

    /// Healthy plane indices, ascending.
    pub fn healthy_planes(&self) -> Vec<usize> {
        (0..self.num_rails())
            .filter(|&p| self.is_healthy(p))
            .collect()
    }

    /// Cumulative resolved bytes on one rail.
    pub fn rail_load(&self, plane: usize) -> u64 {
        self.load[plane].load(Ordering::Relaxed)
    }

    /// Charges `bytes` of traffic to a rail (selection does this for
    /// resolved messages; campaigns may add explicit re-resolutions).
    pub fn add_load(&self, plane: usize, bytes: u64) {
        self.load[plane].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Restarts rail selection: the round-robin cursor and every rail's
    /// cumulative load go back to zero, so a replayed workload picks the
    /// rails it picked the first time.
    pub fn reset_selection(&self) {
        self.rr.store(0, Ordering::Relaxed);
        for l in &self.load {
            l.store(0, Ordering::Relaxed);
        }
    }

    /// Picks the rail a message leaves on. Unhealthy rails never win: the
    /// hash and round-robin choices walk forward to the next healthy rail,
    /// least-loaded only considers healthy ones. Falls back to rail 0 when
    /// every plane is down (the caller sees the unroutability, if any,
    /// through that plane's store).
    pub fn select_rail(&self, src: usize, dst: usize, seq: u64) -> usize {
        let k = self.num_rails();
        let pick = match self.policy {
            RailPolicy::RoundRobin => (self.rr.fetch_add(1, Ordering::Relaxed) as usize) % k,
            RailPolicy::FlowHash => (flow_hash(src, dst, seq) as usize) % k,
            RailPolicy::LeastLoaded => {
                let mut best = None;
                for p in 0..k {
                    if !self.is_healthy(p) {
                        continue;
                    }
                    let l = self.rail_load(p);
                    if best.is_none_or(|(_, bl)| l < bl) {
                        best = Some((p, l));
                    }
                }
                return best.map_or(0, |(p, _)| p);
            }
        };
        // Walk forward from the nominal pick to the first healthy rail.
        for off in 0..k {
            let p = (pick + off) % k;
            if self.is_healthy(p) {
                return p;
            }
        }
        0
    }

    /// Resolves a message on an explicit rail, charging its load.
    pub fn resolve_on(
        &self,
        plane: usize,
        src: usize,
        dst: usize,
        bytes: u64,
        seq: u64,
    ) -> ResolvedPath {
        self.add_load(plane, bytes);
        if hxobs::enabled() {
            hxobs::count(&format!("rail.bytes.p{plane}"), bytes);
        }
        self.rails[plane].resolve(src, dst, bytes, seq)
    }
}

impl PathResolver for MultiFabric<'_> {
    fn resolve(&self, src: usize, dst: usize, bytes: u64, seq: u64) -> ResolvedPath {
        let plane = self.select_rail(src, dst, seq);
        self.resolve_on(plane, src, dst, bytes, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Placement, Pml};
    use hxroute::engines::{Dfsssp, MinHop, RoutingEngine};
    use hxroute::Routes;
    use hxsim::NetParams;
    use hxtopo::{NodeId, Topology};

    fn topo() -> Topology {
        hxtopo::hyperx::HyperXConfig::new(vec![4, 4], 1).build()
    }

    fn fabric<'a>(t: &'a Topology, r: &'a Routes) -> Fabric<'a> {
        let nodes: Vec<NodeId> = t.nodes().collect();
        Fabric::new(
            t,
            r,
            Placement::linear(&nodes, 16),
            Pml::Ob1,
            NetParams::qdr(),
        )
        .unwrap()
    }

    #[test]
    fn round_robin_cycles_and_skips_failed() {
        let t = topo();
        let r0 = Dfsssp::default().route(&t).unwrap();
        let r1 = MinHop::default().route(&t).unwrap();
        let mf = MultiFabric::new(
            vec![fabric(&t, &r0), fabric(&t, &r1)],
            RailPolicy::RoundRobin,
        );
        let picks: Vec<usize> = (0..4).map(|s| mf.select_rail(0, 1, s)).collect();
        assert_eq!(picks, vec![0, 1, 0, 1]);
        mf.fail_plane(0);
        assert_eq!(mf.healthy_planes(), vec![1]);
        for s in 0..4 {
            assert_eq!(mf.select_rail(0, 1, s), 1);
        }
        mf.recover_plane(0);
        assert_eq!(mf.healthy_planes(), vec![0, 1]);
    }

    #[test]
    fn flow_hash_is_sticky_and_fails_over() {
        let t = topo();
        let r0 = Dfsssp::default().route(&t).unwrap();
        let r1 = MinHop::default().route(&t).unwrap();
        let mf = MultiFabric::new(vec![fabric(&t, &r0), fabric(&t, &r1)], RailPolicy::FlowHash);
        // Same flow, same rail, every time.
        let p = mf.select_rail(3, 9, 7);
        for _ in 0..5 {
            assert_eq!(mf.select_rail(3, 9, 7), p);
        }
        // Different flows spread across both rails.
        let mut seen = [false; 2];
        for seq in 0..32 {
            seen[mf.select_rail(0, 1, seq)] = true;
        }
        assert!(seen[0] && seen[1]);
        // Failover: the dead rail never wins, the choice stays sticky.
        mf.fail_plane(p);
        let q = mf.select_rail(3, 9, 7);
        assert_ne!(q, p);
        assert_eq!(mf.select_rail(3, 9, 7), q);
    }

    #[test]
    fn least_loaded_balances_bytes() {
        let t = topo();
        let r0 = Dfsssp::default().route(&t).unwrap();
        let r1 = MinHop::default().route(&t).unwrap();
        let mf = MultiFabric::new(
            vec![fabric(&t, &r0), fabric(&t, &r1)],
            RailPolicy::LeastLoaded,
        );
        // First message goes to rail 0 (tie, lowest index), which then
        // carries load, so the next goes to rail 1.
        let a = mf.select_rail(0, 5, 0);
        assert_eq!(a, 0);
        mf.resolve_on(a, 0, 5, 1000, 0);
        assert_eq!(mf.select_rail(0, 5, 1), 1);
        mf.resolve_on(1, 0, 5, 250, 1);
        // Rail 1 (250 bytes) is still lighter than rail 0 (1000).
        assert_eq!(mf.select_rail(0, 5, 2), 1);
        // Health mask wins over load.
        mf.fail_plane(1);
        assert_eq!(mf.select_rail(0, 5, 3), 0);
    }

    #[test]
    fn resolver_resolves_on_selected_rail() {
        let t = topo();
        let r0 = Dfsssp::default().route(&t).unwrap();
        let r1 = MinHop::default().route(&t).unwrap();
        let mf = MultiFabric::new(
            vec![fabric(&t, &r0), fabric(&t, &r1)],
            RailPolicy::RoundRobin,
        );
        let rp = mf.resolve(0, 9, 4096, 0);
        assert!(!rp.hops.is_empty());
        assert_eq!(mf.rail_load(0), 4096);
        assert_eq!(mf.rail_load(1), 0);
        let rp2 = mf.resolve(0, 9, 4096, 1);
        assert!(!rp2.hops.is_empty());
        assert_eq!(mf.rail_load(1), 4096);
    }
}
