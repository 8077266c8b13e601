//! Linear forwarding tables (LFTs) and route/path extraction.
//!
//! Every switch holds a table mapping destination LID -> output cable,
//! exactly like an InfiniBand switch's LFT. A set of LFTs plus a LID map and
//! an optional service-level table forms [`Routes`], the output of every
//! routing engine.

use crate::lid::{Lid, LidMap};
use hxtopo::{Endpoint, LinkId, NodeId, SwitchId, Topology};

/// A directed traversal of a cable (cables are full duplex; capacity is per
/// direction). Packed into a single `u32` for dense indexing: bit 0 is the
/// direction (`0` = a->b), the rest is the link index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirLink(u32);

impl DirLink {
    /// Directed traversal of `link`; `a_to_b` is true when travelling from
    /// endpoint `a` to endpoint `b`.
    #[inline]
    pub fn new(link: LinkId, a_to_b: bool) -> DirLink {
        DirLink(link.0 << 1 | u32::from(!a_to_b))
    }

    /// The underlying cable.
    #[inline]
    pub fn link(self) -> LinkId {
        LinkId(self.0 >> 1)
    }

    /// Direction flag.
    #[inline]
    pub fn a_to_b(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense index over the directed-link space (`2 * num_links`).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`DirLink::index`].
    #[inline]
    pub fn from_index(i: usize) -> DirLink {
        DirLink(i as u32)
    }

    /// The opposite direction of the same cable.
    #[inline]
    pub fn reverse(self) -> DirLink {
        DirLink(self.0 ^ 1)
    }

    /// Directed traversal of `link` leaving endpoint `from`.
    pub fn leaving(topo: &Topology, link: LinkId, from: Endpoint) -> DirLink {
        let l = topo.link(link);
        if l.a == from {
            DirLink::new(link, true)
        } else {
            debug_assert_eq!(l.b, from);
            DirLink::new(link, false)
        }
    }

    /// The endpoint this directed traversal arrives at.
    pub fn head(self, topo: &Topology) -> Endpoint {
        let l = topo.link(self.link());
        if self.a_to_b() {
            l.b
        } else {
            l.a
        }
    }

    /// The endpoint this directed traversal departs from.
    pub fn tail(self, topo: &Topology) -> Endpoint {
        let l = topo.link(self.link());
        if self.a_to_b() {
            l.a
        } else {
            l.b
        }
    }
}

/// A complete route of one message class: source HCA, destination LID, and
/// the directed cables traversed (terminal cables included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Sending node.
    pub src: NodeId,
    /// Destination LID (selects both the target node and the virtual path).
    pub dst_lid: Lid,
    /// Directed cables in traversal order, including the source and
    /// destination terminal cables. Empty for self-sends.
    pub hops: Vec<DirLink>,
}

impl Path {
    /// Number of switch-to-switch cables traversed.
    pub fn isl_hops(&self) -> usize {
        self.hops.len().saturating_sub(2)
    }

    /// Number of switches traversed.
    pub fn switch_hops(&self) -> usize {
        self.hops.len().saturating_sub(1)
    }
}

/// Errors from routing-table construction or path extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// A switch has no LFT entry for a destination LID.
    NoRoute { switch: SwitchId, lid: Lid },
    /// Following the LFT revisited a switch (forwarding loop).
    ForwardingLoop { lid: Lid, at: SwitchId },
    /// A LID is not assigned to any node.
    UnknownLid(Lid),
    /// The routing engine cannot handle this topology.
    UnsupportedTopology(&'static str),
    /// Deadlock-free layering would exceed the available virtual lanes.
    VlOverflow {
        /// VLs that would have been required.
        required: u8,
        /// Hardware limit.
        available: u8,
    },
    /// The path from `switch` to `lid` depends on its own channels: its
    /// dependency chain is cyclic by itself, so no virtual lane can hold it.
    CyclicChain { switch: SwitchId, lid: Lid },
    /// The installed routes close a channel dependency cycle on virtual
    /// lane `vl`: they can deadlock.
    DeadlockCycle { vl: u8 },
    /// The demand-aware reroute trigger fired but the active engine has
    /// no demand-aware variant (`RoutingEngine::with_demand` is `None`).
    NoDemandVariant(&'static str),
    /// A lifecycle operation (named by the payload) ran before the first
    /// successful sweep populated the routing state. Retryable: sweep,
    /// then reissue.
    NotSwept(&'static str),
    /// The manager holds routes but no path store — an incremental patch
    /// or snapshot cannot proceed. Retryable after a full sweep.
    NoPathDb,
    /// An engine-owned incremental repair was requested but the named
    /// engine does not implement the `IncrementalRepair` capability; the
    /// dispatcher falls back to the generic load-aware patch.
    NoEngineRepair(&'static str),
    /// A path-store patch was handed forwarding state with a different
    /// LID-space size than the store it patches (a LID re-assignment is a
    /// full sweep, not a patch).
    LidLayoutChanged {
        /// LID-space size of the store being patched.
        expected: usize,
        /// LID-space size of the handed forwarding state.
        found: usize,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::NoRoute { switch, lid } => {
                write!(f, "no LFT entry at {switch} for LID {lid}")
            }
            RouteError::ForwardingLoop { lid, at } => {
                write!(f, "forwarding loop for LID {lid} at {at}")
            }
            RouteError::UnknownLid(l) => write!(f, "LID {l} has no owner"),
            RouteError::UnsupportedTopology(m) => write!(f, "unsupported topology: {m}"),
            RouteError::VlOverflow {
                required,
                available,
            } => write!(f, "needs {required} VLs, hardware has {available}"),
            RouteError::CyclicChain { switch, lid } => {
                write!(
                    f,
                    "path from {switch} to LID {lid} depends on its own channels"
                )
            }
            RouteError::DeadlockCycle { vl } => {
                write!(f, "channel dependency cycle on VL {vl}")
            }
            RouteError::NoDemandVariant(engine) => {
                write!(f, "engine {engine} has no demand-aware variant")
            }
            RouteError::NotSwept(op) => {
                write!(f, "{op} before the first sweep: no routing state yet")
            }
            RouteError::NoPathDb => write!(f, "no path store for the current epoch"),
            RouteError::NoEngineRepair(engine) => {
                write!(f, "engine {engine} owns no incremental-repair rule")
            }
            RouteError::LidLayoutChanged { expected, found } => {
                write!(f, "LID space changed from {expected} to {found} LIDs")
            }
        }
    }
}

impl std::error::Error for RouteError {}

const NO_ROUTE: u32 = u32::MAX;

/// Complete routing state: per-switch LFTs, the LID map, and the service
/// level (virtual lane) each source uses per destination LID.
#[derive(Debug, Clone)]
pub struct Routes {
    /// LID layout.
    pub lid_map: LidMap,
    /// Flattened LFT: `lft[switch * lid_space + lid]` = output link index.
    lft: Vec<u32>,
    lid_space: usize,
    num_switches: usize,
    /// Service level per `(source switch, destination LID)`; all nodes of a
    /// switch share the path and hence the SL. Empty = SL 0 everywhere.
    sl: Vec<u8>,
    /// Number of virtual lanes the SL table uses (1 = no VL separation).
    pub num_vls: u8,
    /// Engine name that produced these routes.
    pub engine: &'static str,
}

impl Routes {
    /// Empty routing state for a topology.
    pub fn new(topo: &Topology, lid_map: LidMap, engine: &'static str) -> Routes {
        let lid_space = lid_map.lid_space();
        Routes {
            lid_map,
            lft: vec![NO_ROUTE; topo.num_switches() * lid_space],
            lid_space,
            num_switches: topo.num_switches(),
            sl: Vec::new(),
            num_vls: 1,
            engine,
        }
    }

    /// Sets the forwarding entry of `switch` for `lid`.
    #[inline]
    pub fn set(&mut self, switch: SwitchId, lid: Lid, out: LinkId) {
        self.lft[switch.idx() * self.lid_space + lid as usize] = out.0;
    }

    /// Clears the forwarding entry of `switch` for `lid`.
    pub fn clear(&mut self, switch: SwitchId, lid: Lid) {
        self.lft[switch.idx() * self.lid_space + lid as usize] = NO_ROUTE;
    }

    /// Forwarding entry of `switch` for `lid`.
    #[inline]
    pub fn get(&self, switch: SwitchId, lid: Lid) -> Option<LinkId> {
        let v = self.lft[switch.idx() * self.lid_space + lid as usize];
        (v != NO_ROUTE).then_some(LinkId(v))
    }

    /// Number of installed (non-empty) forwarding entries across all
    /// switch LFTs — the fabric-wide routing-table footprint.
    pub fn num_lft_entries(&self) -> usize {
        self.lft.iter().filter(|&&v| v != NO_ROUTE).count()
    }

    /// Whether two routing states install bit-identical forwarding
    /// tables: same LID layout and every LFT entry equal (service levels
    /// excluded — incremental patches keep their old SLs by design).
    /// This is the equality the `IncrementalRepair` proptests pin
    /// between an engine-owned patch and a from-scratch resweep.
    pub fn lft_eq(&self, other: &Routes) -> bool {
        self.lid_space == other.lid_space
            && self.num_switches == other.num_switches
            && self.lft == other.lft
    }

    /// Service level used from `src` towards `dst_lid`.
    #[inline]
    pub fn sl(&self, src_switch: SwitchId, dst_lid: Lid) -> u8 {
        if self.sl.is_empty() {
            0
        } else {
            self.sl[src_switch.idx() * self.lid_space + dst_lid as usize]
        }
    }

    /// Mutable SL entry (used by deadlock-free engines during layering).
    pub(crate) fn sl_entry_mut(&mut self, src_switch: SwitchId, dst_lid: Lid) -> &mut u8 {
        if self.sl.is_empty() {
            self.sl = vec![0; self.num_switches * self.lid_space];
        }
        &mut self.sl[src_switch.idx() * self.lid_space + dst_lid as usize]
    }

    /// LID-space size of the LFTs.
    pub fn lid_space(&self) -> usize {
        self.lid_space
    }

    /// Extracts the full path from a source node to a destination LID by
    /// walking the LFTs, exactly as a packet would be forwarded.
    ///
    /// Self-sends (destination LID owned by `src`) yield an empty path.
    pub fn path(&self, topo: &Topology, src: NodeId, dst_lid: Lid) -> Result<Path, RouteError> {
        let dst = self
            .lid_map
            .owner(dst_lid)
            .ok_or(RouteError::UnknownLid(dst_lid))?;
        if dst == src {
            return Ok(Path {
                src,
                dst_lid,
                hops: Vec::new(),
            });
        }
        let (mut sw, up_link) = topo.node_switch(src);
        let mut hops = Vec::with_capacity(6);
        hops.push(DirLink::leaving(topo, up_link, Endpoint::Node(src)));
        // Bound the walk by the switch count (a loop must revisit within it).
        for _ in 0..=topo.num_switches() {
            let out = self.get(sw, dst_lid).ok_or(RouteError::NoRoute {
                switch: sw,
                lid: dst_lid,
            })?;
            let dl = DirLink::leaving(topo, out, Endpoint::Switch(sw));
            hops.push(dl);
            match dl.head(topo) {
                Endpoint::Node(n) => {
                    if n != dst {
                        return Err(RouteError::NoRoute {
                            switch: sw,
                            lid: dst_lid,
                        });
                    }
                    return Ok(Path { src, dst_lid, hops });
                }
                Endpoint::Switch(next) => sw = next,
            }
        }
        Err(RouteError::ForwardingLoop {
            lid: dst_lid,
            at: sw,
        })
    }

    /// Path to a destination node's `x`-th LID.
    pub fn path_to(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        lid_index: u32,
    ) -> Result<Path, RouteError> {
        self.path(topo, src, self.lid_map.lid(dst, lid_index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lid::LidPolicy;
    use hxtopo::hyperx::HyperXConfig;
    use hxtopo::LinkClass;

    /// Line of three switches, one node each: n0-s0-s1-s2-n2.
    fn line() -> Topology {
        let mut b = hxtopo::TopologyBuilder::new("line", 3);
        for i in 0..3u32 {
            b.attach_node(SwitchId(i));
        }
        b.link_switches(SwitchId(0), SwitchId(1), LinkClass::Aoc);
        b.link_switches(SwitchId(1), SwitchId(2), LinkClass::Aoc);
        b.build()
    }

    fn lid_of(r: &Routes, n: NodeId) -> Lid {
        r.lid_map.base(n)
    }

    fn route_line() -> (Topology, Routes) {
        let t = line();
        let m = LidMap::new(&t, 0, LidPolicy::Sequential);
        let mut r = Routes::new(&t, m, "manual");
        // Destination n0 (lid 1): s0 -> terminal; s1 -> s0; s2 -> s1.
        // Terminal links are LinkId 0..3 in attach order; ISLs 3, 4.
        for (lid, dst) in [(1u32, 0usize), (2, 1), (3, 2)] {
            for sw in 0..3usize {
                let out = if sw == dst {
                    // terminal link of node dst
                    t.node_switch(NodeId(dst as u32)).1
                } else if sw < dst {
                    LinkId(3 + sw as u32) // ISL to the right
                } else {
                    LinkId(3 + sw as u32 - 1) // ISL to the left
                };
                r.set(SwitchId(sw as u32), lid, out);
            }
        }
        (t, r)
    }

    #[test]
    fn dirlink_packing() {
        let d = DirLink::new(LinkId(5), true);
        assert_eq!(d.link(), LinkId(5));
        assert!(d.a_to_b());
        assert_eq!(d.reverse().link(), LinkId(5));
        assert!(!d.reverse().a_to_b());
        assert_eq!(DirLink::from_index(d.index()), d);
    }

    #[test]
    fn path_walk_end_to_end() {
        let (t, r) = route_line();
        let p = r.path(&t, NodeId(0), lid_of(&r, NodeId(2))).unwrap();
        // n0->s0, s0->s1, s1->s2, s2->n2 = 4 hops, 2 ISLs, 3 switches.
        assert_eq!(p.hops.len(), 4);
        assert_eq!(p.isl_hops(), 2);
        assert_eq!(p.switch_hops(), 3);
        // First hop leaves the node; last hop arrives at the node.
        assert_eq!(p.hops[0].tail(&t), Endpoint::Node(NodeId(0)));
        assert_eq!(p.hops[3].head(&t), Endpoint::Node(NodeId(2)));
    }

    #[test]
    fn self_path_is_empty() {
        let (t, r) = route_line();
        let p = r.path(&t, NodeId(1), lid_of(&r, NodeId(1))).unwrap();
        assert!(p.hops.is_empty());
    }

    #[test]
    fn same_switch_path_has_two_hops() {
        let t = HyperXConfig::new(vec![2], 2).build();
        let m = LidMap::new(&t, 0, LidPolicy::Sequential);
        let mut r = Routes::new(&t, m, "manual");
        // n0 and n1 share switch s0.
        let (s0, l1) = t.node_switch(NodeId(1));
        r.set(s0, r.lid_map.base(NodeId(1)), l1);
        let p = r.path(&t, NodeId(0), r.lid_map.base(NodeId(1))).unwrap();
        assert_eq!(p.hops.len(), 2);
        assert_eq!(p.isl_hops(), 0);
    }

    #[test]
    fn missing_entry_is_no_route() {
        let (t, mut r) = route_line();
        r.clear(SwitchId(1), 3);
        let err = r.path(&t, NodeId(0), 3).unwrap_err();
        assert_eq!(
            err,
            RouteError::NoRoute {
                switch: SwitchId(1),
                lid: 3
            }
        );
    }

    #[test]
    fn loops_are_detected() {
        let (t, mut r) = route_line();
        // Make s0 and s1 point at each other for lid 3.
        r.set(SwitchId(0), 3, LinkId(3));
        r.set(SwitchId(1), 3, LinkId(3));
        let err = r.path(&t, NodeId(0), 3).unwrap_err();
        assert!(matches!(err, RouteError::ForwardingLoop { lid: 3, .. }));
    }

    #[test]
    fn unknown_lid_rejected() {
        let (t, r) = route_line();
        assert_eq!(
            r.path(&t, NodeId(0), 0).unwrap_err(),
            RouteError::UnknownLid(0)
        );
        assert_eq!(
            r.path(&t, NodeId(0), 999).unwrap_err(),
            RouteError::UnknownLid(999)
        );
    }

    #[test]
    fn sl_defaults_to_zero() {
        let (_, mut r) = route_line();
        assert_eq!(r.sl(SwitchId(0), 1), 0);
        *r.sl_entry_mut(SwitchId(1), 3) = 2;
        assert_eq!(r.sl(SwitchId(1), 3), 2);
        assert_eq!(r.sl(SwitchId(0), 3), 0);
    }
}
