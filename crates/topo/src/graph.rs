//! Core topology graph: switches, terminal nodes, bidirectional links and
//! adjacency, with support for deactivating (faulting) individual cables.

use crate::ids::{LinkId, NodeId, SwitchId};
use crate::TopoMeta;

/// What a link endpoint is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A switch port.
    Switch(SwitchId),
    /// A terminal node's HCA port.
    Node(NodeId),
}

impl Endpoint {
    /// The switch, if this endpoint is a switch.
    #[inline]
    pub fn switch(self) -> Option<SwitchId> {
        match self {
            Endpoint::Switch(s) => Some(s),
            Endpoint::Node(_) => None,
        }
    }

    /// The node, if this endpoint is a terminal.
    #[inline]
    pub fn node(self) -> Option<NodeId> {
        match self {
            Endpoint::Node(n) => Some(n),
            Endpoint::Switch(_) => None,
        }
    }
}

/// Physical class of a cable. The paper distinguishes rack-internal passive
/// copper from the active optical cables (AOCs) that were harvested,
/// re-routed and partially broken during the rewiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// Switch-to-node cable (always rack-internal).
    Terminal,
    /// Rack-internal switch-to-switch passive copper.
    Copper,
    /// Inter-rack active optical cable — the fault-prone class.
    Aoc,
}

/// A full-duplex cable. Capacity is per direction, in bytes per second.
#[derive(Debug, Clone)]
pub struct Link {
    /// First endpoint (for terminal links always the switch side).
    pub a: Endpoint,
    /// Second endpoint.
    pub b: Endpoint,
    /// Per-direction capacity in bytes/second (QDR 4X: ~4 GB/s raw,
    /// ~3.4 GB/s observable after 8b/10b and protocol overhead).
    pub capacity: f64,
    /// Physical cable class.
    pub class: LinkClass,
    /// Whether the cable is present and healthy.
    pub active: bool,
}

impl Link {
    /// The endpoint opposite to `from`, or `None` if `from` is not on this link.
    #[inline]
    pub fn other(&self, from: Endpoint) -> Option<Endpoint> {
        if self.a == from {
            Some(self.b)
        } else if self.b == from {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Adjacency record: one usable port of a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjEntry {
    /// The cable behind this port.
    pub link: LinkId,
    /// What the cable connects to.
    pub peer: Endpoint,
}

/// An immutable-shape (links may be deactivated) interconnection network.
///
/// Built through [`TopologyBuilder`]; generators in [`crate::fattree`] and
/// [`crate::hyperx`] produce ready-made instances.
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    num_switches: usize,
    links: Vec<Link>,
    /// Per-switch adjacency (includes terminal links).
    sw_adj: Vec<Vec<AdjEntry>>,
    /// Per-node: the switch it attaches to and the terminal link.
    node_attach: Vec<(SwitchId, LinkId)>,
    /// Generator metadata (levels / lattice coordinates).
    pub meta: TopoMeta,
}

impl Topology {
    /// Human-readable topology name (e.g. `"hyperx-12x8-t7"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of switches.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.num_switches
    }

    /// Number of terminal nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_attach.len()
    }

    /// Number of cables (including inactive ones).
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of currently active switch-to-switch cables.
    pub fn num_active_isl(&self) -> usize {
        self.links
            .iter()
            .filter(|l| l.active && l.class != LinkClass::Terminal)
            .count()
    }

    /// All switch ids.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> {
        (0..self.num_switches as u32).map(SwitchId)
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_attach.len() as u32).map(NodeId)
    }

    /// Cable lookup.
    #[inline]
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.idx()]
    }

    /// All cables with ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId::from_idx(i), l))
    }

    /// Adjacency of a switch — all its ports, including ports whose cable is
    /// currently inactive (callers filter with [`Topology::is_active`]).
    #[inline]
    pub fn adj(&self, s: SwitchId) -> &[AdjEntry] {
        &self.sw_adj[s.idx()]
    }

    /// Active switch-to-switch neighbors of a switch.
    pub fn active_switch_neighbors(
        &self,
        s: SwitchId,
    ) -> impl Iterator<Item = (SwitchId, LinkId)> + '_ {
        self.sw_adj[s.idx()].iter().filter_map(move |e| {
            if !self.links[e.link.idx()].active {
                return None;
            }
            e.peer.switch().map(|p| (p, e.link))
        })
    }

    /// Active terminal nodes attached to a switch.
    pub fn attached_nodes(&self, s: SwitchId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        self.sw_adj[s.idx()].iter().filter_map(move |e| {
            if !self.links[e.link.idx()].active {
                return None;
            }
            e.peer.node().map(|n| (n, e.link))
        })
    }

    /// The switch a node hangs off, and the terminal cable.
    #[inline]
    pub fn node_switch(&self, n: NodeId) -> (SwitchId, LinkId) {
        self.node_attach[n.idx()]
    }

    /// Is a cable active?
    #[inline]
    pub fn is_active(&self, l: LinkId) -> bool {
        self.links[l.idx()].active
    }

    /// Deactivate a cable (fault injection). Returns the previous state.
    pub fn deactivate(&mut self, l: LinkId) -> bool {
        std::mem::replace(&mut self.links[l.idx()].active, false)
    }

    /// Re-activate a cable.
    pub fn activate(&mut self, l: LinkId) {
        self.links[l.idx()].active = true;
    }

    /// Checks that every node can reach every other node over active links
    /// (BFS over the switch graph from the first switch with any attachment).
    pub fn is_connected(&self) -> bool {
        if self.num_switches == 0 {
            return self.node_attach.is_empty();
        }
        // Every terminal link must be active.
        for &(_, l) in &self.node_attach {
            if !self.is_active(l) {
                return false;
            }
        }
        let mut seen = vec![false; self.num_switches];
        let start = match self.node_attach.first() {
            Some(&(s, _)) => s,
            None => SwitchId(0),
        };
        let mut stack = vec![start];
        seen[start.idx()] = true;
        let mut count = 1usize;
        while let Some(s) = stack.pop() {
            for (p, _) in self.active_switch_neighbors(s) {
                if !seen[p.idx()] {
                    seen[p.idx()] = true;
                    count += 1;
                    stack.push(p);
                }
            }
        }
        // All switches that host nodes must be reachable; for simplicity we
        // require the whole switch graph to be connected, which holds for all
        // generated topologies.
        count == self.num_switches
    }
}

/// Incremental construction of a [`Topology`].
pub struct TopologyBuilder {
    name: String,
    num_switches: usize,
    links: Vec<Link>,
    sw_adj: Vec<Vec<AdjEntry>>,
    node_attach: Vec<(SwitchId, LinkId)>,
    default_capacity: f64,
    meta: TopoMeta,
}

/// Observable per-direction bandwidth of a QDR 4X InfiniBand link in bytes/s.
///
/// QDR signals 10 Gbit/s per lane with 8b/10b encoding: 4 lanes * 8 Gbit/s =
/// 32 Gbit/s = 4 GB/s of data; protocol overhead leaves ~3.4 GB/s observable,
/// consistent with the ~3 GiB/s ceiling of the paper's Figure 1.
pub const QDR_CAPACITY: f64 = 3.4e9;

impl TopologyBuilder {
    /// Starts a new topology with `num_switches` switches.
    pub fn new(name: impl Into<String>, num_switches: usize) -> Self {
        TopologyBuilder {
            name: name.into(),
            num_switches,
            links: Vec::new(),
            sw_adj: vec![Vec::new(); num_switches],
            node_attach: Vec::new(),
            default_capacity: QDR_CAPACITY,
            meta: TopoMeta::Custom,
        }
    }

    /// Overrides the per-direction link capacity (bytes/s) used for
    /// subsequently added links.
    pub fn capacity(mut self, bytes_per_sec: f64) -> Self {
        self.default_capacity = bytes_per_sec;
        self
    }

    /// Attaches generator metadata.
    pub fn meta(mut self, meta: TopoMeta) -> Self {
        self.meta = meta;
        self
    }

    /// Adds a switch-to-switch cable.
    pub fn link_switches(&mut self, a: SwitchId, b: SwitchId, class: LinkClass) -> LinkId {
        assert!(a != b, "self-loop switch link");
        assert!(a.idx() < self.num_switches && b.idx() < self.num_switches);
        let id = LinkId::from_idx(self.links.len());
        self.links.push(Link {
            a: Endpoint::Switch(a),
            b: Endpoint::Switch(b),
            capacity: self.default_capacity,
            class,
            active: true,
        });
        self.sw_adj[a.idx()].push(AdjEntry {
            link: id,
            peer: Endpoint::Switch(b),
        });
        self.sw_adj[b.idx()].push(AdjEntry {
            link: id,
            peer: Endpoint::Switch(a),
        });
        id
    }

    /// Attaches a new terminal node to a switch, returning its id.
    pub fn attach_node(&mut self, s: SwitchId) -> NodeId {
        assert!(s.idx() < self.num_switches);
        let nid = NodeId::from_idx(self.node_attach.len());
        let lid = LinkId::from_idx(self.links.len());
        self.links.push(Link {
            a: Endpoint::Switch(s),
            b: Endpoint::Node(nid),
            capacity: self.default_capacity,
            class: LinkClass::Terminal,
            active: true,
        });
        self.sw_adj[s.idx()].push(AdjEntry {
            link: lid,
            peer: Endpoint::Node(nid),
        });
        self.node_attach.push((s, lid));
        nid
    }

    /// Finalizes the topology.
    pub fn build(self) -> Topology {
        Topology {
            name: self.name,
            num_switches: self.num_switches,
            links: self.links,
            sw_adj: self.sw_adj,
            node_attach: self.node_attach,
            meta: self.meta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle of switches, one node per switch — the motivating example of
    /// the paper's Section 3.2 (why non-minimal static routing is hard).
    fn triangle() -> Topology {
        let mut b = TopologyBuilder::new("triangle", 3);
        for i in 0..3u32 {
            b.attach_node(SwitchId(i));
        }
        b.link_switches(SwitchId(0), SwitchId(1), LinkClass::Aoc);
        b.link_switches(SwitchId(1), SwitchId(2), LinkClass::Aoc);
        b.link_switches(SwitchId(2), SwitchId(0), LinkClass::Aoc);
        b.build()
    }

    #[test]
    fn triangle_counts() {
        let t = triangle();
        assert_eq!(t.num_switches(), 3);
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 6); // 3 terminal + 3 ISL
        assert_eq!(t.num_active_isl(), 3);
        assert!(t.is_connected());
    }

    #[test]
    fn adjacency_is_symmetric() {
        let t = triangle();
        for s in t.switches() {
            for (p, l) in t.active_switch_neighbors(s) {
                let back: Vec<_> = t
                    .active_switch_neighbors(p)
                    .filter(|&(q, lb)| q == s && lb == l)
                    .collect();
                assert_eq!(back.len(), 1, "missing reverse adjacency");
            }
        }
    }

    #[test]
    fn node_attachment_roundtrip() {
        let t = triangle();
        for n in t.nodes() {
            let (s, l) = t.node_switch(n);
            let found = t.attached_nodes(s).any(|(m, lm)| m == n && lm == l);
            assert!(found);
            assert_eq!(
                t.link(l).other(Endpoint::Node(n)),
                Some(Endpoint::Switch(s))
            );
        }
    }

    #[test]
    fn deactivation_disconnects() {
        let mut t = triangle();
        assert!(t.is_connected());
        // Kill two of the three ISLs -> still connected (line graph).
        let isls: Vec<LinkId> = t
            .links()
            .filter(|(_, l)| l.class != LinkClass::Terminal)
            .map(|(id, _)| id)
            .collect();
        t.deactivate(isls[0]);
        assert!(t.is_connected());
        t.deactivate(isls[1]);
        assert!(!t.is_connected());
        t.activate(isls[1]);
        assert!(t.is_connected());
    }

    #[test]
    fn link_other_endpoint() {
        let t = triangle();
        let (id, l) = t.links().next().unwrap();
        assert!(t.is_active(id));
        assert_eq!(l.other(l.a), Some(l.b));
        assert_eq!(l.other(l.b), Some(l.a));
        assert_eq!(l.other(Endpoint::Switch(SwitchId(999))), None);
    }

    #[test]
    fn empty_topology_is_connected() {
        let t = TopologyBuilder::new("empty", 0).build();
        assert!(t.is_connected());
        assert_eq!(t.num_nodes(), 0);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut b = TopologyBuilder::new("bad", 2);
        b.link_switches(SwitchId(0), SwitchId(0), LinkClass::Copper);
    }
}
