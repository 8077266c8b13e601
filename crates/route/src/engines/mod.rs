//! Routing engines producing InfiniBand-style forwarding state.
//!
//! | engine | paper role |
//! |---|---|
//! | [`Ftree`] | OpenSM `ftree` — the Fat-Tree baseline (combo 1) |
//! | [`Sssp`] | OpenSM SSSP (Hoefler'09) — faulty-Fat-Tree combo 2 |
//! | [`Dfsssp`] | deadlock-free SSSP (Domke'11) — HyperX combos 3 & 4 |
//! | [`Parx`] | the paper's contribution — HyperX combo 5; any even-extent HyperX dimension |
//! | [`UpDown`] | Up*/Down* — classic deadlock-free reference |
//! | [`MinHop`] | unbalanced hop-minimal baseline for ablations |
//! | [`Lash`] | LASH — cited deadlock-free alternative (unbalanced + VLs) |
//! | [`FtHyperX`] | fault-tolerant HyperX routing (Camarero/Cano, arXiv 2404.04315) |
//! | [`FatPaths`] | FatPaths layered multipath (Besta et al.), one layer per LID offset |
//!
//! Beyond the static sweep every engine provides, two opt-in capability
//! traits refine fault handling and multipath (DESIGN.md §13):
//! [`IncrementalRepair`] lets an engine own its `fail_link`/`recover_link`
//! patches (the subnet manager's load-aware Dijkstra repair is the generic
//! fallback), and [`Multipath`] exposes per-layer routing over the LMC LID
//! block. [`engine_by_name`] resolves an engine from its registry name.

mod dfsssp;
mod fatpaths;
mod ft_hyperx;
mod ftree;
mod lash;
mod minhop;
mod parx;
mod sssp;
mod updown;

pub use dfsssp::Dfsssp;
pub use fatpaths::{mean_first_hop_diversity, FatPaths};
pub use ft_hyperx::FtHyperX;
pub use ftree::Ftree;
pub use lash::Lash;
pub use minhop::MinHop;
pub use parx::Parx;
pub use sssp::Sssp;
pub use updown::UpDown;

use crate::cdg::{chain_of, Cdg};
use crate::demand::Demand;
use crate::dijkstra::{dijkstra_to_dest, DestTree, EdgeWeights};
use crate::lft::{DirLink, RouteError, Routes};
use crate::lid::Lid;
use hxtopo::{Endpoint, LinkId, NodeId, SwitchId, Topology};

/// A static routing engine: consumes a topology, produces complete
/// forwarding state. Fault handling and multipath are opt-in capabilities
/// discovered through the accessor methods, so the subnet manager can
/// dispatch on a `Box<dyn RoutingEngine>` without downcasts. Engines are
/// `Send + Sync`, as is the manager that owns one: a system of swept
/// managers can be shared across threads.
pub trait RoutingEngine: Send + Sync {
    /// Engine name as it appears in reports (mirrors the paper's labels).
    fn name(&self) -> &'static str;

    /// Computes forwarding tables (and, for deadlock-free engines, the
    /// service-level table).
    fn route(&self, topo: &Topology) -> Result<Routes, RouteError>;

    /// The engine-owned incremental-repair capability, when implemented.
    /// `None` (the default) sends cable churn to the subnet manager's
    /// generic load-aware Dijkstra patch.
    fn incremental(&self) -> Option<&dyn IncrementalRepair> {
        None
    }

    /// The per-layer multipath capability, when implemented. `None` (the
    /// default) means the engine's LID block carries no layer structure.
    fn multipath(&self) -> Option<&dyn Multipath> {
        None
    }

    /// A demand-aware variant of this engine for the SAR/PARX reroute
    /// trigger, or `None` when the engine cannot ingest a communication
    /// profile (the subnet manager then reports the error instead of
    /// silently reboxing a different engine).
    fn with_demand(&self, demand: Demand) -> Option<Box<dyn RoutingEngine>> {
        let _ = demand;
        None
    }
}

/// A sparse LFT patch an [`IncrementalRepair`] engine hands back from
/// `on_fail`/`on_recover`: the entry rewrites to apply plus the LID trees
/// whose paths they change (what the `PathDb` must re-extract).
#[derive(Debug, Clone, Default)]
pub struct LftDelta {
    /// `(switch, lid, new out-link)` rewrites; `None` clears the entry
    /// (the destination became unreachable from that switch).
    pub entries: Vec<(SwitchId, Lid, Option<LinkId>)>,
    /// Destination LIDs whose trees the entries touch, deduplicated.
    pub touched: Vec<Lid>,
}

impl LftDelta {
    /// Whether the delta rewrites anything at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.touched.is_empty()
    }

    /// Applies every entry rewrite to the forwarding state.
    pub fn apply(&self, routes: &mut Routes) {
        for &(s, lid, out) in &self.entries {
            match out {
                Some(link) => routes.set(s, lid, link),
                None => routes.clear(s, lid),
            }
        }
    }

    /// Applies every entry rewrite and returns the delta that restores
    /// the entries it replaced (in reverse order, so an entry rewritten
    /// twice gets its original value back).
    pub fn apply_undoable(&self, routes: &mut Routes) -> LftDelta {
        let entries = self
            .entries
            .iter()
            .rev()
            .map(|&(s, lid, _)| (s, lid, routes.get(s, lid)))
            .collect();
        self.apply(routes);
        LftDelta {
            entries,
            touched: Vec::new(),
        }
    }

    /// Records the rewrites [`install_tree`] makes for `lid`'s `tree`.
    pub(crate) fn install_tree(&mut self, tree: &DestTree, lid: Lid, dst_terminal: LinkId) {
        let entries = tree_entries(tree, dst_terminal).map(|(s, link)| (s, lid, Some(link)));
        self.entries.extend(entries);
    }
}

/// Engine-owned incremental repair: the engine patches its *own* routing
/// function around a failed or restored cable, so the repaired LFTs stay
/// bit-identical to a from-scratch resweep (which the generic load-aware
/// fallback cannot promise). `topo` already reflects the event: the cable
/// is deactivated before `on_fail` and reactivated before `on_recover`.
pub trait IncrementalRepair {
    /// Patch around the (already deactivated) cable `l`. Errs when the
    /// fabric became unroutable — the manager then falls back and rolls
    /// the event back.
    fn on_fail(&self, topo: &Topology, routes: &Routes, l: LinkId) -> Result<LftDelta, RouteError>;

    /// Patch to exploit the (already reactivated) cable `l`.
    fn on_recover(
        &self,
        topo: &Topology,
        routes: &Routes,
        l: LinkId,
    ) -> Result<LftDelta, RouteError>;
}

/// Per-layer multipath over the LMC block: layer `x` of `layers()` routes
/// destination LID `base + x`, so a PML picking LID offsets (round-robin,
/// flow hash) spreads flows across the layers.
pub trait Multipath {
    /// Number of layers, one per LID offset (`2^lmc`).
    fn layers(&self) -> u8;

    /// Routes every destination's layer-`layer` LID into `routes`, which
    /// must come from this engine's LID layout.
    fn route_layer(
        &self,
        topo: &Topology,
        routes: &mut Routes,
        layer: u8,
    ) -> Result<(), RouteError>;
}

/// Engine names [`engine_by_name`] resolves, in tournament order: the
/// paper's HyperX contenders first, then the baseline field.
pub const ENGINE_NAMES: &[&str] = &[
    "parx",
    "dfsssp",
    "ft-hyperx",
    "fatpaths",
    "sssp",
    "minhop",
    "updown",
    "lash",
];

/// Resolves an engine by its report label (case-insensitive). Covers every
/// engine in [`ENGINE_NAMES`] plus the topology-specific `ftree`.
pub fn engine_by_name(name: &str) -> Option<Box<dyn RoutingEngine>> {
    Some(match name.to_ascii_lowercase().as_str() {
        "parx" => Box::new(Parx::default()),
        "dfsssp" => Box::new(Dfsssp::default()),
        "ft-hyperx" | "fthyperx" => Box::new(FtHyperX::default()),
        "fatpaths" => Box::new(FatPaths::default()),
        "sssp" => Box::new(Sssp::default()),
        "minhop" => Box::new(MinHop::default()),
        "updown" => Box::new(UpDown::default()),
        "lash" => Box::new(Lash::default()),
        "ftree" => Box::new(Ftree),
        _ => return None,
    })
}

/// The entries one destination tree installs: every reachable switch
/// forwards along the tree, then the destination switch forwards to the
/// terminal cable.
fn tree_entries(
    tree: &DestTree,
    dst_terminal: LinkId,
) -> impl Iterator<Item = (SwitchId, LinkId)> + '_ {
    let along = tree.out.iter().enumerate();
    let along = along.filter_map(|(s, out)| out.map(|link| (SwitchId::from_idx(s), link)));
    along.chain(std::iter::once((tree.dst, dst_terminal)))
}

/// Installs one destination tree into the LFTs for `lid`
/// ([`tree_entries`]).
pub(crate) fn install_tree(routes: &mut Routes, tree: &DestTree, lid: Lid, dst_terminal: LinkId) {
    for (s, link) in tree_entries(tree, dst_terminal) {
        routes.set(s, lid, link);
    }
}

/// Installs `lid`'s destination tree over the cables `mask` keeps. Switches
/// the removal cuts off fall back to the unrestricted graph (paper footnote
/// 7), so a masked tree never strands a switch the fabric can still route.
pub(crate) fn install_masked_tree(
    topo: &Topology,
    routes: &mut Routes,
    weights: &EdgeWeights,
    dst: NodeId,
    lid: Lid,
    mask: &[bool],
) {
    let (dsw, dlink) = topo.node_switch(dst);
    let tree = dijkstra_to_dest(topo, dsw, weights, Some(mask));
    install_tree(routes, &tree, lid, dlink);
    if topo.switches().any(|s| s != dsw && !tree.reachable(s)) {
        let full = dijkstra_to_dest(topo, dsw, weights, None);
        for s in topo.switches() {
            if s != dsw && !tree.reachable(s) {
                if let Some(link) = full.out[s.idx()] {
                    routes.set(s, lid, link);
                }
            }
        }
    }
}

/// Adds each sender's weight to every cable on its installed path towards
/// `lid`, so later trees avoid the loaded cables (Algorithm 1's edge-weight
/// update). Senders on the destination's own switch load no cable.
pub(crate) fn load_paths(
    topo: &Topology,
    routes: &Routes,
    weights: &mut EdgeWeights,
    dst: NodeId,
    lid: Lid,
    senders: impl IntoIterator<Item = (NodeId, u64)>,
) -> Result<(), RouteError> {
    let (dsw, _) = topo.node_switch(dst);
    for (src, w) in senders {
        let (ssw, _) = topo.node_switch(src);
        if src != dst && ssw != dsw {
            walk_lft(topo, routes, ssw, lid, |dl| weights.add(dl, w))?;
        }
    }
    Ok(())
}

/// Walks the installed LFTs from a switch towards a LID, yielding the
/// directed ISL hops and returning the node the walk delivers to. Returns
/// `Err` on missing entries or loops.
pub(crate) fn walk_lft(
    topo: &Topology,
    routes: &Routes,
    from: SwitchId,
    lid: Lid,
    mut visit: impl FnMut(DirLink),
) -> Result<NodeId, RouteError> {
    let mut cur = from;
    for _ in 0..=topo.num_switches() {
        let out = routes
            .get(cur, lid)
            .ok_or(RouteError::NoRoute { switch: cur, lid })?;
        let dl = DirLink::leaving(topo, out, Endpoint::Switch(cur));
        match dl.head(topo) {
            Endpoint::Node(n) => return Ok(n),
            Endpoint::Switch(next) => {
                visit(dl);
                cur = next;
            }
        }
    }
    Err(RouteError::ForwardingLoop { lid, at: cur })
}

/// Installed ISL hop count from `sw` toward `lid` ([`walk_lft`]'s hops),
/// `None` when the walk dead-ends or loops.
pub(crate) fn walked_hops(topo: &Topology, routes: &Routes, sw: SwitchId, lid: Lid) -> Option<u32> {
    let mut h = 0u32;
    walk_lft(topo, routes, sw, lid, |_| h += 1).ok().map(|_| h)
}

/// Weight-balanced minimal routing for every destination LID — the shared
/// core of [`Sssp`], [`Dfsssp`] and [`MinHop`].
///
/// After installing each destination tree, the weights of every directed
/// cable on every source-node-to-destination path grow by `update_per_path`
/// (0 disables balancing), which is how SSSP spreads consecutive destination
/// trees across the fabric.
pub(crate) fn fill_weighted_minimal(
    topo: &Topology,
    routes: &mut Routes,
    update_per_path: u64,
) -> Result<(), RouteError> {
    let mut weights = EdgeWeights::new(topo);
    let dests: Vec<(Lid, NodeId)> = routes.lid_map.lids().collect();
    for (lid, dst) in dests {
        let (dsw, dlink) = topo.node_switch(dst);
        let tree = dijkstra_to_dest(topo, dsw, &weights, None);
        install_tree(routes, &tree, lid, dlink);
        if update_per_path > 0 {
            for src in topo.nodes() {
                if src == dst {
                    continue;
                }
                let (ssw, _) = topo.node_switch(src);
                tree.walk(topo, ssw, |dl| weights.add(dl, update_per_path));
            }
        }
    }
    Ok(())
}

/// Assigns every `(source switch, destination LID)` path to the lowest
/// virtual lane whose channel dependency graph stays acyclic — the
/// VL-based deadlock-avoidance of DFSSSP/PARX (paper Algorithm 1, final
/// loop). Returns the number of VLs used.
pub(crate) fn assign_vls(
    topo: &Topology,
    routes: &mut Routes,
    max_vls: u8,
) -> Result<u8, RouteError> {
    let mut lanes = Lanes::new(topo.num_links() * 2, max_vls)?;

    // Only switches that host nodes originate traffic.
    let src_switches: Vec<SwitchId> = topo
        .switches()
        .filter(|&s| topo.attached_nodes(s).next().is_some())
        .collect();
    let dests: Vec<(Lid, NodeId)> = routes.lid_map.lids().collect();

    let mut hops: Vec<DirLink> = Vec::with_capacity(8);
    for &(lid, dst) in &dests {
        let (dsw, _) = topo.node_switch(dst);
        for &ssw in &src_switches {
            if ssw == dsw {
                continue;
            }
            hops.clear();
            walk_lft(topo, routes, ssw, lid, |dl| hops.push(dl))?;
            let chain = chain_of(&hops);
            if chain.is_empty() {
                continue; // single-hop paths cannot deadlock
            }
            *routes.sl_entry_mut(ssw, lid) = lanes.place(&chain, ssw, lid)?;
        }
    }
    let used = lanes.cdgs.len() as u8;
    routes.num_vls = used;
    Ok(used)
}

/// The open virtual lanes of [`assign_vls`], one acyclic CDG each.
struct Lanes {
    cdgs: Vec<Cdg>,
    channels: usize,
    max_vls: u8,
}

impl Lanes {
    /// Lane 0 open; errs when the hardware has no lane at all.
    fn new(channels: usize, max_vls: u8) -> Result<Lanes, RouteError> {
        if max_vls == 0 {
            return Err(RouteError::VlOverflow {
                required: 1,
                available: 0,
            });
        }
        Ok(Lanes {
            cdgs: vec![Cdg::new(channels)],
            channels,
            max_vls,
        })
    }

    /// Places the dependency chain of the path from `ssw` to `lid` on the
    /// lowest open lane it keeps acyclic, opening a lane when none does.
    fn place(
        &mut self,
        chain: &[(DirLink, DirLink)],
        ssw: SwitchId,
        lid: Lid,
    ) -> Result<u8, RouteError> {
        if let Some(vl) = self.cdgs.iter_mut().position(|c| c.try_add_chain(chain)) {
            return Ok(vl as u8);
        }
        let used = self.cdgs.len() as u8;
        if used >= self.max_vls {
            return Err(RouteError::VlOverflow {
                required: used + 1,
                available: self.max_vls,
            });
        }
        let mut fresh = Cdg::new(self.channels);
        if !fresh.try_add_chain(chain) {
            return Err(RouteError::CyclicChain { switch: ssw, lid });
        }
        self.cdgs.push(fresh);
        Ok(used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxtopo::hyperx::HyperXConfig;

    #[test]
    fn zero_lane_budget_is_a_typed_error() {
        // Even extents, so PARX routes it too.
        let t = HyperXConfig::new(vec![4, 4], 1).build();
        let engines: [Box<dyn RoutingEngine>; 5] = [
            Box::new(Dfsssp { lmc: 0, max_vls: 0 }),
            Box::new(Lash { max_vls: 0 }),
            Box::new(FatPaths {
                max_vls: 0,
                ..FatPaths::default()
            }),
            Box::new(FtHyperX { max_vls: 0 }),
            Box::new(Parx {
                max_vls: 0,
                ..Parx::default()
            }),
        ];
        for e in engines {
            assert!(
                matches!(
                    e.route(&t),
                    Err(RouteError::VlOverflow {
                        required: 1,
                        available: 0
                    })
                ),
                "{}",
                e.name()
            );
        }
    }

    #[test]
    fn retired_names_do_not_resolve() {
        // The n-D generalization is PARX itself, not a second engine.
        assert!(engine_by_name("parx-nd").is_none());
    }

    #[test]
    fn self_cyclic_chain_is_a_typed_error() {
        let mut lanes = Lanes::new(8, 8).unwrap();
        let (a, b) = (DirLink::from_index(0), DirLink::from_index(1));
        let err = lanes.place(&[(a, b), (b, a)], SwitchId(3), 7).unwrap_err();
        assert!(matches!(
            err,
            RouteError::CyclicChain {
                switch: SwitchId(3),
                lid: 7
            }
        ));
        // The rejected chain opened no lane and left lane 0 usable.
        assert_eq!(lanes.cdgs.len(), 1);
        assert_eq!(lanes.place(&[(a, b)], SwitchId(3), 7).unwrap(), 0);
    }
}
