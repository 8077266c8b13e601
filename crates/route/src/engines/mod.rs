//! Routing engines producing InfiniBand-style forwarding state.
//!
//! | engine | paper role |
//! |---|---|
//! | [`Ftree`] | OpenSM `ftree` — the Fat-Tree baseline (combo 1) |
//! | [`Sssp`] | OpenSM SSSP (Hoefler'09) — faulty-Fat-Tree combo 2 |
//! | [`Dfsssp`] | deadlock-free SSSP (Domke'11) — HyperX combos 3 & 4 |
//! | [`Parx`] | the paper's contribution — HyperX combo 5 |
//! | [`UpDown`] | Up*/Down* — classic deadlock-free reference |
//! | [`MinHop`] | unbalanced hop-minimal baseline for ablations |
//! | [`Lash`] | LASH — cited deadlock-free alternative (unbalanced + VLs) |
//! | [`ParxNd`] | extension: PARX generalized to n-dimensional HyperX |
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
mod parx_nd;
mod sssp;
mod updown;

pub use dfsssp::Dfsssp;
pub use fatpaths::{mean_first_hop_diversity, FatPaths};
pub use ft_hyperx::FtHyperX;
pub use ftree::Ftree;
pub use lash::Lash;
pub use minhop::MinHop;
pub use parx::Parx;
pub use parx_nd::{select_lid_nd, HalfRule, ParxNd};
pub use sssp::Sssp;
pub use updown::UpDown;

use crate::cdg::{chain_of, Cdg};
use crate::demand::Demand;
use crate::dijkstra::{DestTree, EdgeWeights};
use crate::lft::{DirLink, RouteError, Routes};
use crate::lid::Lid;
use hxtopo::{Endpoint, LinkId, NodeId, SwitchId, Topology};

/// A static routing engine: consumes a topology, produces complete
/// forwarding state. Fault handling and multipath are opt-in capabilities
/// discovered through the accessor methods, so the subnet manager can
/// dispatch on a `Box<dyn RoutingEngine>` without downcasts.
pub trait RoutingEngine {
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
/// engine in [`ENGINE_NAMES`] plus the topology-specific `ftree` and
/// `parx-nd`.
pub fn engine_by_name(name: &str) -> Option<Box<dyn RoutingEngine>> {
    Some(match name.to_ascii_lowercase().as_str() {
        "parx" => Box::new(Parx::default()),
        "parx-nd" => Box::new(ParxNd::default()),
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

/// Installs one destination tree into the LFTs: every reachable switch
/// forwards `lid` along the tree; the destination switch forwards to the
/// terminal cable.
pub(crate) fn install_tree(
    routes: &mut Routes,
    tree: &DestTree,
    lid: Lid,
    dst_terminal: hxtopo::LinkId,
) {
    for (s, out) in tree.out.iter().enumerate() {
        if let Some(link) = out {
            routes.set(SwitchId::from_idx(s), lid, *link);
        }
    }
    routes.set(tree.dst, lid, dst_terminal);
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
        let tree = crate::dijkstra::dijkstra_to_dest(topo, dsw, &weights, None);
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
    assert!(max_vls >= 1);
    let channels = topo.num_links() * 2;
    let mut cdgs: Vec<Cdg> = vec![Cdg::new(channels)];
    let mut used: u8 = 1;

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
            let mut placed = false;
            for vl in 0..used {
                if !cdgs[vl as usize].would_cycle(&chain) {
                    cdgs[vl as usize].add_chain(&chain);
                    *routes.sl_entry_mut(ssw, lid) = vl;
                    placed = true;
                    break;
                }
            }
            if !placed {
                if used >= max_vls {
                    return Err(RouteError::VlOverflow {
                        required: used + 1,
                        available: max_vls,
                    });
                }
                cdgs.push(Cdg::new(channels));
                cdgs[used as usize].add_chain(&chain);
                *routes.sl_entry_mut(ssw, lid) = used;
                used += 1;
            }
        }
    }
    routes.num_vls = used;
    Ok(used)
}
