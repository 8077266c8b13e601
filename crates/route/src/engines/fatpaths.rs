//! FatPaths layered routing (Besta et al., "FatPaths: Routing in
//! Supercomputers and Data Centers when Shortest Paths Fall Short"),
//! mapped onto the InfiniBand LMC machinery: `k` *layers*, each a
//! near-complete copy of the fabric with a deterministic pseudo-random
//! subset of ISLs removed, each routed minimally within what remains —
//! *almost-minimal* path diversity with plain destination-based
//! forwarding. Layer `x` owns LID offset `x` of every node's `2^lmc`
//! block, so a flow-hashing PML (see `hxmpi::Pml`) spreads flows across
//! layers with zero per-packet state.
//!
//! Layer 0 keeps the full lattice (pure minimal routing, the safety
//! net); layers `x > 0` drop roughly `1/div` of the ISLs, selected by an
//! FNV-1a hash of `(seed, layer, link)` so layers are deterministic,
//! distinct, and independent of topology mutation order. Switches a
//! layer's removal disconnects fall back to their full-lattice minimal
//! entry (the same footnote-7 trick PARX uses), which cannot loop: a
//! masked-reachable successor never routes back through a
//! masked-unreachable switch.
//!
//! Deadlock freedom comes from the shared lowest-acyclic-VL assignment
//! over *all* layers' paths, exactly like DFSSSP/PARX.

use super::{
    assign_vls, install_masked_tree, load_paths, walk_lft, IncrementalRepair, Multipath,
    RoutingEngine,
};
use crate::dijkstra::EdgeWeights;
use crate::lft::{RouteError, Routes};
use crate::lid::{LidMap, LidPolicy};
use hxtopo::{fnv1a, LinkClass, Topology, FNV_OFFSET};

/// FatPaths layered almost-minimal multipath. Works on any topology
/// (the paper targets low-diameter networks; HyperX qualifies).
#[derive(Debug, Clone)]
pub struct FatPaths {
    /// Layer count; must be a power of two (one layer per LID offset,
    /// `lmc = log2(layers)`).
    pub layers: u8,
    /// Denominator of the per-layer ISL removal fraction: each layer
    /// `x > 0` drops ~`1/div` of the inter-switch cables.
    pub div: u32,
    /// Seed of the deterministic layer masks.
    pub seed: u64,
    /// Virtual lanes available for deadlock-free layering.
    pub max_vls: u8,
}

impl Default for FatPaths {
    fn default() -> FatPaths {
        FatPaths {
            layers: 4,
            div: 8,
            seed: 0xFA7B,
            max_vls: 8,
        }
    }
}

/// FNV-1a over a few words — the layer-mask selector.
fn fnv(vals: &[u64]) -> u64 {
    vals.iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_le_bytes()))
}

impl FatPaths {
    fn lmc(&self) -> Result<u8, RouteError> {
        if !self.layers.is_power_of_two() {
            return Err(RouteError::UnsupportedTopology(
                "FatPaths layer count must be a power of two (one layer per LMC LID offset)",
            ));
        }
        Ok(self.layers.trailing_zeros() as u8)
    }

    /// The layer's cable mask: `true` = usable. Layer 0 is unmasked.
    /// Public for diagnostics and the layer-correctness proptests.
    pub fn layer_mask(&self, topo: &Topology, layer: u8) -> Vec<bool> {
        topo.links()
            .map(|(id, l)| {
                l.class == LinkClass::Terminal
                    || layer == 0
                    || !fnv(&[self.seed, layer as u64, id.0 as u64]).is_multiple_of(self.div as u64)
            })
            .collect()
    }
}

impl RoutingEngine for FatPaths {
    fn name(&self) -> &'static str {
        "fatpaths"
    }

    fn route(&self, topo: &Topology) -> Result<Routes, RouteError> {
        let lmc = self.lmc()?;
        let lid_map = LidMap::new(topo, lmc, LidPolicy::Sequential);
        let mut routes = Routes::new(topo, lid_map, "fatpaths");
        for layer in 0..self.layers {
            self.route_layer(topo, &mut routes, layer)?;
        }
        assign_vls(topo, &mut routes, self.max_vls)?;
        Ok(routes)
    }

    fn incremental(&self) -> Option<&dyn IncrementalRepair> {
        None // churn goes through the manager's generic load-aware patch
    }

    fn multipath(&self) -> Option<&dyn Multipath> {
        Some(self)
    }
}

impl Multipath for FatPaths {
    fn layers(&self) -> u8 {
        self.layers
    }

    fn route_layer(
        &self,
        topo: &Topology,
        routes: &mut Routes,
        layer: u8,
    ) -> Result<(), RouteError> {
        if layer as u32 >= routes.lid_map.lids_per_node() {
            return Err(RouteError::UnsupportedTopology(
                "layer index exceeds the LID block (routes not built by FatPaths?)",
            ));
        }
        let mask = self.layer_mask(topo, layer);
        let mut weights = EdgeWeights::new(topo);
        for nd in topo.nodes() {
            let lid = routes.lid_map.lid(nd, layer as u32);
            // Footnote-7 fallback: switches this layer's removal cut off
            // keep their full-lattice minimal entry.
            install_masked_tree(topo, routes, &weights, nd, lid, &mask);
            // Intra-layer balancing, SSSP-style: later trees avoid the
            // cables earlier trees loaded.
            load_paths(
                topo,
                routes,
                &mut weights,
                nd,
                lid,
                topo.nodes().map(|n| (n, 1)),
            )?;
        }
        Ok(())
    }
}

/// Path-diversity audit used by tests and the tournament commentary:
/// for every cross-switch node pair, the number of distinct first ISLs
/// its per-layer paths take, averaged over pairs. 1.0 = every layer
/// funnels into the same cable; higher = real multipath.
pub fn mean_first_hop_diversity(topo: &Topology, routes: &Routes) -> f64 {
    let per_node = routes.lid_map.lids_per_node();
    let mut pairs = 0u64;
    let mut distinct = 0u64;
    for src in topo.nodes() {
        let (ssw, _) = topo.node_switch(src);
        for dst in topo.nodes() {
            let (dsw, _) = topo.node_switch(dst);
            if ssw == dsw {
                continue;
            }
            let mut firsts: Vec<u32> = Vec::with_capacity(per_node as usize);
            for x in 0..per_node {
                let lid = routes.lid_map.lid(dst, x);
                let mut first = None;
                let _ = walk_lft(topo, routes, ssw, lid, |dl| {
                    first.get_or_insert(dl.link().0);
                });
                if let Some(f) = first {
                    firsts.push(f);
                }
            }
            firsts.sort_unstable();
            firsts.dedup();
            pairs += 1;
            distinct += firsts.len() as u64;
        }
    }
    distinct as f64 / pairs.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_deadlock_free, verify_paths};
    use hxtopo::hyperx::HyperXConfig;

    #[test]
    fn four_layers_route_all_pairs_deadlock_free() {
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = FatPaths::default().route(&t).unwrap();
        assert_eq!(r.lid_map.lids_per_node(), 4);
        let stats = verify_paths(&t, &r).unwrap();
        // (source node, destination LID) pairs: 4 LIDs per destination.
        assert_eq!(stats.pairs, 32 * 31 * 4);
        verify_deadlock_free(&t, &r).unwrap();
    }

    #[test]
    fn layers_spread_first_hops() {
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = FatPaths::default().route(&t).unwrap();
        let div = mean_first_hop_diversity(&t, &r);
        assert!(div > 1.2, "layers collapsed onto one path: {div:.2}");
    }

    #[test]
    fn rejects_non_power_of_two_layers() {
        let t = HyperXConfig::new(vec![2, 2], 1).build();
        let bad = FatPaths {
            layers: 3,
            ..FatPaths::default()
        };
        assert!(matches!(
            bad.route(&t),
            Err(RouteError::UnsupportedTopology(_))
        ));
    }

    #[test]
    fn single_layer_is_plain_minimal() {
        let t = HyperXConfig::new(vec![3, 3], 1).build();
        let one = FatPaths {
            layers: 1,
            ..FatPaths::default()
        };
        let r = one.route(&t).unwrap();
        assert_eq!(r.lid_map.lids_per_node(), 1);
        verify_paths(&t, &r).unwrap();
    }

    #[test]
    fn works_on_fat_tree_too() {
        let t = hxtopo::fattree::FatTreeConfig::tsubame2(28);
        let r = FatPaths::default().route(&t).unwrap();
        verify_paths(&t, &r).unwrap();
        verify_deadlock_free(&t, &r).unwrap();
    }
}
