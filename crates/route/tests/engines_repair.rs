//! Engine-capability integration properties (PR 8).
//!
//! Two acceptance properties for the pluggable-engine refactor:
//!
//! * **FT-HyperX engine-owned repair is exact**: after any interleaving of
//!   cable failures and recoveries driven through the subnet manager, the
//!   live forwarding state is bit-identical to what a from-scratch
//!   FT-HyperX sweep of the *current* (faulted) topology would produce.
//!   The history-free argmin rule makes this possible; this test makes it
//!   enforceable.
//! * **FatPaths layers are what they claim**: for every layer and any mask
//!   seed, sources the layer's mask leaves connected route to every
//!   destination using only mask-usable cables (true layer disjointness),
//!   sources the mask cut off still route via the footnote-7 full-lattice
//!   fallback, and the whole multi-layer LFT stays deadlock-free under the
//!   channel-dependency-graph checker.

use hxroute::engines::{FatPaths, FtHyperX, RoutingEngine};
use hxroute::{
    dijkstra_to_dest, verify_deadlock_free, verify_paths, EdgeWeights, Lid, Routes, SubnetManager,
};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{Endpoint, LinkClass, LinkId, SwitchId, Topology};
use proptest::prelude::*;

fn active_isls(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|&(id, l)| l.class != LinkClass::Terminal && topo.is_active(id))
        .map(|(id, _)| id)
        .collect()
}

fn inactive_isls(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|&(id, l)| l.class != LinkClass::Terminal && !topo.is_active(id))
        .map(|(id, _)| id)
        .collect()
}

/// Follows the LFT from `from` towards `lid`'s destination switch `dsw`,
/// returning the ISLs traversed. Panics on a forwarding hole or loop.
fn walk_isls(
    topo: &Topology,
    routes: &Routes,
    from: SwitchId,
    lid: Lid,
    dsw: SwitchId,
) -> Vec<LinkId> {
    let mut cur = from;
    let mut path = Vec::new();
    for _ in 0..=topo.num_switches() {
        if cur == dsw {
            return path;
        }
        let out = routes
            .get(cur, lid)
            .unwrap_or_else(|| panic!("forwarding hole at {cur:?} for LID {lid}"));
        path.push(out);
        match topo.link(out).other(Endpoint::Switch(cur)) {
            Some(Endpoint::Switch(s)) => cur = s,
            other => panic!("LFT at {cur:?} for LID {lid} leaves the switch fabric: {other:?}"),
        }
    }
    panic!("forwarding loop walking LID {lid} from {from:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// FT-HyperX's engine-owned `on_fail`/`on_recover` deltas leave the
    /// manager's live LFTs bit-identical to a from-scratch sweep of the
    /// faulted lattice, across random fail/recover interleavings. Even a
    /// rolled-back (disconnecting) failure must leave the state exact. The
    /// 3-D lattice hosts three nodes per switch, so one event patches
    /// several LIDs from the same destination-switch tree.
    #[test]
    fn ft_hyperx_engine_repair_tracks_full_resweep(
        t in 1u32..3,
        ops in proptest::collection::vec((0u8..=255, 0usize..10_000), 1..12),
    ) {
        for topo in [
            HyperXConfig::new(vec![4, 4], t).build(),
            HyperXConfig::new(vec![4, 2, 2], 3).build(),
        ] {
            let mut sm = SubnetManager::new(topo, Box::new(FtHyperX::default()));
            sm.verify = false;
            sm.sweep().unwrap();
            prop_assert!(
                FtHyperX::default().incremental().is_some(),
                "FT-HyperX must expose IncrementalRepair"
            );
            for &(sel, k) in &ops {
                let down = inactive_isls(sm.topo());
                let outcome = if sel % 2 == 1 && !down.is_empty() {
                    sm.recover_link(down[k % down.len()])
                } else {
                    let up = active_isls(sm.topo());
                    if up.is_empty() {
                        break;
                    }
                    sm.fail_link(up[k % up.len()])
                };
                let fresh = FtHyperX::default()
                    .route(sm.topo())
                    .map_err(|e| TestCaseError::Fail(format!("fresh sweep failed: {e}")))?;
                prop_assert!(
                    sm.routes().unwrap().lft_eq(&fresh),
                    "engine-patched LFTs diverge from a from-scratch sweep (outcome {:?})",
                    outcome.map(|r| r.incremental)
                );
            }
        }
    }

    /// FatPaths per-layer mask correctness for arbitrary seeds: sources the
    /// layer's mask keeps connected use only mask-usable cables; sources it
    /// cuts off still reach every destination (footnote-7 fallback); the
    /// combined multi-layer LFT routes all pairs deadlock-free.
    #[test]
    fn fatpaths_layers_respect_masks_and_stay_deadlock_free(seed in 0u64..1_000_000) {
        let topo = HyperXConfig::new(vec![4, 4], 1).build();
        let engine = FatPaths { seed, ..FatPaths::default() };
        let routes = engine.route(&topo).unwrap();
        let stats = verify_paths(&topo, &routes)
            .map_err(|e| TestCaseError::Fail(format!("verify_paths: {e}")))?;
        let n = topo.num_nodes();
        prop_assert_eq!(stats.pairs, n * (n - 1) * engine.layers as usize);
        verify_deadlock_free(&topo, &routes)
            .map_err(|e| TestCaseError::Fail(format!("CDG checker: {e}")))?;
        let weights = EdgeWeights::new(&topo);
        for layer in 0..engine.layers {
            let mask = engine.layer_mask(&topo, layer);
            for dst in topo.nodes() {
                let (dsw, _) = topo.node_switch(dst);
                let lid = routes.lid_map.lid(dst, layer as u32);
                let tree = dijkstra_to_dest(&topo, dsw, &weights, Some(&mask));
                for ssw in topo.switches() {
                    if ssw == dsw {
                        continue;
                    }
                    // Every switch routes — the mask-disconnected ones via
                    // their full-lattice fallback entry.
                    let path = walk_isls(&topo, &routes, ssw, lid, dsw);
                    prop_assert!(!path.is_empty());
                    if tree.reachable(ssw) {
                        for l in path {
                            prop_assert!(
                                mask[l.0 as usize],
                                "layer {layer} path from {ssw:?} uses masked cable {l:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Distinct seeds produce distinct layer masks (the layers genuinely
/// differ between tournament configurations, not just in name).
#[test]
fn fatpaths_masks_vary_with_seed() {
    let topo = HyperXConfig::new(vec![4, 4], 1).build();
    let a = FatPaths {
        seed: 1,
        ..FatPaths::default()
    };
    let b = FatPaths {
        seed: 2,
        ..FatPaths::default()
    };
    assert_ne!(a.layer_mask(&topo, 1), b.layer_mask(&topo, 1));
    // Layer 0 is the unmasked safety net regardless of seed.
    assert!(a.layer_mask(&topo, 0).iter().all(|&u| u));
}
