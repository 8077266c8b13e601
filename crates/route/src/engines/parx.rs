//! PARX — Pattern-Aware Routing for HyperX topologies (the paper's
//! Algorithm 1 and central contribution).
//!
//! PARX exploits InfiniBand's LMC multi-LID feature: each HCA port receives
//! several virtual destination LIDs. When the routing engine computes paths
//! towards LID index `x`, it *temporarily removes* the links inside one
//! half of the HyperX (rules R1–R4 of Section 3.2.1, see [`HalfRule`]). On
//! the paper's 2-D system that gives four LIDs (LMC = 2):
//!
//! * LID0 — remove all links within the left half,
//! * LID1 — right half, LID2 — top half, LID3 — bottom half.
//!
//! Depending on the destination's quadrant, some of its LIDs therefore get
//! minimal paths and others forced detours (Figure 3), and the modified bfo
//! PML chooses among them by message size via Table 1.
//!
//! The paper notes the scheme "is generalizable to higher dimensions": an
//! even-extent L-dimensional HyperX gets the 2L rules of [`HalfRule`] and
//! LMC = ⌈log2 2L⌉, with LID0's routes mirrored into any unused LID slots
//! so round-robin PMLs stay functional. Only a 2-D fabric gets the
//! quadrant LID blocks of paper footnote 9 ([`LidPolicy::QuadrantBlocks`]);
//! every other dimension count is laid out sequentially.
//!
//! Path calculation is DFSSSP's modified Dijkstra; the edge-weight updates
//! are demand-driven: for destinations listed in the ingested communication
//! profile, each source's weight contribution is its normalized demand
//! `w in 1..=255` rather than the oblivious `+1`, separating high-traffic
//! paths as much as possible (Section 3.2.3). Deadlock freedom comes from
//! the same VL layering as DFSSSP; the paper measured 5–8 VLs for its runs.

use super::{assign_vls, install_masked_tree, load_paths, RoutingEngine};
use crate::demand::Demand;
use crate::dijkstra::EdgeWeights;
use crate::lft::{RouteError, Routes};
use crate::lid::{LidMap, LidPolicy};
use crate::table1::HalfRule;
use hxtopo::hyperx::HyperXShape;
use hxtopo::{NodeId, Topology};

/// PARX configuration.
#[derive(Debug, Clone)]
pub struct Parx {
    /// Ingested communication profile (node-level, see [`Demand`]); `None`
    /// degrades PARX to oblivious `+1` balancing for all destinations.
    pub demand: Option<Demand>,
    /// Hardware virtual-lane limit.
    pub max_vls: u8,
}

impl Default for Parx {
    /// Oblivious PARX within the QDR hardware's 8 VLs.
    fn default() -> Self {
        Parx {
            demand: None,
            max_vls: 8,
        }
    }
}

impl Parx {
    /// PARX with a communication profile.
    pub fn with_demand(demand: Demand) -> Parx {
        Parx {
            demand: Some(demand),
            ..Parx::default()
        }
    }

    /// Builds one link mask per [`HalfRule`]: `masks[x][link]` is false
    /// when routing towards LID index `x` must ignore the cable.
    fn build_masks(topo: &Topology, hx: &HyperXShape) -> Vec<Vec<bool>> {
        let rules: Vec<HalfRule> = (0..=u8::MAX)
            .map_while(|x| HalfRule::of_lid(x, hx.dims()))
            .collect();
        let mut masks = vec![vec![true; topo.num_links()]; rules.len()];
        for (id, link) in topo.links() {
            let (Some(a), Some(b)) = (link.a.switch(), link.b.switch()) else {
                continue; // terminal cables are never removed
            };
            let (ca, cb) = (hx.coord(a), hx.coord(b));
            for (mask, r) in masks.iter_mut().zip(&rules) {
                if r.contains(&ca, &hx.shape) && r.contains(&cb, &hx.shape) {
                    mask[id.idx()] = false;
                }
            }
        }
        masks
    }
}

impl RoutingEngine for Parx {
    fn name(&self) -> &'static str {
        "parx"
    }

    fn with_demand(&self, demand: Demand) -> Option<Box<dyn RoutingEngine>> {
        Some(Box::new(Parx {
            demand: Some(demand),
            ..self.clone()
        }))
    }

    fn route(&self, topo: &Topology) -> Result<Routes, RouteError> {
        let hx = topo
            .meta
            .as_hyperx()
            .ok_or(RouteError::UnsupportedTopology(
                "PARX requires a HyperX topology",
            ))?;
        if hx.dims() == 0 || hx.shape.iter().any(|&s| s % 2 != 0) {
            return Err(RouteError::UnsupportedTopology(
                "PARX requires even extents in every dimension",
            ));
        }
        let masks = Self::build_masks(topo, hx);
        let rules = masks.len() as u32;
        // LMC large enough for 2L virtual LIDs per node.
        let lmc = (u32::BITS - (rules - 1).leading_zeros()) as u8;
        let policy = if hx.dims() == 2 {
            LidPolicy::QuadrantBlocks
        } else {
            LidPolicy::Sequential
        };
        if policy == LidPolicy::QuadrantBlocks && !LidMap::quadrant_blocks_fit(topo, lmc) {
            return Err(RouteError::UnsupportedTopology(
                "PARX needs at most 1000 LIDs per quadrant on a 2-D HyperX",
            ));
        }
        let lid_map = LidMap::new(topo, lmc, policy);
        let mut routes = Routes::new(topo, lid_map, "parx");
        let mut weights = EdgeWeights::new(topo);

        let norm = self.demand.as_ref().map(|d| d.normalized());

        // Destination order: demand-listed nodes first (profile order), then
        // every other node — Algorithm 1's two outer loops.
        let listed: Vec<NodeId> = self
            .demand
            .as_ref()
            .map(|d| d.listed_destinations())
            .unwrap_or_default();
        let mut is_listed = vec![false; topo.num_nodes()];
        for &n in &listed {
            is_listed[n.idx()] = true;
        }
        let rest: Vec<NodeId> = topo.nodes().filter(|n| !is_listed[n.idx()]).collect();

        for (phase_norm, dests) in [(norm.as_ref(), &listed), (None, &rest)] {
            for &nd in dests {
                for x in 0..rules {
                    let lid = routes.lid_map.lid(nd, x);
                    // Temporary graph I* with rule-R(x) links removed; the
                    // switches it isolates fall back to the unrestricted
                    // graph (fault tolerance, paper footnote 7).
                    install_masked_tree(topo, &mut routes, &weights, nd, lid, &masks[x as usize]);

                    // Edge-weight update before the next round: demand
                    // weights towards listed destinations, `+1` otherwise.
                    let senders: Box<dyn Iterator<Item = (NodeId, u64)>> = match phase_norm {
                        Some(norm) => Box::new(norm.senders_to(nd).map(|(n, w)| (n, w as u64))),
                        None => Box::new(topo.nodes().map(|n| (n, 1))),
                    };
                    load_paths(topo, &routes, &mut weights, nd, lid, senders)?;
                }
                // Unused LID slots (2^lmc exceeds 2L on 3-D and beyond):
                // mirror LID0 so round-robin PMLs stay functional.
                let lid0 = routes.lid_map.lid(nd, 0);
                for x in rules..routes.lid_map.lids_per_node() {
                    let lid = routes.lid_map.lid(nd, x);
                    for s in topo.switches() {
                        if let Some(out) = routes.get(s, lid0) {
                            routes.set(s, lid, out);
                        }
                    }
                }
            }
        }

        // Deadlock-free VL layering over all paths, including virtual LIDs.
        assign_vls(topo, &mut routes, self.max_vls)?;
        Ok(routes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::{lid_choices, SizeClass};
    use crate::verify::{verify_deadlock_free, verify_paths};
    use hxtopo::faults::{FaultCount, FaultPlan};
    use hxtopo::hyperx::HyperXConfig;
    use hxtopo::props::bfs_dist;
    use hxtopo::{fnv1a, FNV_OFFSET};

    fn small_hx() -> Topology {
        HyperXConfig::new(vec![4, 4], 2).build()
    }

    /// Heavy all-to-all among the first 8 nodes.
    fn demand8(t: &Topology) -> Demand {
        let mut d = Demand::new(t.num_nodes());
        for i in 0..8u32 {
            for j in (0..8u32).filter(|&j| j != i) {
                d.add(NodeId(i), NodeId(j), 1 << 20);
            }
        }
        d
    }

    /// A 56-node slice of the paper's plane with aggressive but survivable
    /// damage.
    fn faulty_56() -> Topology {
        let mut t = HyperXConfig::t2_hyperx(56).build();
        FaultPlan {
            count: FaultCount::Absolute(40),
            class: None,
            seed: 7,
        }
        .apply(&mut t);
        t
    }

    /// FNV-1a over LID bases, every LFT entry, every SL entry and `num_vls`.
    fn fold(t: &Topology, r: &Routes) -> u64 {
        let mut h = t.nodes().fold(FNV_OFFSET, |h, n| {
            fnv1a(h, &r.lid_map.base(n).to_le_bytes())
        });
        for s in t.switches() {
            for lid in 0..r.lid_space() as u32 {
                let out = r.get(s, lid).map_or(u32::MAX, |l| l.0);
                h = fnv1a(fnv1a(h, &out.to_le_bytes()), &[r.sl(s, lid)]);
            }
        }
        fnv1a(h, &[r.num_vls])
    }

    #[test]
    fn sweeps_are_pinned_in_every_dimension() {
        // (oblivious, demand-aware) folds. The 2-D constants were taken
        // from the former 2-D-only PARX engine, the 1-D and 3-D ones from
        // the former n-D generalization: one engine reproduces both.
        let spec = |s: &str| HyperXConfig::parse_spec(s).unwrap().build();
        for (name, t, pin) in [
            (
                "4x4:t2",
                spec("4x4:t2"),
                (0x8460f2eabce3c5c3, 0xa7b2df7ce171d355),
            ),
            (
                "6x4:t2",
                spec("6x4:t2"),
                (0x359e9caab5507684, 0x52f1497129db3d22),
            ),
            (
                "faulty 56",
                faulty_56(),
                (0x1716f797f85e9167, 0xc3b86cdde939da43),
            ),
            (
                "4x4x2:t1",
                spec("4x4x2:t1"),
                (0xacd81f21934e375f, 0x3fe12697fa7bb524),
            ),
            (
                "4x2x2:t2",
                spec("4x2x2:t2"),
                (0x2eab7fff79f11658, 0x0b1594468aae6aa5),
            ),
            (
                "6:t2",
                spec("6:t2"),
                (0x30616f0472d9ccb8, 0x25b378590a9b5319),
            ),
        ] {
            let oblivious = Parx::default().route(&t).unwrap();
            let aware = Parx::with_demand(demand8(&t)).route(&t).unwrap();
            assert_eq!((fold(&t, &oblivious), fold(&t, &aware)), pin, "{name}");
        }
    }

    /// Generalized Table 1 for switch coordinates on an even L-dimensional
    /// HyperX: small messages may use any LID whose rule does not confine
    /// both endpoints (a minimal path survives: cross the rule's dimension
    /// first, then stay outside the removed half); large messages prefer
    /// LIDs whose removed half holds *both* endpoints, forcing the
    /// Figure-3b detour, and degrade to the minimal set when no such rule
    /// exists, like the off-diagonal minimal entries of Table 1b.
    fn lid_choices_nd(shape: &[u32], src: &[u32], dst: &[u32], size: SizeClass) -> Vec<u8> {
        let (confining, minimal): (Vec<u8>, Vec<u8>) = (0..2 * shape.len() as u8).partition(|&x| {
            let r = HalfRule::of_lid(x, shape.len()).unwrap();
            r.contains(src, shape) && r.contains(dst, shape)
        });
        match size {
            SizeClass::Large if !confining.is_empty() => confining,
            _ => minimal,
        }
    }

    #[test]
    fn parx_rejects_non_hyperx() {
        let t = hxtopo::fattree::FatTreeConfig::k_ary_n_tree(4, 2);
        assert!(matches!(
            Parx::default().route(&t),
            Err(RouteError::UnsupportedTopology(_))
        ));
    }

    #[test]
    fn parx_rejects_overfull_quadrant_lid_blocks() {
        // 16x16:t4 puts 256 nodes x 4 LIDs in every quadrant, past its
        // 1000-LID block: the sweep errors instead of panicking.
        let big = HyperXConfig::new(vec![16, 16], 4).build();
        let mut sm = crate::SubnetManager::new(big, Box::new(Parx::default()));
        assert!(matches!(
            sm.sweep(),
            Err(RouteError::UnsupportedTopology(
                "PARX needs at most 1000 LIDs per quadrant on a 2-D HyperX"
            ))
        ));
        // The paper's 12x8:t7 plane (168 x 4 LIDs per quadrant) still routes.
        let paper = HyperXConfig::new(vec![12, 8], 7).build();
        let mut sm = crate::SubnetManager::new(paper, Box::new(Parx::default()));
        assert!(sm.sweep().is_ok());
    }

    #[test]
    fn parx_rejects_odd_dimensions() {
        for shape in [vec![3, 4], vec![4, 3, 2], vec![5]] {
            let t = HyperXConfig::new(shape, 1).build();
            assert!(matches!(
                Parx::default().route(&t),
                Err(RouteError::UnsupportedTopology(
                    "PARX requires even extents in every dimension"
                ))
            ));
        }
    }

    #[test]
    fn two_d_selection_supersets_table1() {
        // On a 2-D HyperX the generalized valid set must contain every
        // Table-1 choice (the paper picks a balanced subset).
        let topo = HyperXConfig::new(vec![4, 4], 1).build();
        let hx = topo.meta.as_hyperx().unwrap().clone();
        for a in topo.switches() {
            for b in topo.switches() {
                let (ca, cb) = (hx.coord(a), hx.coord(b));
                let (qa, qb) = (hx.quadrant(a).unwrap(), hx.quadrant(b).unwrap());
                for size in [SizeClass::Small, SizeClass::Large] {
                    let nd = lid_choices_nd(&hx.shape, &ca, &cb, size);
                    for &x in lid_choices(qa, qb, size) {
                        assert!(
                            nd.contains(&x),
                            "{qa:?}->{qb:?} {size:?}: Table1 {x} not in nd {nd:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn three_d_small_lids_minimal_large_detour() {
        let topo = HyperXConfig::new(vec![4, 4, 2], 1).build();
        let hx = topo.meta.as_hyperx().unwrap().clone();
        let routes = Parx::default().route(&topo).unwrap();
        let mut detours = 0usize;
        for src in topo.nodes() {
            let (ssw, _) = topo.node_switch(src);
            let dist = bfs_dist(&topo, ssw);
            let cs = hx.coord(ssw);
            for dst in topo.nodes() {
                if src == dst {
                    continue;
                }
                let (dsw, _) = topo.node_switch(dst);
                if dsw == ssw {
                    continue;
                }
                let cd = hx.coord(dsw);
                let minimal = dist[dsw.idx()];
                for &x in &lid_choices_nd(&hx.shape, &cs, &cd, SizeClass::Small) {
                    let p = routes.path_to(&topo, src, dst, x as u32).unwrap();
                    assert_eq!(p.isl_hops(), minimal, "small {src}->{dst} LID{x}");
                }
                for &x in &lid_choices_nd(&hx.shape, &cs, &cd, SizeClass::Large) {
                    let p = routes.path_to(&topo, src, dst, x as u32).unwrap();
                    assert!(p.isl_hops() >= minimal);
                    if p.isl_hops() > minimal {
                        detours += 1;
                    }
                }
            }
        }
        assert!(detours > 0, "3-D detours must exist");
    }

    #[test]
    fn parx_all_lids_reachable_and_deadlock_free() {
        // 2L rules per node, rounded up to 2^LMC LIDs: 4 on 2-D (the
        // paper's LMC = 2), 8 on 3-D (LMC 3, two mirrored), 2 on 1-D.
        // Quadrant LID blocks exist only on 2-D.
        use LidPolicy::{QuadrantBlocks, Sequential};
        for (shape, terminals, lids, policy) in [
            (vec![4, 4], 2, 4, QuadrantBlocks),
            (vec![4, 4, 2], 1, 8, Sequential),
            (vec![6], 2, 2, Sequential),
        ] {
            let t = HyperXConfig::new(shape, terminals).build();
            let r = Parx::default().route(&t).unwrap();
            assert_eq!(r.lid_map.lids_per_node(), lids);
            assert_eq!(r.lid_map.policy(), policy);
            let n = t.num_nodes();
            let stats = verify_paths(&t, &r).unwrap();
            assert_eq!(stats.pairs, n * (n - 1) * lids as usize);
            let vls = verify_deadlock_free(&t, &r).unwrap();
            assert!(vls <= 8, "paper: PARX needs 5-8 VLs, got {vls}");
        }
    }

    #[test]
    fn small_lids_give_minimal_paths_large_forced_detours() {
        // The structural heart of PARX (Figure 3 / Table 1): for every node
        // pair, the Table-1a LID yields a hop-minimal route, and for
        // same-quadrant remote pairs the Table-1b LID is strictly longer.
        let t = small_hx();
        let hx = t.meta.as_hyperx().unwrap().clone();
        let r = Parx::default().route(&t).unwrap();
        let mut detours = 0usize;
        for src in t.nodes() {
            let (ssw, _) = t.node_switch(src);
            let min_dist = bfs_dist(&t, ssw);
            for dst in t.nodes() {
                if src == dst {
                    continue;
                }
                let (dsw, _) = t.node_switch(dst);
                if ssw == dsw {
                    continue;
                }
                let (sq, dq) = (hx.quadrant(ssw).unwrap(), hx.quadrant(dsw).unwrap());
                let minimal = min_dist[dsw.idx()];
                for &x in lid_choices(sq, dq, SizeClass::Small) {
                    let p = r.path_to(&t, src, dst, x as u32).unwrap();
                    assert_eq!(
                        p.isl_hops(),
                        minimal,
                        "small {src}->{dst} via LID{x}: {sq:?}->{dq:?}"
                    );
                }
                if sq == dq {
                    for &x in lid_choices(sq, dq, SizeClass::Large) {
                        let p = r.path_to(&t, src, dst, x as u32).unwrap();
                        assert!(p.isl_hops() >= minimal, "large path shorter than minimal?");
                        if p.isl_hops() > minimal {
                            detours += 1;
                        }
                    }
                }
            }
        }
        assert!(detours > 0, "large same-quadrant traffic must detour");
    }

    #[test]
    fn parx_increases_path_diversity_between_adjacent_switches() {
        // Paper Section 3.2.1: between two switches in one half, the four
        // LIDs' paths use more distinct first cables than the single
        // minimal route.
        let t = HyperXConfig::new(vec![8, 4], 2).build();
        let hx = t.meta.as_hyperx().unwrap().clone();
        let r = Parx::default().route(&t).unwrap();
        // Nodes on switches (0,0) and (1,0): same row, both left-top (Q0).
        let s0 = hx.switch_at(&[0, 0]);
        let s1 = hx.switch_at(&[1, 0]);
        let n0 = t.attached_nodes(s0).next().unwrap().0;
        let n1 = t.attached_nodes(s1).next().unwrap().0;
        let mut first_isl = std::collections::HashSet::new();
        for x in 0..4 {
            let p = r.path_to(&t, n0, n1, x).unwrap();
            if p.isl_hops() > 0 {
                first_isl.insert(p.hops[1]);
            }
        }
        assert!(
            first_isl.len() >= 2,
            "PARX should provide disjoint alternatives, got {first_isl:?}"
        );
    }

    #[test]
    fn parx_with_demand_shifts_weights() {
        // A demand profile concentrates weight, so the resulting tables must
        // differ from the oblivious run somewhere.
        let t = small_hx();
        let oblivious = Parx::default().route(&t).unwrap();
        let aware = Parx::with_demand(demand8(&t)).route(&t).unwrap();
        verify_paths(&t, &aware).unwrap();
        verify_deadlock_free(&t, &aware).unwrap();
        let mut differs = false;
        'outer: for src in t.nodes() {
            for (lid, dst) in oblivious.lid_map.lids() {
                if dst == src {
                    continue;
                }
                // Note: LID layouts coincide (same policy), so compare paths.
                if oblivious.path(&t, src, lid).unwrap().hops
                    != aware.path(&t, src, lid).unwrap().hops
                {
                    differs = true;
                    break 'outer;
                }
            }
        }
        assert!(differs, "demand must influence routing");
    }

    #[test]
    fn parx_fault_tolerant_fallback() {
        let t = faulty_56();
        let r = Parx::default().route(&t).unwrap();
        verify_paths(&t, &r).unwrap();
        verify_deadlock_free(&t, &r).unwrap();
    }

    #[test]
    fn parx_uses_quadrant_lid_blocks() {
        let t = small_hx();
        let r = Parx::default().route(&t).unwrap();
        let hx = t.meta.as_hyperx().unwrap().clone();
        for n in t.nodes() {
            let q = hx.quadrant(t.node_switch(n).0).unwrap();
            assert_eq!(r.lid_map.quadrant_of_lid(r.lid_map.base(n)), Some(q));
        }
    }
}
