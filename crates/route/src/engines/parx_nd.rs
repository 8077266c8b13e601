//! PARX-nD — the paper's Section 3.2.1 notes that the quadrant approach
//! "is generalizable to higher dimensions"; this extension implements it
//! for any even-extent L-dimensional HyperX.
//!
//! Each dimension contributes two link-removal rules — drop all links whose
//! endpoints both lie in the lower (or upper) half along that dimension —
//! giving `2L` virtual destination LIDs per node (LMC = ceil(log2(2L))).
//! For `L = 2` the rules and LID indices coincide exactly with the paper's
//! R1–R4 (LID0 = left/lower-x, LID1 = right, LID2 = top/lower-y,
//! LID3 = bottom), and the generalized selection rule reproduces Table 1:
//!
//! * **small** messages may use any LID whose rule does not confine both
//!   endpoints (a minimal path survives: cross the rule's dimension first,
//!   then stay outside the removed half),
//! * **large** messages prefer LIDs whose removed half contains *both*
//!   endpoints, forcing the Figure-3b detour; when source and destination
//!   sit in opposite halves of every dimension no such rule exists and the
//!   selection degrades to a minimal LID — exactly like the off-diagonal
//!   minimal entries of Table 1b.

use super::{assign_vls, install_tree, walk_lft, RoutingEngine};
use crate::demand::Demand;
use crate::dijkstra::{dijkstra_to_dest, EdgeWeights};
use crate::lft::{RouteError, Routes};
use crate::lid::{LidMap, LidPolicy};
use crate::table1::SizeClass;
use hxtopo::{NodeId, Topology};

/// A half-removal rule: drop links internal to one half of one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HalfRule {
    /// Dimension index.
    pub dim: usize,
    /// `false` = lower half (`coord < extent/2`), `true` = upper half.
    pub upper: bool,
}

impl HalfRule {
    /// Rule encoded by LID index `x` (`x = 2*dim + upper`).
    pub fn of_lid(x: u8) -> HalfRule {
        HalfRule {
            dim: (x / 2) as usize,
            upper: x % 2 == 1,
        }
    }

    /// LID index of this rule.
    pub fn lid(&self) -> u8 {
        (self.dim * 2) as u8 + u8::from(self.upper)
    }

    /// Whether a coordinate lies inside the removed half.
    pub fn contains(&self, coord: &[u32], shape: &[u32]) -> bool {
        let half = shape[self.dim] / 2;
        if self.upper {
            coord[self.dim] >= half
        } else {
            coord[self.dim] < half
        }
    }
}

/// Valid LID indices for a source/destination coordinate pair and size
/// class on an L-dimensional even HyperX (generalized Table 1).
pub fn lid_choices_nd(shape: &[u32], src: &[u32], dst: &[u32], size: SizeClass) -> Vec<u8> {
    let rules = 2 * shape.len() as u8;
    let minimal: Vec<u8> = (0..rules)
        .filter(|&x| {
            let r = HalfRule::of_lid(x);
            !(r.contains(src, shape) && r.contains(dst, shape))
        })
        .collect();
    match size {
        SizeClass::Small => minimal,
        SizeClass::Large => {
            let detours: Vec<u8> = (0..rules)
                .filter(|&x| {
                    let r = HalfRule::of_lid(x);
                    r.contains(src, shape) && r.contains(dst, shape)
                })
                .collect();
            if detours.is_empty() {
                minimal
            } else {
                detours
            }
        }
    }
}

/// Deterministically selects one LID for a message (generalized
/// [`crate::table1::select_lid`]).
pub fn select_lid_nd(
    shape: &[u32],
    src: &[u32],
    dst: &[u32],
    size: SizeClass,
    discriminator: u64,
) -> u8 {
    let c = lid_choices_nd(shape, src, dst, size);
    c[(discriminator % c.len() as u64) as usize]
}

/// The generalized engine.
#[derive(Debug, Clone, Default)]
pub struct ParxNd {
    /// Optional communication profile (as in [`super::Parx`]).
    pub demand: Option<Demand>,
    /// Hardware VL limit; 0 = 8.
    pub max_vls: u8,
}

impl ParxNd {
    fn build_masks(topo: &Topology) -> Result<Vec<Vec<bool>>, RouteError> {
        let hx = topo
            .meta
            .as_hyperx()
            .ok_or(RouteError::UnsupportedTopology(
                "PARX-nD requires a HyperX topology",
            ))?;
        if hx.shape.iter().any(|&s| s % 2 != 0) {
            return Err(RouteError::UnsupportedTopology(
                "PARX-nD requires even extents in every dimension",
            ));
        }
        let rules = 2 * hx.dims();
        let mut masks = vec![vec![true; topo.num_links()]; rules];
        for (id, link) in topo.links() {
            let (Some(a), Some(b)) = (link.a.switch(), link.b.switch()) else {
                continue;
            };
            let (ca, cb) = (hx.coord(a), hx.coord(b));
            for x in 0..rules as u8 {
                let r = HalfRule::of_lid(x);
                if r.contains(&ca, &hx.shape) && r.contains(&cb, &hx.shape) {
                    masks[x as usize][id.idx()] = false;
                }
            }
        }
        Ok(masks)
    }
}

impl RoutingEngine for ParxNd {
    fn name(&self) -> &'static str {
        "parx-nd"
    }

    fn with_demand(&self, demand: Demand) -> Option<Box<dyn RoutingEngine>> {
        Some(Box::new(ParxNd {
            demand: Some(demand),
            ..self.clone()
        }))
    }

    fn route(&self, topo: &Topology) -> Result<Routes, RouteError> {
        let masks = Self::build_masks(topo)?;
        let rules = masks.len() as u32;
        // LMC large enough for 2L virtual LIDs per node.
        let lmc = (usize::BITS - (masks.len() - 1).leading_zeros()) as u8;
        let lid_map = LidMap::new(topo, lmc, LidPolicy::Sequential);
        let mut routes = Routes::new(topo, lid_map, "parx-nd");
        let mut weights = EdgeWeights::new(topo);
        let norm = self.demand.as_ref().map(|d| d.normalized());

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
                let (dsw, dlink) = topo.node_switch(nd);
                for x in 0..rules {
                    let lid = routes.lid_map.lid(nd, x);
                    let tree = dijkstra_to_dest(topo, dsw, &weights, Some(&masks[x as usize]));
                    install_tree(&mut routes, &tree, lid, dlink);
                    if tree
                        .out
                        .iter()
                        .enumerate()
                        .any(|(s, o)| o.is_none() && s != dsw.idx())
                    {
                        let full = dijkstra_to_dest(topo, dsw, &weights, None);
                        for s in topo.switches() {
                            if s != dsw && !tree.reachable(s) {
                                if let Some(link) = full.out[s.idx()] {
                                    routes.set(s, lid, link);
                                }
                            }
                        }
                    }
                    if let Some(norm) = phase_norm {
                        for (nx, w) in norm.senders_to(nd) {
                            let (ssw, _) = topo.node_switch(nx);
                            if nx == nd || ssw == dsw {
                                continue;
                            }
                            walk_lft(topo, &routes, ssw, lid, |dl| weights.add(dl, w as u64))?;
                        }
                    } else {
                        for nx in topo.nodes() {
                            let (ssw, _) = topo.node_switch(nx);
                            if nx == nd || ssw == dsw {
                                continue;
                            }
                            walk_lft(topo, &routes, ssw, lid, |dl| weights.add(dl, 1))?;
                        }
                    }
                }
                // Unused LID slots (2^lmc may exceed 2L): mirror LID0 so
                // round-robin PMLs stay functional.
                for x in rules..routes.lid_map.lids_per_node() {
                    let lid0 = routes.lid_map.lid(nd, 0);
                    let lid = routes.lid_map.lid(nd, x);
                    for s in topo.switches() {
                        if let Some(out) = routes.get(s, lid0) {
                            routes.set(s, lid, out);
                        }
                    }
                }
            }
        }

        let max_vls = if self.max_vls == 0 { 8 } else { self.max_vls };
        assign_vls(topo, &mut routes, max_vls)?;
        Ok(routes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::lid_choices;
    use crate::verify::{verify_deadlock_free, verify_paths};
    use hxtopo::hyperx::HyperXConfig;
    use hxtopo::props::bfs_dist;

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
    fn three_d_routes_verify() {
        let topo = HyperXConfig::new(vec![4, 4, 2], 1).build();
        let routes = ParxNd::default().route(&topo).unwrap();
        // 6 rules => LMC 3 => 8 LIDs per node, all must route.
        assert_eq!(routes.lid_map.lids_per_node(), 8);
        verify_paths(&topo, &routes).unwrap();
        let vls = verify_deadlock_free(&topo, &routes).unwrap();
        assert!(vls <= 8, "{vls} VLs");
    }

    #[test]
    fn three_d_small_lids_minimal_large_detour() {
        let topo = HyperXConfig::new(vec![4, 4, 2], 1).build();
        let hx = topo.meta.as_hyperx().unwrap().clone();
        let routes = ParxNd::default().route(&topo).unwrap();
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
    fn rejects_odd_extents() {
        let topo = HyperXConfig::new(vec![3, 4], 1).build();
        assert!(matches!(
            ParxNd::default().route(&topo),
            Err(RouteError::UnsupportedTopology(_))
        ));
    }

    #[test]
    fn one_d_hyperx_works() {
        // 1-D even HyperX: two rules, LMC 1.
        let topo = HyperXConfig::new(vec![6], 2).build();
        let routes = ParxNd::default().route(&topo).unwrap();
        assert_eq!(routes.lid_map.lids_per_node(), 2);
        verify_paths(&topo, &routes).unwrap();
        verify_deadlock_free(&topo, &routes).unwrap();
    }

    #[test]
    fn select_lid_nd_is_member() {
        let shape = vec![4u32, 4, 2];
        for disc in 0..10u64 {
            let x = select_lid_nd(&shape, &[0, 0, 0], &[3, 3, 1], SizeClass::Small, disc);
            assert!(lid_choices_nd(&shape, &[0, 0, 0], &[3, 3, 1], SizeClass::Small).contains(&x));
        }
    }
}
