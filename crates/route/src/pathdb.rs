//! The epoch-versioned path database — every path in the fabric, extracted
//! once per subnet sweep and shared by all consumers.
//!
//! The paper's comparison rests on path properties of static IB routing:
//! per-pair hop counts, link loads and fail-in-place recomputation after
//! cable faults (Section 4.4.3). [`PathDb`] makes the *path set* the
//! first-class object instead of the raw LFTs: an immutable, CSR-compressed
//! store of the ISL hop vector of every `(source switch, destination LID)`
//! pair, stamped with the sweep epoch that produced it and shared as
//! `Arc<PathDb>` across the simulator, the MPI layer and verification.
//!
//! * [`PathDb::build`] walks the LFTs once — in parallel over destination
//!   LIDs with `std::thread::scope` — validating reachability and loop
//!   freedom as it goes (the walk *is* the verification pass).
//! * [`PathDb::affected_by`] answers "which destination trees traverse this
//!   cable?", the query behind incremental fail-in-place rerouting.
//! * [`PathDb::patched`] rebuilds only the affected columns and bumps the
//!   epoch, leaving every other path untouched byte-for-byte.

use crate::dijkstra::EdgeWeights;
use crate::engines::walk_lft;
use crate::lft::{DirLink, RouteError, Routes};
use crate::lid::Lid;
use crate::verify::PathStats;
use hxtopo::{Endpoint, LinkId, NodeId, SwitchId, Topology};

/// One destination LID's worth of paths: per-switch hop counts plus the
/// concatenated hop vectors in ascending switch order.
type Column = (Vec<u32>, Vec<DirLink>);

/// Immutable, CSR-compressed per-`(source switch, destination LID)` path
/// store with an epoch stamp.
///
/// Hop vectors cover the inter-switch legs only; the source terminal hop
/// (per node) and destination terminal hop (per LID) are factored out into
/// side tables, so a full node-to-node path is
/// `[node_up] ++ isl_path(switch, lid) ++ [dst_down]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathDb {
    epoch: u64,
    num_switches: usize,
    lid_space: usize,
    engine: &'static str,
    /// CSR offsets into `isl_hops`, indexed `lid * num_switches + switch`;
    /// length `lid_space * num_switches + 1`. Only node-bearing source
    /// switches have non-empty slices.
    offsets: Vec<u32>,
    /// All ISL hop vectors, concatenated in `(lid, switch)` order.
    isl_hops: Vec<DirLink>,
    /// Switch index per node.
    node_sw: Vec<u32>,
    /// Directed terminal hop leaving each node.
    node_up: Vec<DirLink>,
    /// Attached-node count per switch (link-load weighting).
    nodes_at: Vec<u32>,
    /// Owner node index per LID (`u32::MAX` = unowned).
    owner: Vec<u32>,
    /// Directed terminal hop arriving at each LID's owner (dummy for
    /// unowned LIDs).
    dst_down: Vec<DirLink>,
}

/// Default build parallelism: the machine's cores, capped so huge hosts
/// don't shred a small LID space into confetti.
pub fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Extracts one destination LID's paths from every node-bearing source
/// switch, validating that each walk terminates at the LID's owner.
fn build_column(
    topo: &Topology,
    routes: &Routes,
    src_switches: &[SwitchId],
    lid: Lid,
    owner: NodeId,
) -> Result<Column, RouteError> {
    let (dsw, _) = topo.node_switch(owner);
    let mut lens = vec![0u32; topo.num_switches()];
    let mut hops = Vec::new();
    for &sw in src_switches {
        if sw == dsw {
            continue; // same-switch delivery: no ISL legs
        }
        let before = hops.len();
        let arrived = walk_lft(topo, routes, sw, lid, |dl| hops.push(dl))?;
        // Delivery to the wrong node or over a deactivated cable is a
        // routing hole (the paper's fault-tolerance criterion): stale LFT
        // entries still "walk", but the store must refuse them.
        if arrived != owner || hops[before..].iter().any(|dl| !topo.is_active(dl.link())) {
            return Err(RouteError::NoRoute { switch: sw, lid });
        }
        lens[sw.idx()] = (hops.len() - before) as u32;
    }
    Ok((lens, hops))
}

impl PathDb {
    /// Builds the full path store from installed forwarding state, walking
    /// the LFT of every `(node-bearing switch, destination LID)` pair.
    ///
    /// `threads` is the build parallelism (`0` = [`auto_threads`]); the
    /// result is byte-identical regardless of the thread count, because LIDs
    /// are partitioned into contiguous chunks whose columns land in
    /// pre-assigned slots and errors are reported lowest-LID-first.
    pub fn build(
        topo: &Topology,
        routes: &Routes,
        epoch: u64,
        threads: usize,
    ) -> Result<PathDb, RouteError> {
        let lid_space = routes.lid_space();
        let src_switches: Vec<SwitchId> = topo
            .switches()
            .filter(|&s| topo.attached_nodes(s).next().is_some())
            .collect();
        let lid_map = &routes.lid_map;
        let threads = if threads == 0 {
            auto_threads()
        } else {
            threads
        }
        .clamp(1, lid_space.max(1));

        let mut cols: Vec<Option<Column>> = Vec::with_capacity(lid_space);
        cols.resize_with(lid_space, || None);
        if threads == 1 {
            for (l, slot) in cols.iter_mut().enumerate() {
                if let Some(owner) = lid_map.owner(l as Lid) {
                    *slot = Some(build_column(topo, routes, &src_switches, l as Lid, owner)?);
                }
            }
        } else {
            let chunk = lid_space.div_ceil(threads);
            let mut errs: Vec<Option<(Lid, RouteError)>> = vec![None; threads];
            std::thread::scope(|scope| {
                for (ci, (slots, err)) in cols.chunks_mut(chunk).zip(errs.iter_mut()).enumerate() {
                    let base = (ci * chunk) as Lid;
                    let src_switches = &src_switches;
                    scope.spawn(move || {
                        for (off, slot) in slots.iter_mut().enumerate() {
                            let lid = base + off as Lid;
                            let Some(owner) = lid_map.owner(lid) else {
                                continue;
                            };
                            match build_column(topo, routes, src_switches, lid, owner) {
                                Ok(c) => *slot = Some(c),
                                Err(e) => {
                                    *err = Some((lid, e));
                                    return;
                                }
                            }
                        }
                    });
                }
            });
            // Deterministic error selection: the lowest failing LID wins,
            // independent of thread completion order.
            if let Some((_, e)) = errs.into_iter().flatten().min_by_key(|&(l, _)| l) {
                return Err(e);
            }
        }
        Ok(Self::assemble(topo, routes, epoch, &cols))
    }

    /// Incremental patch: recomputes only the columns of `affected` LIDs
    /// from (repaired) forwarding state, copies every other column verbatim,
    /// and bumps the epoch. The LID layout must be unchanged.
    pub fn patched(
        &self,
        topo: &Topology,
        routes: &Routes,
        affected: &[Lid],
    ) -> Result<PathDb, RouteError> {
        assert_eq!(routes.lid_space(), self.lid_space, "LID layout changed");
        let s = self.num_switches;
        let src_switches: Vec<SwitchId> = topo
            .switches()
            .filter(|&sw| topo.attached_nodes(sw).next().is_some())
            .collect();
        let mut is_affected = vec![false; self.lid_space];
        for &l in affected {
            is_affected[l as usize] = true;
        }
        let mut offsets = Vec::with_capacity(self.offsets.len());
        offsets.push(0u32);
        let mut isl_hops: Vec<DirLink> = Vec::with_capacity(self.isl_hops.len());
        #[allow(clippy::needless_range_loop)] // lid also scales offset math
        for lid in 0..self.lid_space {
            if is_affected[lid] {
                let owner = routes
                    .lid_map
                    .owner(lid as Lid)
                    .ok_or(RouteError::UnknownLid(lid as Lid))?;
                let (lens, hops) = build_column(topo, routes, &src_switches, lid as Lid, owner)?;
                let mut run = *offsets.last().unwrap();
                for &len in &lens {
                    run += len;
                    offsets.push(run);
                }
                isl_hops.extend_from_slice(&hops);
            } else {
                let base = self.offsets[lid * s];
                let shift = *offsets.last().unwrap() as i64 - base as i64;
                for i in 1..=s {
                    offsets.push((self.offsets[lid * s + i] as i64 + shift) as u32);
                }
                let end = self.offsets[lid * s + s];
                isl_hops.extend_from_slice(&self.isl_hops[base as usize..end as usize]);
            }
        }
        Ok(PathDb {
            epoch: self.epoch + 1,
            num_switches: s,
            lid_space: self.lid_space,
            engine: routes.engine,
            offsets,
            isl_hops,
            node_sw: self.node_sw.clone(),
            node_up: self.node_up.clone(),
            nodes_at: self.nodes_at.clone(),
            owner: self.owner.clone(),
            dst_down: self.dst_down.clone(),
        })
    }

    fn assemble(topo: &Topology, routes: &Routes, epoch: u64, cols: &[Option<Column>]) -> PathDb {
        let s = topo.num_switches();
        let lid_space = routes.lid_space();
        let total: usize = cols.iter().flatten().map(|(_, h)| h.len()).sum();
        let mut offsets = Vec::with_capacity(lid_space * s + 1);
        offsets.push(0u32);
        let mut isl_hops = Vec::with_capacity(total);
        for col in cols {
            let mut run = *offsets.last().unwrap();
            match col {
                Some((lens, hops)) => {
                    for &len in lens {
                        run += len;
                        offsets.push(run);
                    }
                    isl_hops.extend_from_slice(hops);
                }
                None => offsets.extend(std::iter::repeat_n(run, s)),
            }
        }
        let mut node_sw = Vec::with_capacity(topo.num_nodes());
        let mut node_up = Vec::with_capacity(topo.num_nodes());
        let mut nodes_at = vec![0u32; s];
        for n in topo.nodes() {
            let (sw, up) = topo.node_switch(n);
            node_sw.push(sw.0);
            node_up.push(DirLink::leaving(topo, up, Endpoint::Node(n)));
            nodes_at[sw.idx()] += 1;
        }
        let mut owner = vec![u32::MAX; lid_space];
        let mut dst_down = vec![DirLink::from_index(0); lid_space];
        for (lid, o) in routes.lid_map.lids() {
            owner[lid as usize] = o.0;
            let (dsw, down) = topo.node_switch(o);
            dst_down[lid as usize] = DirLink::leaving(topo, down, Endpoint::Switch(dsw));
        }
        PathDb {
            epoch,
            num_switches: s,
            lid_space,
            engine: routes.engine,
            offsets,
            isl_hops,
            node_sw,
            node_up,
            nodes_at,
            owner,
            dst_down,
        }
    }

    /// Sweep epoch that produced this store.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Routing engine that produced the underlying forwarding state.
    pub fn engine(&self) -> &'static str {
        self.engine
    }

    /// LID-space size.
    pub fn lid_space(&self) -> usize {
        self.lid_space
    }

    /// Total stored ISL hops (memory-footprint metric).
    pub fn num_isl_hops(&self) -> usize {
        self.isl_hops.len()
    }

    /// Owner node of a LID (`None` = unowned).
    pub fn lid_owner(&self, lid: Lid) -> Option<NodeId> {
        let o = *self.owner.get(lid as usize)?;
        (o != u32::MAX).then_some(NodeId(o))
    }

    /// Directed terminal hop arriving at a LID's owner (dummy for unowned
    /// LIDs).
    pub fn dst_down_hop(&self, lid: Lid) -> DirLink {
        self.dst_down[lid as usize]
    }

    /// Approximate heap footprint in bytes of the path payload (CSR
    /// offsets + hop vectors) plus side tables.
    pub fn approx_bytes(&self) -> usize {
        self.offsets.len() * 4
            + self.isl_hops.len() * 4
            + self.node_sw.len() * 4
            + self.node_up.len() * 4
            + self.nodes_at.len() * 4
            + self.owner.len() * 4
            + self.dst_down.len() * 4
    }

    /// The ISL hop vector from a source switch towards a destination LID.
    /// Empty for same-switch delivery, unowned LIDs and node-less switches.
    #[inline]
    pub fn isl_path(&self, sw: SwitchId, dst_lid: Lid) -> &[DirLink] {
        let i = dst_lid as usize * self.num_switches + sw.idx();
        &self.isl_hops[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The full node-to-node hop vector (terminal cables included), exactly
    /// as [`Routes::path`] would extract it. `None` for unowned LIDs; empty
    /// for self-sends.
    pub fn node_path(&self, src: NodeId, dst_lid: Lid) -> Option<Vec<DirLink>> {
        let mut hops = Vec::new();
        self.node_path_into(src, dst_lid, &mut hops).then_some(hops)
    }

    /// [`PathDb::node_path`] into a caller-provided buffer (cleared first),
    /// so samplers looping over many pairs can recycle the allocation.
    /// Returns `false` for unowned LIDs; `true` with an empty buffer for
    /// self-sends.
    pub fn node_path_into(&self, src: NodeId, dst_lid: Lid, out: &mut Vec<DirLink>) -> bool {
        out.clear();
        let Some(&o) = self.owner.get(dst_lid as usize) else {
            return false;
        };
        if o == u32::MAX {
            return false;
        }
        if o == src.0 {
            return true;
        }
        let sw = self.node_sw[src.idx()] as usize;
        let i = dst_lid as usize * self.num_switches + sw;
        let isl = &self.isl_hops[self.offsets[i] as usize..self.offsets[i + 1] as usize];
        out.reserve(isl.len() + 2);
        out.push(self.node_up[src.idx()]);
        out.extend_from_slice(isl);
        out.push(self.dst_down[dst_lid as usize]);
        true
    }

    /// Destination LIDs whose path set traverses `l` in either direction —
    /// the trees an incremental reroute must recompute after that cable
    /// fails.
    pub fn affected_by(&self, l: LinkId) -> Vec<Lid> {
        let s = self.num_switches;
        let mut out = Vec::new();
        for lid in 0..self.lid_space {
            let a = self.offsets[lid * s] as usize;
            let b = self.offsets[lid * s + s] as usize;
            if self.isl_hops[a..b].iter().any(|dl| dl.link() == l) {
                out.push(lid as Lid);
            }
        }
        out
    }

    /// Per-directed-link path counts, weighted by the number of nodes on
    /// each source switch — the same accounting SSSP's balancing uses, so an
    /// incremental repair can stay load-aware without an engine re-run.
    pub fn link_loads(&self, topo: &Topology) -> EdgeWeights {
        let mut w = EdgeWeights::new(topo);
        let s = self.num_switches;
        for lid in 0..self.lid_space {
            if self.owner[lid] == u32::MAX {
                continue;
            }
            for (sw, &cnt) in self.nodes_at.iter().enumerate() {
                if cnt == 0 {
                    continue;
                }
                let a = self.offsets[lid * s + sw] as usize;
                let b = self.offsets[lid * s + sw + 1] as usize;
                for dl in &self.isl_hops[a..b] {
                    w.add(*dl, cnt as u64);
                }
            }
        }
        w
    }

    /// Aggregate hop statistics over every (source node, destination LID)
    /// pair, excluding self-sends — the stats `verify_paths` reports.
    pub fn stats(&self) -> PathStats {
        let mut pairs = 0usize;
        let mut max = 0usize;
        let mut sum = 0u64;
        let mut hist = vec![0usize; 8];
        let s = self.num_switches;
        for (n, &sw) in self.node_sw.iter().enumerate() {
            for lid in 0..self.lid_space {
                let o = self.owner[lid];
                if o == u32::MAX || o == n as u32 {
                    continue;
                }
                let i = lid * s + sw as usize;
                let h = (self.offsets[i + 1] - self.offsets[i]) as usize;
                pairs += 1;
                sum += h as u64;
                max = max.max(h);
                if h >= hist.len() {
                    hist.resize(h + 1, 0);
                }
                hist[h] += 1;
            }
        }
        PathStats {
            pairs,
            max_isl_hops: max,
            avg_isl_hops: if pairs == 0 {
                0.0
            } else {
                sum as f64 / pairs as f64
            },
            hist,
        }
    }

    /// Structural equality ignoring the epoch stamp: true when both stores
    /// hold byte-identical paths.
    pub fn content_eq(&self, other: &PathDb) -> bool {
        self.num_switches == other.num_switches
            && self.lid_space == other.lid_space
            && self.engine == other.engine
            && self.offsets == other.offsets
            && self.isl_hops == other.isl_hops
            && self.node_sw == other.node_sw
            && self.node_up == other.node_up
            && self.nodes_at == other.nodes_at
            && self.owner == other.owner
            && self.dst_down == other.dst_down
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{Dfsssp, MinHop, RoutingEngine};
    use hxtopo::hyperx::HyperXConfig;
    use hxtopo::LinkClass;

    fn hx() -> Topology {
        HyperXConfig::new(vec![4, 4], 2).build()
    }

    #[test]
    fn node_paths_match_lft_walks() {
        let t = hx();
        let r = MinHop::default().route(&t).unwrap();
        let db = PathDb::build(&t, &r, 1, 1).unwrap();
        for src in t.nodes() {
            for (lid, _) in r.lid_map.lids() {
                let expect = r.path(&t, src, lid).unwrap().hops;
                assert_eq!(db.node_path(src, lid).unwrap(), expect, "{src} lid {lid}");
            }
        }
        assert_eq!(db.node_path(hxtopo::NodeId(0), 0), None, "LID 0 unowned");
    }

    #[test]
    fn parallel_build_is_byte_identical() {
        let t = hx();
        let r = Dfsssp::default().route(&t).unwrap();
        let seq = PathDb::build(&t, &r, 1, 1).unwrap();
        for threads in [2, 3, 7] {
            let par = PathDb::build(&t, &r, 1, threads).unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn stats_match_verify_paths() {
        let t = hx();
        let r = Dfsssp::default().route(&t).unwrap();
        let db = PathDb::build(&t, &r, 1, 0).unwrap();
        let s = db.stats();
        assert_eq!(s.pairs, 32 * 31);
        assert_eq!(s.hist.iter().sum::<usize>(), s.pairs);
    }

    #[test]
    fn affected_by_finds_exactly_the_traversing_lids() {
        let t = hx();
        let r = MinHop::default().route(&t).unwrap();
        let db = PathDb::build(&t, &r, 1, 1).unwrap();
        let isl = t
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        let affected = db.affected_by(isl);
        assert!(!affected.is_empty());
        for (lid, _) in r.lid_map.lids() {
            let traverses = t.nodes().any(|n| {
                db.node_path(n, lid)
                    .unwrap()
                    .iter()
                    .any(|dl| dl.link() == isl)
            });
            assert_eq!(affected.contains(&lid), traverses, "lid {lid}");
        }
    }

    #[test]
    fn patched_with_no_faults_only_bumps_epoch() {
        let t = hx();
        let r = MinHop::default().route(&t).unwrap();
        let db = PathDb::build(&t, &r, 3, 1).unwrap();
        let p = db.patched(&t, &r, &[]).unwrap();
        assert_eq!(p.epoch(), 4);
        assert!(p.content_eq(&db));
        // Re-deriving *every* column must also be a fixed point.
        let all: Vec<Lid> = r.lid_map.lids().map(|(l, _)| l).collect();
        assert!(db.patched(&t, &r, &all).unwrap().content_eq(&db));
    }

    #[test]
    fn build_detects_broken_tables() {
        let t = hx();
        let mut r = MinHop::default().route(&t).unwrap();
        let (lid, _) = r.lid_map.lids().next().unwrap();
        r.clear(hxtopo::SwitchId(15), lid);
        assert!(matches!(
            PathDb::build(&t, &r, 1, 4),
            Err(RouteError::NoRoute { .. })
        ));
    }

    #[test]
    fn link_loads_count_every_pair_hop() {
        let t = hx();
        let r = MinHop::default().route(&t).unwrap();
        let db = PathDb::build(&t, &r, 1, 1).unwrap();
        let stats = db.stats();
        let loads = db.link_loads(&t);
        // Total load == total ISL hops over all (node, lid) pairs.
        let expect: u64 = stats
            .hist
            .iter()
            .enumerate()
            .map(|(h, &n)| (h * n) as u64)
            .sum();
        assert_eq!(loads.total(), expect);
    }
}
