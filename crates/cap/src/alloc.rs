//! The fragmentation-aware job allocator: live jobs over one plane's
//! node pool, with the three placement policies and link-sharing
//! accounting.
//!
//! The paper's capacity argument (Section 5.3) is really a claim about a
//! *scheduler*: HyperX absorbs arriving jobs into quadrants without the
//! rearrangement cost a fat-tree pays. [`Allocator`] is that scheduler's
//! state: a quadrant-major node pool, a free bitmap, the set of live jobs
//! with their ring communication cables, and the per-cable sharing counts
//! the [`NetworkAware`](crate::PolicyKind::NetworkAware) policy and the
//! [`interference`](mod@crate::interference) metrics read. The day-scale
//! arrival/departure schedule lives one layer up, in
//! `hxcore::run_capacity_scale`; this type is the pure, deterministic
//! core it drives.

use crate::place::PlaceError;
use crate::policy::{PolicyKind, PoolView};
use crate::quadrant_pool_order;
use hxroute::{DirLink, PathDb, Routes};
use hxtopo::{NodeId, Topology};
use std::collections::BTreeMap;

/// Opaque handle of a live job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// One live job's allocation state.
#[derive(Debug, Clone)]
pub struct LiveJob {
    /// Nodes the job runs on, in placement order.
    pub nodes: Vec<NodeId>,
    /// Directed cables its ring skeleton crosses (dense
    /// [`hxroute::DirLink`] indices, deduplicated).
    pub links: Vec<usize>,
    /// Ring-neighbour paths, one per `(i, i+1 mod k)` pair — the flow set
    /// the interference solver rates.
    pub paths: Vec<Vec<DirLink>>,
}

/// Tracks live jobs over one plane's node pool.
///
/// All selection and scoring happens against the borrowed routing epoch;
/// an allocator is cheap to rebuild when the epoch advances (the free
/// state is a pure function of the live job set, so a rebuild replays
/// allocations).
pub struct Allocator<'a> {
    routes: &'a Routes,
    db: &'a PathDb,
    pool: Vec<NodeId>,
    /// Pool position of each node id (`node_pos[node] = index into pool`).
    node_pos: Vec<usize>,
    free: Vec<bool>,
    free_count: usize,
    /// Live-job ring crossings per directed cable.
    link_share: Vec<u32>,
    jobs: BTreeMap<JobId, LiveJob>,
    next_id: u64,
}

impl<'a> Allocator<'a> {
    /// An empty allocator over the plane's quadrant-major pool.
    pub fn new(topo: &Topology, routes: &'a Routes, db: &'a PathDb) -> Allocator<'a> {
        let pool = quadrant_pool_order(topo);
        let mut node_pos = vec![0usize; topo.num_nodes()];
        for (i, n) in pool.iter().enumerate() {
            node_pos[n.0 as usize] = i;
        }
        let free_count = pool.len();
        Allocator {
            routes,
            db,
            free: vec![true; free_count],
            pool,
            node_pos,
            free_count,
            link_share: vec![0; topo.num_links() * 2],
            jobs: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// The policy-facing view of the current pool state.
    pub fn view(&self) -> PoolView<'_> {
        PoolView {
            routes: self.routes,
            db: self.db,
            pool: &self.pool,
            free: &self.free,
            link_share: &self.link_share,
        }
    }

    /// Places a `k`-rank job with the given policy. On success the chosen
    /// nodes leave the free pool, the job's ring cables are added to the
    /// sharing counts, and the job id is returned. Refusals are typed and
    /// leave the pool untouched.
    pub fn allocate(
        &mut self,
        k: usize,
        policy: PolicyKind,
        seed: u64,
    ) -> Result<JobId, PlaceError> {
        let nodes = policy.select(&self.view(), k, seed)?;
        debug_assert_eq!(nodes.len(), k, "policy {policy} broke its contract");
        for n in &nodes {
            let pos = self.node_pos[n.0 as usize];
            debug_assert!(self.free[pos], "policy {policy} picked a busy node");
            self.free[pos] = false;
        }
        self.free_count -= k;
        let paths = ring_paths(self.routes, self.db, &nodes);
        let mut links: Vec<usize> = paths.iter().flatten().map(|dl| dl.index()).collect();
        links.sort_unstable();
        links.dedup();
        for &l in &links {
            self.link_share[l] += 1;
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.jobs.insert(
            id,
            LiveJob {
                nodes,
                links,
                paths,
            },
        );
        Ok(id)
    }

    /// Departs a job: returns its nodes to the free pool and removes its
    /// ring cables from the sharing counts. The freed node list comes
    /// back for the caller's accounting.
    pub fn release(&mut self, id: JobId) -> Result<Vec<NodeId>, PlaceError> {
        let job = self.jobs.remove(&id).ok_or(PlaceError::UnknownJob(id.0))?;
        for n in &job.nodes {
            let pos = self.node_pos[n.0 as usize];
            debug_assert!(!self.free[pos], "double free of {n:?}");
            self.free[pos] = true;
        }
        self.free_count += job.nodes.len();
        for &l in &job.links {
            self.link_share[l] -= 1;
        }
        Ok(job.nodes)
    }

    /// A live job's allocation state.
    pub fn job(&self, id: JobId) -> Option<&LiveJob> {
        self.jobs.get(&id)
    }

    /// Live jobs, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = (JobId, &LiveJob)> {
        self.jobs.iter().map(|(&id, j)| (id, j))
    }

    /// Number of live jobs.
    pub fn live_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Free nodes remaining.
    pub fn free_nodes(&self) -> usize {
        self.free_count
    }

    /// Allocated fraction of the pool, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        1.0 - self.free_count as f64 / self.pool.len().max(1) as f64
    }

    /// The free bitmap, indexed like the quadrant-major pool. Proptests
    /// pin that allocate→release round-trips restore it bit-identically.
    pub fn free_bitmap(&self) -> &[bool] {
        &self.free
    }

    /// Live-job ring crossings per directed cable (dense
    /// [`hxroute::DirLink`] index).
    pub fn link_share(&self) -> &[u32] {
        &self.link_share
    }

    /// Fragmentation index of the free pool in `[0, 1]`: `1 - (longest
    /// contiguous free run in pool order) / (free nodes)`. 0.0 means all
    /// free capacity is one contiguous quadrant-major run (or the pool is
    /// exhausted — an empty free set has nothing fragmented about it);
    /// values toward 1.0 mean the free capacity is shredded into slivers
    /// that force even small jobs to scatter.
    pub fn fragmentation(&self) -> f64 {
        if self.free_count == 0 {
            return 0.0;
        }
        let mut longest = 0usize;
        let mut run = 0usize;
        for &f in &self.free {
            if f {
                run += 1;
                longest = longest.max(run);
            } else {
                run = 0;
            }
        }
        1.0 - longest as f64 / self.free_count as f64
    }
}

/// Ring-neighbour paths of a node set: one directed path per
/// `(i, i+1 mod k)` pair, terminals included. Empty for k < 2.
fn ring_paths(routes: &Routes, db: &PathDb, nodes: &[NodeId]) -> Vec<Vec<DirLink>> {
    let k = nodes.len();
    if k < 2 {
        return Vec::new();
    }
    let mut paths = Vec::with_capacity(k);
    for i in 0..k {
        let src = nodes[i];
        let dst = nodes[(i + 1) % k];
        if src == dst {
            continue;
        }
        let lid = routes.lid_map.base(dst);
        if let Some(p) = db.node_path(src, lid) {
            paths.push(p);
        }
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ring_links;
    use crate::PolicyKind::{Contiguous, Scattered};
    use hxroute::engines::{RoutingEngine, Sssp};
    use hxtopo::hyperx::HyperXConfig;

    fn ctx() -> (Topology, Routes, PathDb) {
        let topo = HyperXConfig::new(vec![4, 4], 2).build();
        let routes = Sssp::default().route(&topo).unwrap();
        let db = PathDb::build(&topo, &routes, 1, 1).unwrap();
        (topo, routes, db)
    }

    #[test]
    fn lifecycle_restores_the_pool() {
        let (topo, routes, db) = ctx();
        let mut a = Allocator::new(&topo, &routes, &db);
        let before = a.free_bitmap().to_vec();
        let share_before = a.link_share().to_vec();
        let id = a.allocate(8, Contiguous, 1).unwrap();
        assert_eq!(a.free_nodes(), 24);
        assert_eq!(a.live_jobs(), 1);
        assert!(a
            .job(id)
            .unwrap()
            .links
            .iter()
            .all(|&l| a.link_share()[l] > 0));
        let freed = a.release(id).unwrap();
        assert_eq!(freed.len(), 8);
        assert_eq!(a.free_bitmap(), &before[..]);
        assert_eq!(a.link_share(), &share_before[..]);
        assert_eq!(a.live_jobs(), 0);
    }

    #[test]
    fn refusals_leave_state_untouched() {
        let (topo, routes, db) = ctx();
        let mut a = Allocator::new(&topo, &routes, &db);
        a.allocate(30, Contiguous, 1).unwrap();
        let before = a.free_bitmap().to_vec();
        assert_eq!(
            a.allocate(3, Contiguous, 1),
            Err(PlaceError::Insufficient {
                requested: 3,
                free: 2
            })
        );
        assert_eq!(a.free_bitmap(), &before[..]);
        assert_eq!(a.release(JobId(99)), Err(PlaceError::UnknownJob(99)));
    }

    #[test]
    fn fragmentation_tracks_pool_shape() {
        let (topo, routes, db) = ctx();
        let mut a = Allocator::new(&topo, &routes, &db);
        assert_eq!(a.fragmentation(), 0.0, "virgin pool is unfragmented");
        // A contiguous job leaves one free run: still unfragmented.
        let head = a.allocate(8, Contiguous, 1).unwrap();
        assert_eq!(a.fragmentation(), 0.0);
        // Scattered jobs shred the free pool.
        let s = a.allocate(16, Scattered, 7).unwrap();
        assert!(a.fragmentation() > 0.0, "scatter must fragment");
        a.release(s).unwrap();
        a.release(head).unwrap();
        assert_eq!(a.fragmentation(), 0.0);
    }

    #[test]
    fn every_policy_drives_the_lifecycle() {
        let (topo, routes, db) = ctx();
        for kind in crate::POLICY_KINDS {
            let mut a = Allocator::new(&topo, &routes, &db);
            let ids: Vec<JobId> = (0..3).map(|i| a.allocate(6, kind, i).unwrap()).collect();
            assert_eq!(a.free_nodes(), 32 - 18);
            assert!(a.utilization() > 0.5);
            // A job's cables are exactly the ones its ring crosses.
            for (_, job) in a.jobs() {
                assert_eq!(job.links, ring_links(&routes, &db, &job.nodes));
            }
            for id in ids {
                a.release(id).unwrap();
            }
            assert_eq!(a.free_nodes(), 32);
            assert_eq!(a.utilization(), 0.0);
        }
    }
}
