//! The placement policies of the fragmentation-aware allocator.
//!
//! "Resource Allocation in HyperX Networks" (Cano et al.) shows that on a
//! HyperX the *allocation* policy interacts with the routing as strongly
//! as the routing itself: a job scattered across the long dimension pays
//! for every neighbour exchange, while a job packed into one quadrant
//! barely touches the shared cables. This module captures the three
//! policy families that study (and the paper's Section 5.3 combos)
//! compare, one [`PolicyKind`] variant each; [`PolicyKind::select`]
//! matches on the kind:
//!
//! * [`PolicyKind::Contiguous`] — first-fit over the quadrant-major pool
//!   order: the production default that keeps a job inside as few
//!   quadrants as the current fragmentation allows,
//! * [`PolicyKind::Scattered`] — a seeded random draw from the free
//!   pool: the worst-case baseline every fragmentation study needs,
//! * [`PolicyKind::NetworkAware`] — generates a small candidate slate
//!   (first-fit, tail-fit, per-quadrant rotations, one scattered draw)
//!   and picks the one minimizing *mean pairwise ISL hops plus a
//!   link-sharing penalty* against the jobs already running — FatPaths'
//!   point that contention lives on shared cables, not in hop counts
//!   alone.
//!
//! Policies are deterministic per `(pool state, k, seed)`: the same free
//! bitmap and seed always select the same nodes, which is what makes the
//! `capacity_scale` fingerprints byte-stable.

use crate::place::PlaceError;
use hxroute::{PathDb, Routes};
use hxtopo::NodeId;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Weight of the link-sharing term in the network-aware score: one live
/// job already on a candidate's ring cable costs as much as two extra
/// ISL hops of spread.
const SHARE_WEIGHT: f64 = 2.0;

/// Pairwise-hop scoring cap: above this slice size the mean is estimated
/// over strided pairs instead of all `k(k-1)` of them, keeping candidate
/// scoring sub-quadratic for machine-scale jobs.
const EXACT_PAIRS_UP_TO: usize = 96;

/// A read-only view of the allocator's pool a policy selects against.
///
/// `pool` is the quadrant-major node order ([`crate::quadrant_pool_order`]);
/// `free[i]` says whether `pool[i]` is unallocated; `link_share` counts,
/// per directed cable (dense [`hxroute::DirLink`] index), how many live
/// jobs' communication rings cross it.
pub struct PoolView<'a> {
    /// Forwarding state of the scoring epoch.
    pub routes: &'a Routes,
    /// Path store of the scoring epoch.
    pub db: &'a PathDb,
    /// Quadrant-major pool order.
    pub pool: &'a [NodeId],
    /// Free bitmap, indexed like `pool`.
    pub free: &'a [bool],
    /// Live-job ring crossings per directed cable.
    pub link_share: &'a [u32],
}

impl PoolView<'_> {
    /// Number of free nodes.
    pub fn free_count(&self) -> usize {
        self.free.iter().filter(|&&f| f).count()
    }

    /// Free pool positions, in pool order.
    fn free_positions(&self) -> Vec<usize> {
        (0..self.pool.len()).filter(|&i| self.free[i]).collect()
    }

    /// Rejects malformed or unsatisfiable requests before any selection.
    fn check(&self, k: usize) -> Result<(), PlaceError> {
        if k == 0 {
            return Err(PlaceError::ZeroRanks);
        }
        let free = self.free_count();
        if k > free {
            return Err(PlaceError::Insufficient { requested: k, free });
        }
        Ok(())
    }
}

/// First-fit over the quadrant-major pool order: the first `k` free nodes
/// in pool order, which keeps the slice inside as few quadrants as the
/// current fragmentation allows.
fn first_fit(view: &PoolView<'_>, k: usize) -> Vec<NodeId> {
    view.free_positions()
        .into_iter()
        .take(k)
        .map(|i| view.pool[i])
        .collect()
}

/// Seeded random draw from the free pool: the fragmentation worst case
/// (the paper's `random` combo scheme applied to a live machine).
fn scattered(view: &PoolView<'_>, k: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5ca7_7e4e);
    let mut frees = view.free_positions();
    frees.shuffle(&mut rng);
    frees.truncate(k);
    frees.into_iter().map(|i| view.pool[i]).collect()
}

/// Candidate-slate placement scored on the live network: generates
/// first-fit, tail-fit, one rotation per quadrant boundary and one
/// scattered draw, then picks the slate entry minimizing
/// `mean pairwise ISL hops + SHARE_WEIGHT x mean ring-cable sharing`.
fn network_aware(view: &PoolView<'_>, k: usize, seed: u64) -> Vec<NodeId> {
    let frees = view.free_positions();
    let n = frees.len();
    // Rotation start offsets into the free list: head, tail, and the
    // first free position at or after each quadrant-sized stride of
    // the pool (approximating "start in quadrant q").
    let mut starts = vec![0usize, n - k];
    let quads = 4.min(n);
    for q in 1..quads {
        starts.push(q * n / quads);
    }
    starts.sort_unstable();
    starts.dedup();
    let mut best: Option<(f64, Vec<NodeId>)> = None;
    let mut consider = |nodes: Vec<NodeId>| {
        let score = mean_pairwise_isl_hops(view.routes, view.db, &nodes)
            + SHARE_WEIGHT * ring_share_score(view, &nodes);
        match &best {
            Some((b, _)) if *b <= score => {}
            _ => best = Some((score, nodes)),
        }
    };
    for s in starts {
        let nodes: Vec<NodeId> = (0..k).map(|j| view.pool[frees[(s + j) % n]]).collect();
        consider(nodes);
    }
    consider(scattered(view, k, seed));
    best.expect("at least one candidate").1
}

/// Mean pairwise switch-to-switch hops over a node set, resolved on the
/// given path-store epoch (0.0 for single-node sets). Above 96 nodes the
/// mean is estimated over a deterministic strided subsample of ordered
/// pairs.
pub fn mean_pairwise_isl_hops(routes: &Routes, db: &PathDb, nodes: &[NodeId]) -> f64 {
    let k = nodes.len();
    if k < 2 {
        return 0.0;
    }
    // Stride co-prime with k so the subsample cycles over distinct pairs.
    let stride = if k <= EXACT_PAIRS_UP_TO {
        1
    } else {
        let mut s = (k / 7) | 1;
        while gcd(s, k) != 1 {
            s += 2;
        }
        s
    };
    let budget = if k <= EXACT_PAIRS_UP_TO {
        k * (k - 1)
    } else {
        EXACT_PAIRS_UP_TO * EXACT_PAIRS_UP_TO
    };
    let mut hops_sum = 0u64;
    let mut pairs = 0u64;
    let mut scratch = Vec::new();
    'outer: for (i, &src) in nodes.iter().enumerate() {
        for j in 1..k {
            let dst = nodes[(i + j * stride) % k];
            if dst == src {
                continue;
            }
            let lid = routes.lid_map.base(dst);
            if db.node_path_into(src, lid, &mut scratch) {
                hops_sum += scratch.len().saturating_sub(2) as u64;
                pairs += 1;
            }
            if pairs as usize >= budget {
                break 'outer;
            }
        }
    }
    if pairs == 0 {
        0.0
    } else {
        hops_sum as f64 / pairs as f64
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Directed cables crossed by the ring permutation over `nodes` (node `i`
/// sends to node `i+1 mod k`), in dense [`hxroute::DirLink`] index form.
/// This is the allocator's canonical per-job communication skeleton: the
/// cheapest pattern that still touches every locality boundary the job
/// spans, used both for the live `link_share` accounting and for the
/// solver-backed interference metrics.
pub fn ring_links(routes: &Routes, db: &PathDb, nodes: &[NodeId]) -> Vec<usize> {
    let k = nodes.len();
    if k < 2 {
        return Vec::new();
    }
    let mut links = Vec::new();
    let mut scratch = Vec::new();
    for i in 0..k {
        let src = nodes[i];
        let dst = nodes[(i + 1) % k];
        if src == dst {
            continue;
        }
        let lid = routes.lid_map.base(dst);
        if db.node_path_into(src, lid, &mut scratch) {
            links.extend(scratch.iter().map(|dl| dl.index()));
        }
    }
    links.sort_unstable();
    links.dedup();
    links
}

/// Mean live-job sharing over a candidate's ring cables: how many other
/// jobs' rings already cross the cables this slice would communicate on
/// (0.0 when the candidate's ring is empty or untouched).
fn ring_share_score(view: &PoolView<'_>, nodes: &[NodeId]) -> f64 {
    let links = ring_links(view.routes, view.db, nodes);
    if links.is_empty() {
        return 0.0;
    }
    let shared: u64 = links.iter().map(|&l| view.link_share[l] as u64).sum();
    shared as f64 / links.len() as f64
}

/// Which placement policy — the hashable, copyable handle the `hxd`
/// service, the allocator and the harness knobs pass around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// First-fit over the quadrant-major pool.
    Contiguous,
    /// Seeded random draw from the free pool.
    Scattered,
    /// Candidate-slate scoring on hops and live cable sharing.
    NetworkAware,
}

/// Every policy, in registry order (the order `capacity_scale` compares
/// them in).
pub const POLICY_KINDS: [PolicyKind; 3] = [
    PolicyKind::Contiguous,
    PolicyKind::Scattered,
    PolicyKind::NetworkAware,
];

/// Registry names of every policy, aligned with [`POLICY_KINDS`].
pub const POLICY_NAMES: [&str; 3] = ["contiguous", "scattered", "network-aware"];

impl PolicyKind {
    /// Registry name (usable as `T2HX_CAP_POLICY`).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Contiguous => "contiguous",
            PolicyKind::Scattered => "scattered",
            PolicyKind::NetworkAware => "network-aware",
        }
    }

    /// Parses a registry name (case-insensitive).
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s.to_ascii_lowercase().as_str() {
            "contiguous" => Some(PolicyKind::Contiguous),
            "scattered" => Some(PolicyKind::Scattered),
            "network-aware" | "network_aware" | "networkaware" => Some(PolicyKind::NetworkAware),
            _ => None,
        }
    }

    /// Selects `k` free nodes from the view, or a typed refusal when the
    /// pool cannot satisfy the request.
    ///
    /// Contract (property-tested in `crates/cap/tests/proptest_alloc.rs`):
    /// the returned set has exactly `k` nodes, every one of them free in
    /// the view, with no duplicates; selection is a pure function of
    /// `(view state, k, seed)`. Contiguous placement ignores `seed`.
    pub fn select(
        &self,
        view: &PoolView<'_>,
        k: usize,
        seed: u64,
    ) -> Result<Vec<NodeId>, PlaceError> {
        view.check(k)?;
        Ok(match self {
            PolicyKind::Contiguous => first_fit(view, k),
            PolicyKind::Scattered => scattered(view, k, seed),
            PolicyKind::NetworkAware => network_aware(view, k, seed),
        })
    }

    /// Stable index for fingerprints and sketch keys.
    pub fn index(&self) -> usize {
        match self {
            PolicyKind::Contiguous => 0,
            PolicyKind::Scattered => 1,
            PolicyKind::NetworkAware => 2,
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxroute::engines::{RoutingEngine, Sssp};
    use hxtopo::hyperx::HyperXConfig;
    use hxtopo::Topology;

    fn ctx() -> (Topology, Routes, PathDb) {
        let topo = HyperXConfig::new(vec![4, 4], 2).build();
        let routes = Sssp::default().route(&topo).unwrap();
        let db = PathDb::build(&topo, &routes, 1, 1).unwrap();
        (topo, routes, db)
    }

    fn all_free_view<'a>(
        routes: &'a Routes,
        db: &'a PathDb,
        pool: &'a [NodeId],
        free: &'a [bool],
        share: &'a [u32],
    ) -> PoolView<'a> {
        PoolView {
            routes,
            db,
            pool,
            free,
            link_share: share,
        }
    }

    #[test]
    fn registry_roundtrips() {
        for (kind, name) in POLICY_KINDS.iter().zip(POLICY_NAMES) {
            assert_eq!(kind.name(), name);
            assert_eq!(PolicyKind::parse(name), Some(*kind));
        }
        assert_eq!(PolicyKind::parse("nope"), None);
    }

    #[test]
    fn every_policy_returns_k_distinct_free_nodes() {
        let (topo, routes, db) = ctx();
        let pool = crate::quadrant_pool_order(&topo);
        let mut free = vec![true; pool.len()];
        // Fragment the pool: every third node is taken.
        for i in (0..free.len()).step_by(3) {
            free[i] = false;
        }
        let share = vec![0u32; topo.num_links() * 2];
        let view = all_free_view(&routes, &db, &pool, &free, &share);
        let avail = view.free_count();
        for kind in POLICY_KINDS {
            let nodes = kind.select(&view, avail.min(9), 7).unwrap();
            assert_eq!(nodes.len(), avail.min(9), "{kind}");
            let mut seen = std::collections::BTreeSet::new();
            for n in &nodes {
                assert!(seen.insert(n.0), "{kind} duplicated {n:?}");
                let pos = pool.iter().position(|p| p == n).unwrap();
                assert!(free[pos], "{kind} picked an allocated node");
            }
        }
    }

    #[test]
    fn refusals_are_typed() {
        let (topo, routes, db) = ctx();
        let pool = crate::quadrant_pool_order(&topo);
        let free = vec![true; pool.len()];
        let share = vec![0u32; topo.num_links() * 2];
        let view = all_free_view(&routes, &db, &pool, &free, &share);
        for kind in POLICY_KINDS {
            assert_eq!(kind.select(&view, 0, 1), Err(PlaceError::ZeroRanks));
            assert_eq!(
                kind.select(&view, pool.len() + 1, 1),
                Err(PlaceError::Insufficient {
                    requested: pool.len() + 1,
                    free: pool.len()
                })
            );
        }
    }

    #[test]
    fn contiguous_beats_scattered_on_locality() {
        let (topo, routes, db) = ctx();
        let pool = crate::quadrant_pool_order(&topo);
        let free = vec![true; pool.len()];
        let share = vec![0u32; topo.num_links() * 2];
        let view = all_free_view(&routes, &db, &pool, &free, &share);
        let tight = PolicyKind::Contiguous.select(&view, 8, 3).unwrap();
        let loose = PolicyKind::Scattered.select(&view, 8, 3).unwrap();
        let th = mean_pairwise_isl_hops(&routes, &db, &tight);
        let lh = mean_pairwise_isl_hops(&routes, &db, &loose);
        assert!(th <= lh, "contiguous {th} vs scattered {lh}");
    }

    #[test]
    fn network_aware_never_loses_to_contiguous() {
        // On an empty fragmented pool with no live jobs, the slate always
        // contains the contiguous candidate, so the winner's hop score is
        // <= the contiguous score.
        let (topo, routes, db) = ctx();
        let pool = crate::quadrant_pool_order(&topo);
        let mut free = vec![true; pool.len()];
        for i in (1..free.len()).step_by(4) {
            free[i] = false;
        }
        let share = vec![0u32; topo.num_links() * 2];
        let view = all_free_view(&routes, &db, &pool, &free, &share);
        let na = PolicyKind::NetworkAware.select(&view, 6, 11).unwrap();
        let ct = PolicyKind::Contiguous.select(&view, 6, 11).unwrap();
        let na_h = mean_pairwise_isl_hops(&routes, &db, &na);
        let ct_h = mean_pairwise_isl_hops(&routes, &db, &ct);
        assert!(
            na_h <= ct_h + 1e-9,
            "network-aware {na_h} vs contiguous {ct_h}"
        );
    }

    #[test]
    fn network_aware_dodges_busy_cables() {
        // Saturate every ring cable the contiguous head slice would use;
        // the network-aware winner must steer at least partly elsewhere.
        let (topo, routes, db) = ctx();
        let pool = crate::quadrant_pool_order(&topo);
        let free = vec![true; pool.len()];
        let mut share = vec![0u32; topo.num_links() * 2];
        let head: Vec<NodeId> = pool[..8].to_vec();
        for l in ring_links(&routes, &db, &head) {
            share[l] = 100;
        }
        let view = all_free_view(&routes, &db, &pool, &free, &share);
        let picked = PolicyKind::NetworkAware.select(&view, 8, 5).unwrap();
        assert_ne!(picked, head, "slate stayed on the saturated cables");
    }

    #[test]
    fn selection_is_deterministic_per_seed() {
        let (topo, routes, db) = ctx();
        let pool = crate::quadrant_pool_order(&topo);
        let free = vec![true; pool.len()];
        let share = vec![0u32; topo.num_links() * 2];
        let view = all_free_view(&routes, &db, &pool, &free, &share);
        for kind in POLICY_KINDS {
            let a = kind.select(&view, 10, 42).unwrap();
            let b = kind.select(&view, 10, 42).unwrap();
            assert_eq!(a, b, "{kind}");
        }
        let s1 = PolicyKind::Scattered.select(&view, 10, 1).unwrap();
        let s2 = PolicyKind::Scattered.select(&view, 10, 2).unwrap();
        assert_ne!(s1, s2, "distinct seeds should scatter differently");
    }
}
