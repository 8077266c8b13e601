//! Property-based allocator tests: for arbitrary HyperX shapes and
//! arbitrary interleaved allocate/release streams, every placement policy
//! hands out disjoint, in-bounds, exactly-sized rank sets, and a full
//! allocate→release round-trip restores the free pool bit-identically —
//! the invariants the day-scale `capacity_scale` stream leans on for its
//! byte-stable fingerprints.

use hxcap::{Allocator, JobId, POLICY_KINDS};
use hxroute::engines::{RoutingEngine, Sssp};
use hxroute::{PathDb, Routes};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::Topology;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn swept(topo: &Topology) -> (Routes, PathDb) {
    let routes = Sssp::default().route(topo).unwrap();
    let db = PathDb::build(topo, &routes, 1, 1).unwrap();
    (routes, db)
}

/// One step of a random job stream: `(ranks, policy index, seed, release
/// instead of allocate)`.
type Op = (usize, usize, u64, bool);

/// The shim has no `any::<bool>()`; draw a coin from a two-value range.
const COIN: core::ops::Range<u32> = 0u32..2;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Over any interleaving of arrivals and departures, live jobs are
    /// pairwise disjoint, every handed-out node is in bounds and exactly
    /// `k` of them arrive per job, and the allocator's free accounting
    /// matches a reference recomputation.
    #[test]
    fn policies_hand_out_disjoint_exact_slices(
        s1 in 2u32..5,
        s2 in 2u32..4,
        t in 1u32..3,
        ops in proptest::collection::vec((1usize..10, 0usize..3, 0u64..1000, COIN), 1..40),
    ) {
        let topo = HyperXConfig::new(vec![s1, s2], t).build();
        let (routes, db) = swept(&topo);
        let mut alloc = Allocator::new(&topo, &routes, &db);
        let n = topo.num_nodes();
        let mut live: Vec<JobId> = Vec::new();
        for (k, pi, seed, release) in ops {
            let op: Op = (k, pi, seed, release == 1);
            if op.3 && !live.is_empty() {
                let id = live.remove(op.2 as usize % live.len());
                let freed = alloc.release(id).unwrap();
                prop_assert!(!freed.is_empty());
            } else if op.0 <= alloc.free_nodes() {
                let id = alloc
                    .allocate(op.0, POLICY_KINDS[op.1], op.2)
                    .unwrap();
                let job = alloc.job(id).unwrap();
                prop_assert_eq!(job.nodes.len(), op.0, "policy {}", POLICY_KINDS[op.1]);
                live.push(id);
            } else {
                prop_assert!(alloc
                    .allocate(op.0, POLICY_KINDS[op.1], op.2)
                    .is_err());
            }
            // Disjointness + bounds across every live job, every step.
            let mut seen = BTreeSet::new();
            for (_, job) in alloc.jobs() {
                for node in &job.nodes {
                    prop_assert!((node.0 as usize) < n, "node {} out of bounds", node.0);
                    prop_assert!(seen.insert(node.0), "node {} double-booked", node.0);
                }
            }
            // The free accounting agrees with the bitmap, the bitmap with
            // the live set.
            prop_assert_eq!(
                alloc.free_nodes(),
                alloc.free_bitmap().iter().filter(|&&f| f).count()
            );
            prop_assert_eq!(alloc.free_nodes(), n - seen.len());
        }
    }

    /// Releasing everything that was allocated restores the free bitmap,
    /// the link-share table and the fragmentation index bit-identically to
    /// the virgin allocator — no leaked nodes, no stuck share counts.
    #[test]
    fn allocate_release_round_trips_bit_identically(
        s1 in 2u32..5,
        s2 in 2u32..4,
        t in 1u32..3,
        jobs in proptest::collection::vec((1usize..12, 0usize..3, 0u64..1000), 1..12),
    ) {
        let topo = HyperXConfig::new(vec![s1, s2], t).build();
        let (routes, db) = swept(&topo);
        let mut alloc = Allocator::new(&topo, &routes, &db);
        let virgin_bitmap = alloc.free_bitmap().to_vec();
        let virgin_share = alloc.link_share().to_vec();
        let virgin_frag = alloc.fragmentation().to_bits();
        let mut placed = Vec::new();
        for (k, pi, seed) in jobs {
            if let Ok(id) = alloc.allocate(k, POLICY_KINDS[pi], seed) {
                placed.push(id);
            }
        }
        // Release in arbitrary (reversed) order.
        for id in placed.into_iter().rev() {
            alloc.release(id).unwrap();
        }
        prop_assert_eq!(alloc.live_jobs(), 0);
        prop_assert_eq!(alloc.free_bitmap(), &virgin_bitmap[..]);
        prop_assert_eq!(alloc.link_share(), &virgin_share[..]);
        prop_assert_eq!(alloc.fragmentation().to_bits(), virgin_frag);
        prop_assert_eq!(alloc.utilization().to_bits(), 0f64.to_bits());
    }
}
