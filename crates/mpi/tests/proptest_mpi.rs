//! Property-based tests of the MPI layer: lowered collective schedules are
//! deadlock-free, keep the round program's messages and complete in the
//! exact DES for arbitrary rank counts and payloads; placements are
//! injective.

use hxmpi::{estimate, Fabric, Phase, Placement, Pml, RoundProgram};
use hxroute::engines::{Dfsssp, RoutingEngine};
use hxroute::Routes;
use hxsim::{NetParams, Op, Simulator};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{NodeId, Topology};
use proptest::prelude::*;
use std::sync::OnceLock;

fn world() -> &'static (Topology, Routes) {
    static W: OnceLock<(Topology, Routes)> = OnceLock::new();
    W.get_or_init(|| {
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = Dfsssp::default().route(&t).unwrap();
        (t, r)
    })
}

fn fabric(n: usize) -> Fabric<'static> {
    let (t, r) = world();
    let nodes: Vec<NodeId> = t.nodes().collect();
    Fabric::new(
        t,
        r,
        Placement::linear(&nodes, n),
        Pml::Ob1,
        NetParams::qdr(),
    )
    .expect("routable fabric")
}

/// Sanity: every posted receive has a matching send with the same
/// (src, dst, tag) and vice versa — a static deadlock-freedom check.
fn sends_match_recvs(prog: &hxsim::Program) -> bool {
    use std::collections::HashMap;
    let mut sends: HashMap<(usize, usize, u32), i64> = HashMap::new();
    for (rank, ops) in prog.ops.iter().enumerate() {
        for op in ops {
            match *op {
                Op::Send { to, tag, .. } => *sends.entry((rank, to, tag)).or_default() += 1,
                Op::Recv { from, tag } => *sends.entry((from, rank, tag)).or_default() -= 1,
                Op::Compute(_) => {}
            }
        }
    }
    sends.values().all(|&v| v == 0)
}

/// Total bytes of the round program's messages.
fn round_bytes(rp: &RoundProgram) -> u64 {
    rp.phases
        .iter()
        .map(|p| match p {
            Phase::Exchange(m) => m.iter().map(|&(_, _, b)| b).sum(),
            Phase::Compute(_) => 0,
        })
        .sum()
}

/// Total bytes of the lowered program's sends.
fn lowered_bytes(prog: &hxsim::Program) -> u64 {
    prog.ops
        .iter()
        .flatten()
        .map(|o| match *o {
            Op::Send { bytes, .. } => bytes,
            _ => 0,
        })
        .sum()
}

/// Lowers `rp` and checks it against the round program: every send has
/// its receive, message count and bytes carry over, and the DES completes
/// having moved exactly the round program's messages.
fn check_lowering(rp: &RoundProgram) -> Result<(), TestCaseError> {
    let prog = rp.lower();
    prop_assert!(sends_match_recvs(&prog));
    prop_assert_eq!(prog.num_messages(), rp.num_messages());
    prop_assert_eq!(lowered_bytes(&prog), round_bytes(rp));

    let f = fabric(rp.n);
    let (t, _) = world();
    let res = Simulator::new(t, &f, NetParams::qdr()).run(&prog);
    prop_assert_eq!(res.messages, rp.num_messages());
    prop_assert!(res.makespan > 0.0 && res.makespan.is_finite());
    prop_assert!(res.finish.iter().all(|&x| x <= res.makespan));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every full-communicator collective completes in the exact DES for
    /// arbitrary rank counts, roots and payloads, with its lowered
    /// sends/recvs paired up.
    #[test]
    fn collectives_complete(
        n in 2usize..20,
        root_pick in 0usize..20,
        bytes in 1u64..2_000_000,
    ) {
        let root = root_pick % n;
        let mut rp = RoundProgram::new(n);
        rp.barrier();
        rp.bcast(root, bytes);
        rp.gather(root, bytes.min(65536));
        rp.scatter(root, bytes.min(65536));
        rp.reduce(root, bytes.min(65536));
        rp.allreduce(bytes.min(1 << 20));
        rp.allgather(bytes.min(65536));
        rp.alltoall(bytes.min(65536));
        rp.reduce_scatter_ring(bytes.min(65536));
        check_lowering(&rp)?;
    }

    /// The subgroup generators lower as faithfully: `*_among` collectives
    /// on a random member subset, irregular alltoallv, concurrent
    /// alltoalls over disjoint groups and Rabenseifner on a power-of-two
    /// group.
    #[test]
    fn subgroup_collectives_lower_faithfully(
        n in 2usize..20,
        member_mask in 3u32..(1 << 19),
        root_pick in 0usize..20,
        bytes in 1u64..200_000,
        stride in 1usize..5,
    ) {
        let mut g: Vec<usize> = (0..n).filter(|&r| member_mask >> r & 1 == 1).collect();
        if g.len() < 2 {
            g = vec![0, n - 1];
        }
        let root = g[root_pick % g.len()];
        let mut rp = RoundProgram::new(n);
        rp.barrier_among(&g);
        rp.bcast_among(&g, root, bytes);
        rp.gather_among(&g, root, bytes.min(8192));
        rp.scatter_among(&g, root, bytes.min(8192));
        rp.reduce_among(&g, root, bytes);
        rp.allreduce_among(&g, bytes);
        rp.allgather_among(&g, bytes.min(8192));
        rp.alltoall_among(&g, bytes.min(8192));
        rp.reduce_scatter_ring_among(&g, bytes.min(8192));
        rp.alltoallv_among(&g, &|i, j| ((i * 31 + j * 17) as u64 * bytes) % 5000);
        let pow2: Vec<usize> = g[..1 << g.len().ilog2()].to_vec();
        rp.allreduce_rabenseifner_among(&pow2, bytes);
        let groups: Vec<Vec<usize>> = (0..stride.min(n))
            .map(|k| (k..n).step_by(stride).collect())
            .collect();
        rp.alltoall_concurrent(&groups, bytes.min(8192));
        check_lowering(&rp)?;
    }

    /// Round-model estimates are positive, finite and monotone in payload.
    #[test]
    fn estimate_monotone(n in 2usize..24, small in 1u64..10_000) {
        let f = fabric(n);
        let large = small * 64;
        let time = |bytes: u64| {
            let mut rp = RoundProgram::new(n);
            rp.alltoall_among(&(0..n).collect::<Vec<_>>(), bytes);
            estimate(&f, &rp)
        };
        let (ts, tl) = (time(small), time(large));
        prop_assert!(ts > 0.0 && ts.is_finite());
        prop_assert!(tl >= ts);
    }

    /// Placements are injective (no node hosts two ranks) for all schemes.
    #[test]
    fn placements_injective(n in 1usize..32, seed in 0u64..500) {
        let pool: Vec<NodeId> = (0..32).map(NodeId).collect();
        for p in [
            Placement::linear(&pool, n),
            Placement::clustered(&pool, n, seed),
            Placement::random(&pool, n, seed),
        ] {
            let mut nodes: Vec<_> = p.nodes().to_vec();
            nodes.sort();
            nodes.dedup();
            prop_assert_eq!(nodes.len(), n, "{} placement collides", p.scheme);
        }
    }

    /// Table-1 LID selection is always one of the listed choices, whatever
    /// the discriminator.
    #[test]
    fn pml_lid_always_valid(
        a in 0u32..32,
        b in 0u32..32,
        bytes in 0u64..10_000_000,
        seq in 0u64..1000,
    ) {
        prop_assume!(a != b);
        let topo = HyperXConfig::new(vec![4, 4], 2).build();
        let routes = hxroute::engines::Parx::default().route(&topo).unwrap();
        let hx = topo.meta.as_hyperx().unwrap().clone();
        let pml = Pml::parx();
        let x = pml.select_lid_index(&topo, &routes, NodeId(a), NodeId(b), bytes, seq);
        let sq = hx.quadrant(topo.node_switch(NodeId(a)).0).unwrap();
        let dq = hx.quadrant(topo.node_switch(NodeId(b)).0).unwrap();
        let class = hxroute::SizeClass::of(bytes, hxroute::DEFAULT_THRESHOLD);
        prop_assert!(hxroute::lid_choices(sq, dq, class).contains(&(x as u8)));
    }
}
