//! Reference test of the round model's shared exchanges: a program whose
//! ring steps share one `Arc` must price exactly like the same program
//! with every exchange in an allocation of its own, on every PML. The
//! estimator re-adds a repeated step's cost only when the PML ignores the
//! sequence number, so the second half checks that `Pml::ignores_seq`
//! holds exactly where `select_lid_index` is constant over `seq`.

use hxmpi::rounds::{estimate_detailed, Msg};
use hxmpi::{estimate, Fabric, Phase, Placement, Pml, RoundProgram};
use hxroute::engines::{Dfsssp, FatPaths, Parx, RoutingEngine};
use hxroute::Routes;
use hxsim::NetParams;
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{NodeId, Topology};
use std::collections::HashSet;
use std::sync::Arc;

const RANKS: usize = 32;

/// The 4x4 HyperX with two nodes per switch, routed by `engine`.
fn world(engine: &dyn RoutingEngine) -> (Topology, Routes) {
    let t = HyperXConfig::new(vec![4, 4], 2).build();
    let r = engine.route(&t).unwrap();
    (t, r)
}

fn fabric<'a>(t: &'a Topology, r: &'a Routes, pml: Pml) -> Fabric<'a> {
    let nodes: Vec<NodeId> = t.nodes().collect();
    Fabric::new(
        t,
        r,
        Placement::linear(&nodes, RANKS),
        pml,
        NetParams::qdr(),
    )
    .expect("routable fabric")
}

/// A group of `m` ranks scattered over the job (stride 7 is coprime with
/// 32, so the members are distinct).
fn group(m: usize) -> Vec<usize> {
    (0..m).map(|i| (i * 7 + 3) % RANKS).collect()
}

/// One program per collective over `g`, plus one that runs them all back
/// to back with compute in between.
fn programs(g: &[usize]) -> Vec<(&'static str, RoundProgram)> {
    let build = |f: &dyn Fn(&mut RoundProgram)| {
        let mut rp = RoundProgram::new(RANKS);
        f(&mut rp);
        rp
    };
    let bcast_bytes = 4 * hxmpi::rounds::BCAST_LARGE;
    vec![
        (
            "allreduce_ring",
            build(&|rp| rp.allreduce_ring_among(g, 1 << 20)),
        ),
        ("allgather", build(&|rp| rp.allgather_among(g, 100_000))),
        (
            "reduce_scatter",
            build(&|rp| rp.reduce_scatter_ring_among(g, 64 << 10)),
        ),
        (
            "bcast_large",
            build(&|rp| rp.bcast_among(g, g[1], bcast_bytes)),
        ),
        ("alltoall_bruck", build(&|rp| rp.alltoall_among(g, 64))),
        ("alltoall_pairwise", build(&|rp| rp.alltoall_among(g, 8192))),
        (
            "mixed",
            build(&|rp| {
                rp.allreduce_among(g, 4096);
                rp.allgather_ring_among(g, 512);
                rp.compute(1e-5);
                rp.allreduce_ring_among(g, 3 << 20);
                rp.reduce_scatter_ring_among(g, 1000);
                rp.allgather_ring_among(g, 1000);
                rp.alltoall_among(g, 1 << 16);
            }),
        ),
    ]
}

/// The same program with every exchange in an allocation of its own, so
/// no two phases are `Arc::ptr_eq`.
fn reallocated(prog: &RoundProgram) -> RoundProgram {
    let mut rp = RoundProgram::new(prog.n);
    for phase in &prog.phases {
        match phase {
            Phase::Exchange(msgs) => rp.exchange(msgs.to_vec()),
            Phase::Compute(s) => rp.compute(*s),
        }
    }
    rp
}

/// Exchanges and distinct exchange allocations of a program.
fn sharing(prog: &RoundProgram) -> (usize, usize) {
    let mut ptrs = HashSet::new();
    let mut exchanges = 0;
    for phase in &prog.phases {
        if let Phase::Exchange(msgs) = phase {
            exchanges += 1;
            ptrs.insert(Arc::as_ptr(msgs) as *const Msg);
        }
    }
    (exchanges, ptrs.len())
}

fn assert_same_pricing(f: &Fabric<'_>, label: &str, shared: &RoundProgram) {
    let own = reallocated(shared);
    assert_eq!(shared.num_messages(), own.num_messages(), "{label}");
    assert_eq!(
        estimate(f, shared).to_bits(),
        estimate(f, &own).to_bits(),
        "{label}: estimate"
    );
    let (a, b) = (estimate_detailed(f, shared), estimate_detailed(f, &own));
    assert_eq!(a.total.to_bits(), b.total.to_bits(), "{label}: total");
    assert_eq!(a.compute.to_bits(), b.compute.to_bits(), "{label}: compute");
    assert_eq!(a.link_bytes.len(), b.link_bytes.len(), "{label}");
    for (i, (x, y)) in a.link_bytes.iter().zip(&b.link_bytes).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: link_bytes[{i}]");
    }
    // The detailed and plain paths price alike.
    assert_eq!(a.total.to_bits(), estimate(f, shared).to_bits(), "{label}");
}

#[test]
fn ring_generators_share_one_exchange_per_ring() {
    for m in [13usize, 16] {
        let g = group(m);
        for (name, prog) in programs(&g) {
            let (exchanges, distinct) = sharing(&prog);
            match name {
                "allreduce_ring" => assert_eq!((exchanges, distinct), (2 * (m - 1), 1)),
                "allgather" | "reduce_scatter" => {
                    assert_eq!((exchanges, distinct), (m - 1, 1), "{name} m={m}")
                }
                // Scatter rounds are distinct; the allgather ring is one.
                "bcast_large" => assert_eq!(exchanges - distinct, m - 2, "{name} m={m}"),
                "alltoall_bruck" | "alltoall_pairwise" => {
                    assert_eq!(exchanges, distinct, "{name} m={m}")
                }
                _ => assert!(distinct < exchanges, "{name} m={m}"),
            }
        }
    }
}

#[test]
fn shared_and_reallocated_programs_price_bit_identically() {
    let (tp, rp) = world(&Parx::default());
    let (td, rd) = world(&Dfsssp::default());
    let (tf, rf) = world(&FatPaths::default());
    let fabrics = [
        ("ob1/dfsssp", fabric(&td, &rd, Pml::Ob1)),
        ("ob1/parx", fabric(&tp, &rp, Pml::Ob1)),
        ("bfo-rr/parx", fabric(&tp, &rp, Pml::BfoRoundRobin)),
        ("bfo-parx/parx", fabric(&tp, &rp, Pml::parx())),
        ("flow-hash/fatpaths", fabric(&tf, &rf, Pml::FlowHash)),
    ];
    for m in [13usize, 16] {
        let g = group(m);
        for (name, prog) in programs(&g) {
            for (fname, f) in &fabrics {
                assert_same_pricing(f, &format!("{fname} {name} m={m}"), &prog);
            }
        }
    }
}

#[test]
fn ignores_seq_exactly_where_lid_choice_is_constant_over_seq() {
    let (tp, rp) = world(&Parx::default());
    let (tf, rf) = world(&FatPaths::default());
    let cases = [
        (Pml::Ob1, &tp, &rp),
        (Pml::BfoRoundRobin, &tp, &rp),
        (Pml::parx(), &tp, &rp),
        (Pml::FlowHash, &tf, &rf),
    ];
    for (pml, t, r) in cases {
        let mut constant = true;
        for src in t.nodes() {
            for dst in t.nodes().filter(|&d| d != src) {
                for bytes in [64u64, 1 << 20] {
                    let first = pml.select_lid_index(t, r, src, dst, bytes, 0);
                    constant &=
                        (1..8).all(|seq| pml.select_lid_index(t, r, src, dst, bytes, seq) == first);
                }
            }
        }
        assert_eq!(
            pml.ignores_seq(),
            constant,
            "{}: ignores_seq disagrees with its LID choice",
            pml.name()
        );
    }
}
