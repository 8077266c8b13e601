//! Multi-plane integration: N-plane system assembly at the paper's scale,
//! rail-policy failover guarantees, and campaign survival under churn.

use t2hx::core::{run_campaign, CampaignConfig, System};
use t2hx::mpi::{Fabric, MultiFabric, Placement, Pml, RailPolicy};
use t2hx::route::engines::{Dfsssp, RoutingEngine};
use t2hx::sim::{FluidNet, NetParams, SolverKind};
use t2hx::topo::hyperx::HyperXConfig;
use t2hx::topo::NodeId;

/// Satellite guarantee: when an entire plane is lost, every in-flight flow
/// re-resolves onto a surviving rail and runs to completion — under each
/// rail-selection policy.
#[test]
fn every_in_flight_flow_completes_under_single_plane_loss() {
    let topo = HyperXConfig::new(vec![4, 4], 2).build();
    let nodes: Vec<NodeId> = topo.nodes().collect();
    let n = nodes.len();
    let routes: Vec<_> = (0..3)
        .map(|_| Dfsssp::default().route(&topo).unwrap())
        .collect();
    let bytes: u64 = 1 << 20;
    for policy in RailPolicy::all() {
        let rails: Vec<Fabric<'_>> = routes
            .iter()
            .map(|r| {
                Fabric::new(
                    &topo,
                    r,
                    Placement::linear(&nodes, n),
                    Pml::Ob1,
                    NetParams::qdr(),
                )
                .expect("routable fabric")
            })
            .collect();
        let mf = MultiFabric::new(rails, policy);
        let mut nets: Vec<FluidNet> = (0..3)
            .map(|_| FluidNet::with_solver(&topo, SolverKind::Exact))
            .collect();
        // Launch a flow population across the rails.
        let mut flows: Vec<(usize, usize, usize, usize)> = Vec::new();
        for seq in 0..24u64 {
            let src = (seq as usize * 7) % n;
            let dst = (src + 1 + (seq as usize * 3) % (n - 1)) % n;
            let p = mf.select_rail(src, dst, seq);
            let rp = mf.resolve_on(p, src, dst, bytes, seq);
            let id = nets[p].add_flow(rp.hops, bytes);
            flows.push((p, id, src, dst));
        }
        assert!(
            flows.iter().any(|&(p, ..)| p == 0),
            "{policy:?}: the doomed plane must carry traffic for the test to bite"
        );
        // Single-plane loss: plane 0 drops out of rail selection entirely,
        // and its flows migrate the way the campaign engine migrates them.
        mf.fail_plane(0);
        for &(p, id, src, dst) in &flows {
            if p != 0 {
                continue;
            }
            nets[0].remove(id);
            let q = mf.select_rail(src, dst, 1_000);
            assert_ne!(q, 0, "{policy:?} selected the dead plane");
            let rp = mf.resolve_on(q, src, dst, bytes, 1_000);
            nets[q].add_flow(rp.hops, bytes);
        }
        nets[0].recompute();
        assert_eq!(nets[0].active_flows(), 0, "{policy:?}: dead plane drained");
        // Every flow completes on a surviving plane.
        let mut done = 0usize;
        let mut drained = Vec::new();
        for net in nets.iter_mut().skip(1) {
            net.recompute();
            while let Some(t) = net.next_completion() {
                net.advance_to(t);
                net.drained_into(&mut drained);
                done += drained.len();
                for &id in &drained {
                    net.remove(id);
                }
                net.recompute();
            }
        }
        assert_eq!(done, 24, "{policy:?}: every in-flight flow completes");
    }
}

/// Acceptance: a 4-plane 12x8 T=7 system — 4 x 672 = 2688 endpoints —
/// assembles, routes every plane, and resolves on every rail.
#[test]
fn four_plane_t7_system_assembles_and_routes() {
    let sys = System::replicated_hyperx(HyperXConfig::t2_hyperx(672), 4, |_| {
        Box::new(Dfsssp::default())
    })
    .expect("4-plane T=7 system routes");
    assert_eq!(sys.num_planes(), 4);
    assert_eq!(sys.num_nodes(), 672);
    assert_eq!(sys.num_planes() * sys.num_nodes(), 2688);
    let set = sys.plane_set();
    assert_eq!(set.num_planes(), 4);
    for p in 0..4 {
        assert_eq!(sys.plane(p).topo().num_switches(), 96);
        assert_eq!(set.epoch(p), 1);
    }
    // Every rail resolves the same rank pair through its own plane.
    let nodes: Vec<NodeId> = sys.plane(0).topo().nodes().collect();
    let placement = Placement::linear(&nodes, sys.num_nodes());
    let mf = sys.multi_fabric(&placement, Pml::Ob1, RailPolicy::RoundRobin);
    for p in 0..4 {
        let rp = mf.resolve_on(p, 0, 671, 1 << 20, 0);
        assert!(!rp.hops.is_empty(), "plane {p} resolves");
    }
}

/// Acceptance: the same 4-plane T=7 system survives a seeded fault-churn
/// campaign with plane-failover — churn on every plane, flows migrating
/// to surviving rails, and per-shard epochs advancing independently.
#[test]
fn four_plane_t7_campaign_survives_with_failover() {
    let topo = HyperXConfig::t2_hyperx(672).build();
    let cfg = CampaignConfig {
        seed: 0x7258,
        mtbf: 0.002,
        mttr: 0.004,
        duration: 0.02,
        flows: 16,
        bytes: 4 << 20,
        max_down: 8,
        solver: SolverKind::Incremental,
        planes: 4,
        rail: RailPolicy::FlowHash,
        force_failover: true,
        ..CampaignConfig::default()
    };
    let r = run_campaign(&topo, |_| Box::new(Dfsssp::default()), &cfg).expect("campaign survives");
    assert_eq!(r.planes, 4);
    let fails: u64 = r.failures.iter().sum();
    assert!(fails > 0, "churn must fire: {r:?}");
    assert_eq!(r.failures, r.recoveries, "campaign ends healed: {r:?}");
    assert!(
        r.failovers > 0,
        "flows must migrate off faulted planes: {r:?}"
    );
    assert!(r.healthy_completions > 0 && r.faulted_completions > 0);
    assert_eq!(r.final_epochs.len(), 4);
    for (p, &e) in r.final_epochs.iter().enumerate() {
        assert!(
            e >= 1 + r.failures[p] + r.recoveries[p],
            "plane {p}: epoch {e} vs events {r:?}"
        );
    }
}
