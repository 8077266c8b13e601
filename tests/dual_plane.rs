//! Cross-crate integration: build the dual-plane system and exercise the
//! full pipeline — topology, routing, placement, PML, collective schedules,
//! both the round model and the exact DES — end to end.

use t2hx::core::{Combo, Runner, T2hx};
use t2hx::load::imb::ImbCollective;
use t2hx::mpi::{estimate, Fabric, Placement, Pml, RoundProgram};
use t2hx::route::{verify_deadlock_free, verify_paths};
use t2hx::sim::{NetParams, Simulator};
use t2hx::topo::NodeId;

fn mini() -> T2hx {
    T2hx::mini().expect("mini system routes")
}

#[test]
fn all_routing_states_verify() {
    let sys = mini();
    for (topo, routes) in [
        (sys.fattree(), sys.routes(Combo::FtFtreeLinear)),
        (sys.fattree(), sys.routes(Combo::FtSsspClustered)),
        (sys.hyperx(), sys.hx_dfsssp()),
        (sys.hyperx(), sys.hx_parx()),
    ] {
        verify_paths(topo, routes).unwrap();
        let vls = verify_deadlock_free(topo, routes).unwrap();
        assert!(vls <= 8, "{}: {} VLs", routes.engine, vls);
    }
}

#[test]
fn des_and_round_model_agree_across_combos() {
    // The fast round model used for sweeps must track the exact
    // discrete-event simulation of the same lowered schedule within a
    // small factor: every Figure 4 collective, at latency-, mid- and
    // bandwidth-bound sizes, on every combo.
    let sys = mini();
    let n = 16;
    for combo in Combo::all() {
        let fabric = sys.fabric(combo, n, 1);
        let sim = Simulator::new(sys.topo(combo), &fabric, sys.params());
        for coll in ImbCollective::figure4() {
            for bytes in [64u64, 8 << 10, 1 << 20] {
                let rp = coll.program(n, bytes);
                let est = estimate(&fabric, &rp);
                let des = sim.run(&rp.lower()).makespan;
                let ratio = est / des;
                assert!(
                    (0.3..3.0).contains(&ratio),
                    "{} {} {bytes} B: est {est} vs des {des} (ratio {ratio})",
                    combo.label(),
                    coll.name()
                );
            }
        }
    }
}

#[test]
fn hyperx_beats_fattree_on_small_message_latency() {
    // Fewer switch hops => lower zero-byte latency (the paper's core
    // latency argument for low-diameter topologies).
    let sys = mini();
    let r = Runner::default();
    let ft = r.imb_tmin_us(&sys, Combo::FtFtreeLinear, ImbCollective::Bcast, 16, 1);
    let hx = r.imb_tmin_us(&sys, Combo::HxDfssspLinear, ImbCollective::Bcast, 16, 1);
    assert!(
        hx <= ft * 1.05,
        "HyperX bcast {hx}us should not lose to Fat-Tree {ft}us"
    );
}

#[test]
fn dense_hyperx_alltoall_loses_bandwidth() {
    // The Figure-1/Figure-4f effect: a dense allocation on the HyperX
    // oversubscribes the single inter-switch cables for large alltoalls.
    let sys = mini();
    let r = Runner::default();
    let bytes = 1 << 20;
    let ft = r.imb_tmin_us(
        &sys,
        Combo::FtFtreeLinear,
        ImbCollective::Alltoall,
        16,
        bytes,
    );
    let hx = r.imb_tmin_us(
        &sys,
        Combo::HxDfssspLinear,
        ImbCollective::Alltoall,
        16,
        bytes,
    );
    assert!(
        hx > ft,
        "dense HyperX alltoall ({hx}us) should exceed Fat-Tree ({ft}us)"
    );
}

#[test]
fn parx_pml_switches_paths_at_threshold() {
    use t2hx::sim::PathResolver;
    let sys = mini();
    let fabric = sys.fabric(Combo::HxParxClustered, 32, 3);
    // Find a rank pair whose small and large routes differ in length.
    let mut found = false;
    for a in 0..32 {
        for b in 0..32 {
            if a == b {
                continue;
            }
            let small = fabric.resolve(a, b, 511, 0);
            let large = fabric.resolve(a, b, 512, 0);
            if large.hops.len() > small.hops.len() {
                found = true;
            }
        }
    }
    assert!(found, "PARX must provide non-minimal large-message routes");
}

#[test]
fn explicit_fabric_runs_des_collectives_on_both_planes() {
    let sys = mini();
    for (topo, routes) in [
        (sys.fattree(), sys.routes(Combo::FtFtreeLinear)),
        (sys.hyperx(), sys.hx_dfsssp()),
    ] {
        let nodes: Vec<NodeId> = topo.nodes().collect();
        let fabric = Fabric::new(
            topo,
            routes,
            Placement::linear(&nodes, 32),
            Pml::Ob1,
            NetParams::qdr(),
        )
        .expect("routable fabric");
        let mut rp = RoundProgram::new(32);
        rp.barrier();
        rp.bcast(3, 1 << 16);
        rp.alltoall(2048);
        rp.allreduce(1 << 18);
        let res = Simulator::new(topo, &fabric, NetParams::qdr()).run(&rp.lower());
        assert!(res.makespan > 0.0 && res.makespan < 1.0);
        assert!(res.messages > 100);
    }
}

#[test]
fn walltime_produces_missing_points() {
    let sys = mini();
    let r = Runner {
        walltime: 1e-6,
        ..Runner::default()
    };
    let w = t2hx::load::proxy::MiniFe { iters: 1 };
    use t2hx::load::workload::Workload;
    let s = r.run(&sys, Combo::baseline(), &w, 8);
    assert!(s.values.is_empty());
    let _ = w.name();
}
