//! Integration tests for the extended pipeline: profile recording →
//! demand-aware PARX re-routing, the adaptive-routing model, PARX on a 3-D
//! HyperX, and the cost/dark-fiber analyses.

use t2hx::core::{Combo, T2hx};
use t2hx::load::profile::RankProfile;
use t2hx::load::proxy::Swfft;
use t2hx::load::workload::Workload;
use t2hx::mpi::rounds::{estimate_adaptive, estimate_detailed};
use t2hx::mpi::RoundProgram;
use t2hx::route::engines::{Parx, RoutingEngine};
use t2hx::route::table1::HalfRule;
use t2hx::route::{verify_deadlock_free, verify_paths};
use t2hx::sim::stats::LinkUsage;
use t2hx::topo::cost::{BillOfMaterials, CostModel};
use t2hx::topo::hyperx::HyperXConfig;
use t2hx::topo::Endpoint;

#[test]
fn profile_reroute_pipeline_keeps_correctness() {
    let mut sys = T2hx::mini().unwrap();
    let w = Swfft {
        reps: 2,
        local_bytes: 8 << 20,
    };
    let n = 16;
    let placement = sys.placement(Combo::HxParxClustered, n, 1);
    let before = {
        let f = sys.fabric(Combo::HxParxClustered, n, 1);
        w.kernel_seconds(&f, n)
    };
    let demand = RankProfile::of_workload(&w, n).bind(&placement, sys.num_nodes());
    sys.reroute_parx(demand).unwrap();
    verify_paths(sys.hyperx(), sys.hx_parx()).unwrap();
    verify_deadlock_free(sys.hyperx(), sys.hx_parx()).unwrap();
    let after = {
        let f = sys.fabric(Combo::HxParxClustered, n, 1);
        w.kernel_seconds(&f, n)
    };
    // Re-routing must not catastrophically regress the profiled workload.
    assert!(after <= before * 1.2, "before {before}, after {after}");
}

#[test]
fn adaptive_never_loses_to_static_on_congested_patterns() {
    let sys = T2hx::mini().unwrap();
    let fabric = sys.fabric(Combo::HxParxClustered, 32, 2);
    for bytes in [4u64 << 10, 256 << 10, 4 << 20] {
        let mut rp = RoundProgram::new(32);
        rp.alltoall(bytes);
        let adaptive = estimate_adaptive(&fabric, &rp, 4);
        // Compare against static LID0 over the same routes (no bfo cost in
        // either, so the difference is pure path choice).
        let static_f = t2hx::mpi::Fabric::new(
            sys.topo(Combo::HxParxClustered),
            sys.routes(Combo::HxParxClustered),
            sys.placement(Combo::HxParxClustered, 32, 2),
            t2hx::mpi::Pml::Ob1,
            sys.params(),
        )
        .expect("routable fabric");
        let static_t = t2hx::mpi::estimate(&static_f, &rp);
        assert!(
            adaptive <= static_t * 1.001,
            "{bytes}B: adaptive {adaptive} vs static {static_t}"
        );
    }
}

#[test]
fn parx_3d_lids_avoid_their_removed_half() {
    // Section 3.2.1's quadrant scheme "is generalizable to higher
    // dimensions": on a fault-free 3-D HyperX, every path towards LID `x`
    // stays off the cables inside rule `x`'s half.
    let topo = HyperXConfig::new(vec![4, 4, 2], 1).build();
    let hx = topo.meta.as_hyperx().unwrap();
    let routes = Parx::default().route(&topo).unwrap();
    verify_paths(&topo, &routes).unwrap();
    let vls = verify_deadlock_free(&topo, &routes).unwrap();
    assert!(vls <= 8);
    for x in 0..6u8 {
        let rule = HalfRule::of_lid(x, hx.dims()).unwrap();
        let inside = |e: Endpoint| {
            e.switch()
                .is_some_and(|s| rule.contains(&hx.coord(s), &hx.shape))
        };
        for src in topo.nodes() {
            for dst in topo.nodes().filter(|&d| d != src) {
                let p = routes.path_to(&topo, src, dst, x as u32).unwrap();
                for dl in &p.hops {
                    assert!(
                        !(inside(dl.tail(&topo)) && inside(dl.head(&topo))),
                        "{src}->{dst} via LID{x} crosses {rule:?}'s half"
                    );
                }
            }
        }
    }
}

#[test]
fn dark_fiber_shrinks_under_parx() {
    let sys = T2hx::mini().unwrap();
    let n = 32;
    let mut rp = RoundProgram::new(n);
    rp.alltoall(1 << 20);
    let usage = |combo: Combo| {
        let f = t2hx::mpi::Fabric::new(
            sys.topo(combo),
            sys.routes(combo),
            sys.placement(Combo::HxDfssspLinear, n, 1), // same dense placement
            t2hx::mpi::Pml::Ob1,
            sys.params(),
        )
        .expect("routable fabric");
        let d = estimate_detailed(&f, &rp);
        LinkUsage::of(sys.topo(combo), &d.link_bytes)
    };
    let dfsssp = usage(Combo::HxDfssspLinear);
    let parx = usage(Combo::HxParxClustered);
    // PARX's virtual-LID paths exist in the tables even under ob1/LID0;
    // its detour trees must not *reduce* the lit cable count.
    assert!(parx.lit + parx.dark == dfsssp.lit + dfsssp.dark);
    assert!(dfsssp.lit > 0 && parx.lit > 0);
}

#[test]
fn hyperx_cost_structure_beats_fattree_at_scale() {
    let sys = T2hx::build(224, false).unwrap();
    let m = CostModel::default();
    let hx = BillOfMaterials::of(sys.hyperx());
    let ft = BillOfMaterials::of(sys.fattree());
    assert!(hx.price(&m) < ft.price(&m));
    assert!(hx.aoc < ft.aoc);
}

#[test]
fn subnet_manager_screens_and_routes_related_topologies() {
    // The bring-up pipeline generalizes beyond the paper's engine per
    // plane: take a seeded share of a Fat-Tree's cables down, route with
    // the topology-agnostic LASH, and survive a fail-in-place event.
    use t2hx::route::engines::Lash;
    use t2hx::route::SubnetManager;
    use t2hx::topo::faults::{FaultCount, FaultPlan};
    use t2hx::topo::LinkClass;

    let mut topo = T2hx::mini().unwrap().fattree().clone();
    let plan = FaultPlan {
        count: FaultCount::Fraction(0.1),
        class: None,
        seed: 21,
    };
    assert!(!plan.apply(&mut topo).is_empty(), "{plan:?}");
    let mut sm = SubnetManager::new(topo, Box::new(Lash::default()));
    let report = sm.sweep().unwrap();
    assert_eq!(report.paths.pairs, 32 * 31);
    assert!(report.vls <= 8);
    // Kill one more switch-to-switch cable; the manager must re-route
    // around it.
    let isl = sm
        .topo()
        .links()
        .find(|(id, l)| l.class == LinkClass::Aoc && sm.topo().is_active(*id))
        .unwrap()
        .0;
    let report = sm.fail_link(isl).unwrap();
    assert_eq!(report.paths.pairs, 32 * 31);
}
