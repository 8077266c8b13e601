//! Criterion benchmarks of the max-min fair flow solver and the fluid
//! network — DESIGN.md §3's "hybrid simulation" ablation: the flow-level
//! model must be cheap enough for 672-node sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hxmpi::{Fabric, Placement, Pml, RoundProgram};
use hxroute::engines::{Dfsssp, RoutingEngine};
use hxroute::DirLink;
use hxsim::flow::{directed_capacities, max_min_rates, FlowSpec};
use hxsim::solver::SolverKind;
use hxsim::{FluidNet, NetParams, Simulator};
use hxtopo::faults::FaultPlan;
use hxtopo::hyperx::HyperXConfig;
use hxtopo::NodeId;

/// A shift-permutation flow set at the given scale.
fn permutation_flows(n_nodes: usize, shift: usize) -> (hxtopo::Topology, Vec<Vec<DirLink>>) {
    let topo = HyperXConfig::t2_hyperx(672).build();
    let routes = Dfsssp::default().route(&topo).unwrap();
    let flows: Vec<Vec<DirLink>> = (0..n_nodes)
        .map(|i| {
            let src = hxtopo::NodeId(i as u32);
            let dst = hxtopo::NodeId(((i + shift) % n_nodes) as u32);
            routes.path_to(&topo, src, dst, 0).unwrap().hops
        })
        .collect();
    (topo, flows)
}

fn solver_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow/max_min");
    for n in [56usize, 224, 672] {
        let (topo, flows) = permutation_flows(n, 7);
        let caps = directed_capacities(&topo);
        let refs: Vec<&[DirLink]> = flows.iter().map(|f| f.as_slice()).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &refs, |b, refs| {
            b.iter(|| max_min_rates(&caps, refs))
        });
    }
    g.finish();
}

fn fluid_completion(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow/fluid_complete");
    g.sample_size(10);
    for n in [56usize, 224] {
        let (topo, flows) = permutation_flows(n, 7);
        let specs: Vec<FlowSpec> = flows
            .into_iter()
            .map(|path| FlowSpec {
                path,
                bytes: 1 << 20,
            })
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &specs, |b, specs| {
            b.iter(|| FluidNet::complete_times(&topo, specs))
        });
    }
    g.finish();
}

/// The paper's degraded HyperX deployment: 12x8 T=7 (672 nodes) minus 15
/// AOCs, routed with DFSSSP.
fn faulted_t2_hyperx() -> (hxtopo::Topology, hxroute::Routes) {
    let mut topo = HyperXConfig::t2_hyperx(672).build();
    FaultPlan::t2_hyperx().apply(&mut topo);
    let routes = Dfsssp::default().route(&topo).unwrap();
    (topo, routes)
}

/// Flow-churn recompute cost: 16 jobs of 42 nodes each run an internal
/// shift-by-7 permutation (mostly disjoint cable footprints), then one
/// flow is removed and re-added — the incremental backend should re-solve
/// only the victim's component, the exact oracle everything.
fn recompute_churn(c: &mut Criterion) {
    let (topo, routes) = faulted_t2_hyperx();
    let paths: Vec<Vec<DirLink>> = (0..672usize)
        .map(|i| {
            let job = i / 42;
            let src = NodeId(i as u32);
            let dst = NodeId((job * 42 + (i % 42 + 7) % 42) as u32);
            routes.path_to(&topo, src, dst, 0).unwrap().hops
        })
        .collect();
    let mut g = c.benchmark_group("sim/recompute");
    for kind in [SolverKind::Exact, SolverKind::Incremental] {
        let mut net = FluidNet::with_solver(&topo, kind);
        let ids: Vec<_> = paths.iter().map(|p| net.add_flow_ref(p, 1 << 30)).collect();
        net.recompute();
        let mut vic = 0usize;
        g.bench_with_input(BenchmarkId::from_parameter(kind.label()), &(), |b, ()| {
            b.iter(|| {
                // Churn one flow: remove, re-solve, put it back, re-solve.
                // The LIFO free list hands the same id straight back, so
                // `ids` stays valid across iterations.
                let v = vic % ids.len();
                vic = vic.wrapping_add(271); // co-prime stride over jobs
                net.remove(ids[v]);
                net.recompute();
                let id = net.add_flow_ref(&paths[v], 1 << 30);
                assert_eq!(id, ids[v]);
                net.recompute();
                net.next_completion()
            })
        });
    }
    g.finish();
}

/// Full DES under flow churn on the degraded HyperX: an alltoall keeps
/// flows joining and leaving shared cables on every event.
fn des_churn(c: &mut Criterion) {
    let (topo, routes) = faulted_t2_hyperx();
    let nodes: Vec<NodeId> = topo.nodes().collect();
    let n = 64;
    let mut rp = RoundProgram::new(n);
    rp.alltoall(4096);
    rp.allreduce(1 << 16);
    let program = rp.lower();
    let mut g = c.benchmark_group("sim/des_churn");
    g.sample_size(10);
    for kind in [SolverKind::Exact, SolverKind::Incremental] {
        let fabric = Fabric::new(
            &topo,
            &routes,
            Placement::linear(&nodes, n),
            Pml::Ob1,
            NetParams::qdr().with_solver(kind),
        )
        .expect("routable fabric");
        let sim = Simulator::new(&topo, &fabric, NetParams::qdr().with_solver(kind));
        g.bench_with_input(BenchmarkId::from_parameter(kind.label()), &(), |b, ()| {
            b.iter(|| sim.run(&program).makespan)
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    solver_scaling,
    fluid_completion,
    recompute_churn,
    des_churn
);
criterion_main!(benches);
