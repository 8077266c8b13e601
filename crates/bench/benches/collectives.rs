//! Criterion benchmarks of collective evaluation: the round model at full
//! scale (the workhorse of every figure sweep) vs the exact DES at small
//! scale, plus workload-skeleton evaluation cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hxmpi::{estimate, Fabric, Placement, Pml, RoundProgram};
use hxroute::engines::{Dfsssp, Parx, RoutingEngine};
use hxroute::Routes;
use hxsim::{NetParams, Simulator};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{NodeId, Topology};

fn setup_full() -> (Topology, Routes) {
    let topo = HyperXConfig::t2_hyperx(672).build();
    let routes = Dfsssp::default().route(&topo).unwrap();
    (topo, routes)
}

fn fabric<'a>(topo: &'a Topology, routes: &'a Routes, n: usize) -> Fabric<'a> {
    pml_fabric(topo, routes, n, Pml::Ob1)
}

fn pml_fabric<'a>(topo: &'a Topology, routes: &'a Routes, n: usize, pml: Pml) -> Fabric<'a> {
    let nodes: Vec<NodeId> = topo.nodes().collect();
    Fabric::new(
        topo,
        routes,
        Placement::linear(&nodes, n),
        pml,
        NetParams::qdr(),
    )
    .expect("routable fabric")
}

fn round_model(c: &mut Criterion) {
    let (topo, routes) = setup_full();
    let mut g = c.benchmark_group("estimate/round_model");
    g.sample_size(10);
    for n in [56usize, 672] {
        let f = fabric(&topo, &routes, n);
        g.bench_with_input(BenchmarkId::new("alltoall_4MiB", n), &f, |b, f| {
            b.iter(|| {
                let mut rp = RoundProgram::new(n);
                rp.alltoall(4 << 20);
                estimate(f, &rp)
            })
        });
        g.bench_with_input(BenchmarkId::new("allreduce_ring", n), &f, |b, f| {
            b.iter(|| {
                let mut rp = RoundProgram::new(n);
                rp.allreduce_ring(64 << 20);
                estimate(f, &rp)
            })
        });
    }
    // bfo-parx reads the sequence number, so every ring step is resolved
    // and priced afresh: this case keeps the per-message path measured.
    let parx = Parx::default().route(&topo).unwrap();
    let f = pml_fabric(&topo, &parx, 672, Pml::parx());
    g.bench_with_input(
        BenchmarkId::new("allreduce_ring_bfo_parx", 672),
        &f,
        |b, f| {
            b.iter(|| {
                let mut rp = RoundProgram::new(672);
                rp.allreduce_ring(64 << 20);
                estimate(f, &rp)
            })
        },
    );
    g.finish();
}

fn exact_des(c: &mut Criterion) {
    let (topo, routes) = setup_full();
    let mut g = c.benchmark_group("estimate/exact_des");
    g.sample_size(10);
    let n = 32;
    let f = fabric(&topo, &routes, n);
    g.bench_function("alltoall_256KiB_32r", |b| {
        b.iter(|| {
            let mut rp = RoundProgram::new(n);
            rp.alltoall(256 << 10);
            Simulator::new(&topo, &f, NetParams::qdr()).run(&rp.lower())
        })
    });
    g.finish();
}

fn workload_skeletons(c: &mut Criterion) {
    let (topo, routes) = setup_full();
    let mut g = c.benchmark_group("estimate/workloads");
    g.sample_size(10);
    let f = fabric(&topo, &routes, 672);
    for w in hxload::proxy::all_proxies() {
        // SWFFT/Qbox at 672 are the heaviest skeletons.
        g.bench_function(w.name(), |b| b.iter(|| w.kernel_seconds(&f, 672)));
    }
    g.finish();
}

criterion_group!(benches, round_model, exact_des, workload_skeletons);
criterion_main!(benches);
