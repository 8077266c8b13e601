//! Criterion benchmarks of the routing engines: forwarding-table
//! computation cost per engine and topology size (an OpenSM routing pass
//! on the real system takes seconds; ours should too), plus the
//! fail-in-place comparison — full resweep vs. incremental PathDb patch on
//! the paper's 12x8 HyperX with its 15 missing AOCs.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hxroute::engines::{Dfsssp, Ftree, MinHop, Parx, RoutingEngine, Sssp, UpDown};
use hxroute::{PathDb, RouteError, SubnetManager, SweepReport};
use hxtopo::fattree::FatTreeConfig;
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{FaultPlan, LinkClass, LinkId};

fn hyperx_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("route/hyperx");
    g.sample_size(10);
    for (label, shape, t) in [("6x4-t2", vec![6u32, 4], 2u32), ("12x8-t7", vec![12, 8], 7)] {
        let topo = HyperXConfig::new(shape, t).build();
        let engines: Vec<(&str, Box<dyn RoutingEngine>)> = vec![
            ("minhop", Box::new(MinHop::default())),
            ("sssp", Box::new(Sssp::default())),
            ("dfsssp", Box::new(Dfsssp::default())),
            ("updown", Box::new(UpDown::default())),
            ("parx", Box::new(Parx::default())),
        ];
        for (name, engine) in engines {
            g.bench_with_input(BenchmarkId::new(name, label), &topo, |b, topo| {
                b.iter(|| engine.route(topo).unwrap())
            });
        }
    }
    g.finish();
}

fn fattree_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("route/fattree");
    g.sample_size(10);
    let topo = FatTreeConfig::tsubame2(672);
    g.bench_function("ftree/t2-672", |b| b.iter(|| Ftree.route(&topo).unwrap()));
    g.bench_function("sssp/t2-672", |b| {
        b.iter(|| Sssp::default().route(&topo).unwrap())
    });
    g.finish();
}

/// Cable events on the paper's HyperX plane (672 nodes, the 15 unconnected
/// AOCs of Section 3.1 already missing), each as a full DFSSSP resweep
/// (`incremental` off) versus the incremental PathDb patch: failing a
/// healthy AOC (`route/fail_in_place`), and restoring it from the
/// failed-and-patched state (`route/recover_link`), where the patch repairs
/// only the destination trees the restored cable can improve.
fn cable_events(c: &mut Criterion) {
    let mut topo = HyperXConfig::t2_hyperx(672).build();
    FaultPlan::t2_hyperx().apply(&mut topo);
    let victim = topo
        .links()
        .find(|&(id, l)| l.class == LinkClass::Aoc && topo.is_active(id))
        .map(|(id, _)| id)
        .expect("a healthy AOC to kill");
    let mut healthy = SubnetManager::new(topo, Box::new(Dfsssp::default()));
    healthy.verify = false;
    healthy.sweep().unwrap();
    let mut failed = healthy.clone();
    failed.fail_link(victim).unwrap();
    type Event = fn(&mut SubnetManager, LinkId) -> Result<SweepReport, RouteError>;
    let groups: [(&str, &SubnetManager, Event); 2] = [
        ("route/fail_in_place", &healthy, SubnetManager::fail_link),
        ("route/recover_link", &failed, SubnetManager::recover_link),
    ];
    for (group, base, event) in groups {
        let mut g = c.benchmark_group(group);
        g.sample_size(5);
        for (label, incremental) in [("full_resweep", false), ("incremental", true)] {
            g.bench_function(BenchmarkId::new(label, "t2-672+15aoc"), |b| {
                b.iter_batched(
                    || {
                        let mut sm = base.clone();
                        sm.incremental = incremental;
                        sm
                    },
                    |mut sm| {
                        event(&mut sm, victim).unwrap();
                        sm
                    },
                    BatchSize::LargeInput,
                )
            });
        }
        g.finish();
    }
}

/// PathDb extraction cost: sequential vs. chunked-thread build of the full
/// 672-node HyperX path store.
fn pathdb_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("route/pathdb_build");
    g.sample_size(5);
    let topo = HyperXConfig::t2_hyperx(672).build();
    let routes = Dfsssp::default().route(&topo).unwrap();
    g.bench_function("threads-1", |b| {
        b.iter(|| PathDb::build(&topo, &routes, 1, 1).unwrap())
    });
    g.bench_function("threads-auto", |b| {
        b.iter(|| PathDb::build(&topo, &routes, 1, 0).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    hyperx_engines,
    fattree_engines,
    cable_events,
    pathdb_build
);
criterion_main!(benches);
