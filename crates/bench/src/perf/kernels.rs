//! The hxperf kernel registry: one entry per hot path the repo has grown.
//!
//! Every kernel prepares its workload outside the timed region (topology
//! build, routing sweep, flow setup), then measures only the operation the
//! per-PR speedups were claimed on: the PathDb extraction, the incremental
//! fail/recover patch, the congestion re-solve under churn, the DES event
//! loop, the eBB/mpiGraph sampling inner loops, the campaign
//! fail→propagate→recover round-trip, and the multi-plane pieces: the
//! K-shard PlaneSet build and the rail-failover churn step.
//!
//! Full mode runs on the paper's degraded plane (12x8 HyperX, T = 7, 672
//! nodes, the 15 missing AOCs); `T2HX_QUICK=1` shrinks to a 6x4 T = 2
//! plane (48 nodes) so a CI smoke pass stays in tens of seconds. The
//! scale label embedded in each record keeps the two populations from
//! ever being compared against each other.

use super::{time_loop, time_loop_batched, Kernel};
use hxcore::{with_stepper, CampaignConfig};
use hxload::ebb::{effective_bisection_bandwidth, EBB_BYTES};
use hxload::mpigraph::mpigraph;
use hxmpi::{Fabric, Placement, Pml, RailPolicy, ScheduleBuilder};
use hxroute::engines::{Dfsssp, FatPaths, FtHyperX, RoutingEngine};
use hxroute::{DirLink, PathDb, PlaneSet, Routes, SubnetManager};
use hxsim::{FluidNet, NetParams, Simulator, SolverKind};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{FaultPlan, LinkClass, LinkId, NodeId, Topology};

/// All registered kernels, in the order `hxperf --list` prints them.
pub const ALL: &[Kernel] = &[
    Kernel {
        name: "pathdb_build",
        about: "full PathDb extraction from swept routes (threads auto)",
        collect: pathdb_build,
    },
    Kernel {
        name: "pathdb_build_multiplane",
        about: "K-shard PlaneSet build of a replicated multi-plane system",
        collect: pathdb_build_multiplane,
    },
    Kernel {
        name: "fail_in_place",
        about: "incremental fail_link patch of one healthy ISL",
        collect: fail_in_place,
    },
    Kernel {
        name: "recover_link",
        about: "incremental recover_link patch restoring that ISL",
        collect: recover_link,
    },
    Kernel {
        name: "recompute_exact",
        about: "single-flow churn re-solve, Exact oracle backend",
        collect: recompute_exact,
    },
    Kernel {
        name: "recompute_incremental",
        about: "single-flow churn re-solve, Incremental dirty-set backend",
        collect: recompute_incremental,
    },
    Kernel {
        name: "des_churn",
        about: "full DES run of an alltoall+allreduce under flow churn",
        collect: des_churn,
    },
    Kernel {
        name: "ebb_sample",
        about: "batch of random-bisection eBB samples (max-min rates)",
        collect: ebb_sample,
    },
    Kernel {
        name: "mpigraph",
        about: "full mpiGraph shifted-round bandwidth matrix",
        collect: mpigraph_matrix,
    },
    Kernel {
        name: "campaign_step",
        about: "one live fail→propagate→recover campaign round-trip",
        collect: campaign_step,
    },
    Kernel {
        name: "rail_failover",
        about: "multi-plane churn step with forced flow failover across rails",
        collect: rail_failover,
    },
    Kernel {
        name: "ft_hyperx_repair",
        about: "engine-owned FT-HyperX incremental fail_link repair of one ISL",
        collect: ft_hyperx_repair,
    },
    Kernel {
        name: "fatpaths_build",
        about: "full 4-layer FatPaths sweep (masked trees + VL assignment)",
        collect: fatpaths_build,
    },
    Kernel {
        name: "hxd_query",
        about: "hxd read side: mixed resolve/place/stats batch on a pinned epoch",
        collect: hxd_query,
    },
    Kernel {
        name: "obs_disabled",
        about: "disabled-path overhead of span/counter/sketch call sites",
        collect: obs_disabled,
    },
    Kernel {
        name: "capacity_step",
        about: "batch of day-scale allocator events (arrive/place/depart)",
        collect: capacity_step,
    },
];

/// The measured plane: the paper's degraded 12x8 T=7 HyperX in full mode,
/// a 6x4 T=2 miniature in quick mode. Returns `(topology, scale label)`.
fn plane(quick: bool) -> (Topology, &'static str) {
    if quick {
        (HyperXConfig::new(vec![6, 4], 2).build(), "hx-6x4-t2")
    } else {
        let mut topo = HyperXConfig::t2_hyperx(672).build();
        FaultPlan::t2_hyperx().apply(&mut topo);
        (topo, "hx-12x8-t7+15aoc")
    }
}

/// A healthy non-terminal cable to kill (prefers the fault-prone AOC
/// class, falling back to copper on the quick plane's single-rack layout).
fn victim_isl(topo: &Topology) -> LinkId {
    topo.links()
        .filter(|&(id, l)| l.class != LinkClass::Terminal && topo.is_active(id))
        .max_by_key(|&(_, l)| l.class == LinkClass::Aoc)
        .map(|(id, _)| id)
        .expect("an active ISL to kill")
}

fn pathdb_build(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    let (topo, scale) = plane(quick);
    let routes = Dfsssp::default().route(&topo).unwrap();
    let ns = time_loop(warmup, samples, || {
        PathDb::build(&topo, &routes, 1, 0).unwrap();
    });
    (scale.to_string(), ns)
}

/// Planes per multi-plane kernel: 2 rails in quick mode, the 4-rail
/// acceptance system (4 x 12x8 = 2688 endpoints) in full mode.
fn rail_count(quick: bool) -> usize {
    if quick {
        2
    } else {
        4
    }
}

fn pathdb_build_multiplane(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    let (topo, scale) = plane(quick);
    let k = rail_count(quick);
    let routes = Dfsssp::default().route(&topo).unwrap();
    let shards: Vec<(&Topology, &Routes)> = (0..k).map(|_| (&topo, &routes)).collect();
    let ns = time_loop(warmup, samples, || {
        PlaneSet::build(&shards, 1, 0).unwrap();
    });
    (format!("{scale}xK{k}"), ns)
}

/// Swept state shared by the fail/recover kernels, parameterized by the
/// routing engine under measurement.
fn swept_with(topo: &Topology, engine: Box<dyn RoutingEngine>) -> SubnetManager {
    let mut sm = SubnetManager::new(topo.clone(), engine);
    sm.verify = false;
    sm.sweep().unwrap();
    sm
}

fn swept(topo: &Topology) -> SubnetManager {
    swept_with(topo, Box::new(Dfsssp::default()))
}

/// Clones a manager's state into a fresh incremental-mode manager driving
/// the given engine.
fn clone_sm_with(sm: &SubnetManager, engine: Box<dyn RoutingEngine>) -> SubnetManager {
    let mut c = SubnetManager::with_state(
        sm.topo().clone(),
        engine,
        sm.routes().unwrap().clone(),
        sm.pathdb().unwrap().clone(),
    );
    c.verify = false;
    c.incremental = true;
    c
}

fn clone_sm(sm: &SubnetManager) -> SubnetManager {
    clone_sm_with(sm, Box::new(Dfsssp::default()))
}

fn fail_in_place(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    let (topo, scale) = plane(quick);
    let base = swept(&topo);
    let victim = victim_isl(&topo);
    let ns = time_loop_batched(
        warmup,
        samples,
        || clone_sm(&base),
        |mut sm| {
            sm.fail_link(victim).unwrap();
        },
    );
    (scale.to_string(), ns)
}

fn recover_link(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    let (topo, scale) = plane(quick);
    let mut base = swept(&topo);
    let victim = victim_isl(&topo);
    base.fail_link(victim).unwrap();
    let ns = time_loop_batched(
        warmup,
        samples,
        || clone_sm(&base),
        |mut sm| {
            sm.recover_link(victim).unwrap();
        },
    );
    (scale.to_string(), ns)
}

/// The §8 churn workload: disjoint jobs running internal shift
/// permutations, so component decomposition has something to exploit.
fn churn_paths(topo: &Topology, quick: bool) -> Vec<Vec<DirLink>> {
    let routes = Dfsssp::default().route(topo).unwrap();
    let n = topo.nodes().count();
    let (job, shift) = if quick { (12, 3) } else { (42, 7) };
    (0..n)
        .map(|i| {
            let src = NodeId(i as u32);
            let dst = NodeId(((i / job) * job + (i % job + shift) % job) as u32);
            routes.path_to(topo, src, dst, 0).unwrap().hops
        })
        .collect()
}

fn recompute(quick: bool, warmup: usize, samples: usize, kind: SolverKind) -> (String, Vec<f64>) {
    let (topo, scale) = plane(quick);
    let paths = churn_paths(&topo, quick);
    let mut net = FluidNet::with_solver(&topo, kind);
    let ids: Vec<_> = paths.iter().map(|p| net.add_flow_ref(p, 1 << 30)).collect();
    net.recompute();
    let mut vic = 0usize;
    let ns = time_loop(warmup, samples, || {
        // Churn one flow: remove, re-solve, put it back, re-solve. The
        // LIFO free list hands the same id straight back.
        let v = vic % ids.len();
        vic = vic.wrapping_add(271);
        net.remove(ids[v]);
        net.recompute();
        let id = net.add_flow_ref(&paths[v], 1 << 30);
        assert_eq!(id, ids[v]);
        net.recompute();
    });
    (format!("{scale}/{}", kind.label()), ns)
}

fn recompute_exact(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    recompute(quick, warmup, samples, SolverKind::Exact)
}

fn recompute_incremental(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    recompute(quick, warmup, samples, SolverKind::Incremental)
}

fn des_churn(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    let (topo, scale) = plane(quick);
    let routes = Dfsssp::default().route(&topo).unwrap();
    let nodes: Vec<NodeId> = topo.nodes().collect();
    let n = if quick { 16 } else { 64 };
    let mut sb = ScheduleBuilder::new(n);
    sb.alltoall(4096);
    sb.allreduce(1 << 16);
    let program = sb.build();
    let params = NetParams::qdr().with_solver(SolverKind::Incremental);
    let fabric = Fabric::new(
        &topo,
        &routes,
        Placement::linear(&nodes, n),
        Pml::Ob1,
        params,
    )
    .expect("routable fabric");
    let sim = Simulator::new(&topo, &fabric, params);
    let ns = time_loop(warmup, samples, || {
        sim.run(&program);
    });
    (format!("{scale}/n{n}"), ns)
}

fn ebb_sample(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    let (topo, scale) = plane(quick);
    let routes = Dfsssp::default().route(&topo).unwrap();
    let nodes: Vec<NodeId> = topo.nodes().collect();
    let (n, batch) = if quick { (16, 4) } else { (112, 16) };
    let params = NetParams::qdr();
    let fabric = Fabric::new(
        &topo,
        &routes,
        Placement::linear(&nodes, n),
        Pml::Ob1,
        params,
    )
    .expect("routable fabric");
    let ns = time_loop(warmup, samples, || {
        effective_bisection_bandwidth(&fabric, n, EBB_BYTES, batch, 42);
    });
    (format!("{scale}/n{n}x{batch}"), ns)
}

fn mpigraph_matrix(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    let (topo, scale) = plane(quick);
    let routes = Dfsssp::default().route(&topo).unwrap();
    let nodes: Vec<NodeId> = topo.nodes().collect();
    let n = if quick { 12 } else { 28 };
    let params = NetParams::qdr();
    let fabric = Fabric::new(
        &topo,
        &routes,
        Placement::linear(&nodes, n),
        Pml::Ob1,
        params,
    )
    .expect("routable fabric");
    let ns = time_loop(warmup, samples, || {
        mpigraph(&fabric, n, 1 << 20);
    });
    (format!("{scale}/n{n}"), ns)
}

fn campaign_step(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    let (topo, scale) = plane(quick);
    let cfg = CampaignConfig {
        seed: 0x7258,
        flows: 16,
        bytes: 8 << 20,
        solver: SolverKind::Incremental,
        ..CampaignConfig::default()
    };
    let engine_for = |_: usize| -> Box<dyn RoutingEngine> { Box::new(Dfsssp::default()) };
    let ns = with_stepper(&topo, engine_for, &cfg, |s| {
        time_loop(warmup, samples, || {
            s.step();
        })
    })
    .unwrap();
    (format!("{scale}/f{}", cfg.flows), ns)
}

/// One multi-plane churn round-trip with forced failover: kill a cable on
/// the round-robin plane, migrate every flow riding it to surviving
/// rails, propagate the patched shard, recover, propagate again. The K
/// swept managers and rail fabrics are built outside the timed region.
fn rail_failover(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    let (topo, scale) = plane(quick);
    let k = rail_count(quick);
    let cfg = CampaignConfig {
        seed: 0x7258,
        flows: 16,
        bytes: 8 << 20,
        solver: SolverKind::Incremental,
        planes: k,
        rail: RailPolicy::RoundRobin,
        force_failover: true,
        ..CampaignConfig::default()
    };
    let engine_for = |_: usize| -> Box<dyn RoutingEngine> { Box::new(Dfsssp::default()) };
    let ns = with_stepper(&topo, engine_for, &cfg, |s| {
        time_loop(warmup, samples, || {
            s.step();
        })
    })
    .unwrap();
    (format!("{scale}xK{k}/f{}", cfg.flows), ns)
}

/// The engine-owned incremental repair path: FT-HyperX patches only the
/// destination trees whose LFT entries used the dead cable, applying its
/// own history-free routing rule — no generic load-aware rebuild, no
/// resweep. The assert pins that the engine path (not a fallback) is what
/// gets timed.
fn ft_hyperx_repair(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    let (topo, scale) = plane(quick);
    let base = swept_with(&topo, Box::new(FtHyperX::default()));
    let victim = victim_isl(&topo);
    let ns = time_loop_batched(
        warmup,
        samples,
        || clone_sm_with(&base, Box::new(FtHyperX::default())),
        |mut sm| {
            let r = sm.fail_link(victim).unwrap();
            assert!(r.incremental, "FT-HyperX repair fell back to a resweep");
        },
    );
    (scale.to_string(), ns)
}

/// The full FatPaths sweep: four masked destination-tree layers plus the
/// shared deadlock-free VL assignment over all of them.
fn fatpaths_build(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    let (topo, scale) = plane(quick);
    let engine = FatPaths::default();
    let ns = time_loop(warmup, samples, || {
        engine.route(&topo).unwrap();
    });
    (format!("{scale}/L{}", engine.layers), ns)
}

/// Queries per timed iteration of `hxd_query`.
const HXD_BATCH: usize = 64;

/// The hxd read side: a fresh [`hxcore::ServiceReader`] answers a fixed
/// mixed batch — 56 cross-quadrant resolves, 4 quadrant-aware placements,
/// 4 stats — against a published epoch snapshot. The fresh reader per
/// iteration means the batch exercises both the cold (execute + cache
/// fill) and warm (cache hit) paths exactly as a newly attached operator
/// console would; the per-query cost is this sample divided by 64.
fn hxd_query(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    let (topo, scale) = plane(quick);
    let sm = swept(&topo);
    let svc = hxcore::FabricService::from_manager(&sm).unwrap();
    let n = topo.num_nodes() as u32;
    let batch: Vec<hxcore::Query> = (0..HXD_BATCH as u32)
        .map(|i| match i % 16 {
            14 => hxcore::Query::Place {
                ranks: 4 << (i / 16),
                policy: hxcap::POLICY_KINDS[(i / 16) as usize % hxcap::POLICY_KINDS.len()],
            },
            15 => hxcore::Query::Stats,
            _ => {
                let src = (i * 7) % n;
                hxcore::Query::Resolve {
                    src,
                    dst: (src + 1 + (i * 13) % (n - 1)) % n,
                }
            }
        })
        .collect();
    let ns = time_loop_batched(
        warmup,
        samples,
        || svc.reader(),
        |mut r| {
            for q in &batch {
                r.query(q).unwrap();
            }
        },
    );
    (format!("{scale}xQ{}", batch.len()), ns)
}

/// Instrumentation call sites per timed iteration of `obs_disabled`.
const OBS_BATCH: usize = 1024;

/// The cost of the observability layer when it is *off*: every hot path in
/// the repo now carries span/counter/sketch call sites, so this kernel
/// pins their disabled-path overhead (one relaxed atomic load each). The
/// global sink is force-uninstalled for the measurement and restored
/// afterwards (with no sink, nothing reaches the flight ring), so the
/// number is the true `T2HX_OBS`-unset cost even when hxperf itself runs
/// under observability.
fn obs_disabled(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    let _ = quick; // same batch at both scales: the cost is plane-free
    let saved_sink = hxobs::uninstall();
    let mut epoch = 0u64;
    let ns = time_loop(warmup, samples, || {
        for i in 0..OBS_BATCH {
            let root = hxobs::Span::root(hxobs::track::RUNNER, 0, "perf_probe", "perf");
            let child = root.child("perf_probe_child", "perf");
            child.end();
            root.end();
            hxobs::count("perf.obs_disabled.calls", 1);
            hxobs::observe("perf.obs_disabled.sample", i as f64);
            hxobs::sketch_record("perf.obs_disabled.us", epoch, i as f64);
        }
        epoch = epoch.wrapping_add(1);
        std::hint::black_box(epoch);
    });
    if let Some(s) = saved_sink {
        hxobs::install(s);
    }
    (format!("callsites-x{OBS_BATCH}"), ns)
}

/// Allocation-stream events per timed iteration of `capacity_step`.
const CAP_BATCH: usize = 64;

/// The day-scale allocator transition: a fresh [`hxcore::ScaleStepper`]
/// over the measured plane advances 64 events (Poisson arrival →
/// network-aware placement, or departure → free-pool merge + FIFO
/// retry). Interference checkpoints are disabled so the sample times the
/// allocator machinery itself, not the max-min solver; the per-event
/// cost is this sample divided by 64.
fn capacity_step(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>) {
    let (topo, scale) = plane(quick);
    let sys = hxcore::System::builder()
        .plane(
            "cap",
            std::sync::Arc::new(topo),
            Box::new(Dfsssp::default()),
        )
        .build()
        .unwrap();
    let cfg = hxcore::ScaleConfig {
        interference_every: 0,
        ..if quick {
            hxcore::ScaleConfig::quick()
        } else {
            hxcore::ScaleConfig::full()
        }
    };
    let ns = time_loop_batched(
        warmup,
        samples,
        || hxcore::ScaleStepper::new(&sys, hxcap::PolicyKind::NetworkAware, cfg.clone(), 0xCA9),
        |mut st| {
            for _ in 0..CAP_BATCH {
                if !st.step() {
                    break;
                }
            }
        },
    );
    (format!("{scale}xE{CAP_BATCH}"), ns)
}
