//! Capacity-run scheduler: the Figure-7 mix, priced by the solver-backed
//! interference kernel of [`mod@crate::interference`].

use crate::interference::slowdowns;
use hxload::imb::{Emdl, Mupp};
use hxload::proxy::{Amg, CoMd, Ffvc, Milc, MiniFe, Mvmc, NtChem, Qball, Swfft};
use hxload::workload::Workload;
use hxload::x500::{Graph500, Hpcg, Hpl};
use hxmpi::rounds::{estimate_detailed, Phase, RoundProgram};
use hxmpi::{Fabric, Placement, Pml};
use hxroute::{DirLink, PathDb, Routes};
use hxsim::flow::directed_capacities;
use hxsim::{NetParams, NoiseModel};
use hxtopo::{NodeId, Topology};
use std::collections::HashSet;
use std::sync::Arc;

/// One application slot of the capacity mix.
pub struct AppSlot {
    /// The application.
    pub workload: Box<dyn Workload>,
    /// Dedicated node count (32 or 56 in the paper).
    pub nodes: usize,
}

/// The paper's 14-application mix: 9 larger apps on 56 nodes, 5 on 32 —
/// 664 nodes total (98.8% of 672).
pub fn paper_mix() -> Vec<AppSlot> {
    fn slot(w: Box<dyn Workload>, nodes: usize) -> AppSlot {
        AppSlot { workload: w, nodes }
    }
    vec![
        slot(Box::new(Amg::default()), 56),
        slot(Box::new(CoMd::default()), 32),
        slot(Box::new(Ffvc::default()), 32),
        slot(Box::new(Graph500::default()), 32),
        slot(Box::new(Hpcg::default()), 56),
        slot(Box::new(Hpl::default()), 56),
        slot(Box::new(Milc::default()), 56),
        slot(Box::new(MiniFe::default()), 56),
        slot(Box::new(Mvmc::default()), 56),
        slot(Box::new(NtChem::default()), 56),
        slot(Box::new(Qball::default()), 56),
        slot(Box::new(Swfft::default()), 56),
        slot(Box::new(Mupp::default()), 32),
        slot(Box::new(Emdl::default()), 32),
    ]
}

/// Capacity experiment configuration.
#[derive(Debug, Clone)]
pub struct CapacityConfig {
    /// Experiment duration in seconds (paper: 3 h).
    pub duration: f64,
    /// Job restart/teardown overhead between runs.
    pub restart: f64,
    /// Run-to-run noise.
    pub noise: NoiseModel,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig {
            duration: 3.0 * 3600.0,
            restart: 8.0,
            noise: NoiseModel::default(),
        }
    }
}

/// Per-application outcome.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Application name.
    pub name: &'static str,
    /// Nodes allocated.
    pub nodes: usize,
    /// Standalone (interference-free) run time.
    pub standalone: f64,
    /// Run time under cross-application interference.
    pub interfered: f64,
    /// Completed runs within the window.
    pub runs: u32,
}

/// Result of a capacity experiment.
#[derive(Debug, Clone)]
pub struct CapacityResult {
    /// Per-application outcomes (mix order).
    pub apps: Vec<AppResult>,
}

impl CapacityResult {
    /// Sum of finished runs — the paper's headline per combo (1202 / 980 /
    /// 1355 / 1017 / 1233).
    pub fn total_runs(&self) -> u32 {
        self.apps.iter().map(|a| a.runs).sum()
    }
}

/// Runs the capacity experiment on one plane.
///
/// `pool_order` is the node ordering of the combo's allocation scheme
/// (linear, clustered or random over the whole machine); the scheduler
/// slices consecutive blocks off it for each application. Every app's
/// fabric aliases the plane's path store `db`.
#[allow(clippy::too_many_arguments)]
pub fn run_capacity(
    topo: &Topology,
    routes: &Routes,
    db: &Arc<PathDb>,
    pml: Pml,
    params: NetParams,
    pool_order: &[NodeId],
    apps: &[AppSlot],
    cfg: &CapacityConfig,
) -> CapacityResult {
    let needed: usize = apps.iter().map(|a| a.nodes).sum();
    assert!(
        needed <= pool_order.len(),
        "mix needs {needed} nodes, pool has {}",
        pool_order.len()
    );

    // Pass 1: each app's standalone cost and exchange flows on its slice.
    let mut evals = Vec::with_capacity(apps.len());
    let mut flows = Vec::with_capacity(apps.len());
    let mut offset = 0usize;
    for slot in apps {
        let nodes = pool_order[offset..offset + slot.nodes].to_vec();
        offset += slot.nodes;
        let fabric = Fabric::with_pathdb(
            topo,
            routes,
            Placement::explicit(nodes, "capacity"),
            pml.clone(),
            params,
            Arc::clone(db),
        );
        let sk = slot.workload.skeleton(slot.nodes);
        let detail = estimate_detailed(&fabric, &sk.iter);
        flows.push(exchange_flows(&fabric, &sk.iter));
        evals.push((sk.setup, sk.iters, detail.compute, detail.comm()));
    }

    // Pass 2: every app's flows rated alone and against all co-runners;
    // the slowdown dilates its communication phases.
    let jobs: Vec<&[Vec<DirLink>]> = flows.iter().map(Vec::as_slice).collect();
    let dilations = slowdowns(&directed_capacities(topo), &jobs);
    let mut results = Vec::with_capacity(apps.len());
    for ((slot, &(setup, iters, compute, comm)), dilation) in apps.iter().zip(&evals).zip(dilations)
    {
        let standalone = setup + iters * (compute + comm);
        let interfered = setup + iters * (compute + comm * dilation);

        // Sequential runs with per-run noise until the window closes.
        let tag = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            (slot.workload.name(), slot.nodes).hash(&mut h);
            h.finish()
        };
        let mut t = 0.0f64;
        let mut runs = 0u32;
        while runs < 100_000 {
            let rt = cfg.noise.apply(interfered, tag, runs) + cfg.restart;
            if t + rt > cfg.duration {
                break;
            }
            t += rt;
            runs += 1;
        }
        results.push(AppResult {
            name: slot.workload.name(),
            nodes: slot.nodes,
            standalone,
            interfered,
            runs,
        });
    }
    CapacityResult { apps: results }
}

/// One flow per distinct ordered node pair the program's exchanges
/// connect (self-sends skipped), in first-message order. Each flow takes
/// the path the round model gives the pair's first message.
fn exchange_flows(fabric: &Fabric<'_>, prog: &RoundProgram) -> Vec<Vec<DirLink>> {
    let db = fabric.pathdb();
    let mut seen = HashSet::new();
    let mut flows = Vec::new();
    for phase in &prog.phases {
        let Phase::Exchange(msgs) = phase else {
            continue;
        };
        for &(src, dst, bytes) in msgs.iter() {
            let sn = fabric.placement.node(src);
            let dn = fabric.placement.node(dst);
            if sn == dn || !seen.insert((sn, dn)) {
                continue;
            }
            let lid_idx = fabric
                .pml
                .select_lid_index(fabric.topo, fabric.routes, sn, dn, bytes, 0);
            let mut path = Vec::new();
            fabric.node_path_in(&db, sn, dn, lid_idx, &mut path);
            flows.push(path);
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxroute::engines::{Dfsssp, RoutingEngine};
    use hxtopo::hyperx::HyperXConfig;

    fn small_mix() -> Vec<AppSlot> {
        vec![
            AppSlot {
                workload: Box::new(Amg { iters: 10 }),
                nodes: 8,
            },
            AppSlot {
                workload: Box::new(Swfft {
                    reps: 4,
                    local_bytes: 64 << 20,
                }),
                nodes: 8,
            },
            AppSlot {
                workload: Box::new(Mupp {
                    iters: 1_000_000,
                    bytes: 4096,
                }),
                nodes: 8,
            },
        ]
    }

    /// Runs `apps` on `t` routed by DFSSSP, slicing nodes off `pool`.
    fn run(
        t: &Topology,
        pool: &[NodeId],
        apps: &[AppSlot],
        cfg: &CapacityConfig,
    ) -> CapacityResult {
        let r = Dfsssp::default().route(t).unwrap();
        let db = Arc::new(PathDb::build(t, &r, 1, 1).unwrap());
        run_capacity(t, &r, &db, Pml::Ob1, NetParams::qdr(), pool, apps, cfg)
    }

    fn hx4x4() -> (Topology, Vec<NodeId>) {
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let pool = t.nodes().collect();
        (t, pool)
    }

    fn quiet() -> CapacityConfig {
        CapacityConfig {
            noise: NoiseModel::none(),
            ..CapacityConfig::default()
        }
    }

    #[test]
    fn paper_mix_occupies_664_nodes() {
        let mix = paper_mix();
        assert_eq!(mix.len(), 14);
        let total: usize = mix.iter().map(|a| a.nodes).sum();
        assert_eq!(total, 664);
        assert!(mix.iter().all(|a| a.nodes == 32 || a.nodes == 56));
    }

    #[test]
    fn capacity_counts_runs() {
        let (t, pool) = hx4x4();
        let res = run(&t, &pool, &small_mix(), &CapacityConfig::default());
        assert_eq!(res.apps.len(), 3);
        for a in &res.apps {
            assert!(a.runs > 0, "{} completed no runs", a.name);
            assert!(a.interfered >= a.standalone * 0.999, "{}", a.name);
        }
        assert!(res.total_runs() >= 3);
    }

    #[test]
    fn interference_only_slows_down() {
        let (t, pool) = hx4x4();
        let res = run(&t, &pool, &small_mix(), &quiet());
        // Solo run of the same first app: more runs than under interference
        // (or equal if links never overlap).
        let solo = run(&t, &pool, &small_mix()[..1], &quiet());
        assert!(solo.apps[0].runs >= res.apps[0].runs);
    }

    #[test]
    fn deterministic() {
        let (t, pool) = hx4x4();
        let cfg = CapacityConfig::default();
        let a = run(&t, &pool, &small_mix(), &cfg);
        let b = run(&t, &pool, &small_mix(), &cfg);
        let ra: Vec<u32> = a.apps.iter().map(|x| x.runs).collect();
        let rb: Vec<u32> = b.apps.iter().map(|x| x.runs).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn one_app_mix_runs_undilated() {
        // Alone on the plane, an app's shared solve is its solo solve.
        let (t, pool) = hx4x4();
        for app in small_mix() {
            let res = run(&t, &pool, &[app], &quiet());
            let a = &res.apps[0];
            assert!(
                (a.interfered - a.standalone).abs() < 1e-12,
                "{}: {} vs {}",
                a.name,
                a.interfered,
                a.standalone
            );
        }
    }

    #[test]
    fn interleaved_apps_share_cables_and_dilate() {
        // Even nodes to the first app, odd nodes to the second: both span
        // every switch, so their exchanges meet on the same cables.
        let (t, pool) = hx4x4();
        let (even, odd): (Vec<NodeId>, Vec<NodeId>) = pool.iter().partition(|n| n.0 % 2 == 0);
        let interleaved: Vec<NodeId> = even.into_iter().chain(odd).collect();
        let apps = || -> Vec<AppSlot> {
            vec![
                AppSlot {
                    workload: Box::new(Mupp {
                        iters: 1_000_000,
                        bytes: 4096,
                    }),
                    nodes: 16,
                },
                AppSlot {
                    workload: Box::new(Mupp {
                        iters: 1_000_000,
                        bytes: 4096,
                    }),
                    nodes: 16,
                },
            ]
        };
        let res = run(&t, &interleaved, &apps(), &quiet());
        for a in &res.apps {
            assert!(a.interfered >= a.standalone, "{} sped up", a.name);
        }
        assert!(
            res.apps.iter().any(|a| a.interfered > a.standalone * 1.001),
            "no app dilated: {:?}",
            res.apps
        );
    }

    #[test]
    fn allocation_blocks_are_disjoint_slices() {
        // Each app receives a consecutive slice of the pool order.
        let (t, mut pool) = hx4x4();
        pool.reverse(); // custom ordering
        let res = run(&t, &pool, &small_mix(), &CapacityConfig::default());
        let total: usize = res.apps.iter().map(|a| a.nodes).sum();
        assert_eq!(total, 24);
    }

    #[test]
    #[should_panic]
    fn oversubscribed_pool_rejected() {
        let t = HyperXConfig::new(vec![2, 2], 1).build();
        let pool: Vec<NodeId> = t.nodes().collect();
        run(&t, &pool, &small_mix(), &CapacityConfig::default());
    }
}
