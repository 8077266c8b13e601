//! Capacity-run scheduler and interference model.

use hxload::imb::{Emdl, Mupp};
use hxload::proxy::{Amg, CoMd, Ffvc, Milc, MiniFe, Mvmc, NtChem, Qball, Swfft};
use hxload::workload::Workload;
use hxload::x500::{Graph500, Hpcg, Hpl};
use hxmpi::rounds::estimate_detailed;
use hxmpi::{Fabric, Placement, Pml};
use hxroute::Routes;
use hxsim::flow::directed_capacities;
use hxsim::{NetParams, NoiseModel};
use hxtopo::{NodeId, Topology};

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
    /// Burst-collision amplification: applications communicate in bursts,
    /// so the slowdown seen on a shared cable exceeds the *average*
    /// background utilization. Dilation = `1 + burst_factor x background`.
    /// Calibrated against the paper's Figure-7 MuPP sensitivity to the
    /// clustered allocation.
    pub burst_factor: f64,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig {
            duration: 3.0 * 3600.0,
            restart: 8.0,
            noise: NoiseModel::default(),
            burst_factor: 6.0,
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
/// slices consecutive blocks off it for each application.
pub fn run_capacity(
    topo: &Topology,
    routes: &Routes,
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
    let caps = directed_capacities(topo);

    // Pass 1: standalone evaluation + per-cable average rates.
    struct Eval {
        setup: f64,
        iters: f64,
        compute: f64,
        comm: f64,
        links: Vec<(usize, f64)>, // (dirlink index, bytes per iteration)
    }
    let mut evals = Vec::with_capacity(apps.len());
    let mut rate = vec![0.0f64; caps.len()];
    let mut offset = 0usize;
    for slot in apps {
        let nodes = pool_order[offset..offset + slot.nodes].to_vec();
        offset += slot.nodes;
        let fabric = Fabric::new(
            topo,
            routes,
            Placement::explicit(nodes, "capacity"),
            pml.clone(),
            params,
        )
        .expect("routable fabric");
        let sk = slot.workload.skeleton(slot.nodes);
        let detail = estimate_detailed(&fabric, &sk.iter);
        let standalone = sk.setup + sk.iters * detail.total;
        let links: Vec<(usize, f64)> = detail
            .link_bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0.0)
            .map(|(i, &b)| (i, b))
            .collect();
        // Average byte rate this app imposes on each cable while running.
        for &(i, b) in &links {
            rate[i] += b * sk.iters / standalone.max(1e-9);
        }
        evals.push(Eval {
            setup: sk.setup,
            iters: sk.iters,
            compute: detail.compute,
            comm: detail.comm(),
            links,
        });
    }

    // Pass 2: dilation per app = 1 + the worst *background* busy fraction
    // (other applications' average byte rate over capacity) among its own
    // cables — bursts from co-running jobs stretch the communication phases
    // of everyone sharing the cable.
    let mut results = Vec::with_capacity(apps.len());
    for (slot, ev) in apps.iter().zip(&evals) {
        let standalone = ev.setup + ev.iters * (ev.compute + ev.comm);
        let mut background: f64 = 0.0;
        for &(i, b) in &ev.links {
            let own = b * ev.iters / standalone.max(1e-9);
            background = background.max((rate[i] - own).max(0.0) / caps[i]);
        }
        let dilation = 1.0 + cfg.burst_factor * background;
        let interfered = ev.setup + ev.iters * (ev.compute + ev.comm * dilation);

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
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = Dfsssp::default().route(&t).unwrap();
        let pool: Vec<NodeId> = t.nodes().collect();
        let res = run_capacity(
            &t,
            &r,
            Pml::Ob1,
            NetParams::qdr(),
            &pool,
            &small_mix(),
            &CapacityConfig::default(),
        );
        assert_eq!(res.apps.len(), 3);
        for a in &res.apps {
            assert!(a.runs > 0, "{} completed no runs", a.name);
            assert!(a.interfered >= a.standalone * 0.999, "{}", a.name);
        }
        assert!(res.total_runs() >= 3);
    }

    #[test]
    fn interference_only_slows_down() {
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = Dfsssp::default().route(&t).unwrap();
        let pool: Vec<NodeId> = t.nodes().collect();
        let cfg = CapacityConfig {
            noise: NoiseModel::none(),
            ..CapacityConfig::default()
        };
        let res = run_capacity(
            &t,
            &r,
            Pml::Ob1,
            NetParams::qdr(),
            &pool,
            &small_mix(),
            &cfg,
        );
        // Solo run of the same first app: more runs than under interference
        // (or equal if links never overlap).
        let solo = run_capacity(
            &t,
            &r,
            Pml::Ob1,
            NetParams::qdr(),
            &pool,
            &small_mix()[..1],
            &cfg,
        );
        assert!(solo.apps[0].runs >= res.apps[0].runs);
    }

    #[test]
    fn deterministic() {
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = Dfsssp::default().route(&t).unwrap();
        let pool: Vec<NodeId> = t.nodes().collect();
        let cfg = CapacityConfig::default();
        let a = run_capacity(
            &t,
            &r,
            Pml::Ob1,
            NetParams::qdr(),
            &pool,
            &small_mix(),
            &cfg,
        );
        let b = run_capacity(
            &t,
            &r,
            Pml::Ob1,
            NetParams::qdr(),
            &pool,
            &small_mix(),
            &cfg,
        );
        let ra: Vec<u32> = a.apps.iter().map(|x| x.runs).collect();
        let rb: Vec<u32> = b.apps.iter().map(|x| x.runs).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn burst_factor_zero_disables_interference() {
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = Dfsssp::default().route(&t).unwrap();
        let pool: Vec<NodeId> = t.nodes().collect();
        let cfg = CapacityConfig {
            noise: NoiseModel::none(),
            burst_factor: 0.0,
            ..CapacityConfig::default()
        };
        let res = run_capacity(
            &t,
            &r,
            Pml::Ob1,
            NetParams::qdr(),
            &pool,
            &small_mix(),
            &cfg,
        );
        for a in &res.apps {
            assert!(
                (a.interfered - a.standalone).abs() < a.standalone * 1e-9,
                "{}: {} vs {}",
                a.name,
                a.interfered,
                a.standalone
            );
        }
    }

    #[test]
    fn higher_burst_factor_never_speeds_apps_up() {
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = Dfsssp::default().route(&t).unwrap();
        let pool: Vec<NodeId> = t.nodes().collect();
        let mk = |bf: f64| CapacityConfig {
            noise: NoiseModel::none(),
            burst_factor: bf,
            ..CapacityConfig::default()
        };
        let low = run_capacity(
            &t,
            &r,
            Pml::Ob1,
            NetParams::qdr(),
            &pool,
            &small_mix(),
            &mk(1.0),
        );
        let high = run_capacity(
            &t,
            &r,
            Pml::Ob1,
            NetParams::qdr(),
            &pool,
            &small_mix(),
            &mk(20.0),
        );
        for (a, b) in low.apps.iter().zip(&high.apps) {
            assert!(b.interfered >= a.interfered * 0.999, "{}", a.name);
            assert!(b.runs <= a.runs + 1, "{}", a.name);
        }
    }

    #[test]
    fn allocation_blocks_are_disjoint_slices() {
        // Each app receives a consecutive slice of the pool order.
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = Dfsssp::default().route(&t).unwrap();
        let mut pool: Vec<NodeId> = t.nodes().collect();
        pool.reverse(); // custom ordering
        let res = run_capacity(
            &t,
            &r,
            Pml::Ob1,
            NetParams::qdr(),
            &pool,
            &small_mix(),
            &CapacityConfig::default(),
        );
        let total: usize = res.apps.iter().map(|a| a.nodes).sum();
        assert_eq!(total, 24);
    }

    #[test]
    #[should_panic]
    fn oversubscribed_pool_rejected() {
        let t = HyperXConfig::new(vec![2, 2], 1).build();
        let r = Dfsssp::default().route(&t).unwrap();
        let pool: Vec<NodeId> = t.nodes().collect();
        run_capacity(
            &t,
            &r,
            Pml::Ob1,
            NetParams::qdr(),
            &pool,
            &small_mix(),
            &CapacityConfig::default(),
        );
    }
}
