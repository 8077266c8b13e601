//! # hxbench — reproduction harnesses and Criterion benchmarks
//!
//! One binary per table/figure of the paper, plus study harnesses. The
//! authoritative list is [`HARNESSES`] (what `run_all` executes, what
//! `run_all --list` prints, and what README.md's harness table must
//! mirror — pinned by `tests/registry_sync.rs`). See DESIGN.md §4 for the
//! figure index. End-to-end performance is measured by the separate
//! `t2hx_bench` package (DESIGN.md §10).
//!
//! Every `T2HX_*` environment knob is parsed once, in [`knobs`]; the
//! helpers below read the parsed [`knobs::config`].

pub mod knobs;

use hxcore::T2hx;
use knobs::RunConfig;

/// One runnable harness binary: its name (also the cargo `--bin` name)
/// and a one-line description of what it reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Harness {
    /// Binary name under `crates/bench/src/bin/`.
    pub name: &'static str,
    /// What the harness reproduces or measures.
    pub about: &'static str,
}

/// Every harness `run_all` drives, in execution order.
pub const HARNESSES: &[Harness] = &[
    Harness {
        name: "fig01_mpigraph",
        about: "Figure 1 — 28-node mpiGraph bandwidth heatmaps",
    },
    Harness {
        name: "fig02_topologies",
        about: "Figure 2 — topology structure validation",
    },
    Harness {
        name: "tab01_quadrants",
        about: "Table 1 + Figure 3 — PARX LID selection audit",
    },
    Harness {
        name: "tab02_benchmarks",
        about: "Table 2 — benchmark roster",
    },
    Harness {
        name: "fig04_imb_collectives",
        about: "Figure 4 — IMB relative-gain grids",
    },
    Harness {
        name: "fig05a_deepbench",
        about: "Figure 5a — Baidu ring-allreduce grid",
    },
    Harness {
        name: "fig05b_barrier",
        about: "Figure 5b — Barrier whiskers",
    },
    Harness {
        name: "fig05c_ebb",
        about: "Figure 5c — effective bisection bandwidth",
    },
    Harness {
        name: "fig06_proxy_apps",
        about: "Figure 6a–i — proxy-app whiskers",
    },
    Harness {
        name: "fig06_x500",
        about: "Figure 6j–l — HPL/HPCG/Graph500",
    },
    Harness {
        name: "fig07_capacity",
        about: "Figure 7 — capacity throughput",
    },
    Harness {
        name: "ablation_parx",
        about: "DESIGN.md §3 ablations (threshold, demand, +1/+w)",
    },
    Harness {
        name: "parx_pipeline",
        about: "PARX quadrant pipeline walkthrough",
    },
    Harness {
        name: "dark_fiber",
        about: "dark-fiber what-if study (healing the 15 missing AOCs)",
    },
    Harness {
        name: "cost_study",
        about: "Section 2.3 cost model — HyperX vs Fat-Tree parts",
    },
    Harness {
        name: "fault_resilience",
        about: "fault-sweep resilience study (link kills vs eBB)",
    },
    Harness {
        name: "fault_campaign",
        about: "seeded MTBF/MTTR fault-churn campaign",
    },
    Harness {
        name: "multiplane_campaign",
        about: "K-plane churn campaign with NIC rail failover",
    },
    Harness {
        name: "routing_tournament",
        about: "routing-engine tournament under seeded fault churn",
    },
    Harness {
        name: "hxd",
        about: "resident what-if query service over epoch snapshots",
    },
    Harness {
        name: "capacity_scale",
        about: "day-scale allocation stream: placement-policy tournament",
    },
];

/// Whether quick (CI-sized) mode is requested (`T2HX_QUICK=1`).
pub fn quick() -> bool {
    knobs::config().quick
}

/// Observability scope for a harness binary: when `T2HX_OBS=1`, installs
/// the global [`hxobs`] sink and flight ring on creation and exports
/// `<obs_dir>/<name>.metrics.jsonl` + `<obs_dir>/<name>.trace.json` on
/// drop, where `<obs_dir>` is [`RunConfig::obs_dir`]. The flight ring is
/// dumped to `<obs_dir>/flightdump.json` alongside them. When
/// observability is off this is a no-op.
///
/// First line of every harness `main` — it also parses the knobs, so a
/// refused environment exits before any work:
///
/// ```no_run
/// let _obs = hxbench::obs_scope("fig05b_barrier");
/// // ... harness body ...
/// ```
pub struct ObsScope(String);

/// Creates an [`ObsScope`] named after the harness. Each scope is
/// hermetic: [`hxobs::init`] swaps in a fresh sink and flight ring, so
/// per-harness `metrics.jsonl` exports never bleed counters across
/// scopes.
pub fn obs_scope(name: &str) -> ObsScope {
    let cfg = knobs::config();
    if cfg.obs {
        hxobs::init(&cfg.obs_dir());
    }
    ObsScope(name.to_string())
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        if let Some((m, t)) = hxobs::finalize(&self.0, &knobs::config().obs_dir()) {
            eprintln!("# obs: wrote {} and {}", m.display(), t.display());
        }
    }
}

/// eBB sample count: `T2HX_SAMPLES`, else 50 quick / 1000 full (paper:
/// 1000).
pub fn ebb_samples() -> usize {
    let cfg = knobs::config();
    cfg.samples.unwrap_or(if cfg.quick { 50 } else { 1000 })
}

/// Builds the full 672-node dual-plane system with the paper's faults, on
/// the configured congestion solver.
pub fn build_full() -> T2hx {
    let t0 = std::time::Instant::now();
    let sys = build_t2hx(672, knobs::config());
    eprintln!(
        "# built dual-plane system in {:.1?}: FT {} switches / HX {} switches; \
         DFSSSP {} VLs, PARX {} VLs",
        t0.elapsed(),
        sys.fattree().num_switches(),
        sys.hyperx().num_switches(),
        sys.hx_dfsssp().num_vls,
        sys.hx_parx().num_vls,
    );
    sys
}

fn build_t2hx(nodes: usize, cfg: &RunConfig) -> T2hx {
    T2hx::build(nodes, true)
        .expect("system routes")
        .with_solver(cfg.solver)
}

/// The capability node series for seven-based benchmarks, shrunk in quick
/// mode.
pub fn series7() -> Vec<usize> {
    if quick() {
        vec![7, 28, 112]
    } else {
        vec![7, 14, 28, 56, 112, 224, 448, 672]
    }
}

/// The power-of-two capability series.
pub fn series_pow2() -> Vec<usize> {
    if quick() {
        vec![4, 16, 64]
    } else {
        vec![4, 8, 16, 32, 64, 128, 256, 512]
    }
}

/// IMB message sizes, thinned in quick mode.
pub fn thin_sizes(sizes: Vec<u64>) -> Vec<u64> {
    if quick() {
        sizes.into_iter().step_by(4).collect()
    } else {
        sizes
    }
}

#[cfg(test)]
mod tests {
    use hxsim::SolverKind;

    #[test]
    fn configured_solver_reaches_the_system() {
        // The library default is incremental, so exact proves the plumbing.
        let cfg = super::knobs::parse([("T2HX_SOLVER", "exact")]).unwrap();
        assert_eq!(
            super::build_t2hx(168, &cfg).params().solver,
            SolverKind::Exact
        );
    }
}
