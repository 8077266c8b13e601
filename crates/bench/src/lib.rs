//! # hxbench — reproduction harnesses, Criterion benchmarks and hxperf
//!
//! One binary per table/figure of the paper, plus study harnesses and the
//! [`perf`] benchmark-trajectory driver. The authoritative list is
//! [`HARNESSES`] (what `run_all` executes, what `run_all --list` prints,
//! and what README.md's harness table must mirror — pinned by
//! `tests/registry_sync.rs`). See DESIGN.md §4 for the figure index and
//! DESIGN.md §10 for hxperf.
//!
//! Environment knobs: `T2HX_QUICK=1` shrinks sweeps for smoke runs;
//! `T2HX_SAMPLES=n` overrides the eBB sample count; see README.md for the
//! consolidated `T2HX_*` table.

pub mod perf;

use hxcore::T2hx;
use hxroute::engines::RoutingEngine;

/// One runnable harness binary: its name (also the cargo `--bin` name)
/// and a one-line description of what it reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Harness {
    /// Binary name under `crates/bench/src/bin/`.
    pub name: &'static str,
    /// What the harness reproduces or measures.
    pub about: &'static str,
}

/// Every harness `run_all` drives, in execution order. `hxperf` runs last
/// so its trajectory point reflects the same build as the figures.
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
    Harness {
        name: "hxperf",
        about: "benchmark-trajectory point + perf-regression gate",
    },
];

/// Whether quick (CI-sized) mode is requested.
pub fn quick() -> bool {
    std::env::var("T2HX_QUICK").is_ok_and(|v| v != "0")
}

/// Observability scope for a harness binary: when `T2HX_OBS=1`, installs
/// the global [`hxobs`] sink on creation and exports
/// `<obs_dir>/<name>.metrics.jsonl` + `<obs_dir>/<name>.trace.json` on
/// drop, where `<obs_dir>` honours `T2HX_OBS_DIR` /
/// `T2HX_RESULTS_DIR` / `T2HX_QUICK` (see [`hxobs::out_dir`]). The flight
/// ring, when armed, is dumped to `<obs_dir>/flightdump.json` alongside
/// them. When observability is off this is a no-op.
///
/// First line of every harness `main`:
///
/// ```no_run
/// let _obs = hxbench::obs_scope("fig05b_barrier");
/// // ... harness body ...
/// ```
pub struct ObsScope(String);

/// Creates an [`ObsScope`] named after the harness. Each scope is
/// hermetic: when a previous scope in the same process left a sink
/// installed (a panicking harness skips its finalize), the registry,
/// tracer, sketches and flight ring are all swapped fresh via
/// [`hxobs::reset`], so per-harness `metrics.jsonl` exports never bleed
/// counters across scopes.
pub fn obs_scope(name: &str) -> ObsScope {
    if hxobs::enabled() {
        hxobs::reset();
    } else {
        hxobs::init_from_env();
    }
    ObsScope(name.to_string())
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        if let Some((m, t)) = hxobs::finalize(&self.0) {
            eprintln!("# obs: wrote {} and {}", m.display(), t.display());
        }
    }
}

/// Number of planes requested via `$T2HX_PLANES`, falling back to
/// `default` when unset or unparsable. Clamped to at least 1.
pub fn planes_from_env(default: usize) -> usize {
    std::env::var("T2HX_PLANES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default)
        .max(1)
}

/// Resolves the campaign routing engine from `$T2HX_ENGINE` (see
/// [`hxroute::engines::engine_from_env`]), falling back to `default` when
/// the variable is unset. Harness binaries use this so one environment
/// knob swaps the engine under every campaign, mirroring `$T2HX_SOLVER`.
///
/// # Panics
///
/// Panics when `$T2HX_ENGINE` names an unknown engine — a misspelled
/// selection must not silently run the default.
pub fn engine_from_env_or(
    default: impl FnOnce() -> Box<dyn RoutingEngine>,
) -> Box<dyn RoutingEngine> {
    match std::env::var("T2HX_ENGINE") {
        Ok(name) => hxroute::engine_by_name(&name).unwrap_or_else(|| {
            panic!(
                "unknown T2HX_ENGINE {name:?} (known: {:?})",
                hxroute::ENGINE_NAMES
            )
        }),
        Err(_) => default(),
    }
}

/// eBB sample count (paper: 1000).
pub fn ebb_samples() -> usize {
    std::env::var("T2HX_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick() { 50 } else { 1000 })
}

/// Builds the full 672-node dual-plane system with the paper's faults.
pub fn build_full() -> T2hx {
    let t0 = std::time::Instant::now();
    let sys = T2hx::build(672, true).expect("system routes");
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
    #[test]
    fn series_shapes() {
        // Full-mode series match the paper's figures.
        std::env::remove_var("T2HX_QUICK");
        assert_eq!(super::series7().last(), Some(&672));
        assert_eq!(super::series_pow2().last(), Some(&512));
    }

    #[test]
    fn env_plane_count_defaults() {
        // T2HX_PLANES is unset in tests.
        assert_eq!(super::planes_from_env(2), 2);
        assert_eq!(super::planes_from_env(0), 1);
    }
}
