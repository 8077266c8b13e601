//! Multi-plane fault-churn campaign — the K-rail extension of
//! `fault_campaign`: every node has one NIC per plane, a [`RailPolicy`]
//! spreads flows across the rails, and when a cable dies the flows riding
//! it *fail over* to a surviving plane instead of waiting out the in-place
//! patch. Each churn event is plane-tagged, patches exactly one plane's
//! subnet manager, and installs the fresh store into that plane's
//! `PlaneSet` shard — sibling shards' epochs never move.
//!
//! One row per rail policy (rr / hash / load) on the same seeded event
//! stream, so the policies are directly comparable. Campaigns stay
//! byte-deterministic per seed — the fingerprint column is identical
//! across `T2HX_SOLVER=exact|incremental`.
//!
//! Knobs: `T2HX_PLANES` overrides the plane count (default 4, quick 2);
//! `T2HX_ENGINE` swaps the per-plane routing engine (default DFSSSP);
//! `T2HX_QUICK=1` shrinks to a 2-plane 6x4 system for CI smoke runs; the
//! `--force-failover` flag migrates *every* flow on a faulted plane (not
//! just those crossing the dead cable), guaranteeing the failover path
//! runs even in short campaigns.

use hxbench::knobs;
use hxcore::{run_campaign, CampaignConfig};
use hxmpi::RailPolicy;
use hxroute::engines::{Dfsssp, RoutingEngine};
use hxtopo::hyperx::HyperXConfig;

/// Plane size and campaign parameters, shrunk under `T2HX_QUICK=1`.
fn scale() -> (hxtopo::Topology, CampaignConfig) {
    let knobs = knobs::config();
    let quick = knobs.quick;
    let topo = if quick {
        HyperXConfig::new(vec![6, 4], 2).build()
    } else {
        HyperXConfig::t2_hyperx(672).build()
    };
    let cfg = CampaignConfig {
        seed: 0x7258,
        mtbf: if quick { 0.004 } else { 0.002 },
        mttr: if quick { 0.008 } else { 0.004 },
        duration: if quick { 0.06 } else { 0.25 },
        flows: if quick { 12 } else { 48 },
        bytes: 4 << 20,
        max_down: if quick { 4 } else { 12 },
        solver: knobs.solver,
        planes: knobs.planes.unwrap_or(if quick { 2 } else { 4 }),
        force_failover: std::env::args().any(|a| a == "--force-failover"),
        ..CampaignConfig::default()
    };
    (topo, cfg)
}

/// Per-plane engine: `T2HX_ENGINE` overrides the DFSSSP default on every
/// rail (planes are homogeneous copies of the lattice).
fn engine_for(_plane: usize) -> Box<dyn RoutingEngine> {
    knobs::config().engine_or(|| Box::new(Dfsssp::default()))
}

fn study(cfg: &CampaignConfig, topo: &hxtopo::Topology, rail: RailPolicy) {
    let cfg = CampaignConfig {
        rail,
        ..cfg.clone()
    };
    let r = run_campaign(topo, engine_for, &cfg).expect("campaign");
    println!(
        "{:<6} {:>7.2} {:>7.2} {:>6.1}% {:>8.1} {:>4} {:>4} {:>5} {:>4} {:>5} {}  {:016x}",
        r.rail,
        r.healthy_throughput / 1e9,
        r.faulted_throughput / 1e9,
        100.0 * r.throughput_drop(),
        r.faulted_latency * 1e6,
        r.failures.iter().sum::<u64>(),
        r.recoveries.iter().sum::<u64>(),
        r.failovers,
        r.skipped,
        r.faulted_completions,
        r.final_epochs
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("/"),
        r.fingerprint(),
    );
}

fn main() {
    let _obs = hxbench::obs_scope("multiplane_campaign");
    let (topo, cfg) = scale();
    println!(
        "# Multi-plane campaign: {} planes x {} nodes = {} endpoints, {} flows, \
         mtbf {:.0} ms, mttr {:.0} ms, {:.0} ms ({} solver, seed {:#x}{})\n",
        cfg.planes,
        topo.num_nodes(),
        cfg.planes * topo.num_nodes(),
        cfg.flows,
        cfg.mtbf * 1e3,
        cfg.mttr * 1e3,
        cfg.duration * 1e3,
        cfg.solver.label(),
        cfg.seed,
        if cfg.force_failover {
            ", forced failover"
        } else {
            ""
        },
    );
    println!(
        "{:<6} {:>7} {:>7} {:>7} {:>8} {:>4} {:>4} {:>5} {:>4} {:>5} epochs  fingerprint",
        "rail", "tpH", "tpF", "drop", "latF_us", "fail", "recv", "fovr", "skip", "done",
    );
    // T2HX_RAIL pins the table to one policy; unset sweeps all three.
    let rails = match knobs::config().rail {
        Some(rail) => vec![rail],
        None => RailPolicy::all().to_vec(),
    };
    for rail in rails {
        study(&cfg, &topo, rail);
    }
    println!("\ntpH/tpF: healthy/faulted throughput [GB/s]; fovr: in-flight flows");
    println!("re-resolved onto a surviving rail; epochs: per-plane shard epochs at");
    println!("campaign end; fingerprint is byte-stable per seed across backends.");
}
