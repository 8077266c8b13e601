//! Fault-churn campaign — sustained operation under cable failure AND
//! repair, the dynamic extension of the `fault_resilience` snapshot study.
//!
//! A seeded MTBF/MTTR process kills and recovers non-terminal cables while
//! a closed-loop random-pair workload runs. Every event goes through the
//! subnet manager's incremental fail/recover patch, the fresh path-store
//! epoch is installed into the live fabric, and in-flight flows are
//! re-pathed in place. Reported per engine: throughput and latency under
//! churn vs. the healthy baseline, the share of events absorbed
//! incrementally, and the mean wall-clock reroute cost.
//!
//! Campaigns are byte-deterministic per seed — the fingerprint column is
//! identical across both congestion backends (pinned by `campaign_pin`).
//!
//! `T2HX_QUICK=1` shrinks the planes (168 nodes) and the campaign length
//! for CI smoke runs. `T2HX_ENGINE` swaps the HyperX row's routing engine
//! (default DFSSSP); the Fat-Tree rows keep their topology-native engines.

use hxbench::knobs;
use hxcore::{run_campaign, CampaignConfig};
use hxroute::engines::{Dfsssp, Ftree, RoutingEngine, Sssp};
use hxroute::Demand;
use hxtopo::fattree::FatTreeConfig;
use hxtopo::hyperx::HyperXConfig;
use hxtopo::NodeId;

/// Plane size and campaign parameters, shrunk under `T2HX_QUICK=1`.
fn scale() -> (usize, CampaignConfig) {
    let quick = hxbench::quick();
    let cfg = CampaignConfig {
        seed: 0x7258,
        mtbf: if quick { 0.004 } else { 0.002 },
        mttr: if quick { 0.008 } else { 0.004 },
        duration: if quick { 0.06 } else { 0.25 },
        flows: if quick { 12 } else { 48 },
        bytes: 4 << 20,
        max_down: if quick { 4 } else { 12 },
        ..CampaignConfig::default()
    };
    (if quick { 168 } else { 672 }, cfg)
}

/// The recorded communication profile the SAR trigger feeds the engine: a
/// deterministic neighbor-ring (every node talks to its +1 and +7
/// successors, nearest-neighbor traffic dominant). PARX ingests it;
/// engines without a demand-aware variant log the fallback and run the
/// plain sweep — same fingerprint either way for non-demand engines.
fn ring_demand(n: usize) -> Demand {
    let mut d = Demand::new(n);
    for i in 0..n {
        let src = NodeId(i as u32);
        d.add(src, NodeId(((i + 1) % n) as u32), 8 << 20);
        d.add(src, NodeId(((i + 7) % n) as u32), 1 << 20);
    }
    d
}

fn study(name: &str, topo: hxtopo::Topology, engine_for: impl Fn(usize) -> Box<dyn RoutingEngine>) {
    let (_, mut cfg) = scale();
    cfg.demand = Some(ring_demand(topo.num_nodes()));
    let r = run_campaign(&topo, engine_for, &cfg).expect("campaign");
    println!(
        "{name:<16} {:>7.2} {:>7.2} {:>6.1}% {:>8.1} {:>8.1} {:>4} {:>4} {:>5.1}% {:>8.1} {:016x}",
        r.healthy_throughput / 1e9,
        r.faulted_throughput / 1e9,
        100.0 * r.throughput_drop(),
        r.healthy_latency * 1e6,
        r.faulted_latency * 1e6,
        r.failures[0],
        r.recoveries[0],
        100.0 * r.incremental_events as f64 / r.events().max(1) as f64,
        r.reroute_ns as f64 / 1e3 / r.events().max(1) as f64,
        r.fingerprint(),
    );
}

fn main() {
    let _obs = hxbench::obs_scope("fault_campaign");
    let (total, cfg) = scale();
    println!(
        "# Fault-churn campaign: {} nodes, {} flows, mtbf {:.0} ms, mttr {:.0} ms, {:.0} ms (seed {:#x})\n",
        total,
        cfg.flows,
        cfg.mtbf * 1e3,
        cfg.mttr * 1e3,
        cfg.duration * 1e3,
        cfg.seed,
    );
    println!(
        "{:<16} {:>7} {:>7} {:>7} {:>8} {:>8} {:>4} {:>4} {:>6} {:>8} {:>16}",
        "engine",
        "tpH",
        "tpF",
        "drop",
        "latH_us",
        "latF_us",
        "fail",
        "recv",
        "incr",
        "rr_us",
        "fingerprint"
    );
    study("Fat-Tree ftree", FatTreeConfig::tsubame2(total), |_| {
        Box::new(Ftree)
    });
    study("Fat-Tree SSSP", FatTreeConfig::tsubame2(total), |_| {
        Box::new(Sssp::default())
    });
    let hx_engine = |_: usize| knobs::config().engine_or(|| Box::new(Dfsssp::default()));
    study(
        &format!("HyperX {}", hx_engine(0).name().to_uppercase()),
        HyperXConfig::t2_hyperx(total).build(),
        hx_engine,
    );
    println!("\ntpH/tpF: healthy/faulted throughput [GB/s]; incr: events patched in");
    println!("place; rr_us: mean wall-clock reroute cost per event; fingerprint is");
    println!("byte-stable per seed across congestion backends.");
}
