//! Routing-engine tournament: every registered engine races through the
//! same seeded fault-churn campaign on one HyperX plane, at one or more
//! fault rates.
//!
//! Each entrant sweeps the plane, runs the identical closed-loop workload
//! (same seed, same flow stream) through the identical MTBF/MTTR churn
//! schedule, and is scored on what operators actually feel: the
//! completion rate under churn relative to its own healthy baseline, and
//! the p99 tail of flow completion time. The repair column shows how the
//! subnet manager healed each engine's faults — engines exposing
//! `IncrementalRepair` (FT-HyperX) patch with their own rule, the rest
//! ride the generic load-aware patch or a full resweep.
//!
//! Messaging adapts to the engine: FatPaths races under the flow-hashing
//! PML (one routing layer per LID offset), PARX under its Table-1 bfo
//! PML, everything else under plain ob1.
//!
//! `T2HX_ENGINE=<name>` restricts the field to one entrant;
//! `T2HX_QUICK=1` shrinks the plane and the campaign for CI smoke runs.

use hxcore::{run_campaign, CampaignConfig};
use hxmpi::Pml;
use hxroute::{engine_by_name, ENGINE_NAMES};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::Topology;

/// Plane and campaign scale, shrunk under `T2HX_QUICK=1`.
fn scale() -> (Topology, Vec<f64>, CampaignConfig) {
    let quick = hxbench::quick();
    let topo = if quick {
        HyperXConfig::new(vec![6, 4], 2).build()
    } else {
        HyperXConfig::t2_hyperx(672).build()
    };
    let mtbfs = if quick {
        vec![0.004]
    } else {
        vec![0.008, 0.004, 0.002]
    };
    let cfg = CampaignConfig {
        seed: 0x7258,
        mtbf: 0.004, // overwritten per round
        mttr: 0.008,
        duration: if quick { 0.06 } else { 0.25 },
        flows: if quick { 12 } else { 48 },
        bytes: 4 << 20,
        max_down: if quick { 4 } else { 12 },
        solver: hxbench::knobs::config().solver,
        ..CampaignConfig::default()
    };
    (topo, mtbfs, cfg)
}

/// The field: every registry engine, or just `$T2HX_ENGINE` when set.
fn entrants() -> Vec<&'static str> {
    match hxbench::knobs::config().engine {
        Some(name) => vec![name],
        None => ENGINE_NAMES.to_vec(),
    }
}

/// The messaging layer an entrant races under.
fn pml_for(name: &str, multipath: bool) -> Pml {
    match name {
        "parx" => Pml::parx(),
        _ if multipath => Pml::FlowHash,
        _ => Pml::Ob1,
    }
}

fn main() {
    let _obs = hxbench::obs_scope("routing_tournament");
    let (topo, mtbfs, base) = scale();
    let field = entrants();
    println!(
        "# Routing tournament: {} nodes, {} flows, {:.0} ms campaign, mttr {:.0} ms, \
         {} engines x {} fault rates ({} solver, seed {:#x})\n",
        topo.num_nodes(),
        base.flows,
        base.duration * 1e3,
        base.mttr * 1e3,
        field.len(),
        mtbfs.len(),
        base.solver.label(),
        base.seed,
    );
    println!(
        "{:<10} {:>8} {:>9} {:>7} {:>7} {:>8} {:>8} {:>10} {:>10} {:>6} {:>16}",
        "engine",
        "mtbf_ms",
        "pml",
        "compl",
        "drop",
        "latH_us",
        "latF_us",
        "p99H_us",
        "p99F_us",
        "incr",
        "fingerprint"
    );
    for &name in &field {
        for &mtbf in &mtbfs {
            let engine_for = |_: usize| engine_by_name(name).expect("registry names resolve");
            let multipath = engine_for(0).multipath().is_some();
            let cfg = CampaignConfig {
                mtbf,
                mttr: 2.0 * mtbf,
                pml: pml_for(name, multipath),
                ..base.clone()
            };
            let r = match run_campaign(&topo, engine_for, &cfg) {
                Ok(r) => r,
                Err(e) => {
                    println!(
                        "{:<10} {:>8.1} {:>9} did not finish: {e}",
                        name,
                        mtbf * 1e3,
                        cfg.pml.name()
                    );
                    continue;
                }
            };
            let p99 = |t: Option<[f64; 4]>| t.map(|q| q[2]).unwrap_or(f64::NAN);
            println!(
                "{:<10} {:>8.1} {:>9} {:>6.1}% {:>6.1}% {:>8.1} {:>8.1} {:>10.1} {:>10.1} {:>5.0}% {:016x}",
                name,
                mtbf * 1e3,
                cfg.pml.name(),
                100.0 * r.faulted_completions as f64 / r.healthy_completions.max(1) as f64,
                100.0 * r.throughput_drop(),
                r.healthy_latency * 1e6,
                r.faulted_latency * 1e6,
                p99(r.healthy_tail),
                p99(r.faulted_tail),
                100.0 * r.incremental_events as f64 / r.events().max(1) as f64,
                r.fingerprint(),
            );
        }
    }
    println!("\ncompl: flows completed under churn vs the engine's healthy baseline;");
    println!("latH/latF: mean flow completion time healthy/faulted; p99H/p99F: the");
    println!("p99 tail from the campaign-local log2 sketch (bucket-quantized); incr:");
    println!("fault events absorbed without a full resweep. Same seed, workload and");
    println!("fault schedule for every entrant; fingerprints are byte-stable per seed.");
}
