//! capacity_scale — the day-scale allocation stream: a placement-policy
//! tournament over simulated days of Poisson job traffic.
//!
//! The paper's capacity study (Section 5.3) freezes one allocation and
//! runs a fixed 14-app mix for three hours. This harness asks the question
//! the operators face *after* acceptance: over days of arrivals and
//! departures, which placement policy keeps the machine full without
//! letting jobs grind each other down? Each `(policy, seed)` cell runs a
//! seeded stream — exponential inter-arrivals, lognormal service times,
//! FIFO start order — through [`hxcore::run_capacity_scale`] and
//! reports:
//!
//! * **utilization** — busy node-seconds over offered node-seconds,
//! * **queue wait** — mean and worst seconds from arrival to start,
//! * **fragmentation** — mean free-pool fragmentation index at placement,
//! * **interference** — worst solver-backed job slowdown across periodic
//!   checkpoints (max-min rates on shared cables, DESIGN.md §15),
//! * **fingerprint** — an FNV-1a digest of the full placement history,
//!   byte-stable per `(plane, policy, seed, config)`; CI diffs it across
//!   back-to-back runs.
//!
//! A second section replays one seed on a two-rail system (two identical
//! planes, jobs landing on the most-free rail) — the multi-plane shape of
//! DESIGN.md §12 under capacity traffic.
//!
//! Knobs: `T2HX_CAP_POLICY` (name filter: `contiguous`, `scattered`,
//! `network-aware`; default all three), `T2HX_CAP_SEEDS` (seeds per
//! policy; default 2 quick / 3 full), `T2HX_CAP_DAYS` (horizon override),
//! `T2HX_CAP_SEED` (base seed, default `0xCA9`), plus the usual
//! `T2HX_QUICK` / `T2HX_OBS`.

use hxbench::knobs;
use hxcap::{PolicyKind, POLICY_KINDS};
use hxcore::{run_capacity_scale, ScaleConfig, ScaleReport, System};
use hxroute::engines::{Dfsssp, RoutingEngine};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::FaultPlan;
use std::sync::Arc;
use std::time::Instant;

/// The streamed plane: the paper's degraded 12x8 T=7 HyperX in full mode,
/// a 6x4 T=2 miniature under `T2HX_QUICK=1` — same shapes as hxd.
fn plane_system(knobs: &knobs::RunConfig, rails: usize) -> (System, &'static str) {
    let (topo, label) = if knobs.quick {
        (HyperXConfig::new(vec![6, 4], 2).build(), "hx-6x4-t2")
    } else {
        let mut topo = HyperXConfig::t2_hyperx(672).build();
        FaultPlan::t2_hyperx().apply(&mut topo);
        (topo, "hx-12x8-t7+15aoc")
    };
    let topo = Arc::new(topo);
    let planes = (0..rails).map(|_| {
        (
            topo.clone(),
            Box::new(Dfsssp::default()) as Box<dyn RoutingEngine>,
        )
    });
    (System::route(planes).expect("capacity plane routes"), label)
}

fn row(r: &ScaleReport, secs: f64) {
    println!(
        "{:<14} {:>6} {:>6} {:>7.1}% {:>9.0} {:>9.0} {:>6.3} {:>7.3} {:016x}  ({:.1}s)",
        r.policy.name(),
        r.seed,
        r.jobs_finished,
        100.0 * r.utilization,
        r.mean_wait_s,
        r.max_wait_s,
        r.mean_fragmentation,
        r.max_slowdown,
        r.fingerprint,
        secs,
    );
}

fn header() {
    println!(
        "{:<14} {:>6} {:>6} {:>8} {:>9} {:>9} {:>6} {:>7} {:<16}",
        "policy", "seed", "jobs", "util", "wait_s", "max_w_s", "frag", "slowdn", "fingerprint"
    );
}

fn main() {
    let _obs = hxbench::obs_scope("capacity_scale");
    let knobs = knobs::config();
    let seeds = knobs.cap_seeds.unwrap_or(if knobs.quick { 2 } else { 3 });
    let base_seed = knobs.cap_seed.unwrap_or(0xCA9);
    let mut cfg = if knobs.quick {
        ScaleConfig::quick()
    } else {
        ScaleConfig::full()
    };
    if let Some(days) = knobs.cap_days {
        cfg.days = days;
    }
    let policies: Vec<PolicyKind> = match knobs.cap_policy {
        Some(policy) => vec![policy],
        None => POLICY_KINDS.to_vec(),
    };

    let (sys, label) = plane_system(knobs, 1);
    println!(
        "# capacity_scale: {label} ({} nodes), {:.2} simulated days, \
         {:.0} jobs/h of {}..{} ranks (median {:.0}s service), {} seeds\n",
        sys.num_nodes(),
        cfg.days,
        cfg.jobs_per_hour,
        cfg.min_ranks,
        cfg.max_ranks,
        cfg.service_median_s,
        seeds,
    );
    header();
    for &policy in &policies {
        for s in 0..seeds {
            let t0 = Instant::now();
            let r = run_capacity_scale(&sys, policy, &cfg, base_seed + s);
            row(&r, t0.elapsed().as_secs_f64());
        }
    }

    // The two-rail section: same offered stream, twice the planes. Jobs
    // land on the most-free rail, so waits shrink and interference
    // spreads across rails.
    let (multi, _) = plane_system(knobs, 2);
    println!(
        "\n# two-rail system ({} planes x {} nodes):\n",
        2,
        sys.num_nodes()
    );
    header();
    for &policy in &policies {
        let t0 = Instant::now();
        let r = run_capacity_scale(&multi, policy, &cfg, base_seed);
        row(&r, t0.elapsed().as_secs_f64());
    }

    println!(
        "\nfingerprints are byte-stable per (plane, policy, seed, config); \
         wait/frag/slowdown tails land in the cap.* sketches under T2HX_OBS=1."
    );
}
