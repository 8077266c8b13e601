//! `bringup`: full subnet sweeps of both degraded paper planes with every
//! routing engine, the cost every harness and operator pays first.
//!
//! Unit operation: one round, which sweeps all ten (plane, engine) pairs
//! in a seeded order. A sweep makes the three calls
//! `SubnetManager::sweep` makes (`RoutingEngine::route`, `PathDb::build`,
//! `verify_deadlock_free`), so that each gets its own span in a traced
//! run; untraced, the recorder passes straight through. After the timed
//! phase, a traced run times FatPaths' four `Multipath::route_layer`
//! calls to split its route time into layer routing and virtual-lane
//! assignment.

use crate::harness::{Check, Finish, Harness, Live, Size};
use crate::stats::{percentile, sorted, Fnv};
use crate::trace::Tracer;
use hxobs::Json;
use hxroute::engines::{FatPaths, Multipath};
use hxroute::lid::{LidMap, LidPolicy};
use hxroute::{engine_by_name, verify_deadlock_free, PathDb, RouteError, Routes};
use hxtopo::fattree::FatTreeConfig;
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{FaultPlan, Topology};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// `(plane, engine, verify)`: every HyperX engine of `ENGINE_NAMES` plus
/// the fat-tree's two. Plain SSSP and MinHop make no deadlock-freedom
/// claim on a HyperX, so their sweeps skip the channel-dependency check;
/// the PathDb build still checks loop freedom and reachability.
const PAIRS: [(&str, &str, bool); 10] = [
    ("hx", "parx", true),
    ("hx", "dfsssp", true),
    ("hx", "ft-hyperx", true),
    ("hx", "fatpaths", true),
    ("hx", "sssp", false),
    ("hx", "minhop", false),
    ("hx", "updown", true),
    ("hx", "lash", true),
    ("ft", "ftree", true),
    ("ft", "sssp", true),
];

/// The two planes of a size.
fn planes(size: Size) -> (Topology, Topology) {
    match size {
        Size::Full => {
            let mut hx = HyperXConfig::t2_hyperx(672).build();
            FaultPlan::t2_hyperx().apply(&mut hx);
            let mut ft = FatTreeConfig::tsubame2(672);
            FaultPlan::t2_fattree().apply(&mut ft);
            (hx, ft)
        }
        Size::Mini => (
            HyperXConfig::new(vec![6, 4], 2).build(),
            FatTreeConfig::k_ary_n_tree(4, 2),
        ),
    }
}

/// What one sweep produced, folded into the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SweepOut {
    vls: u8,
    isl_hops: usize,
    pairs: usize,
    max_isl_hops: usize,
    avg_isl_hops: f64,
}

impl SweepOut {
    fn of(routes: &Routes, db: &PathDb) -> SweepOut {
        let st = db.stats();
        SweepOut {
            vls: routes.num_vls,
            isl_hops: db.num_isl_hops(),
            pairs: st.pairs,
            max_isl_hops: st.max_isl_hops,
            avg_isl_hops: st.avg_isl_hops,
        }
    }
}

struct Bringup {
    hx: Topology,
    ft: Topology,
    rng: ChaCha8Rng,
    /// Per pair (in `PAIRS` order): the first round's outputs.
    first: Vec<Option<SweepOut>>,
    /// Rounds whose outputs differed from the first round's.
    drifted: u64,
    rounds: u64,
    /// Library operations: sweeps, and the FatPaths layer probe.
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// The set-up's warm-up: each plane brought up once with MinHop, OpenSM's
/// default engine. Besides running the sweep path once before the timed
/// rounds, it makes the set-up long enough to time steadily: the plane
/// builds alone take 0.4 ms, which a process runs at one of two speeds
/// 18% apart.
const WARMUP: [(&str, &str, bool); 2] = [("hx", "minhop", false), ("ft", "minhop", true)];

/// One sweep: the three calls `SubnetManager::sweep` makes, one span each.
fn sweep(
    tr: &mut Tracer,
    topo: &Topology,
    plane: &str,
    name: &str,
    verify: bool,
) -> Result<SweepOut, RouteError> {
    let engine = engine_by_name(name).expect("the benchmark names known engines");
    let routes = tr.span(format!("hxroute.route.{plane}-{name}"), "hxroute", |_| {
        engine.route(topo)
    })?;
    let db = tr.span("hxroute.pathdb_build", "hxroute", |_| {
        PathDb::build(topo, &routes, 1, super::PATHDB_THREADS)
    })?;
    if verify {
        tr.span("hxroute.verify", "hxroute", |_| {
            verify_deadlock_free(topo, &routes)
        })?;
    }
    Ok(SweepOut::of(&routes, &db))
}

/// FatPaths' four `route_layer` calls on fresh forwarding state: the part
/// of its route time that is not virtual-lane assignment.
fn fatpaths_layers(tr: &mut Tracer, topo: &Topology) -> Result<(), RouteError> {
    let fp = FatPaths::default();
    let lmc = fp.layers().trailing_zeros() as u8;
    let mut routes = Routes::new(
        topo,
        LidMap::new(topo, lmc, LidPolicy::Sequential),
        "fatpaths",
    );
    tr.span("hxroute.fatpaths.layers", "hxroute", |_| {
        (0..fp.layers()).try_for_each(|layer| fp.route_layer(topo, &mut routes, layer))
    })
}

impl Live for Bringup {
    fn min_ops(&self) -> u64 {
        2
    }

    fn op(&mut self, tr: &mut Tracer) -> f64 {
        let mut order: Vec<usize> = (0..PAIRS.len()).collect();
        order.shuffle(&mut self.rng);
        let t0 = Instant::now();
        let mut outs = vec![None; PAIRS.len()];
        for i in order {
            let (plane, name, verify) = PAIRS[i];
            let topo = if plane == "hx" { &self.hx } else { &self.ft };
            let out = sweep(tr, topo, plane, name, verify);
            self.attempted += 1;
            match out {
                Ok(o) => outs[i] = Some(o),
                Err(e) => {
                    self.failed += 1;
                    self.errors.push(format!("{plane}-{name}: {e}"));
                }
            }
        }
        let lat = t0.elapsed().as_secs_f64();
        if self.rounds == 0 {
            self.first = outs;
        } else if outs != self.first {
            self.drifted += 1;
        }
        self.rounds += 1;
        lat
    }
}

pub fn run(h: &mut Harness) -> Finish {
    let (mut warmups, mut errors) = (0, Vec::new());
    loop {
        let last = h.setup_begin();
        let (hx, ft) = h.tr.span("hxtopo.build", "hxtopo", |_| planes(h.plan.size));
        h.tr.span("hxroute.sweep", "hxroute", |tr| {
            for (plane, name, verify) in WARMUP {
                let topo = if plane == "hx" { &hx } else { &ft };
                warmups += 1;
                if let Err(e) = sweep(tr, topo, plane, name, verify) {
                    errors.push(format!("warm-up {plane}-{name}: {e}"));
                }
            }
        });
        h.setup_end();
        if !last {
            continue;
        }
        let mut b = Bringup {
            hx,
            ft,
            rng: ChaCha8Rng::seed_from_u64(h.plan.seed),
            first: Vec::new(),
            drifted: 0,
            rounds: 0,
            attempted: warmups,
            failed: errors.len() as u64,
            errors,
        };
        h.measure(&mut b);
        return finish(h, b);
    }
}

fn finish(h: &mut Harness, mut b: Bringup) -> Finish {
    let mut values = BTreeMap::new();
    if h.plan.trace {
        // Outside the timed phase, so that its traced and untraced halves
        // time the same work.
        b.attempted += 1;
        if let Err(e) = fatpaths_layers(&mut h.tr, &b.hx) {
            b.failed += 1;
            b.errors.push(format!("hx-fatpaths layers: {e}"));
        }
        // FatPaths' route time minus its layer routing: the virtual-lane
        // assignment over all four layers' paths.
        let median_s = |name: &str| {
            let d = crate::trace::durations_s(h.tr.spans(), name);
            percentile(&sorted(&d), 50.0)
        };
        let vl = median_s("hxroute.route.hx-fatpaths") - median_s("hxroute.fatpaths.layers");
        values.insert("hxroute.fatpaths.vl_assign_ms".to_string(), vl * 1e3);
    }
    let mut fp = Fnv::default();
    for o in &b.first {
        match o {
            Some(o) => {
                fp.eat(o.vls as u64);
                fp.eat(o.isl_hops as u64);
                fp.eat(o.pairs as u64);
                fp.eat(o.max_isl_hops as u64);
                fp.eat_f64(o.avg_isl_hops);
            }
            None => fp.eat(u64::MAX),
        }
    }
    let checks = vec![
        Check::new(
            "every sweep routed, built its PathDb and verified",
            b.failed == 0,
            if b.errors.is_empty() {
                format!("{} calls", b.attempted)
            } else {
                b.errors.join("; ")
            },
        ),
        Check::new(
            "every round reproduced the first round's outputs",
            b.drifted == 0,
            format!("{} of {} rounds drifted", b.drifted, b.rounds),
        ),
    ];
    let pairs = PAIRS
        .iter()
        .map(|&(p, e, v)| Json::from(format!("{p}-{e}{}", if v { "" } else { " (no verify)" })))
        .collect();
    let (hx, ft) = (b.hx.name().to_string(), b.ft.name().to_string());
    Finish {
        attempted: b.attempted,
        failed: b.failed,
        fingerprint: fp.0,
        checks,
        values,
        config: Json::obj([
            ("planes", Json::Arr(vec![Json::from(hx), Json::from(ft)])),
            ("pairs", Json::Arr(pairs)),
            ("pathdb_threads", Json::from(super::PATHDB_THREADS)),
            ("rounds", Json::from(b.rounds)),
        ]),
    }
}
