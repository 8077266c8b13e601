//! `churn`: the paper's fail-in-place argument in motion. Closed-loop
//! random-pair flows run on the degraded 12x8 HyperX (DFSSSP, Incremental
//! solver) while a seeded MTBF/MTTR process fails and recovers cables.
//!
//! Unit operation: simulate up to the next fault event and apply it. Its
//! latency runs from the event to the new epoch being live for every
//! consumer, through the same public calls in the same order as
//! `hxcore::campaign`'s epoch propagation: `SubnetManager::fail_link` or
//! `recover_link`, `Fabric::install_pathdb`, `PathResolver::resolve` plus
//! `FluidNet::repath` for every in-flight flow, then `FluidNet::recompute`.

use crate::harness::{Check, Finish, Harness, Live, Size};
use crate::stats::Fnv;
use crate::trace::Tracer;
use hxmpi::{Fabric, Placement, Pml};
use hxobs::Json;
use hxroute::engines::Dfsssp;
use hxroute::{verify_deadlock_free, PathDb, RouteError, SubnetManager};
use hxsim::{FluidNet, NetParams, PathResolver, SolverKind};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{FaultPlan, LinkClass, LinkId, NodeId, Topology};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload and fault streams split off the seed.
const WORK_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;
const FAULT_STREAM: u64 = 0x5851_f42d_4c95_7f2d;

/// Simulated seconds after which the fluid network restarts from time
/// zero with fresh flows. Past about one simulated second, the `f64`
/// clock's resolution times a QDR flow rate exceeds `FluidNet`'s
/// drained-bytes epsilon, so a flow's last bytes can never drain and the
/// simulation stalls at one instant.
const SEGMENT_S: f64 = 0.5;

#[derive(Debug, Clone)]
struct Config {
    flows: usize,
    bytes: u64,
    mtbf: f64,
    mttr: f64,
    max_down: usize,
    /// Fault events applied during set-up, before timing starts.
    warmup: u64,
    /// Fault events (warm-up included) after which the fingerprint is
    /// taken.
    checkpoint: u64,
}

impl Config {
    fn of(size: Size) -> Config {
        match size {
            Size::Full => Config {
                flows: 48,
                bytes: 4 << 20,
                mtbf: 0.002,
                mttr: 0.004,
                max_down: 8,
                warmup: 200,
                checkpoint: 1200,
            },
            Size::Mini => Config {
                flows: 8,
                bytes: 1 << 20,
                mtbf: 0.002,
                mttr: 0.004,
                max_down: 4,
                warmup: 10,
                checkpoint: 30,
            },
        }
    }
}

/// The churned plane.
pub fn plane(size: Size) -> Topology {
    match size {
        Size::Full => {
            let mut t = HyperXConfig::t2_hyperx(672).build();
            FaultPlan::t2_hyperx().apply(&mut t);
            t
        }
        Size::Mini => HyperXConfig::new(vec![6, 4], 2).build(),
    }
}

/// A swept manager on `plane(size)`.
pub fn swept(tr: &mut Tracer, size: Size) -> Result<SubnetManager, RouteError> {
    let topo = tr.span("hxtopo.build", "hxtopo", |_| plane(size));
    let mut sm = SubnetManager::new(topo, Box::new(Dfsssp::default()));
    sm.verify = false;
    sm.incremental = true;
    sm.threads = super::PATHDB_THREADS;
    tr.span("hxroute.sweep", "hxroute", |_| sm.sweep())?;
    Ok(sm)
}

/// Active non-terminal cables, in id order.
pub fn healthy_isls(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|&(id, l)| l.class != LinkClass::Terminal && topo.is_active(id))
        .map(|(id, _)| id)
        .collect()
}

#[derive(Debug, Clone, Copy)]
struct FlowCtx {
    src: usize,
    dst: usize,
    seq: u64,
}

/// What kind of fault event an op applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Fail,
    Recover(LinkId),
}

/// The next thing the simulation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Next {
    /// Flows drained: retire them and launch replacements.
    Complete,
    /// A fault event is due.
    Fault(Event),
    /// The segment is over.
    Restart,
}

struct Churn<'a> {
    cfg: Config,
    sm: SubnetManager,
    fabric: &'a Fabric<'a>,
    net: FluidNet,
    ctx: Vec<Option<FlowCtx>>,
    work_rng: ChaCha8Rng,
    fault_rng: ChaCha8Rng,
    seq: u64,
    next_fail: f64,
    down: Vec<(f64, LinkId)>,
    drained: Vec<usize>,
    // Accounting.
    events: u64,
    failures: u64,
    recoveries: u64,
    rollbacks: u64,
    skipped: u64,
    incremental: u64,
    trees_patched: u64,
    completions: u64,
    segments: u64,
    failed: u64,
    errors: Vec<String>,
    fingerprint: Option<u64>,
}

/// Whether losing cable `l` would split the fabric.
pub fn disconnects(topo: &Topology, l: LinkId) -> bool {
    let mut t = topo.clone();
    t.deactivate(l);
    !t.is_connected()
}

fn exp_sample(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
    -mean * (1.0 - rng.gen::<f64>()).ln()
}

impl Churn<'_> {
    fn resolve(&self, tr: &mut Tracer, c: FlowCtx) -> Vec<hxroute::DirLink> {
        let fabric = self.fabric;
        let bytes = self.cfg.bytes;
        tr.span("hxmpi.resolve", "hxmpi", |_| {
            fabric.resolve(c.src, c.dst, bytes, c.seq).hops
        })
    }

    /// Starts one flow between a fresh random pair of distinct ranks.
    fn launch(&mut self, tr: &mut Tracer) {
        let n = self.fabric.placement.num_ranks();
        let src = self.work_rng.gen_range(0..n);
        let mut dst = self.work_rng.gen_range(0..n - 1);
        if dst >= src {
            dst += 1;
        }
        let c = FlowCtx {
            src,
            dst,
            seq: self.seq,
        };
        self.seq += 1;
        let hops = self.resolve(tr, c);
        let bytes = self.cfg.bytes;
        let id = tr.span("hxsim.add_flow", "hxsim", |_| {
            self.net.add_flow(hops, bytes)
        });
        if id == self.ctx.len() {
            self.ctx.push(Some(c));
        } else {
            self.ctx[id] = Some(c);
        }
    }

    /// Makes the manager's current epoch live for the fabric and every
    /// in-flight flow.
    fn propagate(&mut self, tr: &mut Tracer) {
        let db = self
            .sm
            .pathdb()
            .expect("swept manager has a PathDb")
            .clone();
        let fabric = self.fabric;
        tr.span("hxmpi.install_pathdb", "hxmpi", |_| {
            fabric.install_pathdb(db)
        });
        for id in 0..self.ctx.len() {
            let Some(c) = self.ctx[id] else { continue };
            let hops = self.resolve(tr, c);
            tr.span("hxsim.repath", "hxsim", |_| self.net.repath(id, &hops));
        }
        tr.span("hxsim.recompute.reroute", "hxsim", |_| self.net.recompute());
    }

    /// Applies one fault event; `None` when the failure was skipped
    /// because `max_down` cables are already down.
    fn apply(&mut self, tr: &mut Tracer, ev: Event, t: f64) -> Option<f64> {
        let victim = match ev {
            Event::Fail => {
                self.next_fail = t + exp_sample(&mut self.fault_rng, self.cfg.mtbf);
                let cands = healthy_isls(self.sm.topo());
                if cands.is_empty() || self.down.len() >= self.cfg.max_down {
                    self.skipped += 1;
                    return None;
                }
                Some(cands[self.fault_rng.gen_range(0..cands.len())])
            }
            Event::Recover(_) => None,
        };
        let t0 = Instant::now();
        let res = match (victim, &ev) {
            (Some(v), _) => tr.span("hxroute.fail_link", "hxroute", |_| self.sm.fail_link(v)),
            (None, Event::Recover(l)) => {
                let l = *l;
                tr.span("hxroute.recover_link", "hxroute", |_| {
                    self.sm.recover_link(l)
                })
            }
            (None, Event::Fail) => unreachable!("a failure always has a victim"),
        };
        match res {
            Ok(r) => {
                self.trees_patched += r.patched_trees as u64;
                self.incremental += u64::from(r.incremental);
                self.propagate(tr);
                match victim {
                    Some(v) => {
                        self.failures += 1;
                        let repair = t + exp_sample(&mut self.fault_rng, self.cfg.mttr);
                        self.down.push((repair, v));
                    }
                    None => self.recoveries += 1,
                }
            }
            // The expected outcome of a disconnecting kill: fail_link rolls
            // the cable back and the fabric stays on its epoch.
            Err(_) if victim.is_some_and(|v| disconnects(self.sm.topo(), v)) => self.rollbacks += 1,
            Err(e) => {
                self.failed += 1;
                self.errors.push(e.to_string());
            }
        }
        self.events += 1;
        Some(t0.elapsed().as_secs_f64())
    }

    /// Retires drained flows and starts their closed-loop replacements.
    fn complete(&mut self, tr: &mut Tracer) {
        let mut drained = std::mem::take(&mut self.drained);
        for &id in &drained {
            self.ctx[id].take().expect("drained flow has context");
            self.completions += 1;
            tr.span("hxsim.remove", "hxsim", |_| self.net.remove(id));
        }
        for _ in 0..drained.len() {
            self.launch(tr);
        }
        drained.clear();
        self.drained = drained;
        tr.span("hxsim.recompute.completion", "hxsim", |_| {
            self.net.recompute()
        });
    }

    /// Starts a fresh segment: a new fluid network at time zero carrying
    /// a fresh set of flows, with the fault schedule shifted to match.
    /// Cables stay down across the restart.
    fn restart(&mut self, tr: &mut Tracer) {
        self.segments += 1;
        self.next_fail -= SEGMENT_S;
        for d in &mut self.down {
            d.0 -= SEGMENT_S;
        }
        self.net = FluidNet::with_solver(self.fabric.topo, SolverKind::Incremental);
        self.ctx.clear();
        for _ in 0..self.cfg.flows {
            self.launch(tr);
        }
        tr.span("hxsim.recompute.completion", "hxsim", |_| {
            self.net.recompute()
        });
    }

    fn fold(&self) -> u64 {
        let mut fp = Fnv::default();
        for v in [
            self.completions,
            self.completions * self.cfg.bytes,
            self.sm.epoch(),
            self.trees_patched,
            self.failures,
            self.recoveries,
            self.rollbacks,
            self.skipped,
            self.incremental,
            self.segments,
        ] {
            fp.eat(v);
        }
        fp.eat_f64(self.net.now());
        fp.0
    }
}

impl Live for Churn<'_> {
    fn min_ops(&self) -> u64 {
        self.cfg.checkpoint.saturating_sub(self.events)
    }

    /// On a shared two-core guest, the slowest 1% of fault events came in
    /// bursts a second long, set by the host rather than by the fault:
    /// across identical runs their p99 moved by 9–13% where the p90 moved
    /// by 3–4%.
    fn tail_top(&self) -> f64 {
        90.0
    }

    fn op(&mut self, tr: &mut Tracer) -> f64 {
        loop {
            let down = &self.down;
            let (t, next) = tr.span("hxsim.advance", "hxsim", |_| {
                let t_complete = self.net.next_completion().unwrap_or(f64::INFINITY);
                let repair = down.iter().min_by(|a, b| a.0.total_cmp(&b.0)).copied();
                let t_repair = repair.map_or(f64::INFINITY, |r| r.0);
                let (t, next) = if t_complete.min(self.next_fail).min(t_repair) >= SEGMENT_S {
                    return (SEGMENT_S, Next::Restart);
                } else if t_complete <= self.next_fail && t_complete <= t_repair {
                    (t_complete, Next::Complete)
                } else if self.next_fail <= t_repair {
                    (self.next_fail, Next::Fault(Event::Fail))
                } else {
                    (
                        t_repair,
                        Next::Fault(Event::Recover(repair.expect("a repair is due").1)),
                    )
                };
                self.net.advance_to(t);
                if next == Next::Complete {
                    self.net.drained_into(&mut self.drained);
                }
                (t, next)
            });
            let ev = match next {
                Next::Restart => {
                    self.restart(tr);
                    continue;
                }
                Next::Complete => {
                    self.complete(tr);
                    continue;
                }
                Next::Fault(ev) => ev,
            };
            if let Event::Recover(l) = ev {
                self.down.retain(|&(_, d)| d != l);
            }
            if let Some(lat) = self.apply(tr, ev, t) {
                if self.events == self.cfg.checkpoint {
                    self.fingerprint = Some(self.fold());
                }
                return lat;
            }
        }
    }
}

pub fn run(h: &mut Harness) -> Finish {
    let cfg = Config::of(h.plan.size);
    let seed = h.plan.seed;
    loop {
        let last = h.setup_begin();
        let sm = swept(&mut h.tr, h.plan.size).expect("bring-up sweep of the churn plane");
        let fab_topo = sm.topo().clone();
        let fab_routes = sm.routes().expect("swept").clone();
        let nodes: Vec<NodeId> = fab_topo.nodes().collect();
        let fabric = Fabric::with_pathdb(
            &fab_topo,
            &fab_routes,
            Placement::linear(&nodes, nodes.len()),
            Pml::Ob1,
            NetParams::qdr().with_solver(SolverKind::Incremental),
            sm.pathdb().expect("swept").clone(),
        );
        let mut fault_rng = ChaCha8Rng::seed_from_u64(seed ^ FAULT_STREAM);
        let next_fail = exp_sample(&mut fault_rng, cfg.mtbf);
        let mut c = Churn {
            cfg: cfg.clone(),
            sm,
            fabric: &fabric,
            net: FluidNet::with_solver(&fab_topo, SolverKind::Incremental),
            ctx: Vec::new(),
            work_rng: ChaCha8Rng::seed_from_u64(seed ^ WORK_STREAM),
            fault_rng,
            seq: 0,
            next_fail,
            down: Vec::new(),
            drained: Vec::new(),
            events: 0,
            failures: 0,
            recoveries: 0,
            rollbacks: 0,
            skipped: 0,
            incremental: 0,
            trees_patched: 0,
            completions: 0,
            segments: 0,
            failed: 0,
            errors: Vec::new(),
            fingerprint: None,
        };
        for _ in 0..cfg.flows {
            c.launch(&mut h.tr);
        }
        h.tr.span("hxsim.recompute.completion", "hxsim", |_| c.net.recompute());
        while c.events < cfg.warmup {
            c.op(&mut h.tr);
        }
        h.setup_end();
        if last {
            h.measure(&mut c);
            return finish(h, c);
        }
    }
}

fn finish(h: &mut Harness, mut c: Churn<'_>) -> Finish {
    let tr = &mut h.tr;
    // In-flight flows must route around every downed cable.
    let topo = c.sm.topo().clone();
    let mut dead_hops = 0u64;
    for i in 0..c.ctx.len() {
        if let Some(fc) = c.ctx[i] {
            let hops = c.resolve(tr, fc);
            dead_hops += hops.iter().filter(|dl| !topo.is_active(dl.link())).count() as u64;
        }
    }
    let was_down = c.down.len();
    // Heal, propagating each recovery like any other event.
    for (_, l) in std::mem::take(&mut c.down) {
        c.apply(tr, Event::Recover(l), c.net.now());
    }
    let routes = c.sm.routes().expect("swept").clone();
    let live_db = c.sm.pathdb().expect("swept").clone();
    let fresh = PathDb::build(c.sm.topo(), &routes, live_db.epoch(), super::PATHDB_THREADS);
    let fresh_ok = fresh.as_ref().is_ok_and(|db| db.content_eq(&live_db));
    // Informational: the manager runs with `verify` off, as the campaigns
    // do, so the generic patch does not promise deadlock freedom.
    let deadlock_free = verify_deadlock_free(c.sm.topo(), &routes).is_ok();
    let events = (c.failures + c.recoveries).max(1) as f64;
    let mut values = BTreeMap::new();
    values.insert(
        "hxroute.trees_patched_mean".to_string(),
        c.trees_patched as f64 / events,
    );
    values.insert(
        "hxroute.incremental_ratio".to_string(),
        c.incremental as f64 / events,
    );
    let checks = vec![
        Check::new(
            "fingerprint checkpoint reached",
            c.fingerprint.is_some(),
            format!(
                "{} fault events, checkpoint at {}",
                c.events, c.cfg.checkpoint
            ),
        ),
        Check::new(
            "no fault event failed other than an expected disconnect rollback",
            c.failed == 0,
            c.errors.join("; "),
        ),
        Check::new(
            "in-flight flows avoid every downed cable",
            dead_hops == 0,
            format!("{dead_hops} hops on dead cables with {was_down} cables down"),
        ),
        Check::new(
            "patched PathDb equals a fresh extraction of the patched tables",
            fresh_ok,
            format!("epoch {}", live_db.epoch()),
        ),
    ];
    Finish {
        attempted: c.events,
        failed: c.failed,
        fingerprint: c.fingerprint.unwrap_or(0),
        checks,
        values,
        config: Json::obj([
            ("plane", Json::from(topo.name())),
            ("engine", Json::from("dfsssp")),
            ("solver", Json::from(SolverKind::Incremental.label())),
            ("flows", Json::from(c.cfg.flows)),
            ("bytes", Json::from(c.cfg.bytes)),
            ("mtbf_s", Json::from(c.cfg.mtbf)),
            ("mttr_s", Json::from(c.cfg.mttr)),
            ("max_down", Json::from(c.cfg.max_down)),
            ("warmup_events", Json::from(c.cfg.warmup)),
            ("checkpoint_events", Json::from(c.cfg.checkpoint)),
            ("events", Json::from(c.events)),
            ("completions", Json::from(c.completions)),
            ("segment_s", Json::from(SEGMENT_S)),
            ("segments", Json::from(c.segments)),
            ("rollbacks", Json::from(c.rollbacks)),
            ("skipped", Json::from(c.skipped)),
            ("deadlock_free_after_heal", Json::from(deadlock_free)),
        ]),
    }
}
