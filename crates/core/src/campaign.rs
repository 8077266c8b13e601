//! Fault-churn campaign engine: a deterministic MTBF/MTTR event stream of
//! cable failures and recoveries driven against a live workload on a
//! K-plane fabric. A single-plane fabric is the K = 1 case.
//!
//! The paper's fail-in-place argument (Section 4.4.3, citing Domke et al.
//! \[15\]) is about *sustained operation under churn*, not a single snapshot:
//! cables die, get swapped, and the subnet manager must keep the fabric
//! routed the whole time. A K-plane system (one NIC rail per plane) adds
//! the question the rail layer exists for: when one plane degrades,
//! traffic riding it has somewhere else to go *right now*. This module
//! closes both loops:
//!
//! * K [`SubnetManager`]s (one per plane) absorb a seeded exponential
//!   fault process over the non-terminal cables; with K > 1 every event
//!   carries a plane id drawn from the fault stream,
//! * every event runs through [`SubnetManager::fail_link`] /
//!   [`SubnetManager::recover_link`] (incremental patch where possible) on
//!   exactly one plane, and the patched store is installed into that
//!   plane's fabric rail via [`Fabric::install_pathdb`] — sibling rails'
//!   epochs never move,
//! * flows ride the [`FluidNet`] of the rail a [`RailPolicy`] picked at
//!   launch. When a cable dies, the flows whose paths crossed it *fail
//!   over* to a surviving plane (rail failover; a no-op at K = 1), and
//!   every other in-flight flow is re-pathed through [`FluidNet::repath`]
//!   so the congestion engine's dirty-set machinery re-solves only what
//!   the reroute touched,
//! * a closed-loop workload (every completion immediately starts a
//!   replacement flow between a fresh random pair) measures throughput and
//!   latency degradation against the same workload on the healthy fabric,
//!   per plane and for the whole system.
//!
//! Determinism: the fault schedule and the workload consume two independent
//! `ChaCha8Rng` streams, and both congestion backends solve bit-identical
//! rates, so a campaign's [`CampaignReport::fingerprint`] is byte-stable
//! per seed across `SolverKind::Exact` and `SolverKind::Incremental`.
//! Wall-clock reroute latencies are reported but excluded from the
//! fingerprint.

use hxmpi::{Fabric, MultiFabric, Placement, Pml, RailPolicy};
use hxobs::{Span, SpanCtx};
use hxroute::engines::RoutingEngine;
use hxroute::{DirLink, RouteError, SubnetManager};
use hxsim::{FluidNet, NetParams, PathResolver, SolverKind};
use hxtopo::{fnv1a, LinkClass, LinkId, NodeId, Topology, FNV_OFFSET};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Parameters of one fault-churn campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; fault schedule and workload derive independent streams.
    pub seed: u64,
    /// Mean time between cable failures (simulated seconds, exponential).
    pub mtbf: f64,
    /// Mean time to repair a downed cable (simulated seconds, exponential).
    pub mttr: f64,
    /// Campaign length in simulated seconds.
    pub duration: f64,
    /// Concurrent closed-loop flows.
    pub flows: usize,
    /// Bytes per flow.
    pub bytes: u64,
    /// Cap on concurrently-downed cables across the whole system; failures
    /// beyond it are skipped (the machine-room analogue: spares run out).
    pub max_down: usize,
    /// Congestion engine backing the fluid networks.
    pub solver: SolverKind,
    /// Messaging layer selecting the destination LID per flow (`Ob1` for
    /// single-path engines; `FlowHash` spreads flows across a multipath
    /// engine's routing layers). Every plane uses it.
    pub pml: Pml,
    /// Optional communication profile handed to every plane's SAR/PARX
    /// trigger before the workload starts. Engines without a demand-aware
    /// variant log the [`RouteError::NoDemandVariant`] miss and keep the
    /// plain sweep — the campaign proceeds either way (`None` skips the
    /// trigger entirely).
    pub demand: Option<hxroute::Demand>,
    /// Number of planes (NIC rails per node); 1 is a single-plane fabric.
    pub planes: usize,
    /// Rail-selection policy for launches and failovers.
    pub rail: RailPolicy,
    /// Migrate *every* flow riding a faulted plane, not just those whose
    /// paths crossed the dead cable. Forces failovers deterministically —
    /// the CI smoke knob (`--force-failover`).
    pub force_failover: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 0x7258,
            mtbf: 0.02,
            mttr: 0.05,
            duration: 1.0,
            flows: 16,
            bytes: 8 << 20,
            max_down: 8,
            solver: SolverKind::default(),
            pml: Pml::Ob1,
            demand: None,
            planes: 1,
            rail: RailPolicy::RoundRobin,
            force_failover: false,
        }
    }
}

/// Outcome of a campaign: healthy-baseline vs under-churn workload metrics
/// plus routing-event accounting, system-wide and per plane.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Number of planes.
    pub planes: usize,
    /// Rail policy label.
    pub rail: &'static str,
    /// Per-plane routing engine labels.
    pub engines: Vec<String>,
    /// Congestion engine label.
    pub solver: &'static str,
    /// Bytes/second drained with no fault events.
    pub healthy_throughput: f64,
    /// Bytes/second drained under churn.
    pub faulted_throughput: f64,
    /// Mean flow completion time with no fault events (seconds).
    pub healthy_latency: f64,
    /// Mean flow completion time under churn (seconds).
    pub faulted_latency: f64,
    /// p50/p95/p99/p999 of simulated flow completion time (µs) with no
    /// fault events; `None` when nothing completed. Sketch-derived and
    /// excluded from [`CampaignReport::fingerprint`].
    pub healthy_tail: Option<[f64; 4]>,
    /// p50/p95/p99/p999 of simulated flow completion time (µs) under
    /// churn — the tournament's tail-latency axis. Excluded from the
    /// fingerprint.
    pub faulted_tail: Option<[f64; 4]>,
    /// Flows completed in the healthy baseline.
    pub healthy_completions: u64,
    /// Flows completed under churn.
    pub faulted_completions: u64,
    /// Per-plane cable failures applied.
    pub failures: Vec<u64>,
    /// Per-plane cable recoveries applied.
    pub recoveries: Vec<u64>,
    /// Skipped events: failures that would disconnect or hit `max_down`,
    /// and recoveries the engine failed to re-route (rolled back).
    pub skipped: u64,
    /// Fault events absorbed by the incremental patch path.
    pub incremental_events: u64,
    /// Destination trees repaired across all events.
    pub trees_patched: u64,
    /// In-flight flows re-resolved onto a surviving plane.
    pub failovers: u64,
    /// Per-plane flows completed under churn.
    pub plane_completions: Vec<u64>,
    /// Per-plane path-store epochs when the campaign ended (from the live
    /// rails, not the managers).
    pub final_epochs: Vec<u64>,
    /// Largest number of concurrently-downed cables (system-wide).
    pub max_links_down: usize,
    /// Cables still down when the campaign ended.
    pub links_down_at_end: usize,
    /// Total wall-clock nanoseconds spent inside fail/recover + repath
    /// (measurement only — excluded from [`CampaignReport::fingerprint`]).
    pub reroute_ns: u128,
}

impl CampaignReport {
    /// The all-zero report a `cfg.planes`-plane campaign on `engines`
    /// starts from.
    fn start(cfg: &CampaignConfig, engines: Vec<String>) -> CampaignReport {
        let k = cfg.planes;
        CampaignReport {
            planes: k,
            rail: cfg.rail.label(),
            engines,
            solver: cfg.solver.label(),
            healthy_throughput: 0.0,
            faulted_throughput: 0.0,
            healthy_latency: 0.0,
            faulted_latency: 0.0,
            healthy_tail: None,
            faulted_tail: None,
            healthy_completions: 0,
            faulted_completions: 0,
            failures: vec![0; k],
            recoveries: vec![0; k],
            skipped: 0,
            incremental_events: 0,
            trees_patched: 0,
            failovers: 0,
            plane_completions: vec![0; k],
            final_epochs: Vec::new(),
            max_links_down: 0,
            links_down_at_end: 0,
            reroute_ns: 0,
        }
    }

    /// Fractional throughput lost to churn (0 = unharmed, 1 = dead; rail
    /// failover should keep this near 0 for K >= 2).
    pub fn throughput_drop(&self) -> f64 {
        1.0 - self.faulted_throughput / self.healthy_throughput
    }

    /// Cable failures plus recoveries applied, across all planes.
    pub fn events(&self) -> u64 {
        self.failures.iter().chain(&self.recoveries).sum()
    }

    /// FNV-1a over every deterministic field (rate bits included, wall
    /// clock excluded): byte-equal across congestion backends per seed.
    /// A single-plane report hashes the engine, its four rates and its
    /// event counts; a K-plane one hashes the rail policy, every plane's
    /// engine and the per-plane vectors, so each layout matches the
    /// fingerprints earlier records of its harness carry.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
        if self.planes == 1 {
            eat(self.engines[0].as_bytes());
            for v in [
                self.healthy_throughput,
                self.faulted_throughput,
                self.healthy_latency,
                self.faulted_latency,
            ] {
                eat(&v.to_bits().to_le_bytes());
            }
            for v in [
                self.healthy_completions,
                self.faulted_completions,
                self.failures[0],
                self.recoveries[0],
                self.skipped,
                self.incremental_events,
                self.trees_patched,
                self.max_links_down as u64,
                self.links_down_at_end as u64,
            ] {
                eat(&v.to_le_bytes());
            }
            return h;
        }
        eat(self.rail.as_bytes());
        for e in &self.engines {
            eat(e.as_bytes());
        }
        for v in [
            self.healthy_throughput,
            self.faulted_throughput,
            self.faulted_latency,
        ] {
            eat(&v.to_bits().to_le_bytes());
        }
        let scalars = [
            self.planes as u64,
            self.healthy_completions,
            self.faulted_completions,
            self.skipped,
            self.failovers,
            self.max_links_down as u64,
        ];
        for v in scalars
            .iter()
            .chain(&self.failures)
            .chain(&self.recoveries)
            .chain(&self.plane_completions)
            .chain(&self.final_epochs)
        {
            eat(&v.to_le_bytes());
        }
        h
    }
}

/// One in-flight closed-loop flow: the rank pair, launch metadata, and the
/// resolved hops (kept for the rail-failover check).
#[derive(Debug, Clone)]
struct FlowCtx {
    src: usize,
    dst: usize,
    seq: u64,
    started: f64,
    hops: Vec<DirLink>,
}

/// Stores a flow's context under its net flow id (ids are recycled).
fn put(ctx: &mut Vec<Option<FlowCtx>>, id: usize, flow: FlowCtx) {
    if id == ctx.len() {
        ctx.push(Some(flow));
    } else {
        ctx[id] = Some(flow);
    }
}

/// Stream-separation constants: the workload and the fault schedule derive
/// independent `ChaCha8Rng` streams from the master seed with these xors.
const WORK_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;
const FAULT_STREAM: u64 = 0x5851_f42d_4c95_7f2d;

/// Exponential inter-arrival sample (inverse CDF; `1 - u` dodges `ln(0)`).
fn exp_sample(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
    -mean * (1.0 - rng.gen::<f64>()).ln()
}

/// The live K-plane system: one manager and one fluid net per plane, and
/// the rail-selecting fabric bundle that holds each plane's live store.
struct Live<'a> {
    sms: Vec<SubnetManager>,
    mf: &'a MultiFabric<'a>,
    nets: Vec<FluidNet>,
    /// Per-plane flow contexts, indexed by that plane's net flow id.
    ctx: Vec<Vec<Option<FlowCtx>>>,
    cfg: &'a CampaignConfig,
    seq: u64,
}

impl Live<'_> {
    /// The plane id stamped onto spans and sketches: a multi-plane system
    /// tags every event with its plane, a single-plane one stays untagged.
    fn tag(&self, p: usize) -> Option<u32> {
        (self.sms.len() > 1).then_some(p as u32)
    }

    /// A campaign span on plane `p`: a root when `parent` is `None`.
    fn span(&self, p: usize, parent: Option<SpanCtx>, name: &'static str) -> Span {
        let mut sp = match parent {
            Some(c) => Span::under(c, hxobs::track::RUNNER, 0, name, "campaign"),
            None => Span::root(hxobs::track::RUNNER, 0, name, "campaign"),
        };
        if let Some(t) = self.tag(p) {
            sp.set_plane(t);
        }
        sp
    }

    /// The epoch of the store plane `p`'s rail currently routes on.
    fn epoch(&self, p: usize) -> u64 {
        self.mf.rail(p).pathdb().epoch()
    }

    /// Rebuilds fresh fluid nets, restarts rail selection and launches the
    /// configured closed-loop flows — each workload phase (healthy
    /// baseline, churn replay) starts from the same initial population on
    /// the same rails.
    fn reset(&mut self, work_rng: &mut ChaCha8Rng) {
        self.mf.reset_selection();
        self.nets = (0..self.sms.len())
            .map(|p| {
                let mut net = FluidNet::with_solver(self.mf.rail(p).topo, self.cfg.solver);
                if let Some(t) = self.tag(p) {
                    net.set_plane(t);
                }
                net.set_obs_epoch(self.epoch(p));
                net
            })
            .collect();
        self.ctx = vec![Vec::new(); self.sms.len()];
        self.seq = 0;
        for _ in 0..self.cfg.flows {
            self.launch(work_rng, 0.0);
        }
        for net in &mut self.nets {
            net.recompute();
        }
    }

    /// Starts one closed-loop flow between a fresh random distinct-rank
    /// pair, on the rail the policy picks.
    fn launch(&mut self, rng: &mut ChaCha8Rng, now: f64) {
        let n = self.mf.rail(0).placement.num_ranks();
        let src = rng.gen_range(0..n);
        let mut dst = rng.gen_range(0..n - 1);
        if dst >= src {
            dst += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        let plane = self.mf.select_rail(src, dst, seq);
        let rp = self.mf.resolve_on(plane, src, dst, self.cfg.bytes, seq);
        let id = self.nets[plane].add_flow_ref(&rp.hops, self.cfg.bytes);
        let flow = FlowCtx {
            src,
            dst,
            seq,
            started: now,
            hops: rp.hops,
        };
        put(&mut self.ctx[plane], id, flow);
    }

    /// Live epoch propagation: installs plane `p`'s freshly-patched store
    /// into its rail, then re-paths that plane's in-flight flows
    /// through it. With observability on, the work emits `repath` and
    /// `resolve` spans under `parent` (the campaign `step`), completing the
    /// causal chain `step → fail_link → pathdb_patch → repath → resolve`.
    fn propagate(&mut self, p: usize, parent: SpanCtx) {
        let Some(db) = self.sms[p].pathdb().cloned() else {
            // A manager without a store (mid-bring-up race) has nothing to
            // propagate; the fabric keeps routing on its previous epoch.
            // Unreachable from the campaign loop, which only runs after a
            // successful sweep.
            debug_assert!(false, "propagate before the first sweep");
            return;
        };
        let epoch = db.epoch();
        self.mf.rail(p).install_pathdb(db);
        self.nets[p].set_obs_epoch(epoch);
        if let Some(o) = hxobs::sink() {
            o.gauge_set("pathdb.epoch", epoch as f64);
        }
        let mut sp = self.span(p, Some(parent), "repath");
        sp.set_epoch(epoch);
        let rail = self.mf.rail(p);
        let mut repathed = 0u64;
        for (id, c) in self.ctx[p].iter_mut().enumerate() {
            let Some(c) = c else { continue };
            let rp = rail.resolve(c.src, c.dst, self.cfg.bytes, c.seq);
            self.nets[p].repath(id, &rp.hops);
            c.hops = rp.hops;
            repathed += 1;
        }
        sp.arg("flows", hxobs::Json::from(repathed));
        sp.end();
        let mut resolve_sp = self.span(p, Some(parent), "resolve");
        resolve_sp.set_epoch(epoch);
        self.nets[p].recompute();
        resolve_sp.end();
    }

    /// Rail failover: moves flows off plane `p` onto a surviving plane,
    /// preserving their remaining bytes. Only flows whose current path
    /// crosses `victim` move, unless `force_failover` moves every flow on
    /// the plane. Returns how many flows migrated (0 at K = 1: there is
    /// nowhere to go).
    fn failover(&mut self, p: usize, victim: LinkId, parent: SpanCtx) -> u64 {
        if self.mf.healthy_planes().iter().all(|&q| q == p) {
            return 0;
        }
        let mut sp = self.span(p, Some(parent), "failover");
        sp.arg("link", hxobs::Json::from(victim.0 as u64));
        // The faulted plane must not win selection for the migrating flows.
        self.mf.fail_plane(p);
        let mut moved = 0u64;
        for id in 0..self.ctx[p].len() {
            let affected = match &self.ctx[p][id] {
                Some(f) => self.cfg.force_failover || f.hops.iter().any(|h| h.link() == victim),
                None => continue,
            };
            if !affected {
                continue;
            }
            let flow = self.ctx[p][id].take().expect("checked above");
            let remaining = (self.nets[p].flow_remaining(id).unwrap_or(0.0) as u64).max(1);
            self.nets[p].remove(id);
            let q = self.mf.select_rail(flow.src, flow.dst, flow.seq);
            let rp = self
                .mf
                .resolve_on(q, flow.src, flow.dst, remaining, flow.seq);
            let nid = self.nets[q].add_flow_ref(&rp.hops, remaining);
            put(
                &mut self.ctx[q],
                nid,
                FlowCtx {
                    hops: rp.hops,
                    ..flow
                },
            );
            self.nets[q].recompute();
            moved += 1;
        }
        if moved > 0 {
            self.nets[p].recompute();
        }
        self.mf.recover_plane(p);
        hxobs::count("campaign.failovers", moved);
        sp.arg("flows", hxobs::Json::from(moved));
        sp.end();
        moved
    }

    /// Draws a victim among plane `p`'s active non-terminal cables.
    fn draw_victim(&self, p: usize, rng: &mut ChaCha8Rng) -> Option<LinkId> {
        let topo = self.sms[p].topo();
        let candidates: Vec<LinkId> = topo
            .links()
            .filter(|&(id, l)| l.class != LinkClass::Terminal && topo.is_active(id))
            .map(|(id, _)| id)
            .collect();
        (!candidates.is_empty()).then(|| candidates[rng.gen_range(0..candidates.len())])
    }

    /// Fails `victim` on plane `p`, fails affected flows over and
    /// propagates the patched store. Returns whether the cable went down;
    /// a disconnecting kill is rolled back inside `fail_link` and counted
    /// as a skip. The rollback re-sweeps to a new epoch, which is
    /// propagated too, so the rail never routes on a store the manager no
    /// longer holds.
    fn apply_failure(&mut self, p: usize, victim: LinkId, report: &mut CampaignReport) -> bool {
        let t0 = std::time::Instant::now();
        let mut step_sp = self.span(p, None, "step");
        step_sp.arg("kind", hxobs::Json::from("fail"));
        step_sp.arg("link", hxobs::Json::from(victim.0 as u64));
        step_sp.arg("engine", hxobs::Json::from(self.sms[p].engine_name()));
        let step = step_sp.ctx();
        let down = match self.sms[p].fail_link_spanned(victim, step) {
            Ok(r) => {
                report.failures[p] += 1;
                report.trees_patched += r.patched_trees as u64;
                report.incremental_events += u64::from(r.incremental);
                report.failovers += self.failover(p, victim, step);
                self.propagate(p, step);
                step_sp.set_epoch(r.epoch);
                true
            }
            Err(_) => {
                report.skipped += 1;
                step_sp.arg("rolled_back", hxobs::Json::from(true));
                self.propagate(p, step);
                false
            }
        };
        report.reroute_ns += t0.elapsed().as_nanos();
        step_sp.end();
        down
    }

    /// Recovers a downed cable on plane `p` and propagates its store, also
    /// after a rolled-back recovery (see [`Live::apply_failure`]).
    fn apply_recovery(&mut self, p: usize, l: LinkId, report: &mut CampaignReport) {
        let t0 = std::time::Instant::now();
        let mut step_sp = self.span(p, None, "step");
        step_sp.arg("kind", hxobs::Json::from("recover"));
        step_sp.arg("link", hxobs::Json::from(l.0 as u64));
        step_sp.arg("engine", hxobs::Json::from(self.sms[p].engine_name()));
        let step = step_sp.ctx();
        match self.sms[p].recover_link_spanned(l, step) {
            Ok(r) => {
                report.recoveries[p] += 1;
                report.trees_patched += r.patched_trees as u64;
                report.incremental_events += u64::from(r.incremental);
                self.propagate(p, step);
                step_sp.set_epoch(r.epoch);
            }
            Err(e) => {
                // Recovery re-adds capacity, so this only fires when the
                // engine itself fails to re-route (e.g. VL overflow on the
                // fallback resweep). recover_link rolled back to the
                // previous consistent state; count the skip and keep the
                // campaign alive instead of crashing it.
                report.skipped += 1;
                step_sp.arg("recover_failed", hxobs::Json::from(e.to_string()));
                self.propagate(p, step);
            }
        }
        report.reroute_ns += t0.elapsed().as_nanos();
        step_sp.end();
    }

    /// Runs the closed-loop workload over the K nets; `churn` switches the
    /// fault process on. Fills the report's healthy or faulted side.
    fn run(&mut self, report: &mut CampaignReport, churn: bool) {
        let cfg = self.cfg;
        let k = self.sms.len();
        // Independent streams: the workload draw sequence must not shift
        // when the fault schedule consumes differently (and vice versa).
        let mut work_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ WORK_STREAM);
        let mut fault_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ FAULT_STREAM);
        self.reset(&mut work_rng);
        let mut bytes_done = 0u64;
        let mut completions = 0u64;
        let mut latency_sum = 0.0f64;
        // Local tail sketch: per-run (the global registry keys by epoch,
        // which collides when a tournament replays many engines).
        let mut tail = hxobs::Sketch::new();
        let mut next_fail = churn.then(|| exp_sample(&mut fault_rng, cfg.mtbf));
        // Downed cables with their repair times and planes; the earliest
        // repair is scanned out (the list stays tiny: at most `max_down`).
        let mut down: Vec<(f64, usize, LinkId)> = Vec::new();
        let mut drained: Vec<usize> = Vec::new();

        loop {
            let t_complete = self
                .nets
                .iter_mut()
                .filter_map(|net| net.next_completion())
                .fold(f64::INFINITY, f64::min);
            let t_fail = next_fail.unwrap_or(f64::INFINITY);
            let t_repair = down.iter().map(|d| d.0).fold(f64::INFINITY, f64::min);
            let t = t_complete.min(t_fail).min(t_repair);
            if t >= cfg.duration {
                for net in &mut self.nets {
                    net.advance_to(cfg.duration);
                }
                break;
            }
            for net in &mut self.nets {
                net.advance_to(t);
            }
            if t_complete <= t_fail && t_complete <= t_repair {
                let mut finished = 0;
                for p in 0..k {
                    self.nets[p].drained_into(&mut drained);
                    let epoch = self.sms[p].epoch();
                    for &id in &drained {
                        let c = self.ctx[p][id].take().expect("drained flow has context");
                        bytes_done += cfg.bytes;
                        completions += 1;
                        if churn {
                            report.plane_completions[p] += 1;
                        }
                        latency_sum += t - c.started;
                        // Per-epoch tail of simulated flow completion times.
                        let us = (t - c.started) * 1e6;
                        match self.tag(p) {
                            Some(tag) => {
                                hxobs::sketch_record_plane("flow.completion_us", epoch, tag, us)
                            }
                            None => hxobs::sketch_record("flow.completion_us", epoch, us),
                        }
                        tail.record(us);
                        self.nets[p].remove(id);
                    }
                    finished += drained.len();
                }
                // Closed loop: replacements keep the offered load constant
                // (the rail policy re-selects, so a recovered plane wins
                // back traffic here).
                for _ in 0..finished {
                    self.launch(&mut work_rng, t);
                }
                for net in &mut self.nets {
                    net.recompute();
                }
            } else if t_fail <= t_repair {
                let p = if k > 1 { fault_rng.gen_range(0..k) } else { 0 };
                let victim = if down.len() < cfg.max_down {
                    self.draw_victim(p, &mut fault_rng)
                } else {
                    None
                };
                match victim {
                    Some(v) => {
                        if self.apply_failure(p, v, report) {
                            down.push((t + exp_sample(&mut fault_rng, cfg.mttr), p, v));
                            report.max_links_down = report.max_links_down.max(down.len());
                        }
                    }
                    None => report.skipped += 1,
                }
                hxobs::gauge("campaign.links_down", down.len() as f64);
                next_fail = Some(t + exp_sample(&mut fault_rng, cfg.mtbf));
            } else {
                let i = down
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
                    .map(|(i, _)| i)
                    .expect("repair event requires a downed cable");
                let (_, p, l) = down.swap_remove(i);
                self.apply_recovery(p, l, report);
                hxobs::gauge("campaign.links_down", down.len() as f64);
            }
        }
        // Account the tail: bytes moved by still-running flows count toward
        // throughput (the workload is a sustained stream, not a batch).
        for (net, ctx) in self.nets.iter().zip(&self.ctx) {
            for (id, c) in ctx.iter().enumerate() {
                if c.is_some() {
                    let left = net.flow_remaining(id).unwrap_or(0.0);
                    bytes_done += cfg.bytes.saturating_sub(left as u64);
                }
            }
        }
        report.links_down_at_end = down.len();
        // Heal the fabric so a faulted run leaves the managers as it found
        // them (and the healthy baseline can run in either order). These
        // are ordinary recovery events and count as such.
        for (_, p, l) in std::mem::take(&mut down) {
            self.apply_recovery(p, l, report);
        }
        let latency = if completions > 0 {
            latency_sum / completions as f64
        } else {
            f64::INFINITY
        };
        let throughput = bytes_done as f64 / cfg.duration;
        if churn {
            report.faulted_throughput = throughput;
            report.faulted_latency = latency;
            report.faulted_completions = completions;
            report.faulted_tail = tail.tail();
        } else {
            report.healthy_throughput = throughput;
            report.healthy_latency = latency;
            report.healthy_completions = completions;
            report.healthy_tail = tail.tail();
        }
    }
}

/// Fires the SAR/PARX demand trigger when the campaign carries a profile.
/// An engine without a demand-aware variant is a logged fallback, not a
/// campaign failure: the run keeps the plain sweep, mirroring the paper's
/// toolchain where `OSM0TRIGGER` support is engine-specific.
fn apply_demand_trigger(sm: &mut SubnetManager, cfg: &CampaignConfig) -> Result<(), RouteError> {
    let Some(d) = cfg.demand.clone() else {
        return Ok(());
    };
    match sm.reroute_with_demand(d) {
        Ok(_) => Ok(()),
        Err(RouteError::NoDemandVariant(engine)) => {
            eprintln!(
                "campaign: engine {engine} has no demand-aware variant; \
                 falling back to the non-demand sweep"
            );
            hxobs::count("campaign.demand_fallbacks", 1);
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// Builds the live K-plane system — every plane swept by `engine_for(p)`
/// (with the optional demand trigger), rails bundled under the campaign's
/// PML and rail policy — and hands it to `f`: the borrow-friendly shape
/// for the fabric's internal lifetimes.
///
/// # Panics
///
/// Panics when `cfg.planes` is 0.
fn with_live<R>(
    topo: &Topology,
    engine_for: impl Fn(usize) -> Box<dyn RoutingEngine>,
    cfg: &CampaignConfig,
    f: impl FnOnce(Live<'_>) -> R,
) -> Result<R, RouteError> {
    assert!(cfg.planes >= 1, "a campaign needs at least one plane");
    let topo = Arc::new(topo.clone());
    let mut sms = Vec::with_capacity(cfg.planes);
    for p in 0..cfg.planes {
        let mut sm = SubnetManager::new(topo.clone(), engine_for(p));
        sm.verify = false; // throughput study; correctness pinned by tests
        if cfg.planes > 1 {
            sm.plane = Some(p as u32);
        }
        sm.sweep()?;
        apply_demand_trigger(&mut sm, cfg)?;
        sms.push(sm);
    }
    let snaps = sms
        .iter()
        .map(SubnetManager::snapshot)
        .collect::<Result<Vec<_>, _>>()?;
    let nodes: Vec<NodeId> = topo.nodes().collect();
    let placement = Placement::linear(&nodes, nodes.len());
    let rails: Vec<Fabric<'_>> = snaps
        .iter()
        .map(|s| {
            Fabric::with_pathdb(
                s.topo(),
                s.routes(),
                placement.clone(),
                cfg.pml.clone(),
                NetParams::qdr().with_solver(cfg.solver),
                s.pathdb().clone(),
            )
        })
        .collect();
    let mf = MultiFabric::new(rails, cfg.rail);
    Ok(f(Live {
        sms,
        mf: &mf,
        nets: Vec::new(),
        ctx: Vec::new(),
        cfg,
        seq: 0,
    }))
}

/// Runs a full campaign: `cfg.planes` planes of `topo` routed by
/// `engine_for(p)` (each applying the optional demand profile through the
/// SAR trigger), a healthy closed-loop baseline, then the same workload
/// replayed under the seeded MTBF/MTTR churn process with rail failover.
pub fn run_campaign(
    topo: &Topology,
    engine_for: impl Fn(usize) -> Box<dyn RoutingEngine>,
    cfg: &CampaignConfig,
) -> Result<CampaignReport, RouteError> {
    with_live(topo, engine_for, cfg, |mut live| {
        let k = cfg.planes;
        let engines = (0..k)
            .map(|p| live.mf.rail(p).routes.engine.to_string())
            .collect();
        let mut report = CampaignReport::start(cfg, engines);
        live.run(&mut report, false);
        live.run(&mut report, true);
        report.final_epochs = (0..k).map(|p| live.epoch(p)).collect();
        if let Some(o) = hxobs::sink() {
            o.counter_add("campaign.failures", report.failures.iter().sum());
            o.counter_add("campaign.recoveries", report.recoveries.iter().sum());
            o.histogram_record("campaign.reroute_ns", report.reroute_ns as f64);
        }
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxroute::engines::{Dfsssp, FatPaths, MinHop, Parx, Sssp};
    use hxroute::Demand;
    use hxtopo::hyperx::HyperXConfig;

    fn quick_cfg(solver: SolverKind) -> CampaignConfig {
        CampaignConfig {
            seed: 42,
            mtbf: 0.003,
            mttr: 0.006,
            duration: 0.08,
            flows: 8,
            bytes: 1 << 20,
            max_down: 4,
            solver,
            ..CampaignConfig::default()
        }
    }

    fn multi_cfg(planes: usize, rail: RailPolicy) -> CampaignConfig {
        CampaignConfig {
            planes,
            rail,
            ..quick_cfg(SolverKind::Exact)
        }
    }

    fn sssp(_: usize) -> Box<dyn RoutingEngine> {
        Box::<Sssp>::default()
    }

    fn dfsssp(_: usize) -> Box<dyn RoutingEngine> {
        Box::<Dfsssp>::default()
    }

    fn parx(_: usize) -> Box<dyn RoutingEngine> {
        Box::<Parx>::default()
    }

    fn mixed(p: usize) -> Box<dyn RoutingEngine> {
        match p % 3 {
            0 => Box::<Dfsssp>::default(),
            1 => Box::<MinHop>::default(),
            _ => Box::<Sssp>::default(),
        }
    }

    fn topo() -> Topology {
        HyperXConfig::new(vec![4, 4], 2).build()
    }

    fn demand(n: usize) -> Demand {
        let mut d = Demand::new(n);
        d.add(NodeId(0), NodeId(31), 16 << 20);
        d
    }

    #[test]
    fn campaign_reports_churn_and_heals() {
        let r = run_campaign(&topo(), sssp, &quick_cfg(SolverKind::Exact)).unwrap();
        assert!(r.failures[0] > 0, "no churn at mtbf << duration: {r:?}");
        assert_eq!(r.recoveries, r.failures, "heal must recover all: {r:?}");
        assert!(r.links_down_at_end <= r.max_links_down);
        assert!(r.incremental_events > 0, "ISL churn should patch in place");
        assert!(r.healthy_throughput > 0.0);
        assert!(r.faulted_throughput > 0.0);
        assert!(r.faulted_completions > 0);
        // Degradation is physically bounded: churn can't add capacity.
        assert!(
            r.faulted_throughput <= r.healthy_throughput * 1.001,
            "churn increased throughput? {r:?}"
        );
    }

    #[test]
    fn rolled_back_failure_still_propagates() {
        // Two switches joined by one cable: killing it disconnects the
        // fabric, so `fail_link` rolls back and re-sweeps to a new epoch,
        // which the rail must route on too.
        let topo = HyperXConfig::new(vec![2], 1).build();
        let bridge = topo
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .map(|(id, _)| id)
            .unwrap();
        let cfg = quick_cfg(SolverKind::Exact);
        with_live(&topo, sssp, &cfg, |mut live| {
            live.reset(&mut ChaCha8Rng::seed_from_u64(cfg.seed ^ WORK_STREAM));
            let mut report = CampaignReport::start(&cfg, Vec::new());
            assert!(!live.apply_failure(0, bridge, &mut report));
            assert_eq!(report.skipped, 1);
            let manager = live.sms[0].pathdb().unwrap().clone();
            let rail = live.mf.rail(0).pathdb();
            assert_eq!(rail.epoch(), live.sms[0].epoch());
            assert!(rail.content_eq(&manager));
        })
        .unwrap();
    }

    #[test]
    fn demand_trigger_falls_back_without_capability() {
        let topo = topo();
        let mut cfg = quick_cfg(SolverKind::Exact);
        cfg.demand = Some(demand(topo.num_nodes()));
        // SSSP has no demand variant: the campaign must log-and-fallback,
        // producing exactly the non-demand campaign.
        let with = run_campaign(&topo, sssp, &cfg).unwrap();
        let without = run_campaign(&topo, sssp, &quick_cfg(SolverKind::Exact)).unwrap();
        assert_eq!(with.fingerprint(), without.fingerprint());
        // PARX owns the trigger: the demand-aware campaign must run clean.
        let parx_r = run_campaign(&topo, parx, &cfg).unwrap();
        assert!(parx_r.failures[0] > 0);
        assert_eq!(parx_r.recoveries, parx_r.failures);
    }

    #[test]
    fn demand_trigger_fires_on_every_plane() {
        // A successful trigger is a second sweep, so every plane starts one
        // epoch later; a fallback leaves the epoch at the first sweep's.
        // With no fault in the window the final epochs are the initial ones.
        let topo = topo();
        let mut cfg = multi_cfg(2, RailPolicy::RoundRobin);
        cfg.demand = Some(demand(topo.num_nodes()));
        let epochs = |engine_for: fn(usize) -> Box<dyn RoutingEngine>| {
            let quiet = CampaignConfig {
                mtbf: 1e9,
                ..cfg.clone()
            };
            let r = run_campaign(&topo, engine_for, &quiet).unwrap();
            assert_eq!(r.events(), 0);
            r.final_epochs
        };
        assert_eq!(epochs(parx), [2, 2]);
        assert_eq!(epochs(sssp), [1, 1]);
        let r = run_campaign(&topo, parx, &cfg).unwrap();
        assert_eq!(r.failures, r.recoveries);
        assert!(r.failures.iter().sum::<u64>() > 0);
    }

    #[test]
    fn flow_hash_pml_reaches_every_plane() {
        // FatPaths exposes one routing layer per LID offset; only the
        // flow-hash PML spreads flows across them, on every plane.
        let topo = topo();
        let fatpaths = |_: usize| -> Box<dyn RoutingEngine> { Box::<FatPaths>::default() };
        let mut cfg = multi_cfg(2, RailPolicy::FlowHash);
        let ob1 = run_campaign(&topo, fatpaths, &cfg).unwrap();
        cfg.pml = Pml::FlowHash;
        let hashed = run_campaign(&topo, fatpaths, &cfg).unwrap();
        assert_ne!(ob1.fingerprint(), hashed.fingerprint());
    }

    #[test]
    fn campaign_is_deterministic_across_backends() {
        let topo = topo();
        let a = run_campaign(&topo, dfsssp, &quick_cfg(SolverKind::Exact)).unwrap();
        let b = run_campaign(&topo, dfsssp, &quick_cfg(SolverKind::Incremental)).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "\n{a:?}\nvs\n{b:?}");
        assert_eq!(
            a.healthy_throughput.to_bits(),
            b.healthy_throughput.to_bits()
        );
        assert_eq!(
            a.faulted_throughput.to_bits(),
            b.faulted_throughput.to_bits()
        );
        // Same seed, same backend: exactly reproducible.
        let c = run_campaign(&topo, dfsssp, &quick_cfg(SolverKind::Exact)).unwrap();
        assert_eq!(a.fingerprint(), c.fingerprint());
        // Different seed: different campaign.
        let mut cfg = quick_cfg(SolverKind::Exact);
        cfg.seed = 43;
        let d = run_campaign(&topo, dfsssp, &cfg).unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn two_plane_campaign_reports_churn_and_failovers() {
        let mut cfg = multi_cfg(2, RailPolicy::RoundRobin);
        cfg.force_failover = true;
        let r = run_campaign(&topo(), mixed, &cfg).unwrap();
        assert_eq!(r.planes, 2);
        assert!(r.events() > 0, "no churn at mtbf << duration: {r:?}");
        assert_eq!(
            r.failures, r.recoveries,
            "heal must recover all per plane: {r:?}"
        );
        assert!(r.failovers > 0, "forced failover must migrate flows: {r:?}");
        assert!(r.healthy_throughput > 0.0);
        assert!(r.faulted_throughput > 0.0);
        assert!(
            r.faulted_throughput <= r.healthy_throughput * 1.001,
            "churn increased throughput? {r:?}"
        );
        // Only churned planes' stores moved past the initial epoch 1.
        for (p, &e) in r.final_epochs.iter().enumerate() {
            assert!(
                e >= 1 + r.failures[p] + r.recoveries[p],
                "plane {p} epoch {e} vs events {r:?}"
            );
        }
    }

    #[test]
    fn campaign_is_deterministic_per_seed_and_policy() {
        let topo = topo();
        for rail in RailPolicy::all() {
            let cfg = multi_cfg(2, rail);
            let a = run_campaign(&topo, mixed, &cfg).unwrap();
            let b = run_campaign(&topo, mixed, &cfg).unwrap();
            assert_eq!(a.fingerprint(), b.fingerprint(), "{rail:?}");
            let mut c2 = cfg.clone();
            c2.solver = SolverKind::Incremental;
            let c = run_campaign(&topo, mixed, &c2).unwrap();
            assert_eq!(
                a.fingerprint(),
                c.fingerprint(),
                "{rail:?} across backends\n{a:?}\nvs\n{c:?}"
            );
        }
        // Different seed: different campaign.
        let mut cfg = multi_cfg(2, RailPolicy::RoundRobin);
        cfg.seed = 43;
        let d = run_campaign(&topo, mixed, &cfg).unwrap();
        let a = run_campaign(&topo, mixed, &multi_cfg(2, RailPolicy::RoundRobin)).unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn both_phases_launch_onto_the_same_rails() {
        // Rail selection restarts with every phase: with no fault in the
        // window, the churn replay is the healthy baseline bit for bit.
        for rail in RailPolicy::all() {
            let cfg = CampaignConfig {
                mtbf: 1e9,
                ..multi_cfg(3, rail)
            };
            let r = run_campaign(&topo(), mixed, &cfg).unwrap();
            assert_eq!(r.events(), 0);
            let healthy = (r.healthy_completions, r.healthy_latency.to_bits());
            let faulted = (r.faulted_completions, r.faulted_latency.to_bits());
            assert_eq!(healthy, faulted, "{rail:?}");
        }
    }

    #[test]
    fn single_plane_system_survives_without_failover_targets() {
        // K = 1: failover has nowhere to go and must degrade gracefully to
        // in-place patching.
        let mut cfg = multi_cfg(1, RailPolicy::LeastLoaded);
        cfg.force_failover = true;
        let r = run_campaign(&topo(), mixed, &cfg).unwrap();
        assert_eq!(r.failovers, 0);
        assert!(r.failures.iter().sum::<u64>() > 0);
        assert!(r.faulted_completions > 0);
    }
}
