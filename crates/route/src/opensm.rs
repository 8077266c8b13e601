//! OpenSM-like subnet-manager orchestration.
//!
//! The paper's evaluation toolchain drives a patched OpenSM: a sweep
//! discovers the fabric and computes routes with the selected engine; the
//! SAR-style trigger re-routes with an ingested communication profile
//! before a job starts (Section 4.4.3, the artifact's `OSM0TRIGGER`); and
//! cable failures are handled fail-in-place (Domke et al. \[15\]): routes
//! that avoid the dead cable are preserved, and only the destination trees
//! that traversed it are recomputed and patched into the shared [`PathDb`].

use crate::demand::Demand;
use crate::dijkstra::dijkstra_to_dest;
use crate::engines::{walked_hops, LftDelta, RoutingEngine};
use crate::lft::{RouteError, Routes};
use crate::lid::Lid;
use crate::pathdb::PathDb;
use crate::verify::{verify_deadlock_free, PathStats};
use hxobs::{Span, SpanCtx};
use hxtopo::{LinkClass, LinkId, SwitchId, Topology};
use std::sync::Arc;

/// Outcome of one subnet sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Path statistics of the new routing state.
    pub paths: PathStats,
    /// Virtual lanes in use.
    pub vls: u8,
    /// Sweep counter (increments per successful sweep or incremental patch).
    pub epoch: u64,
    /// Destination trees this sweep recomputed: all of them for a full
    /// sweep, only the broken ones for an incremental reroute.
    pub patched_trees: usize,
    /// Whether the sweep was an incremental fail-in-place patch rather than
    /// a from-scratch engine run.
    pub incremental: bool,
}

/// A minimal subnet manager: owns the fabric view, the current routing
/// state and its [`PathDb`], re-sweeping on failures or demand changes.
pub struct SubnetManager {
    topo: Topology,
    engine: Box<dyn RoutingEngine>,
    routes: Option<Routes>,
    pathdb: Option<Arc<PathDb>>,
    /// `pathdb`'s statistics, computed once per epoch and shared with
    /// every snapshot of it.
    paths: Option<Arc<PathStats>>,
    epoch: u64,
    /// Verify deadlock freedom on every sweep (the paper's criteria (4);
    /// disable only for throughput experiments). Loop freedom and
    /// reachability are always checked — the PathDb build is that check.
    pub verify: bool,
    /// Repair cable failures incrementally (fail-in-place) instead of
    /// re-running the engine from scratch. Falls back to a full sweep when
    /// the patch fails (disconnection, VL layering breakage).
    pub incremental: bool,
    /// PathDb build parallelism (`0` = auto).
    pub threads: usize,
    /// Plane id tagged onto every emitted span and sketch sample when the
    /// manager runs one shard of a multi-plane system (`None` = the
    /// single-plane default, no tag).
    pub plane: Option<u32>,
}

impl SubnetManager {
    /// Takes ownership of the fabric view with a routing engine.
    pub fn new(topo: Topology, engine: Box<dyn RoutingEngine>) -> SubnetManager {
        SubnetManager {
            topo,
            engine,
            routes: None,
            pathdb: None,
            paths: None,
            epoch: 0,
            verify: true,
            incremental: true,
            threads: 0,
            plane: None,
        }
    }

    /// Restores a manager from previously computed state (bench harnesses,
    /// checkpoint restarts). The epoch resumes from the PathDb's stamp.
    pub fn with_state(
        topo: Topology,
        engine: Box<dyn RoutingEngine>,
        routes: Routes,
        pathdb: Arc<PathDb>,
    ) -> SubnetManager {
        let epoch = pathdb.epoch();
        let paths = Arc::new(pathdb.stats());
        SubnetManager {
            topo,
            engine,
            routes: Some(routes),
            pathdb: Some(pathdb),
            paths: Some(paths),
            epoch,
            verify: true,
            incremental: true,
            threads: 0,
            plane: None,
        }
    }

    /// The managed fabric.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Label of the routing engine currently driving sweeps.
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Current routing state (after the first sweep).
    pub fn routes(&self) -> Option<&Routes> {
        self.routes.as_ref()
    }

    /// The shared path store of the current epoch (after the first sweep).
    pub fn pathdb(&self) -> Option<&Arc<PathDb>> {
        self.pathdb.as_ref()
    }

    /// Sweep counter.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Discovers and routes the fabric (an OpenSM heavy sweep), building
    /// the epoch's [`PathDb`] in parallel.
    pub fn sweep(&mut self) -> Result<SweepReport, RouteError> {
        let obs = hxobs::sink();
        let t0 = std::time::Instant::now();
        let start_us = obs.as_ref().map(|o| o.now_us()).unwrap_or(0.0);
        let routes = self.engine.route(&self.topo)?;
        let route_secs = t0.elapsed().as_secs_f64();
        let db0 = std::time::Instant::now();
        let db = PathDb::build(&self.topo, &routes, self.epoch + 1, self.threads)?;
        let db_secs = db0.elapsed().as_secs_f64();
        let paths = db.stats();
        if self.verify {
            verify_deadlock_free(&self.topo, &routes)?;
        }
        self.epoch += 1;
        let vls = routes.num_vls;
        let patched_trees = routes.lid_map.lids().count();
        if let Some(o) = &obs {
            let engine = self.engine.name();
            o.tracer.name_process(hxobs::track::OPENSM, "opensm");
            o.span(
                hxobs::track::OPENSM,
                0,
                &format!("sweep:{engine}"),
                "route",
                start_us,
                o.now_us() - start_us,
                vec![
                    ("engine".to_string(), hxobs::Json::from(engine)),
                    ("epoch".to_string(), hxobs::Json::from(self.epoch)),
                    ("vls".to_string(), hxobs::Json::from(vls as u64)),
                ],
            );
            o.counter_add("route.sweeps", 1);
            o.histogram_record(&format!("route.sweep_seconds.{engine}"), route_secs);
            o.histogram_record("pathdb.build_seconds", db_secs);
            o.gauge_set("pathdb.epoch", self.epoch as f64);
            o.gauge_set("pathdb.isl_hops", db.num_isl_hops() as f64);
            o.gauge_set("route.vls", vls as f64);
            o.gauge_set("route.lft_entries", routes.num_lft_entries() as f64);
            let hop_hist = o.registry.histogram("route.pair_hops");
            for (hops, &n) in paths.hist.iter().enumerate() {
                for _ in 0..n {
                    hop_hist.record(hops as f64);
                }
            }
        }
        self.routes = Some(routes);
        self.pathdb = Some(Arc::new(db));
        self.paths = Some(Arc::new(paths.clone()));
        Ok(SweepReport {
            paths,
            vls,
            epoch: self.epoch,
            patched_trees,
            incremental: false,
        })
    }

    /// Fail-in-place: deactivates a cable and repairs around it. With
    /// [`SubnetManager::incremental`] set (the default), only the
    /// destination trees whose paths traversed the cable are recomputed and
    /// patched into the PathDb; otherwise — or when the patch fails — the
    /// engine re-sweeps from scratch. Returns an error (and re-activates
    /// the cable) if the fabric would become unroutable.
    pub fn fail_link(&mut self, l: LinkId) -> Result<SweepReport, RouteError> {
        self.fail_link_spanned(l, SpanCtx::none())
    }

    /// [`SubnetManager::fail_link`] with explicit causal attribution: the
    /// emitted `fail_link` span (and its `pathdb_patch` child) parent under
    /// `parent` — e.g. a campaign `step` — so the trace shows one tree per
    /// injected failure.
    pub fn fail_link_spanned(
        &mut self,
        l: LinkId,
        parent: SpanCtx,
    ) -> Result<SweepReport, RouteError> {
        self.cable_event(l, false, parent)
    }

    /// Recover-in-place: the incremental inverse of
    /// [`SubnetManager::fail_link`]. Reactivates a cable and re-runs the
    /// destination-rooted repair only for the LID trees the restored cable
    /// could improve — the trees whose hop distance from the cable's two
    /// endpoint switches differs by two or more (restoring an edge `(u, v)`
    /// shortens a shortest-path tree iff `|d(u) - d(v)| >= 2`), plus any
    /// tree an endpoint cannot currently reach at all. Unselected trees keep
    /// their (valid) routes byte-for-byte, so the patched store stays
    /// bit-identical to a from-scratch extraction of the live forwarding
    /// state. Falls back to a full engine sweep when incremental state is
    /// missing, the cable is a terminal (node membership change), or the
    /// patch fails; with [`SubnetManager::incremental`] off it always
    /// re-sweeps, restoring the engine's exact balancing.
    pub fn recover_link(&mut self, l: LinkId) -> Result<SweepReport, RouteError> {
        self.recover_link_spanned(l, SpanCtx::none())
    }

    /// [`SubnetManager::recover_link`] with explicit causal attribution —
    /// the `recover_link` span and its `pathdb_patch` child parent under
    /// `parent`, mirroring [`SubnetManager::fail_link_spanned`].
    pub fn recover_link_spanned(
        &mut self,
        l: LinkId,
        parent: SpanCtx,
    ) -> Result<SweepReport, RouteError> {
        self.cable_event(l, true, parent)
    }

    /// The one repair ladder behind every cable event. Takes cable `l`
    /// down (`recover` false) or brings it back up (`recover` true), then
    /// tries, in order, the engine's own incremental rule, the generic
    /// load-aware patch of the candidate trees (the trees that crossed the
    /// dead cable, or the trees the restored one could improve) and a full
    /// resweep. When the resweep fails the cable is toggled back and the
    /// previous fabric re-swept, so an event never leaves the manager
    /// worse than before it.
    fn cable_event(
        &mut self,
        l: LinkId,
        recover: bool,
        parent: SpanCtx,
    ) -> Result<SweepReport, RouteError> {
        let (name, counter, op) = if recover {
            ("recover_link", "route.link_recoveries", "recover")
        } else {
            ("fail_link", "route.link_failures", "reroute")
        };
        // Lifecycle contract: churn against an unswept manager is a caller
        // bug in a batch run but a benign race in a resident daemon (a query
        // or event arriving mid-bring-up) — degrade to a retryable error
        // with the fabric view untouched instead of panicking.
        if self.routes.is_none() || self.pathdb.is_none() {
            return Err(RouteError::NotSwept(name));
        }
        let mut sp = Span::under(parent, hxobs::track::OPENSM, 0, name, "route");
        sp.arg("link", hxobs::Json::from(l.0 as u64));
        sp.arg("engine", hxobs::Json::from(self.engine.name()));
        if let Some(p) = self.plane {
            sp.set_plane(p);
        }
        let ctx = sp.ctx();
        if let Some(o) = hxobs::sink() {
            o.tracer.name_process(hxobs::track::OPENSM, "opensm");
            o.counter_add(counter, 1);
            o.instant(
                hxobs::track::OPENSM,
                0,
                name,
                "route",
                o.now_us(),
                vec![("link".to_string(), hxobs::Json::from(l.0 as u64))],
            );
        }
        let done = |mut sp: Span, repair: &str, r: SweepReport| {
            sp.arg("repair", hxobs::Json::from(repair));
            sp.set_epoch(r.epoch);
            sp.end();
            r
        };
        // Terminal cables detach a node outright; that is a membership
        // change, not a reroute — leave it to the full-sweep path. The
        // recovery of a cable that is already up re-sweeps too.
        let try_incremental = self.incremental
            && self.topo.link(l).class != LinkClass::Terminal
            && !(recover && self.topo.is_active(l));
        self.set_cable(l, recover);
        if try_incremental {
            // Engines owning an incremental-repair rule get first shot; the
            // generic load-aware patch is the fallback, a full resweep the
            // last resort. The capability probe lives inside `engine_patch`
            // itself: an engine without the rule returns
            // [`RouteError::NoEngineRepair`] and falls through here.
            if let Ok(r) = self.engine_patch(l, recover, ctx) {
                return Ok(done(sp, "engine", r));
            }
            let candidates = if recover {
                self.recover_candidates(l)
            } else {
                self.pathdb
                    .as_ref()
                    .ok_or(RouteError::NoPathDb)
                    .map(|db| db.affected_by(l))
            };
            if let Ok(r) = candidates.and_then(|c| self.patch_trees(c, op, ctx)) {
                return Ok(done(sp, "generic", r));
            }
            // Patch failed (disconnection or VL layering breakage): fall
            // through to the full resweep with state untouched.
        }
        match self.sweep() {
            Ok(r) => Ok(done(sp, "resweep", r)),
            Err(e) => {
                // Restore the previous consistent routing state.
                self.set_cable(l, !recover);
                self.sweep()?;
                Err(e)
            }
        }
    }

    /// Brings cable `l` up or takes it down in the managed fabric view.
    fn set_cable(&mut self, l: LinkId, up: bool) {
        if up {
            self.topo.activate(l);
        } else {
            self.topo.deactivate(l);
        }
    }

    /// Applies the engine's own [`IncrementalRepair`] rule for cable `l`
    /// (just deactivated when `recover` is false, just reactivated when
    /// true), committing the returned LFT delta through the shared patch
    /// pipeline. The capability probe is part of this dispatch step: an
    /// engine without [`RoutingEngine::incremental`] yields
    /// [`RouteError::NoEngineRepair`] (no span emitted, no state touched)
    /// and the caller falls through to the generic load-aware patch.
    ///
    /// [`IncrementalRepair`]: crate::engines::IncrementalRepair
    fn engine_patch(
        &mut self,
        l: LinkId,
        recover: bool,
        parent: SpanCtx,
    ) -> Result<SweepReport, RouteError> {
        if self.engine.incremental().is_none() {
            return Err(RouteError::NoEngineRepair(self.engine.name()));
        }
        if self.routes.is_none() {
            return Err(RouteError::NotSwept("engine_patch"));
        }
        let op = if recover { "recover" } else { "reroute" };
        let t0 = std::time::Instant::now();
        let mut patch_sp = self.begin_patch_span(op, "engine", parent);
        let delta = {
            let routes = self
                .routes
                .as_ref()
                .ok_or(RouteError::NotSwept("engine_patch"))?;
            let ir = self
                .engine
                .incremental()
                .ok_or(RouteError::NoEngineRepair(self.engine.name()))?;
            let delta_sp = patch_sp.child("engine_delta", "route");
            let delta = if recover {
                ir.on_recover(&self.topo, routes, l)?
            } else {
                ir.on_fail(&self.topo, routes, l)?
            };
            delta_sp.end();
            delta
        };
        patch_sp.arg("trees", hxobs::Json::from(delta.touched.len()));
        self.commit_patch(delta, op, patch_sp, t0)
    }

    /// Re-runs the destination-rooted repair for the given LID trees against
    /// the current topology, patching the PathDb and bumping the epoch.
    /// State is committed only on success. `op` labels the obs span and
    /// counters (`"reroute"` after a failure, `"recover"` after a repair).
    fn patch_trees(
        &mut self,
        affected: Vec<Lid>,
        op: &str,
        parent: SpanCtx,
    ) -> Result<SweepReport, RouteError> {
        if self.routes.is_none() {
            return Err(RouteError::NotSwept("patch_trees"));
        }
        let db = self.pathdb.clone().ok_or(RouteError::NoPathDb)?;
        let t0 = std::time::Instant::now();
        let mut patch_sp = self.begin_patch_span(op, "generic", parent);
        patch_sp.arg("trees", hxobs::Json::from(affected.len()));
        let routes = self
            .routes
            .as_ref()
            .ok_or(RouteError::NotSwept("patch_trees"))?;
        let repair_sp = patch_sp.child("generic_repair", "route");
        let delta = repair_trees(&self.topo, routes, &db, affected)?;
        repair_sp.end();
        self.commit_patch(delta, op, patch_sp, t0)
    }

    /// Opens the `pathdb_patch` span shared by both repair mechanisms.
    /// `mechanism` records who computed the patch: `"engine"` for an
    /// engine-owned [`IncrementalRepair`] delta, `"generic"` for the
    /// manager's load-aware destination-tree rebuild.
    ///
    /// [`IncrementalRepair`]: crate::engines::IncrementalRepair
    fn begin_patch_span(&self, op: &str, mechanism: &str, parent: SpanCtx) -> Span {
        let mut sp = Span::under(parent, hxobs::track::OPENSM, 0, "pathdb_patch", "route");
        if let Some(p) = self.plane {
            sp.set_plane(p);
        }
        sp.arg("op", hxobs::Json::from(op));
        sp.arg("engine", hxobs::Json::from(self.engine.name()));
        sp.arg("mechanism", hxobs::Json::from(mechanism));
        sp
    }

    /// Applies a repair's LFT delta to the live routing state in place and
    /// commits it: patches the PathDb for the delta's trees, re-checks
    /// deadlock freedom, bumps the epoch, and emits the repair telemetry.
    /// On error the replaced entries are restored and the state is
    /// untouched, so the caller can fall back to a full resweep.
    fn commit_patch(
        &mut self,
        delta: LftDelta,
        op: &str,
        mut patch_sp: Span,
        t0: std::time::Instant,
    ) -> Result<SweepReport, RouteError> {
        let mut routes = self
            .routes
            .take()
            .ok_or(RouteError::NotSwept("commit_patch"))?;
        let undo = delta.apply_undoable(&mut routes);
        let affected = delta.touched;
        let new_db = match self.patched_store(&routes, &affected, &patch_sp) {
            Ok(db) => db,
            Err(e) => {
                undo.apply(&mut routes);
                self.routes = Some(routes);
                return Err(e);
            }
        };
        let stats_sp = patch_sp.child("path_stats", "route");
        let paths = new_db.stats();
        stats_sp.end();
        self.epoch += 1;
        debug_assert_eq!(new_db.epoch(), self.epoch);
        let secs = t0.elapsed().as_secs_f64();
        patch_sp.set_epoch(self.epoch);
        patch_sp.end();
        match self.plane {
            Some(p) => hxobs::sketch_record_plane("reroute.latency_us", self.epoch, p, secs * 1e6),
            None => hxobs::sketch_record("reroute.latency_us", self.epoch, secs * 1e6),
        }
        if let Some(o) = hxobs::sink() {
            o.tracer.name_process(hxobs::track::OPENSM, "opensm");
            o.counter_add(
                if op == "recover" {
                    "route.incremental_recoveries"
                } else {
                    "route.incremental_reroutes"
                },
                1,
            );
            o.counter_add("pathdb.patched_trees", affected.len() as u64);
            o.histogram_record("route.incremental_seconds", secs);
            o.gauge_set("pathdb.epoch", self.epoch as f64);
        }
        let vls = routes.num_vls;
        self.routes = Some(routes);
        self.pathdb = Some(Arc::new(new_db));
        self.paths = Some(Arc::new(paths.clone()));
        Ok(SweepReport {
            paths,
            vls,
            epoch: self.epoch,
            patched_trees: affected.len(),
            incremental: true,
        })
    }

    /// The path store of the repaired `routes`, after the deadlock-freedom
    /// re-check when [`SubnetManager::verify`] is set.
    fn patched_store(
        &self,
        routes: &Routes,
        affected: &[Lid],
        patch_sp: &Span,
    ) -> Result<PathDb, RouteError> {
        let db = self.pathdb.as_ref().ok_or(RouteError::NoPathDb)?;
        let columns_sp = patch_sp.child("pathdb_columns", "route");
        let new_db = db.patched(&self.topo, routes, affected)?;
        columns_sp.end();
        // Repaired trees keep their old service levels; re-check the CDGs
        // and let the caller fall back to a full sweep if layering broke.
        if self.verify {
            verify_deadlock_free(&self.topo, routes)?;
        }
        Ok(new_db)
    }

    /// Destination LID trees the (just reactivated) cable `l` could improve,
    /// measured on the live forwarding state: LFT hop distances of the
    /// cable's endpoint switches differing by >= 2, or an endpoint that
    /// cannot reach the destination at all.
    fn recover_candidates(&self, l: LinkId) -> Result<Vec<Lid>, RouteError> {
        let routes = self
            .routes
            .as_ref()
            .ok_or(RouteError::NotSwept("recover_candidates"))?;
        let link = self.topo.link(l);
        let (Some(u), Some(v)) = (link.a.switch(), link.b.switch()) else {
            // Terminal cables are gated out by `cable_event`.
            return Ok(Vec::new());
        };
        Ok(routes
            .lid_map
            .lids()
            .filter_map(|(lid, _)| {
                let improvable = match (
                    walked_hops(&self.topo, routes, u, lid),
                    walked_hops(&self.topo, routes, v, lid),
                ) {
                    (Some(a), Some(b)) => a.abs_diff(b) >= 2,
                    // An endpoint has no (valid) route to this tree; the
                    // restored cable may be what reconnects it.
                    _ => true,
                };
                improvable.then_some(lid)
            })
            .collect())
    }

    /// The SAR/PARX trigger: re-route with a communication profile before a
    /// job starts. The engine decides what a demand-aware sweep means via
    /// [`RoutingEngine::with_demand`]; engines without a demand-aware
    /// variant return [`RouteError::NoDemandVariant`] and keep the current
    /// routing state untouched.
    pub fn reroute_with_demand(&mut self, demand: Demand) -> Result<SweepReport, RouteError> {
        let Some(engine) = self.engine.with_demand(demand) else {
            return Err(RouteError::NoDemandVariant(self.engine.name()));
        };
        if let Some(o) = hxobs::sink() {
            o.counter_add("route.demand_reroutes", 1);
            o.instant(
                hxobs::track::OPENSM,
                0,
                "reroute_with_demand",
                "route",
                o.now_us(),
                vec![],
            );
        }
        self.engine = engine;
        self.sweep()
    }

    /// A consistent, immutable view of the current routing epoch for
    /// read-side consumers: topology, forwarding tables, and path store
    /// glued together under one epoch stamp, with the path statistics the
    /// sweep or patch already computed. Cheap to clone (four `Arc`s)
    /// and safe to hand to other threads while this manager keeps churning.
    /// Returns [`RouteError::NotSwept`] / [`RouteError::NoPathDb`] before
    /// the first sweep — retryable, never a panic.
    pub fn snapshot(&self) -> Result<FabricSnapshot, RouteError> {
        let routes = self
            .routes
            .as_ref()
            .ok_or(RouteError::NotSwept("snapshot"))?;
        let pathdb = self.pathdb.clone().ok_or(RouteError::NoPathDb)?;
        let stats = self.paths.clone().ok_or(RouteError::NoPathDb)?;
        Ok(FabricSnapshot {
            topo: Arc::new(self.topo.clone()),
            routes: Arc::new(routes.clone()),
            pathdb,
            stats,
        })
    }
}

/// Load-aware destination-tree repair shared by the live incremental patch
/// ([`SubnetManager::fail_link`] / [`SubnetManager::recover_link`]) and the
/// speculative [`FabricSnapshot::what_if_fail`] query: each affected LID
/// tree is rebuilt by a Dijkstra weighted with the current per-cable path
/// counts, so the repair spreads detours without replaying the engine's
/// balancing history. Returns the LFT rewrites that install the rebuilt
/// trees, with `affected` as the touched trees; an empty `affected` set
/// rewrites nothing (the epoch still advances at commit so consumers
/// observe the event).
fn repair_trees(
    topo: &Topology,
    routes: &Routes,
    db: &PathDb,
    affected: Vec<Lid>,
) -> Result<LftDelta, RouteError> {
    if affected.is_empty() {
        return Ok(LftDelta::default());
    }
    let weights = db.link_loads(topo);
    let src_switches: Vec<SwitchId> = topo
        .switches()
        .filter(|&s| topo.attached_nodes(s).next().is_some())
        .collect();
    let mut delta = LftDelta::default();
    for &lid in &affected {
        let owner = routes
            .lid_map
            .owner(lid)
            .ok_or(RouteError::UnknownLid(lid))?;
        let (dsw, dlink) = topo.node_switch(owner);
        let tree = dijkstra_to_dest(topo, dsw, &weights, None);
        for &s in &src_switches {
            if !tree.reachable(s) {
                return Err(RouteError::NoRoute { switch: s, lid });
            }
        }
        delta.install_tree(&tree, lid, dlink);
    }
    delta.touched = affected;
    Ok(delta)
}

/// One routing epoch frozen for concurrent readers: the topology as the
/// subnet manager saw it, the forwarding tables it installed, and the
/// [`PathDb`] extracted from them. Produced by [`SubnetManager::snapshot`];
/// the `hxd` service publishes one per epoch and readers pin it for the
/// duration of a query, so a sweep racing the query can never tear the view.
#[derive(Clone)]
pub struct FabricSnapshot {
    topo: Arc<Topology>,
    routes: Arc<Routes>,
    pathdb: Arc<PathDb>,
    stats: Arc<PathStats>,
}

/// Answer to a speculative "what if cable `link` failed?" query, computed
/// against a pinned [`FabricSnapshot`] without touching live state.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfReport {
    /// The hypothetically failed cable.
    pub link: LinkId,
    /// Destination trees whose paths traverse the cable (the repair cost).
    pub affected_trees: usize,
    /// Whether losing the cable disconnects the fabric (or, for a terminal
    /// cable, detaches a node — a membership change, not a reroute).
    pub disconnects: bool,
    /// Path statistics of the pinned epoch, before the hypothetical failure.
    pub before: PathStats,
    /// Path statistics after the speculative repair; `None` when the
    /// failure disconnects.
    pub after: Option<PathStats>,
    /// Epoch the speculation was computed against.
    pub epoch: u64,
}

impl FabricSnapshot {
    /// Epoch stamp of this view (the path store's epoch).
    pub fn epoch(&self) -> u64 {
        self.pathdb.epoch()
    }

    /// Routing engine that produced this epoch's forwarding tables.
    pub fn engine(&self) -> &'static str {
        self.routes.engine
    }

    /// The frozen fabric view.
    pub fn topo(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The frozen forwarding tables.
    pub fn routes(&self) -> &Arc<Routes> {
        &self.routes
    }

    /// The frozen path store.
    pub fn pathdb(&self) -> &Arc<PathDb> {
        &self.pathdb
    }

    /// Hop statistics of the frozen path store, as the epoch's sweep or
    /// patch computed them (equal to `pathdb().stats()`, without the pass).
    pub fn stats(&self) -> &PathStats {
        &self.stats
    }

    /// Speculatively fails cable `l`: clones the frozen topology, repairs
    /// the affected destination trees with the shared load-aware rule, and
    /// rebuilds their path-store columns via [`PathDb::patched`] — live
    /// state is never touched. Already-inactive cables are zero-impact (the
    /// pinned epoch routes without them); terminal cables and disconnecting
    /// failures report `disconnects` instead of repaired statistics. The
    /// speculation skips the deadlock-freedom check — it is an advisory
    /// estimate, not a commit.
    pub fn what_if_fail(&self, l: LinkId) -> Result<WhatIfReport, RouteError> {
        if l.0 as usize >= self.topo.num_links() {
            return Err(RouteError::UnsupportedTopology(
                "what-if cable out of range",
            ));
        }
        let before = (*self.stats).clone();
        let epoch = self.epoch();
        if !self.topo.is_active(l) {
            return Ok(WhatIfReport {
                link: l,
                affected_trees: 0,
                disconnects: false,
                after: Some(before.clone()),
                before,
                epoch,
            });
        }
        let affected = self.pathdb.affected_by(l);
        if self.topo.link(l).class == LinkClass::Terminal {
            return Ok(WhatIfReport {
                link: l,
                affected_trees: affected.len(),
                disconnects: true,
                before,
                after: None,
                epoch,
            });
        }
        let mut topo = (*self.topo).clone();
        topo.deactivate(l);
        let repaired =
            repair_trees(&topo, &self.routes, &self.pathdb, affected.clone()).and_then(|delta| {
                let mut routes = (*self.routes).clone();
                delta.apply(&mut routes);
                self.pathdb.patched(&topo, &routes, &affected)
            });
        match repaired {
            Ok(db) => Ok(WhatIfReport {
                link: l,
                affected_trees: affected.len(),
                disconnects: false,
                before,
                after: Some(db.stats()),
                epoch,
            }),
            // A repair that cannot reach every source switch means the
            // fabric falls apart without this cable.
            Err(RouteError::NoRoute { .. }) => Ok(WhatIfReport {
                link: l,
                affected_trees: affected.len(),
                disconnects: true,
                before,
                after: None,
                epoch,
            }),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{Dfsssp, FtHyperX, Parx, Sssp};
    use hxtopo::hyperx::HyperXConfig;
    use hxtopo::LinkClass;

    fn hx() -> Topology {
        HyperXConfig::new(vec![4, 4], 2).build()
    }

    #[test]
    fn sweep_routes_and_verifies() {
        let mut sm = SubnetManager::new(hx(), Box::new(Dfsssp::default()));
        assert!(sm.routes().is_none());
        assert!(sm.pathdb().is_none());
        let r = sm.sweep().unwrap();
        assert_eq!(r.epoch, 1);
        assert!(r.vls <= 8);
        assert_eq!(r.paths.pairs, 32 * 31);
        assert!(!r.incremental);
        assert!(sm.routes().is_some());
        assert_eq!(sm.pathdb().unwrap().epoch(), 1);
    }

    #[test]
    fn fail_in_place_reroutes() {
        let mut sm = SubnetManager::new(hx(), Box::new(Dfsssp::default()));
        sm.sweep().unwrap();
        let isl = sm
            .topo()
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        let r = sm.fail_link(isl).unwrap();
        assert_eq!(r.epoch, 2);
        assert!(!sm.topo().is_active(isl));
        // All pairs still reachable around the dead cable.
        assert_eq!(r.paths.pairs, 32 * 31);
        // A full resweep restores the engine's exact balancing.
        sm.incremental = false;
        let r = sm.recover_link(isl).unwrap();
        assert_eq!(r.epoch, 3);
        assert!(!r.incremental);
        assert!(sm.topo().is_active(isl));
    }

    #[test]
    fn incremental_patch_matches_from_scratch_rebuild() {
        let mut sm = SubnetManager::new(hx(), Box::new(Sssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let isl = sm
            .topo()
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        let r = sm.fail_link(isl).unwrap();
        assert!(r.incremental, "ISL failure should be patched in place");
        assert!(r.patched_trees > 0);
        assert_eq!(r.epoch, 2);
        // The patched store must equal a from-scratch extraction of the
        // repaired forwarding state — and that build rejects any path that
        // still traverses the dead cable.
        let rebuilt = PathDb::build(sm.topo(), sm.routes().unwrap(), r.epoch, 1).unwrap();
        assert!(sm.pathdb().unwrap().content_eq(&rebuilt));
    }

    #[test]
    fn unaffected_cable_failure_keeps_paths_and_bumps_epoch() {
        let mut sm = SubnetManager::new(hx(), Box::new(Sssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let before = sm.pathdb().unwrap().clone();
        // Find an ISL no path uses (minimal routing leaves some cables idle
        // only if loads say so — fall back to skipping the test if none).
        let Some(idle) = sm
            .topo()
            .links()
            .filter(|(_, l)| l.class != LinkClass::Terminal)
            .map(|(id, _)| id)
            .find(|&id| before.affected_by(id).is_empty())
        else {
            return;
        };
        let r = sm.fail_link(idle).unwrap();
        assert!(r.incremental);
        assert_eq!(r.patched_trees, 0);
        assert!(sm.pathdb().unwrap().content_eq(&before));
        assert_eq!(sm.pathdb().unwrap().epoch(), 2);
    }

    #[test]
    fn recover_link_patch_matches_from_scratch_rebuild() {
        let mut sm = SubnetManager::new(hx(), Box::new(Sssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let healthy = sm.pathdb().unwrap().stats();
        let isl = sm
            .topo()
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        sm.fail_link(isl).unwrap();
        let r = sm.recover_link(isl).unwrap();
        assert!(r.incremental, "ISL recovery should be patched in place");
        assert!(sm.topo().is_active(isl));
        assert_eq!(r.epoch, 3);
        // Bit-identical to extracting the live forwarding state from scratch.
        let rebuilt = PathDb::build(sm.topo(), sm.routes().unwrap(), r.epoch, 1).unwrap();
        assert!(sm.pathdb().unwrap().content_eq(&rebuilt));
        // The repaired trees shed the detour: path-length stats are back to
        // the healthy distribution.
        assert_eq!(sm.pathdb().unwrap().stats(), healthy);
    }

    #[test]
    fn recover_active_link_bumps_epoch_only() {
        let mut sm = SubnetManager::new(hx(), Box::new(Sssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let before = sm.pathdb().unwrap().clone();
        let isl = sm
            .topo()
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        // Recovering a cable that never failed must not patch in place (the
        // gate sees it active) — it falls back to a clean sweep.
        let r = sm.recover_link(isl).unwrap();
        assert!(!r.incremental);
        assert_eq!(r.epoch, 2);
        assert!(sm.pathdb().unwrap().content_eq(&before));
    }

    #[test]
    fn recover_terminal_link_resweeps() {
        let mut sm = SubnetManager::new(hx(), Box::new(Sssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let term = sm
            .topo()
            .links()
            .find(|(_, l)| l.class == LinkClass::Terminal)
            .unwrap()
            .0;
        sm.topo.deactivate(term);
        let r = sm.recover_link(term).unwrap();
        assert!(!r.incremental, "terminal recovery changes node membership");
        assert!(sm.topo().is_active(term));
    }

    #[test]
    fn with_state_resumes_epoch() {
        let mut sm = SubnetManager::new(hx(), Box::new(Sssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let routes = sm.routes().unwrap().clone();
        let db = sm.pathdb().unwrap().clone();
        let mut sm2 =
            SubnetManager::with_state(sm.topo().clone(), Box::new(Sssp::default()), routes, db);
        sm2.verify = false;
        assert_eq!(sm2.epoch(), 1);
        let isl = sm2
            .topo()
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        let r = sm2.fail_link(isl).unwrap();
        assert_eq!(r.epoch, 2);
    }

    #[test]
    fn catastrophic_failure_is_rolled_back() {
        // 1-D HyperX of 2 switches: killing the only ISL disconnects it.
        let topo = HyperXConfig::new(vec![2], 2).build();
        let isl = topo
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        let mut sm = SubnetManager::new(topo, Box::new(Sssp::default()));
        sm.sweep().unwrap();
        assert!(sm.fail_link(isl).is_err());
        // Rolled back: cable active again and routing state restored.
        assert!(sm.topo().is_active(isl));
        assert!(sm.routes().is_some());
    }

    #[test]
    fn failed_commit_restores_the_replaced_entries() {
        let mut sm = SubnetManager::new(hx(), Box::new(Sssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let before = sm.routes().unwrap().clone();
        // A delta that strands every switch's route to LID 1: the path
        // store rejects it after the entries were rewritten in place.
        let delta = LftDelta {
            entries: sm.topo().switches().map(|s| (s, 1, None)).collect(),
            touched: vec![1],
        };
        let sp = sm.begin_patch_span("reroute", "engine", SpanCtx::none());
        let res = sm.commit_patch(delta, "reroute", sp, std::time::Instant::now());
        assert!(matches!(res, Err(RouteError::NoRoute { lid: 1, .. })));
        assert!(sm.routes().unwrap().lft_eq(&before));
        assert_eq!(sm.epoch(), 1);
        assert_eq!(sm.pathdb().unwrap().epoch(), 1);
    }

    #[test]
    fn demand_trigger_installs_parx() {
        let mut sm = SubnetManager::new(hx(), Box::new(Parx::default()));
        sm.sweep().unwrap();
        let mut d = Demand::new(32);
        d.add(hxtopo::NodeId(0), hxtopo::NodeId(31), 1 << 24);
        let r = sm.reroute_with_demand(d).unwrap();
        assert_eq!(r.epoch, 2);
        // PARX provides 4 LIDs per node.
        assert_eq!(sm.routes().unwrap().lid_map.lids_per_node(), 4);
    }

    #[test]
    fn engine_owned_repair_matches_from_scratch_sweep() {
        let mut sm = SubnetManager::new(hx(), Box::new(FtHyperX::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let isl = sm
            .topo()
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        let r = sm.fail_link(isl).unwrap();
        assert!(r.incremental, "FT-HyperX owns its fail repair");
        assert_eq!(r.epoch, 2);
        // History-free routing rule: the engine-owned patch is bit-identical
        // to rerunning the engine from scratch on the faulted lattice.
        let fresh = FtHyperX::default().route(sm.topo()).unwrap();
        assert!(sm.routes().unwrap().lft_eq(&fresh));
        let r = sm.recover_link(isl).unwrap();
        assert!(r.incremental, "FT-HyperX owns its recover repair");
        assert_eq!(r.epoch, 3);
        let fresh = FtHyperX::default().route(sm.topo()).unwrap();
        assert!(sm.routes().unwrap().lft_eq(&fresh));
    }

    #[test]
    fn demand_trigger_errors_without_capability() {
        let mut sm = SubnetManager::new(hx(), Box::new(Sssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let epoch = sm.epoch();
        let d = Demand::new(32);
        assert!(matches!(
            sm.reroute_with_demand(d),
            Err(RouteError::NoDemandVariant("sssp"))
        ));
        // Routing state untouched by the refused trigger.
        assert_eq!(sm.epoch(), epoch);
        assert!(sm.routes().is_some());
    }

    #[test]
    fn misordered_lifecycle_errors_for_every_engine() {
        // A daemon query or churn event racing bring-up must see a typed,
        // retryable error — never a panic, never a mutated fabric view.
        use crate::engines::{engine_by_name, ENGINE_NAMES};
        for name in ENGINE_NAMES {
            let mut sm = SubnetManager::new(hx(), engine_by_name(name).unwrap());
            sm.verify = false;
            let isl = sm
                .topo()
                .links()
                .find(|(_, l)| l.class != LinkClass::Terminal)
                .unwrap()
                .0;
            assert!(
                matches!(sm.fail_link(isl), Err(RouteError::NotSwept("fail_link"))),
                "{name}: fail_link before sweep must error"
            );
            assert!(
                sm.topo().is_active(isl),
                "{name}: rejected fail_link must not deactivate the cable"
            );
            assert!(
                matches!(
                    sm.recover_link(isl),
                    Err(RouteError::NotSwept("recover_link"))
                ),
                "{name}: recover_link before sweep must error"
            );
            assert!(
                matches!(sm.snapshot(), Err(RouteError::NotSwept("snapshot"))),
                "{name}: snapshot before sweep must error"
            );
            // The error is retryable: after a sweep the same calls succeed.
            sm.sweep().unwrap();
            sm.fail_link(isl).unwrap();
            sm.recover_link(isl).unwrap();
        }
    }

    #[test]
    fn capability_miss_falls_through_to_generic_patch() {
        // SSSP owns no IncrementalRepair rule: the engine dispatch must
        // yield the typed capability miss and the public fail path must
        // still patch incrementally via the generic load-aware repair.
        let mut sm = SubnetManager::new(hx(), Box::new(Sssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let isl = sm
            .topo()
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        assert!(matches!(
            sm.engine_patch(isl, false, SpanCtx::none()),
            Err(RouteError::NoEngineRepair("sssp"))
        ));
        let r = sm.fail_link(isl).unwrap();
        assert!(r.incremental, "generic patch must absorb the miss");
    }

    #[test]
    fn snapshot_pins_one_epoch() {
        let mut sm = SubnetManager::new(hx(), Box::new(Sssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let snap = sm.snapshot().unwrap();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.engine(), "sssp");
        let isl = sm
            .topo()
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        sm.fail_link(isl).unwrap();
        // The pinned view is immune to the churn that followed it.
        assert_eq!(snap.epoch(), 1);
        assert!(snap.topo().is_active(isl));
        assert_eq!(sm.snapshot().unwrap().epoch(), 2);
    }

    #[test]
    fn snapshot_stats_track_every_epoch() {
        let mut sm = SubnetManager::new(hx(), Box::new(Dfsssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let isl = sm
            .topo()
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        let check = |sm: &SubnetManager, epoch: u64| {
            let snap = sm.snapshot().unwrap();
            assert_eq!(snap.epoch(), epoch);
            assert_eq!(snap.stats(), &snap.pathdb().stats(), "epoch {epoch}");
            assert_eq!(snap.stats(), &sm.pathdb().unwrap().stats());
        };
        check(&sm, 1);
        assert!(sm.fail_link(isl).unwrap().incremental);
        check(&sm, 2);
        sm.recover_link(isl).unwrap();
        check(&sm, 3);
        // A full resweep refreshes the stats as well.
        sm.incremental = false;
        sm.fail_link(isl).unwrap();
        check(&sm, 4);
        // A restored manager computes them from the store it is given.
        let restored = SubnetManager::with_state(
            sm.topo().clone(),
            Box::new(Dfsssp::default()),
            sm.routes().unwrap().clone(),
            sm.pathdb().unwrap().clone(),
        );
        check(&restored, 4);
    }

    #[test]
    fn what_if_fail_speculates_without_mutating() {
        let mut sm = SubnetManager::new(hx(), Box::new(Sssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let snap = sm.snapshot().unwrap();
        let isl = sm
            .topo()
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        let w = snap.what_if_fail(isl).unwrap();
        assert!(!w.disconnects);
        assert_eq!(w.epoch, 1);
        // Speculation answers what the live repair would do...
        let after = w.after.unwrap();
        assert_eq!(after.pairs, w.before.pairs);
        // ...without touching the snapshot or the live manager.
        assert!(snap.topo().is_active(isl));
        assert!(sm.topo().is_active(isl));
        assert_eq!(sm.epoch(), 1);
        let live = sm.fail_link(isl).unwrap();
        assert_eq!(live.paths, after, "speculation must match the live patch");

        // Terminal cables are a membership change: report, don't repair.
        let term = snap
            .topo()
            .links()
            .find(|(_, l)| l.class == LinkClass::Terminal)
            .unwrap()
            .0;
        let w = snap.what_if_fail(term).unwrap();
        assert!(w.disconnects);
        assert!(w.after.is_none());

        // Out-of-range cables are a typed error, not a panic.
        let bogus = hxtopo::LinkId(snap.topo().num_links() as u32);
        assert!(snap.what_if_fail(bogus).is_err());
    }

    #[test]
    fn what_if_fail_reports_disconnection() {
        // 1-D HyperX of 2 switches: the only ISL is a cut edge.
        let topo = HyperXConfig::new(vec![2], 2).build();
        let isl = topo
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        let mut sm = SubnetManager::new(topo, Box::new(Sssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let snap = sm.snapshot().unwrap();
        let w = snap.what_if_fail(isl).unwrap();
        assert!(w.disconnects);
        assert!(w.after.is_none());
        // The speculation left live state intact: the real failure still
        // rolls back.
        assert!(sm.fail_link(isl).is_err());
        assert!(sm.topo().is_active(isl));

        // An already-dead cable is zero-impact: the epoch routes without it.
        let mut sm = SubnetManager::new(hx(), Box::new(Sssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        let isl = sm
            .topo()
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        sm.fail_link(isl).unwrap();
        let snap = sm.snapshot().unwrap();
        let w = snap.what_if_fail(isl).unwrap();
        assert!(!w.disconnects);
        assert_eq!(w.affected_trees, 0);
        assert_eq!(w.after.unwrap(), w.before);
    }

    #[test]
    fn fault_plan_then_sweep_pipeline() {
        // The paper's bring-up: the cables that failed burn-in are gone,
        // route what is left.
        use hxtopo::faults::{FaultCount, FaultPlan};
        let mut topo = HyperXConfig::t2_hyperx(140).build();
        let plan = FaultPlan {
            count: FaultCount::Fraction(0.05),
            class: Some(LinkClass::Aoc),
            seed: 13,
        };
        assert!(!plan.apply(&mut topo).is_empty());
        let mut sm = SubnetManager::new(topo, Box::new(Dfsssp::default()));
        let r = sm.sweep().unwrap();
        assert_eq!(r.paths.pairs, 140 * 139);
    }
}
