//! Plane-generic system assembly, and the dual-plane T2HX preset.
//!
//! A [`System`] is a `Vec` of [`Plane`]s — each a physical topology
//! (possibly shared with sibling planes), the forwarding state one routing
//! engine computed over it, and the shared [`PathDb`] every consumer
//! resolves paths from. [`SystemBuilder`] routes the planes; presets cover
//! the two shapes the experiments use:
//!
//! * [`T2hx::build`] — the paper's dual-plane machine: every compute node
//!   has one HCA on the Fat-Tree plane and one on the 12x8 HyperX plane
//!   (both attached to CPU0 in the real machine), exposed as four routing
//!   planes (ftree, SSSP, DFSSSP, PARX) for the 1-to-1 comparison,
//! * [`System::replicated_hyperx`] — K topologically-identical HyperX
//!   planes (one NIC rail per plane), the multi-plane scaling shape.

use crate::combos::{Combo, Scheme};
use hxmpi::{Fabric, MultiFabric, Placement, Pml, RailPolicy};
use hxroute::engines::{Dfsssp, Ftree, Parx, RoutingEngine, Sssp};
use hxroute::{Demand, PathDb, PlaneSet, RouteError, Routes};
use hxsim::{NetParams, SolverKind};
use hxtopo::fattree::{FatTreeConfig, Stage};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{FaultPlan, NodeId, Topology};
use std::sync::Arc;

/// One routing plane: a topology, the routes one engine computed over it,
/// and the shared path store extracted from them.
///
/// Planes may alias a physical topology (`Arc`): the T2HX preset routes
/// each physical plane twice, so its four routing planes share two
/// topologies.
pub struct Plane {
    label: String,
    topo: Arc<Topology>,
    routes: Routes,
    db: Arc<PathDb>,
}

impl Plane {
    /// Plane label for reports and traces (e.g. `"hx:dfsssp"`, `"hx:p2"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The plane's physical topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The shared handle on the plane's topology.
    pub fn topo_arc(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The plane's forwarding state.
    pub fn routes(&self) -> &Routes {
        &self.routes
    }

    /// The plane's shared path store. Every fabric assembled from the
    /// system aliases this — paths are extracted once per plane, not per
    /// job.
    pub fn pathdb(&self) -> &Arc<PathDb> {
        &self.db
    }
}

/// Accumulates `(label, topology, engine)` plane specs, then routes them
/// all into a [`System`].
pub struct SystemBuilder {
    specs: Vec<(String, Arc<Topology>, Box<dyn RoutingEngine>)>,
    epoch: u64,
    params: NetParams,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemBuilder {
    /// An empty builder with QDR timing and the incremental congestion
    /// solver (override with [`SystemBuilder::params`]; both solvers are
    /// bit-identical).
    pub fn new() -> SystemBuilder {
        SystemBuilder {
            specs: Vec::new(),
            epoch: 1,
            params: NetParams::qdr(),
        }
    }

    /// Overrides the timing parameters.
    pub fn params(mut self, params: NetParams) -> SystemBuilder {
        self.params = params;
        self
    }

    /// Epoch stamped on every plane's initial path store (default 1).
    pub fn epoch(mut self, epoch: u64) -> SystemBuilder {
        self.epoch = epoch;
        self
    }

    /// Adds a plane spec. Planes may share a topology `Arc` (same physical
    /// plane routed by different engines).
    pub fn plane(
        mut self,
        label: impl Into<String>,
        topo: Arc<Topology>,
        engine: Box<dyn RoutingEngine>,
    ) -> SystemBuilder {
        self.specs.push((label.into(), topo, engine));
        self
    }

    /// Routes every plane and extracts its shared path store. All planes
    /// must attach the same number of nodes (each node has one NIC per
    /// physical plane).
    pub fn build(self) -> Result<System, RouteError> {
        assert!(!self.specs.is_empty(), "a system needs at least one plane");
        let nodes = self.specs[0].1.num_nodes();
        let mut planes = Vec::with_capacity(self.specs.len());
        for (idx, (label, topo, engine)) in self.specs.into_iter().enumerate() {
            assert_eq!(
                topo.num_nodes(),
                nodes,
                "plane {idx} ({label}) attaches a different node count"
            );
            let (routes, db) = route_plane(engine.as_ref(), &topo, self.epoch, idx)?;
            planes.push(Plane {
                label,
                topo,
                routes,
                db,
            });
        }
        Ok(System {
            planes,
            params: self.params,
        })
    }
}

/// Routes one plane with wall-time + table-size telemetry (spans land
/// on the OpenSM wall-clock track next to `SubnetManager` sweeps), then
/// extracts its shared path store (in parallel) with build metrics.
fn route_plane(
    engine: &dyn RoutingEngine,
    topo: &Topology,
    epoch: u64,
    plane: usize,
) -> Result<(Routes, Arc<PathDb>), RouteError> {
    let obs = hxobs::sink();
    let start_us = obs.as_ref().map(|o| o.now_us()).unwrap_or(0.0);
    let wall0 = std::time::Instant::now();
    let routes = engine.route(topo)?;
    let route_secs = wall0.elapsed().as_secs_f64();
    let db0 = std::time::Instant::now();
    let db = PathDb::build(topo, &routes, epoch, 0)?;
    let db_secs = db0.elapsed().as_secs_f64();
    if let Some(o) = &obs {
        use hxobs::Recorder;
        o.counter_add("route.engine_runs", 1);
        o.histogram_record(
            &format!("route.engine_seconds.{}", engine.name()),
            route_secs,
        );
        o.histogram_record("pathdb.build_seconds", db_secs);
        o.gauge_set("pathdb.epoch", db.epoch() as f64);
        o.tracer.name_process(hxobs::track::OPENSM, "opensm");
        o.span(
            hxobs::track::OPENSM,
            0,
            &format!("route:{}:{}", engine.name(), topo.name()),
            "route",
            start_us,
            wall0.elapsed().as_secs_f64() * 1e6,
            vec![
                ("engine".to_string(), hxobs::Json::from(engine.name())),
                ("topology".to_string(), hxobs::Json::from(topo.name())),
                ("plane".to_string(), hxobs::Json::from(plane as u64)),
                ("vls".to_string(), hxobs::Json::from(routes.num_vls as u64)),
                (
                    "lft_entries".to_string(),
                    hxobs::Json::from(routes.num_lft_entries()),
                ),
                (
                    "pathdb_isl_hops".to_string(),
                    hxobs::Json::from(db.num_isl_hops()),
                ),
            ],
        );
    }
    Ok((routes, Arc::new(db)))
}

/// A plane-generic system: N routing planes over one node population,
/// each node carrying one NIC per plane.
pub struct System {
    planes: Vec<Plane>,
    params: NetParams,
}

impl System {
    /// Starts an empty [`SystemBuilder`].
    pub fn builder() -> SystemBuilder {
        SystemBuilder::new()
    }

    /// K topologically-identical HyperX planes — the multi-plane scaling
    /// shape (one NIC rail per plane). The topology is built once and
    /// shared; `engine_for(p)` supplies each plane's routing engine
    /// (planes usually route identically, but per-plane engines let tests
    /// make shard contents genuinely differ).
    pub fn replicated_hyperx(
        cfg: HyperXConfig,
        planes: usize,
        engine_for: impl Fn(usize) -> Box<dyn RoutingEngine>,
    ) -> Result<System, RouteError> {
        assert!(planes >= 1, "a system needs at least one plane");
        let topo = Arc::new(cfg.build());
        let mut b = System::builder();
        for p in 0..planes {
            b = b.plane(format!("hx:p{p}"), topo.clone(), engine_for(p));
        }
        b.build()
    }

    /// Number of routing planes.
    pub fn num_planes(&self) -> usize {
        self.planes.len()
    }

    /// Number of compute nodes (identical across planes).
    pub fn num_nodes(&self) -> usize {
        self.planes[0].topo.num_nodes()
    }

    /// Timing parameters shared by every fabric assembled from this
    /// system.
    pub fn params(&self) -> NetParams {
        self.params
    }

    /// One routing plane.
    pub fn plane(&self, p: usize) -> &Plane {
        &self.planes[p]
    }

    /// All planes, in order.
    pub fn planes(&self) -> &[Plane] {
        &self.planes
    }

    /// A sharded [`PlaneSet`] handle over every plane's current path
    /// store; shards installed into the returned set do not write back
    /// into the system.
    pub fn plane_set(&self) -> PlaneSet {
        PlaneSet::new(self.planes.iter().map(|p| p.db.clone()).collect())
    }

    /// Re-routes one plane with a (possibly different) engine, rebuilding
    /// its path store with the epoch advanced past the previous one's.
    /// Other planes are untouched.
    pub fn replace_routing(
        &mut self,
        p: usize,
        engine: &dyn RoutingEngine,
    ) -> Result<(), RouteError> {
        let epoch = self.planes[p].db.epoch() + 1;
        let (routes, db) = route_plane(engine, &self.planes[p].topo, epoch, p)?;
        self.planes[p].routes = routes;
        self.planes[p].db = db;
        Ok(())
    }

    /// Assembles one plane's fabric for a placement, aliasing the plane's
    /// shared path store.
    pub fn plane_fabric(&self, p: usize, placement: Placement, pml: Pml) -> Fabric<'_> {
        let plane = &self.planes[p];
        Fabric::with_pathdb(
            &plane.topo,
            &plane.routes,
            placement,
            pml,
            self.params,
            plane.db.clone(),
        )
    }

    /// Bundles every plane's fabric behind one rail-selecting resolver:
    /// each rank gets one NIC per plane, the policy picks the rail per
    /// message.
    pub fn multi_fabric(
        &self,
        placement: &Placement,
        pml: Pml,
        policy: RailPolicy,
    ) -> MultiFabric<'_> {
        let rails = (0..self.num_planes())
            .map(|p| self.plane_fabric(p, placement.clone(), pml.clone()))
            .collect();
        MultiFabric::new(rails, policy)
    }
}

/// The dual-plane T2HX preset over [`System`]: four routing planes —
/// OpenSM ftree and SSSP on the Fat-Tree topology, DFSSSP and PARX on the
/// 12x8 HyperX — in [`Combo`] plane order.
pub struct T2hx {
    sys: System,
}

impl T2hx {
    /// Builds the full-scale system: 672 nodes, optionally with the paper's
    /// cable faults (15 HyperX AOCs, the Fat-Tree fault fraction).
    pub fn build(total_nodes: usize, with_faults: bool) -> Result<T2hx, RouteError> {
        let mut fattree = FatTreeConfig::tsubame2(total_nodes);
        let mut hyperx = HyperXConfig::t2_hyperx(total_nodes).build();
        if with_faults {
            FaultPlan::t2_fattree().apply(&mut fattree);
            FaultPlan::t2_hyperx().apply(&mut hyperx);
        }
        Self::assemble(fattree, hyperx)
    }

    /// A 32-node miniature dual-plane system for tests: an 8-leaf staged
    /// Clos and a 4x4 HyperX with 2 nodes per switch.
    pub fn mini() -> Result<T2hx, RouteError> {
        let fattree = FatTreeConfig {
            name: "fat-tree-mini".into(),
            nodes_per_leaf: 4,
            total_nodes: 32,
            stages: vec![
                Stage {
                    count: 8,
                    uplinks: 6,
                },
                Stage {
                    count: 6,
                    uplinks: 4,
                },
                Stage {
                    count: 4,
                    uplinks: 0,
                },
            ],
        }
        .staged();
        let hyperx = HyperXConfig::new(vec![4, 4], 2).build();
        Self::assemble(fattree, hyperx)
    }

    fn assemble(fattree: Topology, hyperx: Topology) -> Result<T2hx, RouteError> {
        assert_eq!(
            fattree.num_nodes(),
            hyperx.num_nodes(),
            "dual-plane system needs matching node counts"
        );
        let ft = Arc::new(fattree);
        let hx = Arc::new(hyperx);
        let sys = System::builder()
            .plane("ft:ftree", ft.clone(), Box::new(Ftree))
            .plane("ft:sssp", ft, Box::<Sssp>::default())
            .plane("hx:dfsssp", hx.clone(), Box::<Dfsssp>::default())
            .plane("hx:parx", hx, Box::<Parx>::default())
            .build()?;
        Ok(T2hx { sys })
    }

    /// The underlying plane-generic system.
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// The Fat-Tree physical plane (shared by the ftree and SSSP routing
    /// planes).
    pub fn fattree(&self) -> &Topology {
        self.sys.plane(0).topo()
    }

    /// The HyperX physical plane (shared by the DFSSSP and PARX routing
    /// planes).
    pub fn hyperx(&self) -> &Topology {
        self.sys.plane(2).topo()
    }

    /// OpenSM ftree forwarding state on the Fat-Tree.
    pub fn ft_ftree(&self) -> &Routes {
        self.sys.plane(0).routes()
    }

    /// OpenSM SSSP forwarding state on the Fat-Tree.
    pub fn ft_sssp(&self) -> &Routes {
        self.sys.plane(1).routes()
    }

    /// DFSSSP forwarding state on the HyperX.
    pub fn hx_dfsssp(&self) -> &Routes {
        self.sys.plane(2).routes()
    }

    /// PARX forwarding state on the HyperX (re-computable with a
    /// communication profile via [`T2hx::reroute_parx`]).
    pub fn hx_parx(&self) -> &Routes {
        self.sys.plane(3).routes()
    }

    /// Timing parameters.
    pub fn params(&self) -> NetParams {
        self.sys.params()
    }

    /// Switches every fabric assembled from the system to the `solver`
    /// congestion backend (the default is incremental; rates are
    /// bit-identical either way).
    pub fn with_solver(mut self, solver: SolverKind) -> T2hx {
        self.sys.params = self.sys.params.with_solver(solver);
        self
    }

    /// Number of compute nodes.
    pub fn num_nodes(&self) -> usize {
        self.sys.num_nodes()
    }

    /// The network plane a combo runs on.
    pub fn topo(&self, combo: Combo) -> &Topology {
        self.sys.plane(combo.plane()).topo()
    }

    /// The forwarding state of a combo.
    pub fn routes(&self, combo: Combo) -> &Routes {
        self.sys.plane(combo.plane()).routes()
    }

    /// The shared path store of a combo's routing state.
    pub fn pathdb(&self, combo: Combo) -> &Arc<PathDb> {
        self.sys.plane(combo.plane()).pathdb()
    }

    /// Re-routes the HyperX with PARX ingesting a communication profile
    /// (the SAR-style interface between job submission and OpenSM,
    /// Section 4.4.3). The PARX path store is rebuilt and its epoch
    /// advances past the previous one's.
    pub fn reroute_parx(&mut self, demand: Demand) -> Result<(), RouteError> {
        self.sys.replace_routing(3, &Parx::with_demand(demand))
    }

    /// Builds the placement a combo uses for an `n`-rank job.
    pub fn placement(&self, combo: Combo, n: usize, seed: u64) -> Placement {
        let pool: Vec<NodeId> = self.topo(combo).nodes().collect();
        match combo.scheme() {
            Scheme::Linear => Placement::linear(&pool, n),
            Scheme::Clustered => Placement::clustered(&pool, n, seed),
            Scheme::Random => Placement::random(&pool, n, seed),
        }
    }

    /// Assembles the full fabric (topology + routes + placement + PML) for
    /// a combo and job size. The fabric aliases the plane's shared path
    /// store — no per-job path extraction.
    pub fn fabric(&self, combo: Combo, n: usize, seed: u64) -> Fabric<'_> {
        self.sys
            .plane_fabric(combo.plane(), self.placement(combo, n, seed), combo.pml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxroute::engines::MinHop;
    use hxroute::{verify_deadlock_free, verify_paths};

    #[test]
    fn mini_system_assembles_and_verifies() {
        let sys = T2hx::mini().unwrap();
        assert_eq!(sys.num_nodes(), 32);
        verify_paths(sys.fattree(), sys.ft_ftree()).unwrap();
        verify_paths(sys.fattree(), sys.ft_sssp()).unwrap();
        verify_paths(sys.hyperx(), sys.hx_dfsssp()).unwrap();
        verify_paths(sys.hyperx(), sys.hx_parx()).unwrap();
        verify_deadlock_free(sys.hyperx(), sys.hx_dfsssp()).unwrap();
        verify_deadlock_free(sys.hyperx(), sys.hx_parx()).unwrap();
    }

    #[test]
    fn preset_planes_share_physical_topologies() {
        let sys = T2hx::mini().unwrap();
        assert_eq!(sys.system().num_planes(), 4);
        assert!(Arc::ptr_eq(
            sys.system().plane(0).topo_arc(),
            sys.system().plane(1).topo_arc()
        ));
        assert!(Arc::ptr_eq(
            sys.system().plane(2).topo_arc(),
            sys.system().plane(3).topo_arc()
        ));
        assert!(!Arc::ptr_eq(
            sys.system().plane(1).topo_arc(),
            sys.system().plane(2).topo_arc()
        ));
        let labels: Vec<&str> = sys.system().planes().iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["ft:ftree", "ft:sssp", "hx:dfsssp", "hx:parx"]);
    }

    #[test]
    fn fabrics_for_all_combos() {
        use hxsim::PathResolver;
        let sys = T2hx::mini().unwrap();
        for combo in Combo::all() {
            let f = sys.fabric(combo, 16, 1);
            assert_eq!(f.placement.num_ranks(), 16);
            let rp = f.resolve(0, 15, 4096, 0);
            // Ranks 0 and 15 never share a node under any scheme here.
            assert!(!rp.hops.is_empty(), "{}", combo.label());
        }
    }

    #[test]
    fn fabrics_alias_the_plane_path_store() {
        let sys = T2hx::mini().unwrap();
        for combo in Combo::all() {
            let f = sys.fabric(combo, 16, 1);
            assert!(
                Arc::ptr_eq(&f.pathdb(), sys.pathdb(combo)),
                "{}: fabric must share the plane's store",
                combo.label()
            );
            assert_eq!(f.pathdb().epoch(), 1);
        }
    }

    #[test]
    fn parx_reroute_with_demand() {
        let mut sys = T2hx::mini().unwrap();
        let mut d = Demand::new(32);
        for i in 0..8u32 {
            d.add(NodeId(i), NodeId(31 - i), 1 << 24);
        }
        sys.reroute_parx(d).unwrap();
        verify_paths(sys.hyperx(), sys.hx_parx()).unwrap();
        verify_deadlock_free(sys.hyperx(), sys.hx_parx()).unwrap();
        // Epoch churn: the PARX plane's store was rebuilt, epoch advanced.
        assert_eq!(sys.pathdb(Combo::HxParxClustered).epoch(), 2);
        assert_eq!(sys.pathdb(Combo::HxDfssspLinear).epoch(), 1);
    }

    #[test]
    fn placements_differ_between_schemes() {
        let sys = T2hx::mini().unwrap();
        let lin = sys.placement(Combo::HxDfssspLinear, 16, 7);
        let rnd = sys.placement(Combo::HxDfssspRandom, 16, 7);
        let clu = sys.placement(Combo::HxParxClustered, 16, 7);
        assert_ne!(lin.nodes(), rnd.nodes());
        assert_ne!(lin.nodes(), clu.nodes());
    }

    #[test]
    fn replicated_hyperx_builds_k_planes() {
        let sys = System::replicated_hyperx(HyperXConfig::new(vec![4, 4], 2), 3, |p| {
            if p == 0 {
                Box::<Dfsssp>::default()
            } else {
                Box::<MinHop>::default()
            }
        })
        .unwrap();
        assert_eq!(sys.num_planes(), 3);
        assert_eq!(sys.num_nodes(), 32);
        // One shared physical topology across all rails.
        assert!(Arc::ptr_eq(
            sys.plane(0).topo_arc(),
            sys.plane(2).topo_arc()
        ));
        let set = sys.plane_set();
        assert_eq!(set.num_planes(), 3);
        assert_eq!(set.epochs(), vec![1, 1, 1]);
        // Planes 1 and 2 route identically, plane 0 differs somewhere.
        assert!(set.shard(1).content_eq(&set.shard(2)));
    }

    #[test]
    fn multi_fabric_resolves_on_every_rail() {
        use hxsim::PathResolver;
        let sys = System::replicated_hyperx(HyperXConfig::new(vec![4, 4], 1), 2, |_| {
            Box::<Dfsssp>::default()
        })
        .unwrap();
        let nodes: Vec<NodeId> = sys.plane(0).topo().nodes().collect();
        let placement = Placement::linear(&nodes, 16);
        let mf = sys.multi_fabric(&placement, Pml::Ob1, RailPolicy::RoundRobin);
        assert_eq!(mf.num_rails(), 2);
        for seq in 0..4 {
            let rp = mf.resolve(0, 15, 4096, seq);
            assert!(!rp.hops.is_empty());
        }
        assert!(mf.rail_load(0) > 0 && mf.rail_load(1) > 0);
    }
}
