//! Plane-generic system assembly, and the dual-plane T2HX preset.
//!
//! A [`System`] holds one swept [`SubnetManager`] per plane, the shape of
//! a multi-plane fabric with one subnet manager per plane. Each plane's
//! current epoch is a [`FabricSnapshot`]: a physical topology (possibly
//! shared with sibling planes), the forwarding state one routing engine
//! computed over it, and the shared [`PathDb`] every consumer resolves
//! paths from. [`System::route`] sweeps the planes, with the deadlock
//! check every sweep runs; presets cover the two shapes the experiments
//! use:
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
use hxroute::{Demand, FabricSnapshot, PathDb, RouteError, Routes, SubnetManager};
use hxsim::NetParams;
use hxtopo::fattree::{FatTreeConfig, Stage};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{FaultPlan, NodeId, Topology};
use std::sync::Arc;

/// A plane-generic system: N routing planes over one node population,
/// each node carrying one NIC per plane, each plane run by its own swept
/// subnet manager.
pub struct System {
    planes: Vec<SubnetManager>,
}

/// A system plane's current epoch. [`System::route`] sweeps every plane
/// and no later event clears an epoch, so one is always there.
fn epoch_of(sm: &SubnetManager) -> &FabricSnapshot {
    sm.current()
        .expect("system planes are swept at construction")
}

impl System {
    /// Sweeps one subnet manager per `(topology, engine)` plane, in order;
    /// plane `p` tags its spans with `p`. Planes may share a topology `Arc`
    /// (one physical plane routed by several engines), and every plane
    /// starts at epoch 1.
    ///
    /// # Panics
    ///
    /// Panics when `planes` is empty or the planes attach different node
    /// counts (each node has one NIC per physical plane).
    pub fn route(
        planes: impl IntoIterator<Item = (Arc<Topology>, Box<dyn RoutingEngine>)>,
    ) -> Result<System, RouteError> {
        let mut sms: Vec<SubnetManager> = Vec::new();
        for (p, (topo, engine)) in planes.into_iter().enumerate() {
            if let Some(first) = sms.first() {
                assert_eq!(
                    topo.num_nodes(),
                    first.topo().num_nodes(),
                    "plane {p} attaches a different node count"
                );
            }
            let mut sm = SubnetManager::new(topo, engine);
            sm.plane = Some(p as u32);
            sm.sweep()?;
            sms.push(sm);
        }
        assert!(!sms.is_empty(), "a system needs at least one plane");
        Ok(System { planes: sms })
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
        let topo = Arc::new(cfg.build());
        System::route((0..planes).map(|p| (topo.clone(), engine_for(p))))
    }

    /// Number of routing planes.
    pub fn num_planes(&self) -> usize {
        self.planes.len()
    }

    /// Number of compute nodes (identical across planes).
    pub fn num_nodes(&self) -> usize {
        self.planes[0].topo().num_nodes()
    }

    /// Timing parameters shared by every fabric assembled from this
    /// system: QDR timing on the incremental congestion solver (both
    /// solvers are bit-identical; tests pick the exact oracle through
    /// [`NetParams::with_solver`]).
    pub fn params(&self) -> NetParams {
        NetParams::qdr()
    }

    /// One routing plane's current epoch.
    pub fn plane(&self, p: usize) -> &FabricSnapshot {
        epoch_of(&self.planes[p])
    }

    /// Every plane's current epoch, in plane order.
    pub fn planes(&self) -> impl ExactSizeIterator<Item = &FabricSnapshot> {
        self.planes.iter().map(epoch_of)
    }

    /// Assembles one plane's fabric for a placement, aliasing the plane's
    /// shared path store.
    pub fn plane_fabric(&self, p: usize, placement: Placement, pml: Pml) -> Fabric<'_> {
        let plane = self.plane(p);
        Fabric::with_pathdb(
            plane.topo(),
            plane.routes(),
            placement,
            pml,
            self.params(),
            plane.pathdb().clone(),
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
        let planes: [(Arc<Topology>, Box<dyn RoutingEngine>); 4] = [
            (ft.clone(), Box::new(Ftree)),
            (ft, Box::<Sssp>::default()),
            (hx.clone(), Box::<Dfsssp>::default()),
            (hx, Box::<Parx>::default()),
        ];
        Ok(T2hx {
            sys: System::route(planes)?,
        })
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
    /// Section 4.4.3): the PARX plane's manager fires its demand trigger.
    /// The PARX path store is rebuilt and its epoch advances past the
    /// previous one's.
    pub fn reroute_parx(&mut self, demand: Demand) -> Result<(), RouteError> {
        self.sys.planes[3].reroute_with_demand(demand).map(|_| ())
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
        verify_paths(sys.fattree(), sys.routes(Combo::FtFtreeLinear)).unwrap();
        verify_paths(sys.fattree(), sys.routes(Combo::FtSsspClustered)).unwrap();
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
            sys.system().plane(0).topo(),
            sys.system().plane(1).topo()
        ));
        assert!(Arc::ptr_eq(
            sys.system().plane(2).topo(),
            sys.system().plane(3).topo()
        ));
        assert!(!Arc::ptr_eq(
            sys.system().plane(1).topo(),
            sys.system().plane(2).topo()
        ));
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
        assert!(Arc::ptr_eq(sys.plane(0).topo(), sys.plane(2).topo()));
        let epochs: Vec<u64> = sys.planes().map(FabricSnapshot::epoch).collect();
        assert_eq!(epochs, vec![1, 1, 1]);
        // Planes 1 and 2 route identically, plane 0 differs somewhere.
        assert!(sys.plane(1).pathdb().content_eq(sys.plane(2).pathdb()));
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
