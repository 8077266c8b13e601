//! The fabric: glues placement, routing tables and the PML into a
//! [`hxsim::PathResolver`]. Every hop vector is resolved from the shared,
//! epoch-versioned [`PathDb`] — the fabric owns no private path cache, so
//! the simulator, the MPI layer and verification all read the same store.

use crate::placement::Placement;
use crate::pml::Pml;
use hxroute::{DirLink, PathDb, RouteError, Routes};
use hxsim::{NetParams, PathResolver, ResolvedPath};
use hxtopo::{NodeId, Topology};
use std::sync::{Arc, RwLock};

/// A routed fabric: topology + forwarding state + rank placement + PML.
pub struct Fabric<'a> {
    /// The physical network.
    pub topo: &'a Topology,
    /// Forwarding state produced by a routing engine.
    pub routes: &'a Routes,
    /// Rank-to-node mapping.
    pub placement: Placement,
    /// Messaging layer.
    pub pml: Pml,
    /// Timing parameters (for the PML's extra overhead).
    pub params: NetParams,
    /// Swappable handle onto the shared path store: a subnet manager that
    /// patches routes mid-run installs its new epoch here and every
    /// subsequent resolve sees the repaired paths. Readers clone the `Arc`
    /// (cheap) rather than holding the lock across a resolution.
    pathdb: RwLock<Arc<PathDb>>,
}

impl<'a> Fabric<'a> {
    /// Assembles a fabric, extracting the complete path store from the
    /// forwarding state (in parallel). An unroutable `(node, LID)` pair is
    /// reported as the underlying [`RouteError`] so multi-plane assembly
    /// and campaign harnesses can degrade gracefully (skip the plane,
    /// surface the fault) instead of aborting the process.
    pub fn new(
        topo: &'a Topology,
        routes: &'a Routes,
        placement: Placement,
        pml: Pml,
        params: NetParams,
    ) -> Result<Fabric<'a>, RouteError> {
        let pathdb = PathDb::build(topo, routes, 0, 0)?;
        Ok(Self::with_pathdb(
            topo,
            routes,
            placement,
            pml,
            params,
            Arc::new(pathdb),
        ))
    }

    /// Assembles a fabric around an existing shared path store (the subnet
    /// manager's or the dual-plane system's), avoiding a rebuild.
    pub fn with_pathdb(
        topo: &'a Topology,
        routes: &'a Routes,
        placement: Placement,
        pml: Pml,
        params: NetParams,
        pathdb: Arc<PathDb>,
    ) -> Fabric<'a> {
        debug_assert_eq!(
            pathdb.lid_space(),
            routes.lid_space(),
            "path store does not match the forwarding state"
        );
        Fabric {
            topo,
            routes,
            placement,
            pml,
            params,
            pathdb: RwLock::new(pathdb),
        }
    }

    /// The shared path store currently backing this fabric (a clone of the
    /// handle — stable even if a newer epoch is installed afterwards).
    pub fn pathdb(&self) -> Arc<PathDb> {
        self.pathdb.read().expect("pathdb lock poisoned").clone()
    }

    /// Swaps in a newer epoch of the path store (after an incremental
    /// fail/recover patch). The LID space must be unchanged — incremental
    /// patches never touch the LID map, so the fabric's `&Routes` stays
    /// valid for placement and PML LID selection.
    pub fn install_pathdb(&self, db: Arc<PathDb>) {
        assert_eq!(
            db.lid_space(),
            self.routes.lid_space(),
            "installed path store does not match the forwarding state"
        );
        *self.pathdb.write().expect("pathdb lock poisoned") = db;
    }

    /// The routed path between two nodes for a LID index.
    pub fn node_path(&self, src: NodeId, dst: NodeId, lid_idx: u32) -> Vec<DirLink> {
        let mut hops = Vec::new();
        self.node_path_into(src, dst, lid_idx, &mut hops);
        hops
    }

    /// [`Fabric::node_path`] into a caller-provided buffer (cleared first),
    /// recycling the allocation across sampler loops.
    pub fn node_path_into(&self, src: NodeId, dst: NodeId, lid_idx: u32, out: &mut Vec<DirLink>) {
        self.node_path_in(&self.pathdb(), src, dst, lid_idx, out);
    }

    /// [`Fabric::node_path_into`] against a snapshot of the path store the
    /// caller already holds (from [`Fabric::pathdb`]), so a loop over many
    /// messages takes the lock and clones the handle once.
    pub fn node_path_in(
        &self,
        db: &PathDb,
        src: NodeId,
        dst: NodeId,
        lid_idx: u32,
        out: &mut Vec<DirLink>,
    ) {
        let lid = self.routes.lid_map.lid(dst, lid_idx);
        if !db.node_path_into(src, lid, out) {
            panic!(
                "unroutable {src}->{dst} lid{lid_idx} (epoch {})",
                db.epoch()
            );
        }
    }

    /// Extra software overhead the PML charges per message.
    pub fn pml_overhead(&self) -> f64 {
        if self.pml.is_bfo() {
            self.params.bfo_extra
        } else {
            0.0
        }
    }
}

impl PathResolver for Fabric<'_> {
    fn resolve(&self, src: usize, dst: usize, bytes: u64, seq: u64) -> ResolvedPath {
        if hxobs::enabled() {
            // Bytes by PML class: the paper's ob1-vs-bfo comparison hinges
            // on how much traffic pays the bfo software penalty.
            hxobs::count(
                if self.pml.is_bfo() {
                    "mpi.bytes.bfo"
                } else {
                    "mpi.bytes.ob1"
                },
                bytes,
            );
            hxobs::count("mpi.messages", 1);
        }
        let sn = self.placement.node(src);
        let dn = self.placement.node(dst);
        if sn == dn {
            return ResolvedPath {
                hops: Vec::new(),
                extra_overhead: 0.0,
            };
        }
        let lid_idx = self
            .pml
            .select_lid_index(self.topo, self.routes, sn, dn, bytes, seq);
        let hops = self.node_path(sn, dn, lid_idx);
        ResolvedPath {
            hops,
            extra_overhead: self.pml_overhead(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxroute::engines::{Dfsssp, Parx, RoutingEngine};
    use hxtopo::hyperx::HyperXConfig;

    #[test]
    fn resolve_respects_placement() {
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = Dfsssp::default().route(&t).unwrap();
        // Reversed placement: rank 0 on the last node.
        let mut nodes: Vec<NodeId> = t.nodes().collect();
        nodes.reverse();
        let f = Fabric::new(
            &t,
            &r,
            Placement::explicit(nodes.clone(), "reversed"),
            Pml::Ob1,
            NetParams::qdr(),
        )
        .expect("routable fabric");
        let rp = f.resolve(0, 1, 1024, 0);
        // Rank 0 = last node, rank 1 = second-to-last; same switch => 2 hops.
        assert_eq!(rp.hops.len(), 2);
        assert_eq!(rp.extra_overhead, 0.0);
    }

    #[test]
    fn self_message_resolves_empty() {
        let t = HyperXConfig::new(vec![2, 2], 1).build();
        let r = Dfsssp::default().route(&t).unwrap();
        let nodes: Vec<NodeId> = t.nodes().collect();
        let f = Fabric::new(
            &t,
            &r,
            Placement::linear(&nodes, 4),
            Pml::Ob1,
            NetParams::qdr(),
        )
        .expect("routable fabric");
        assert!(f.resolve(2, 2, 100, 0).hops.is_empty());
    }

    #[test]
    fn paths_come_from_the_shared_store() {
        let t = HyperXConfig::new(vec![4, 4], 1).build();
        let r = Dfsssp::default().route(&t).unwrap();
        let nodes: Vec<NodeId> = t.nodes().collect();
        let db = Arc::new(hxroute::PathDb::build(&t, &r, 7, 0).unwrap());
        let f = Fabric::with_pathdb(
            &t,
            &r,
            Placement::linear(&nodes, 16),
            Pml::Ob1,
            NetParams::qdr(),
            db.clone(),
        );
        // No rebuild: the fabric aliases the caller's store.
        assert!(Arc::ptr_eq(&f.pathdb(), &db));
        assert_eq!(f.pathdb().epoch(), 7);
        // And resolution agrees with a direct LFT walk.
        let a = f.node_path(NodeId(0), NodeId(9), 0);
        let expect = r.path_to(&t, NodeId(0), NodeId(9), 0).unwrap().hops;
        assert_eq!(a, expect);
    }

    #[test]
    fn installing_a_new_epoch_repaths_resolution() {
        let t = HyperXConfig::new(vec![4, 4], 1).build();
        let r = Dfsssp::default().route(&t).unwrap();
        let nodes: Vec<NodeId> = t.nodes().collect();
        let f = Fabric::new(
            &t,
            &r,
            Placement::linear(&nodes, 16),
            Pml::Ob1,
            NetParams::qdr(),
        )
        .expect("routable fabric");
        let before = f.pathdb();
        assert_eq!(before.epoch(), 0);
        // A fresh build at a later epoch stands in for a patched store.
        let next = Arc::new(hxroute::PathDb::build(&t, &r, 3, 0).unwrap());
        f.install_pathdb(next.clone());
        assert!(Arc::ptr_eq(&f.pathdb(), &next));
        assert_eq!(f.pathdb().epoch(), 3);
        // The old handle stays readable — in-flight resolutions are safe.
        assert_eq!(before.epoch(), 0);
        // Resolution now reads the installed store.
        let rp = f.resolve(0, 9, 1024, 0);
        let expect = r.path_to(&t, NodeId(0), NodeId(9), 0).unwrap().hops;
        assert_eq!(rp.hops, expect);
    }

    #[test]
    fn parx_large_messages_use_bfo_overhead_and_lid_choice() {
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = Parx::default().route(&t).unwrap();
        let nodes: Vec<NodeId> = t.nodes().collect();
        let f = Fabric::new(
            &t,
            &r,
            Placement::linear(&nodes, 32),
            Pml::parx(),
            NetParams::qdr(),
        )
        .expect("routable fabric");
        let rp = f.resolve(0, 20, 1 << 20, 0);
        assert!(rp.extra_overhead > 0.0);
        assert!(!rp.hops.is_empty());
    }

    #[test]
    fn parx_small_vs_large_can_take_different_routes() {
        // Same-quadrant remote pair: small goes minimal, large detours.
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let hx = t.meta.as_hyperx().unwrap().clone();
        let r = Parx::default().route(&t).unwrap();
        let nodes: Vec<NodeId> = t.nodes().collect();
        let f = Fabric::new(
            &t,
            &r,
            Placement::linear(&nodes, 32),
            Pml::parx(),
            NetParams::qdr(),
        )
        .expect("routable fabric");
        // Find two ranks in the same quadrant on different switches.
        let mut found = false;
        'outer: for a in 0..32usize {
            for b in 0..32usize {
                let (na, nb) = (f.placement.node(a), f.placement.node(b));
                let (sa, sb) = (t.node_switch(na).0, t.node_switch(nb).0);
                if sa != sb && hx.quadrant(sa) == hx.quadrant(sb) {
                    let small = f.resolve(a, b, 64, 0);
                    let large = f.resolve(a, b, 1 << 20, 0);
                    if large.hops.len() > small.hops.len() {
                        found = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(
            found,
            "some same-quadrant pair must detour for large messages"
        );
    }
}
