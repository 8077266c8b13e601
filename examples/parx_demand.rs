//! PARX walkthrough: quadrants, Table-1 LID selection, and demand-aware
//! re-routing (the paper's Section 3.2 pipeline).
//!
//! ```sh
//! cargo run --release --example parx_demand
//! ```

use t2hx::mpi::{Fabric, Placement, Pml};
use t2hx::route::engines::{Parx, RoutingEngine};
use t2hx::route::table1::{lid_choices, HalfRule, SizeClass};
use t2hx::route::Demand;
use t2hx::sim::NetParams;
use t2hx::topo::hyperx::HyperXConfig;
use t2hx::topo::NodeId;

fn main() {
    // An 8x4 HyperX with 2 nodes per switch.
    let topo = HyperXConfig::new(vec![8, 4], 2).build();
    let hx = topo.meta.as_hyperx().unwrap().clone();

    // 1. Quadrants and Table 1.
    let (a, b) = (NodeId(0), NodeId(10));
    let (qa, qb) = (
        hx.quadrant(topo.node_switch(a).0).unwrap(),
        hx.quadrant(topo.node_switch(b).0).unwrap(),
    );
    println!("node {a} is in {qa:?}, node {b} in {qb:?}");
    println!(
        "  small messages address LID index {:?}, large messages {:?}",
        lid_choices(qa, qb, SizeClass::Small),
        lid_choices(qa, qb, SizeClass::Large),
    );

    // 2. Oblivious PARX: four virtual LIDs per node, minimal + detour paths.
    let oblivious = Parx::default().route(&topo).unwrap();
    for x in 0..4u32 {
        let p = oblivious.path_to(&topo, a, b, x).unwrap();
        let rule = HalfRule::of_lid(x as u8, hx.dims()).expect("2-D PARX has four rules");
        let half = ["lower", "upper"][usize::from(rule.upper)];
        println!(
            "  path to LID{x}: {} ISL hops (rule removes the {half} half of dimension {})",
            p.isl_hops(),
            rule.dim,
        );
    }

    // 3. Ingest a communication profile (heavy ring among the first 8
    //    nodes) and re-route: demand-weighted edge updates separate the hot
    //    paths (Algorithm 1's +w updates).
    let mut demand = Demand::new(topo.num_nodes());
    for i in 0..8u32 {
        demand.add(NodeId(i), NodeId((i + 1) % 8), 512 << 20);
    }
    let aware = Parx::with_demand(demand).route(&topo).unwrap();
    println!(
        "\nre-routed with a ring profile: {} VLs (oblivious: {})",
        aware.num_vls, oblivious.num_vls
    );

    // 4. The PML picks LIDs per message size automatically.
    let nodes: Vec<NodeId> = topo.nodes().collect();
    let fabric = Fabric::new(
        &topo,
        &aware,
        Placement::linear(&nodes, topo.num_nodes()),
        Pml::parx(),
        NetParams::qdr(),
    )
    .expect("routable fabric");
    use t2hx::sim::PathResolver;
    let small = fabric.resolve(0, 10, 64, 0);
    let large = fabric.resolve(0, 10, 1 << 20, 0);
    println!(
        "bfo PML: 64 B message takes {} hops, 1 MiB takes {} hops",
        small.hops.len(),
        large.hops.len()
    );
}
