//! Multi-plane quickstart: assemble a K-rail HyperX system, resolve a
//! message on every rail, and run a short churn campaign with rail
//! failover.
//!
//! ```sh
//! cargo run --release --example multiplane
//! ```

use t2hx::core::{run_campaign, CampaignConfig, System};
use t2hx::mpi::{Placement, Pml, RailPolicy};
use t2hx::route::engines::Dfsssp;
use t2hx::sim::SolverKind;
use t2hx::topo::hyperx::HyperXConfig;
use t2hx::topo::NodeId;

fn main() {
    println!("# 4-plane 12x8 T=7 system (2688 endpoints)\n");
    let t0 = std::time::Instant::now();
    let sys = System::replicated_hyperx(HyperXConfig::t2_hyperx(672), 4, |_| {
        Box::new(Dfsssp::default())
    })
    .expect("system routes");
    println!(
        "assembled {} planes x {} nodes in {:.1?}; plane epochs {:?}",
        sys.num_planes(),
        sys.num_nodes(),
        t0.elapsed(),
        sys.planes()
            .iter()
            .map(|p| p.pathdb().epoch())
            .collect::<Vec<_>>(),
    );
    let nodes: Vec<NodeId> = sys.plane(0).topo().nodes().collect();
    let placement = Placement::linear(&nodes, sys.num_nodes());
    let mf = sys.multi_fabric(&placement, Pml::Ob1, RailPolicy::RoundRobin);
    for p in 0..sys.num_planes() {
        let rp = mf.resolve_on(p, 0, 671, 1 << 20, 0);
        println!(
            "rail {p}: rank 0 -> 671 resolves over {} hops",
            rp.hops.len()
        );
    }

    println!("\n# Short churn campaign with rail failover\n");
    let cfg = CampaignConfig {
        seed: 0x7258,
        mtbf: 0.002,
        mttr: 0.004,
        duration: 0.05,
        flows: 24,
        bytes: 4 << 20,
        max_down: 8,
        solver: SolverKind::Incremental,
        planes: 4,
        rail: RailPolicy::RoundRobin,
        force_failover: false,
        ..CampaignConfig::default()
    };
    let topo = HyperXConfig::t2_hyperx(672).build();
    let r = run_campaign(&topo, |_| Box::new(Dfsssp::default()), &cfg).expect("campaign");
    println!(
        "rail {}: healthy {:.1} GB/s -> faulted {:.1} GB/s ({:.1}% drop), \
         {} failures / {} recoveries across planes, {} failovers, epochs {:?}",
        r.rail,
        r.healthy_throughput / 1e9,
        r.faulted_throughput / 1e9,
        100.0 * r.throughput_drop(),
        r.failures.iter().sum::<u64>(),
        r.recoveries.iter().sum::<u64>(),
        r.failovers,
        r.final_epochs,
    );
}
