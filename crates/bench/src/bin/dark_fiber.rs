//! "Dark fiber" analysis — the paper's Section 3.2.3 claim that PARX's
//! demand-weighted balancing "reduces the dark fiber, and high-traffic
//! paths are separated as much as possible": measure, per combo, how many
//! HyperX cable directions a dense alltoall actually lights up and how
//! imbalanced the load is.

use hxcore::Combo;
use hxmpi::rounds::{estimate_detailed, RoundProgram};
use hxsim::stats::LinkUsage;

fn main() {
    let _obs = hxbench::obs_scope("dark_fiber");
    let sys = hxbench::build_full();
    let n = 112;
    println!("# Dark-fiber analysis: alltoall(1 MiB) at {n} nodes, HyperX plane\n");
    println!(
        "{:<28} {:>6} {:>6} {:>10} {:>10}",
        "combo", "lit", "dark", "max GiB", "imbalance"
    );
    for combo in [
        Combo::HxDfssspLinear,
        Combo::HxDfssspRandom,
        Combo::HxParxClustered,
    ] {
        let fabric = sys.fabric(combo, n, 0x7258);
        let mut rp = RoundProgram::new(n);
        rp.alltoall(1 << 20);
        let detail = estimate_detailed(&fabric, &rp);
        let usage = LinkUsage::of(sys.topo(combo), &detail.link_bytes);
        println!(
            "{:<28} {:>6} {:>6} {:>10.2} {:>10.2}",
            combo.label(),
            usage.lit,
            usage.dark,
            usage.max_bytes / (1u64 << 30) as f64,
            usage.imbalance()
        );
    }
    println!("\nPARX's multi-path LID selection should light more cable directions");
    println!("(less dark fiber) at lower peak load than single-path minimal routing.");
}
