//! The paper's full PARX deployment pipeline (Sections 3.2.2–3.2.3 and
//! 4.4.3): profile an application's point-to-point traffic with the
//! low-level recorder, bind the rank profile to the job's node allocation,
//! re-route the HyperX fabric with the demand-aware PARX, and compare the
//! application's runtime before and after.

use hxcore::Combo;
use hxload::profile::RankProfile;
use hxload::proxy::{Qball, Swfft};
use hxload::workload::Workload;

fn main() {
    let _obs = hxbench::obs_scope("parx_pipeline");
    let mut sys = hxbench::build_full();
    let combo = Combo::HxParxClustered;
    let n = 112;

    println!("# PARX pattern-aware re-routing pipeline ({n} ranks, clustered allocation)\n");
    for w in [
        Box::new(Swfft::default()) as Box<dyn Workload>,
        Box::new(Qball::default()),
    ] {
        // 1. Run under oblivious PARX.
        let placement = sys.placement(combo, n, 0x7258);
        let before = {
            let fabric = sys.fabric(combo, n, 0x7258);
            w.kernel_seconds(&fabric, n)
        };

        // 2. Record the communication profile (placement-oblivious, as the
        //    paper's footnote 6 notes) and bind it to the allocation.
        let profile = RankProfile::of_workload(w.as_ref(), n);
        let demand = profile.bind(&placement, sys.num_nodes());

        // 3. Re-route the fabric (the SAR-like OpenSM interface).
        sys.reroute_parx(demand).expect("re-route");
        let after = {
            let fabric = sys.fabric(combo, n, 0x7258);
            w.kernel_seconds(&fabric, n)
        };

        println!(
            "{:<5} profile {:>6.1} GiB total | oblivious {before:>8.2}s | demand-aware {after:>8.2}s | {:+.2}%",
            w.name(),
            profile.total() as f64 / (1u64 << 30) as f64,
            (before / after - 1.0) * 100.0
        );

        // Restore the oblivious routing for the next workload.
        sys.reroute_parx(hxroute::Demand::new(sys.num_nodes()))
            .expect("restore");
    }
    println!("\n(The paper re-routes before every job start; gains depend on how");
    println!(" asymmetric the pattern's contention is — see ablation_parx.)");
}
