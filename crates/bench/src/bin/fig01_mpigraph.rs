//! Figure 1 — mpiGraph observable bandwidth for 28 nodes of the dual-plane
//! system, under (a) Fat-Tree/ftree, (b) HyperX/DFSSSP, (c) HyperX/PARX.
//!
//! Paper reference values (average intra-allocation bandwidth per node
//! pair): Fat-Tree 2.26 GiB/s, HyperX minimal 0.84 GiB/s, HyperX PARX
//! 1.39 GiB/s (+66% over minimal).

use hxbench::build_full;
use hxcore::report::heatmap;
use hxcore::Combo;
use hxload::mpigraph::{average_bandwidth, mpigraph};

fn main() {
    let _obs = hxbench::obs_scope("fig01_mpigraph");
    let sys = build_full();
    let n = 28;
    let bytes = 1u64 << 20;
    println!(
        "# Figure 1: mpiGraph, {n} nodes, {} MiB streams",
        bytes >> 20
    );
    println!("# paper: FT/ftree 2.26 GiB/s | HX/DFSSSP 0.84 GiB/s | HX/PARX 1.39 GiB/s\n");

    let mut parx_avg = 0.0;
    let mut dfsssp_avg = 0.0;
    for combo in [
        Combo::FtFtreeLinear,
        Combo::HxDfssspLinear,
        Combo::HxParxClustered,
    ] {
        // Figure 1 uses the same dense 28-node allocation on both planes;
        // force linear placement so only topology+routing differ.
        let fabric = sys.system().plane_fabric(
            combo.plane(),
            hxmpi::Placement::linear(&sys.topo(combo).nodes().collect::<Vec<_>>(), n),
            combo.pml(),
        );
        let m = mpigraph(&fabric, n, bytes);
        let avg = average_bandwidth(&m);
        match combo {
            Combo::HxDfssspLinear => dfsssp_avg = avg,
            Combo::HxParxClustered => parx_avg = avg,
            _ => {}
        }
        println!("## {}", combo.label());
        println!("average bandwidth: {avg:.2} GiB/s");
        println!("{}", heatmap(&m, 3.2));
    }
    println!(
        "PARX gain over minimal HyperX routing: {:+.0}% (paper: +66%)",
        (parx_avg / dfsssp_avg - 1.0) * 100.0
    );
}
