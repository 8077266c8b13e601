//! Regression pins for the fault-churn campaign engine: literal
//! fingerprints of single-plane and multi-plane campaigns.
//!
//! Single-plane values must reproduce exactly. A multi-plane value may only
//! move when a change touches the order of floating-point work (a re-solve
//! more or less); then its integer digest — every count, per-plane vector
//! and epoch — must still match, and the move is recorded in CHANGES.md.

use hxcore::{run_campaign, CampaignConfig, CampaignReport};
use hxmpi::{Pml, RailPolicy};
use hxroute::engines::{engine_by_name, Dfsssp, MinHop, RoutingEngine, Sssp};
use hxroute::Demand;
use hxsim::SolverKind;
use hxtopo::hyperx::HyperXConfig;
use hxtopo::NodeId;

fn quick(seed: u64, solver: SolverKind) -> CampaignConfig {
    CampaignConfig {
        seed,
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

/// A neighbour-ring profile for the SAR/PARX demand trigger.
fn ring(n: usize) -> Demand {
    let mut d = Demand::new(n);
    for i in 0..n {
        d.add(NodeId(i as u32), NodeId(((i + 1) % n) as u32), 8 << 20);
        d.add(NodeId(i as u32), NodeId(((i + 5) % n) as u32), 1 << 20);
    }
    d
}

/// FNV-1a over the integer fields of a multi-plane report.
fn int_digest(r: &CampaignReport) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let scalars = [
        r.planes as u64,
        r.healthy_completions,
        r.faulted_completions,
        r.skipped,
        r.failovers,
        r.max_links_down as u64,
    ];
    for v in scalars
        .iter()
        .chain(&r.failures)
        .chain(&r.recoveries)
        .chain(&r.plane_completions)
        .chain(&r.final_epochs)
    {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x00000100000001b3);
        }
    }
    h
}

fn mixed(p: usize) -> Box<dyn RoutingEngine> {
    match p % 3 {
        0 => Box::<Dfsssp>::default(),
        1 => Box::<MinHop>::default(),
        _ => Box::<Sssp>::default(),
    }
}

/// Single-plane campaigns: (engine, PML, demand profile, seed, fingerprint).
/// Both congestion backends must hit the same literal.
#[test]
fn single_plane_fingerprints_are_pinned() {
    let topo = HyperXConfig::new(vec![4, 4], 2).build();
    let cases: &[(&str, &str, bool, u64, u64)] = &[
        ("dfsssp", "ob1", false, 42, 0x2c579518159c2c29),
        ("dfsssp", "ob1", false, 43, 0x418c25eee3b22c40),
        ("dfsssp", "ob1", false, 0x7258, 0xe96fc7c7f162fe90),
        ("sssp", "ob1", false, 42, 0x381f6baf229bc90b),
        ("sssp", "ob1", false, 43, 0x3f215bd85817f87e),
        ("sssp", "ob1", false, 0x7258, 0xa0f13433201cc862),
        ("parx", "bfo-parx", true, 42, 0x315ccf20df78f4ec),
        ("parx", "bfo-parx", true, 0x7258, 0x686d6800388158dd),
        ("fatpaths", "flow-hash", false, 42, 0xff7c74803b1cbbf7),
        ("fatpaths", "flow-hash", false, 0x7258, 0x2e7cca63785c4b6b),
    ];
    let mut got = Vec::new();
    for &(engine, pml, demand, seed, _) in cases {
        let mut fps = Vec::new();
        for solver in [SolverKind::Exact, SolverKind::Incremental] {
            let mut cfg = quick(seed, solver);
            cfg.pml = match pml {
                "bfo-parx" => Pml::parx(),
                "flow-hash" => Pml::FlowHash,
                _ => Pml::Ob1,
            };
            cfg.demand = demand.then(|| ring(topo.num_nodes()));
            let r = run_campaign(&topo, |_| engine_by_name(engine).unwrap(), &cfg).unwrap();
            assert!(r.failures[0] > 0, "{engine} seed {seed}: no churn");
            fps.push(r.fingerprint());
        }
        assert_eq!(fps[0], fps[1], "{engine} seed {seed}: backends disagree");
        got.push(fps[0]);
    }
    let want: Vec<u64> = cases.iter().map(|c| c.4).collect();
    assert_eq!(got, want, "single-plane fingerprints moved: {got:#x?}");
}

/// Multi-plane campaigns over a mixed-engine plane set: (planes, rail,
/// force_failover, fingerprint, integer digest).
#[test]
fn multi_plane_fingerprints_are_pinned() {
    let topo = HyperXConfig::new(vec![4, 4], 2).build();
    let cases: &[(usize, &str, bool, u64, u64)] = &[
        (2, "rr", false, 0x4973eb6c1fc4cafb, 0xfb6792f252934e8e),
        (2, "rr", true, 0x173ff937a1cf1df7, 0xd0e48b226e6ef295),
        (2, "hash", false, 0x38d2533e37b970ba, 0xd5f389dd56996cf0),
        (2, "hash", true, 0xae7b0847c05b9da0, 0x0a278d93368fa8d6),
        (2, "load", false, 0xe2a4826568ce6352, 0x7c88a5a120b8a042),
        (2, "load", true, 0xf00f914a2fe5eca0, 0x237c65224a7b63ff),
        (3, "rr", false, 0xba414d8439098241, 0xa8fd992e8b797b5c),
        (3, "rr", true, 0x7a68229df6b5b651, 0xfdd6891376e3d11c),
        (3, "hash", false, 0x911d8d229050cf49, 0x0fb23738abce1414),
        (3, "hash", true, 0x4d1668b7ee37b86b, 0x20d1df720f3ee724),
        (3, "load", false, 0x0ec785c99c6e3415, 0xa8fd992e8b797b5c),
        (3, "load", true, 0x22760f0ccd329750, 0x285208792633494b),
    ];
    let mut got = Vec::new();
    for &(planes, rail, force, _, _) in cases {
        let rail = RailPolicy::all()
            .into_iter()
            .find(|r| r.label() == rail)
            .unwrap();
        let cfg = CampaignConfig {
            planes,
            rail,
            force_failover: force,
            ..quick(42, SolverKind::Exact)
        };
        let r = run_campaign(&topo, mixed, &cfg).unwrap();
        got.push((r.fingerprint(), int_digest(&r)));
    }
    let ints: Vec<u64> = got.iter().map(|g| g.1).collect();
    let want: Vec<u64> = cases.iter().map(|c| c.4).collect();
    assert_eq!(ints, want, "multi-plane integer fields moved: {ints:#x?}");
    let fps: Vec<u64> = got.iter().map(|g| g.0).collect();
    let want: Vec<u64> = cases.iter().map(|c| c.3).collect();
    assert_eq!(fps, want, "multi-plane fingerprints moved: {fps:#x?}");
}
