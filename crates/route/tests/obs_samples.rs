//! No sample is lost on the way to the metrics export, and counters reach
//! the flight ring: under an installed obs sink, one sweep exports exactly
//! one `route.pair_hops` sketch that holds every routed pair of the
//! sweep's hop histogram, and its `route.sweeps` counter lands in the
//! ring.
//!
//! Lives in its own integration-test binary because it installs the
//! process-global `hxobs` sink; the tests here serialize on a mutex.

use hxobs::flight::{self, FlightRecorder, Kind};
use hxobs::{Json, ObsRecorder};
use hxroute::engines::Dfsssp;
use hxroute::{SubnetManager, SweepReport};
use hxtopo::hyperx::HyperXConfig;
use std::sync::{Arc, Mutex};

static GLOBAL: Mutex<()> = Mutex::new(());

/// One DFSSSP sweep of 4x4:t2 under a fresh sink and flight ring.
fn traced_sweep() -> (Arc<ObsRecorder>, Arc<FlightRecorder>, SweepReport) {
    let _g = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    let rec = Arc::new(ObsRecorder::new());
    hxobs::install(rec.clone());
    let dump = flight::dump_path(&std::env::temp_dir(), "obs_samples");
    flight::install(Arc::new(FlightRecorder::new(256)), &dump);
    let topo = HyperXConfig::new(vec![4, 4], 2).build();
    let mut sm = SubnetManager::new(topo, Box::new(Dfsssp::default()));
    let report = sm.sweep().unwrap();
    hxobs::uninstall();
    let ring = flight::uninstall().unwrap();
    (rec, ring, report)
}

#[test]
fn a_sweep_exports_every_pair_hop_sample() {
    let (rec, _, report) = traced_sweep();
    let lines: Vec<Json> = rec
        .metrics_jsonl()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .filter(|j| j.get("name").and_then(Json::as_str) == Some("route.pair_hops"))
        .collect();
    assert_eq!(lines.len(), 1, "one unscoped sketch per name");
    let line = &lines[0];
    let num = |k: &str| line.get(k).and_then(Json::as_num).unwrap();
    assert_eq!(line.get("type").and_then(Json::as_str), Some("sketch"));
    assert!(line.get("epoch").is_none());
    let hist = &report.paths.hist;
    assert_eq!(num("count"), hist.iter().sum::<usize>() as f64);
    let hop_sum: usize = hist.iter().enumerate().map(|(h, &n)| h * n).sum();
    assert_eq!(num("sum"), hop_sum as f64);
    let max_hops = hist.iter().rposition(|&n| n > 0).unwrap();
    assert_eq!(num("max"), max_hops as f64);
    // The buckets are the histogram folded at powers of two: bucket `le`
    // holds every pair with `le/2 < h <= le`, and zero hops land in the
    // lowest bucket, bounded by 2^-40.
    let mut expect: Vec<(f64, f64)> = Vec::new();
    for (h, &n) in hist.iter().enumerate().filter(|&(_, &n)| n > 0) {
        let le = if h == 0 {
            (-40f64).exp2()
        } else {
            (h as f64).log2().ceil().exp2()
        };
        match expect.last_mut() {
            Some((l, c)) if *l == le => *c += n as f64,
            _ => expect.push((le, n as f64)),
        }
    }
    let buckets: Vec<(f64, f64)> = line
        .get("buckets")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|b| {
            let n = |k| b.get(k).and_then(Json::as_num).unwrap();
            (n("le"), n("count"))
        })
        .collect();
    assert_eq!(buckets, expect);
}

#[test]
fn a_sweep_mirrors_its_counters_into_the_flight_ring() {
    let (_, ring, _) = traced_sweep();
    let events = ring.snapshot();
    let counted = |name: &str| {
        events
            .iter()
            .any(|(_, e)| e.kind == Kind::Counter && e.name == name && e.value == 1.0)
    };
    assert!(
        counted("route.sweeps"),
        "route.sweeps reaches the flight ring"
    );
    // Gauges are mirrored too; pair-hop samples are not.
    assert!(events
        .iter()
        .any(|(_, e)| e.kind == Kind::Gauge && e.name == "pathdb.epoch"));
    assert!(!events.iter().any(|(_, e)| e.name == "route.pair_hops"));
}
