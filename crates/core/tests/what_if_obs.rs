//! A speculation is not a live event: an `hxd` what-if query runs the
//! subnet manager's repair ladder on a fork, and under an installed obs
//! sink that fork must leave the live-event counters and the reroute
//! latency sketch alone, while its ladder spans hang under the query that
//! asked for it.
//!
//! Lives in its own integration-test binary because it installs the
//! process-global `hxobs` sink.

use hxcore::{FabricService, Query};
use hxobs::{Json, ObsRecorder, Span};
use hxroute::engines::{Dfsssp, Parx, RoutingEngine};
use hxroute::SubnetManager;
use hxtopo::hyperx::HyperXConfig;
use hxtopo::LinkClass;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The telemetry a live cable event records and a speculation must not:
/// counter values and sketch counts, summed over a name's exported lines
/// (one per scope), 0 when none was exported.
fn live_telemetry(rec: &ObsRecorder) -> [u64; 5] {
    let export = rec.metrics_jsonl();
    let total = |name: &str, field: &str| -> u64 {
        export
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .filter(|j| j.get("name").and_then(Json::as_str) == Some(name))
            .map(|j| j.get(field).and_then(Json::as_num).unwrap() as u64)
            .sum()
    };
    [
        total("route.link_failures", "value"),
        total("route.incremental_reroutes", "value"),
        total("pathdb.patched_trees", "value"),
        total("route.sweeps", "value"),
        total("reroute.latency_us", "count"),
    ]
}

/// `(name, parent id)` of every span in the trace, by span id.
fn spans_of(rec: &ObsRecorder) -> HashMap<u64, (String, u64)> {
    let doc = Json::parse(&rec.tracer.to_chrome_json()).expect("trace parses");
    let mut out = HashMap::new();
    for ev in doc.get("traceEvents").unwrap().as_arr().unwrap() {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let num = |k: &str| {
            ev.get("args")
                .and_then(|a| a.get(k))
                .and_then(Json::as_num)
                .unwrap_or(0.0) as u64
        };
        let name = ev.get("name").unwrap().as_str().unwrap().to_string();
        out.insert(num("span"), (name, num("parent")));
    }
    out
}

#[test]
fn what_if_records_no_live_event_and_nests_under_its_query() {
    let rec = Arc::new(ObsRecorder::new());
    hxobs::install(rec.clone());
    let topo = HyperXConfig::new(vec![4, 4], 2).build();
    let isl = topo
        .links()
        .find(|(_, l)| l.class != LinkClass::Terminal)
        .unwrap()
        .0;
    // DFSSSP repairs with the generic patch; PARX with incremental repair
    // off re-sweeps.
    let planes: [(Box<dyn RoutingEngine>, bool); 2] = [
        (Box::new(Dfsssp::default()), true),
        (Box::new(Parx::default()), false),
    ];
    for (engine, incremental) in planes {
        let mut sm = SubnetManager::new(topo.clone(), engine);
        sm.incremental = incremental;
        sm.sweep().unwrap();
        let svc = FabricService::from_manager(&sm).unwrap();
        let mut reader = svc.reader();
        let before = live_telemetry(&rec);
        let root = Span::root(hxobs::track::HXD, 0, "serve", "hxd");
        reader
            .query_spanned(&Query::WhatIfFail { link: isl.0 }, root.ctx())
            .unwrap();
        root.end();
        assert_eq!(live_telemetry(&rec), before, "incremental={incremental}");
        // The same event on the live manager does record (the check above
        // is not vacuous).
        sm.fail_link(isl).unwrap();
        let after = live_telemetry(&rec);
        assert_eq!(after[0], before[0] + 1, "incremental={incremental}");
        assert!(after[1..] != before[1..], "incremental={incremental}");
    }
    hxobs::uninstall();

    // Each fork's event span hangs under the query that asked, inside its
    // serve loop, and the rest of its ladder under that span. The only
    // roots are the two bring-up sweeps, the two live events and the two
    // serve loops: no fork span escaped its query.
    let spans = spans_of(&rec);
    let name = |id: u64| spans[&id].0.as_str();
    let ancestors = |mut id: u64| {
        let mut up = Vec::new();
        while spans[&id].1 != 0 {
            id = spans[&id].1;
            up.push(id);
        }
        up
    };
    let forks: Vec<u64> = spans
        .iter()
        .filter(|(_, (n, p))| n == "fail_link" && *p != 0 && name(*p) == "query")
        .map(|(&id, _)| id)
        .collect();
    assert_eq!(forks.len(), 2, "one fork per what-if");
    for &id in &forks {
        assert_eq!(name(*ancestors(id).last().unwrap()), "serve");
    }
    let mut ladder = BTreeMap::new();
    let mut roots = BTreeMap::new();
    for (&id, (n, parent)) in &spans {
        if *parent == 0 {
            *roots.entry(n.as_str()).or_insert(0) += 1;
        } else if ancestors(id).iter().any(|a| forks.contains(a)) {
            *ladder.entry(n.as_str()).or_insert(0) += 1;
        }
    }
    assert!(ladder.contains_key("pathdb_patch"), "{ladder:?}");
    assert!(ladder.contains_key("sweep"), "{ladder:?}");
    assert_eq!(
        roots,
        BTreeMap::from([("fail_link", 2), ("serve", 2), ("sweep", 2)])
    );
}
