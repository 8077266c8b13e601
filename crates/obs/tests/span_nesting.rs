//! Integration tests for the causal span layer: the begin/end discipline
//! of explicitly-threaded [`hxobs::Span`] handles must materialize in the
//! Chrome trace export as well-formed trees — unique ids, resolvable
//! parent links, time-contained child intervals, epoch provenance — and
//! mirror into the flight ring as paired begin/end records.
//!
//! These tests swap the process-global sink, so they serialize on a local
//! mutex (integration-test binaries are separate processes, but tests in
//! this file share one).

use hxobs::flight::{FlightRecorder, Kind};
use hxobs::{flight, Json, ObsRecorder, Span, SpanCtx};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

static GLOBAL: Mutex<()> = Mutex::new(());

/// Installs a fresh recorder (and flight ring), returning the serializer
/// guard that keeps other tests off the globals.
fn fresh() -> (MutexGuard<'static, ()>, Arc<ObsRecorder>) {
    let guard = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    let rec = Arc::new(ObsRecorder::new());
    hxobs::install(rec.clone());
    // No test here dumps the ring; a failing assertion's panic hook does.
    let dump = flight::dump_path(&std::env::temp_dir(), "span_nesting");
    flight::install(Arc::new(FlightRecorder::new(256)), &dump);
    (guard, rec)
}

/// One span flattened back out of the trace export.
struct Ev {
    name: String,
    ts: f64,
    dur: f64,
    parent: u64,
    epoch: u64,
}

fn spans_of(rec: &ObsRecorder) -> HashMap<u64, Ev> {
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
        let id = num("span");
        assert_ne!(id, 0, "Span-API events always carry args.span");
        let prev = out.insert(
            id,
            Ev {
                name: ev.get("name").unwrap().as_str().unwrap().to_string(),
                ts: ev.get("ts").unwrap().as_num().unwrap(),
                dur: ev.get("dur").unwrap().as_num().unwrap(),
                parent: num("parent"),
                epoch: num("epoch"),
            },
        );
        assert!(prev.is_none(), "span ids are unique");
    }
    out
}

#[test]
fn span_tree_nests_in_trace_with_epochs() {
    let (_g, rec) = fresh();

    // The campaign's causal shape: step → fail_link → pathdb_patch, with
    // repath/resolve as step's direct children.
    let mut step = Span::root(hxobs::track::RUNNER, 0, "step", "campaign");
    step.set_epoch(7);
    {
        let mut fail = step.child("fail_link", "route");
        fail.set_epoch(7);
        let mut patch = fail.child("pathdb_patch", "route");
        patch.set_epoch(7);
        patch.end();
        fail.end();
        let repath = Span::under(step.ctx(), hxobs::track::RUNNER, 0, "repath", "campaign");
        repath.end();
        let resolve = Span::under(step.ctx(), hxobs::track::RUNNER, 0, "resolve", "campaign");
        resolve.end();
    }
    let step_id = step.ctx().id;
    step.end();
    hxobs::uninstall();
    flight::uninstall();

    let spans = spans_of(&rec);
    assert_eq!(spans.len(), 5);
    let by_name: HashMap<&str, u64> = spans.iter().map(|(&id, e)| (e.name.as_str(), id)).collect();
    assert_eq!(by_name["step"], step_id);
    assert_eq!(spans[&by_name["fail_link"]].parent, step_id);
    assert_eq!(spans[&by_name["repath"]].parent, step_id);
    assert_eq!(spans[&by_name["resolve"]].parent, step_id);
    assert_eq!(spans[&by_name["pathdb_patch"]].parent, by_name["fail_link"]);
    assert_eq!(spans[&by_name["step"]].epoch, 7);
    assert_eq!(spans[&by_name["pathdb_patch"]].epoch, 7);

    // Every child interval sits inside its parent's.
    for (id, e) in &spans {
        if e.parent == 0 {
            continue;
        }
        let p = &spans[&e.parent];
        assert!(
            e.ts >= p.ts && e.ts + e.dur <= p.ts + p.dur,
            "span {id} ({}) escapes its parent",
            e.name
        );
    }
}

#[test]
fn spans_mirror_into_flight_ring_as_begin_end_pairs() {
    let (_g, _rec) = fresh();

    let mut root = Span::root(1, 0, "des_run", "des");
    root.set_epoch(3);
    let child = root.child("resolve", "des");
    let (root_id, child_id) = (root.ctx().id, child.ctx().id);
    child.end();
    root.end();
    hxobs::uninstall();
    let ring = flight::uninstall().expect("ring was armed");

    let evs: Vec<_> = ring.snapshot().into_iter().map(|(_, e)| e).collect();
    let find = |kind: Kind, span: u64| evs.iter().find(|e| e.kind == kind && e.span == span);
    let rb = find(Kind::SpanBegin, root_id).expect("root begin");
    let re = find(Kind::SpanEnd, root_id).expect("root end");
    let cb = find(Kind::SpanBegin, child_id).expect("child begin");
    let ce = find(Kind::SpanEnd, child_id).expect("child end");
    assert_eq!(rb.name, "des_run");
    assert_eq!(ce.name, "resolve");
    assert_eq!(cb.parent, root_id);
    assert_eq!(re.epoch, 3);
    // Begin/end ordering: child closes before its parent.
    assert!(cb.ts_us >= rb.ts_us && ce.ts_us <= re.ts_us);
    assert!(re.value >= ce.value, "parent duration covers the child's");
}

#[test]
fn disabled_spans_are_inert_and_emit_nothing() {
    let (_g, rec) = fresh();
    hxobs::uninstall();
    flight::uninstall();

    let mut sp = Span::root(1, 0, "ghost", "test");
    assert!(!sp.is_live());
    assert_eq!(sp.ctx(), SpanCtx::none());
    sp.arg("k", Json::from(1u64));
    let child = sp.child("ghost_child", "test");
    child.end();
    sp.end();
    assert!(rec.tracer.is_empty(), "no events reach an uninstalled sink");
}
