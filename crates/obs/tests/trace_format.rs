//! End-to-end validation of the exported artefacts: the trace file must be
//! a Chrome trace-event JSON object that Perfetto can load, and the metrics
//! export must be one well-formed JSON object per line.

use hxobs::{Json, ObsRecorder, Scope};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Serializes the tests here: recording goes through the process-global
/// sink.
static GLOBAL: Mutex<()> = Mutex::new(());

fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hxobs-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn sample_recorder() -> Arc<ObsRecorder> {
    let _g = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    let r = Arc::new(ObsRecorder::new());
    hxobs::install(r.clone());
    r.tracer.name_process(0, "des plane 0");
    r.tracer.name_thread(0, 0, "rank 0");
    r.tracer.name_thread(0, 1, "rank 1");
    r.tracer.span(0, 0, "compute", "des", 10.0, 25.0, vec![]);
    r.tracer.span(
        0,
        1,
        "send",
        "des",
        12.0,
        3.0,
        vec![
            ("to".to_string(), Json::from(0u64)),
            ("bytes".to_string(), Json::from(4096u64)),
        ],
    );
    r.tracer.instant(
        0,
        0,
        "deliver",
        "des",
        40.0,
        vec![("from".to_string(), Json::from(1u64))],
    );
    hxobs::count("des.messages", 2);
    hxobs::gauge("des.last_makespan_s", 0.5);
    hxobs::sample("des.msg_bytes", Scope::NONE, 4096.0);
    hxobs::sample("des.msg_bytes", Scope::NONE, 65536.0);
    // Sketch names that sort before and after the counters: the export
    // interleaves both registries by name.
    hxobs::sample("a.first_us", Scope::epoch(1), 10.0);
    hxobs::sample("a.first_us", Scope::epoch(1), 30.0);
    let z = Scope {
        epoch: Some(2),
        plane: Some(1),
    };
    hxobs::sample("z.last_us", z, 5.0);
    hxobs::sample("z.last_us", z, 7.0);
    hxobs::uninstall();
    r
}

#[test]
fn trace_file_is_perfetto_loadable_chrome_json() {
    let dir = scratch_dir("trace");
    let rec = sample_recorder();
    let (metrics_path, trace_path) = rec.write_files(&dir, "unit").unwrap();
    assert_eq!(trace_path.file_name().unwrap(), "unit.trace.json");

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let root = Json::parse(&text).expect("trace file parses as JSON");
    assert_eq!(
        root.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    // 3 metadata records (process + 2 threads) + 2 spans + 1 instant.
    assert_eq!(events.len(), 6);

    let mut seen_non_meta = false;
    for e in events {
        // Every record carries the Chrome trace-event required fields.
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("pid").and_then(Json::as_num).is_some());
        assert!(e.get("tid").and_then(Json::as_num).is_some());
        match ph {
            "M" => {
                assert!(
                    !seen_non_meta,
                    "metadata records must precede trace records"
                );
                let name = e.get("name").and_then(Json::as_str).unwrap();
                assert!(name == "process_name" || name == "thread_name");
                assert!(e.get("args").and_then(|a| a.get("name")).is_some());
            }
            "X" => {
                seen_non_meta = true;
                assert!(e.get("ts").and_then(Json::as_num).is_some());
                let dur = e.get("dur").and_then(Json::as_num).unwrap();
                assert!(dur >= 0.0);
                assert_eq!(e.get("cat").and_then(Json::as_str), Some("des"));
            }
            "i" => {
                seen_non_meta = true;
                assert!(e.get("ts").and_then(Json::as_num).is_some());
                // Thread-scoped instants render as arrows in Perfetto.
                assert_eq!(e.get("s").and_then(Json::as_str), Some("t"));
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }

    // Span args survive the round trip.
    let send = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("send"))
        .unwrap();
    assert_eq!(
        send.get("args")
            .and_then(|a| a.get("bytes"))
            .and_then(Json::as_num),
        Some(4096.0)
    );

    std::fs::remove_file(metrics_path).ok();
    std::fs::remove_file(trace_path).ok();
    std::fs::remove_dir(dir).ok();
}

#[test]
fn metrics_export_is_one_json_object_per_line() {
    let dir = scratch_dir("metrics");
    let rec = sample_recorder();
    let (metrics_path, trace_path) = rec.write_files(&dir, "unit").unwrap();
    assert_eq!(metrics_path.file_name().unwrap(), "unit.metrics.jsonl");

    let text = std::fs::read_to_string(&metrics_path).unwrap();
    let mut names = Vec::new();
    for line in text.lines() {
        let obj = Json::parse(line).expect("each line parses as JSON");
        let name = obj.get("name").and_then(Json::as_str).unwrap().to_string();
        match obj.get("type").and_then(Json::as_str).unwrap() {
            "counter" | "gauge" => {
                assert!(obj.get("value").and_then(Json::as_num).is_some());
            }
            "sketch" => {
                assert_eq!(obj.get("count").and_then(Json::as_num), Some(2.0));
                let buckets = obj.get("buckets").and_then(Json::as_arr).unwrap();
                let total: f64 = buckets
                    .iter()
                    .map(|b| b.get("count").and_then(Json::as_num).unwrap())
                    .sum();
                assert_eq!(total, 2.0);
                for field in ["min", "max", "p50", "p999"] {
                    assert!(obj.get(field).and_then(Json::as_num).is_some());
                }
                // Only per-epoch tails carry an epoch field.
                assert_eq!(obj.get("epoch").is_some(), name != "des.msg_bytes");
            }
            other => panic!("unexpected instrument type {other:?}"),
        }
        names.push(name);
    }
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted, "instruments are exported in sorted order");
    assert_eq!(
        names,
        vec![
            "a.first_us",
            "des.last_makespan_s",
            "des.messages",
            "des.msg_bytes",
            "z.last_us"
        ]
    );

    std::fs::remove_file(metrics_path).ok();
    std::fs::remove_file(trace_path).ok();
    std::fs::remove_dir(dir).ok();
}

#[test]
fn every_fixed_track_with_events_is_named() {
    use hxobs::track::{CAP, HXD, MPI, OPENSM, RUNNER};
    let rec = {
        let _g = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
        let rec = Arc::new(ObsRecorder::new());
        hxobs::install(rec.clone());
        for pid in [OPENSM, RUNNER, MPI, HXD] {
            hxobs::Span::root(pid, 0, "work", "test").end();
        }
        hxobs::uninstall();
        rec
    };
    let doc = Json::parse(&rec.tracer.to_chrome_json()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let pid_of = |e: &Json| e.get("pid").and_then(Json::as_num).unwrap() as u32;
    let named: Vec<u32> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .map(pid_of)
        .collect();
    // One name per track that holds events, none for the idle CAP track.
    assert_eq!(named, [OPENSM, RUNNER, MPI, HXD]);
    assert!(!events.iter().any(|e| pid_of(e) == CAP));
}
