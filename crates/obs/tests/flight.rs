//! Crash-path integration test: an injected panic must leave a parseable
//! `flightdump.json` holding the ring's tail — the spans and metrics that
//! led up to the crash plus the panic record itself.
//!
//! This file stays a single test: the panic hook and the global ring are
//! process-wide, and one test per binary
//! (integration tests are separate processes) is the cheap way to keep
//! them hermetic.

use hxobs::flight::{self, FlightRecorder};
use hxobs::{Json, ObsRecorder, Span};
use std::sync::Arc;

#[test]
fn injected_panic_dumps_parseable_flight_recording() {
    let dir = std::env::temp_dir().join(format!("hxobs_flight_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    hxobs::install(Arc::new(ObsRecorder::new()));
    flight::install(Arc::new(FlightRecorder::new(64)), &dir);

    // Some pre-crash history for the ring to retain.
    let mut sp = Span::root(hxobs::track::RUNNER, 0, "step", "campaign");
    sp.set_epoch(11);
    let inner = sp.child("fail_link", "route");
    inner.end();
    sp.end();
    hxobs::count("pre_crash.counter", 2);

    let unwound = std::panic::catch_unwind(|| {
        panic!("injected flight-recorder test panic");
    });
    assert!(unwound.is_err());

    let dump = dir.join("flightdump.json");
    let text = std::fs::read_to_string(&dump).expect("panic hook wrote the dump");
    let doc = Json::parse(&text).expect("dump parses");
    assert!(doc.get("recorded").unwrap().as_num().unwrap() >= 4.0);
    let events = doc.get("events").unwrap().as_arr().unwrap();
    let name_of = |e: &Json| e.get("name").unwrap().as_str().unwrap().to_string();
    let kind_of = |e: &Json| e.get("kind").unwrap().as_str().unwrap().to_string();

    // The causal history survived: span begin/end pairs with epoch, the
    // counter bump, and the panic instant naming message and location.
    assert!(events.iter().any(|e| kind_of(e) == "span_end"
        && name_of(e) == "step"
        && e.get("epoch").and_then(Json::as_num) == Some(11.0)));
    assert!(events
        .iter()
        .any(|e| kind_of(e) == "span_begin" && name_of(e) == "fail_link"));
    assert!(events
        .iter()
        .any(|e| kind_of(e) == "counter" && name_of(e) == "pre_crash.counter"));
    let panic_ev = events
        .iter()
        .find(|e| kind_of(e) == "instant" && name_of(e).starts_with("panic: "))
        .expect("panic recorded as an instant");
    let msg = name_of(panic_ev);
    assert!(
        msg.contains("injected flight-recorder test panic") && msg.contains("tests/flight.rs"),
        "panic record carries message and location: {msg}"
    );

    hxobs::uninstall();
    flight::uninstall();
    let _ = std::fs::remove_dir_all(&dir);
}
