//! hxobs: observability layer for the t2hx HyperX/Fat-Tree study.
//!
//! Two halves, both thread-safe and allocation-light:
//!
//! * a **metrics registry** ([`metrics::Registry`]) of named counters,
//!   gauges and log-bucketed histograms, exported as JSONL;
//! * a **structured event tracer** ([`trace::Tracer`]) emitting spans and
//!   instants in Chrome trace-event JSON, loadable in Perfetto, with
//!   pid/tid mapped to plane/rank for DES traces.
//!
//! Three further subsystems ride the same gate:
//!
//! * **causal spans** ([`span::Span`]) — explicitly-threaded hierarchical
//!   span contexts with parent/child links and path-store epoch
//!   provenance, rendered into the same Perfetto trace;
//! * a **crash flight recorder** ([`flight`]) — a fixed-capacity lock-free
//!   ring of the last N span/metric events, dumped to
//!   `<out_dir>/flightdump.json` from a panic hook or on demand;
//! * **tail-latency sketches** ([`sketch`]) — mergeable log₂-bucket
//!   quantile sketches (p50/p95/p99/p999) keyed per `(metric, epoch)`.
//!
//! Instrumented code pays for what it uses: the global sink defaults to
//! off and every call site is gated on [`enabled`], a single relaxed
//! atomic load. Enable by calling [`init`] (sink plus flight ring, both
//! exporting into one output directory) or [`install`]; drain with
//! [`finalize`] which writes `<out_dir>/<name>.metrics.jsonl` and
//! `<out_dir>/<name>.trace.json`. The library never reads the environment:
//! the caller decides whether observability is on and where it writes.

#![deny(missing_docs)]

pub mod flight;
pub mod json;
pub mod metrics;
pub mod sketch;
pub mod span;
pub mod stats;
pub mod trace;

use parking_lot::RwLock;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use sketch::{Sketch, SketchRegistry, NO_PLANE};
pub use span::{Span, SpanCtx};
pub use stats::Summary;
pub use trace::{TraceEvent, Tracer};

/// Trace process-id (track group) conventions. DES simulators use the
/// plane index directly (0, 1, …); wall-clock subsystems get ids far above
/// any plausible plane count.
pub mod track {
    /// The subnet manager's wall-clock track.
    pub const OPENSM: u32 = 1000;
    /// The experiment runner's wall-clock track.
    pub const RUNNER: u32 = 1001;
    /// The MPI schedule-compilation track.
    pub const MPI: u32 = 1002;
    /// The resident `hxd` query service's wall-clock track; reader
    /// threads use their reader index as the tid within it.
    pub const HXD: u32 = 1003;
    /// The capacity allocator's wall-clock track; `capacity_scale` runs
    /// use the placement-policy index as the tid within it.
    pub const CAP: u32 = 1004;
}

/// Sink for metric updates and trace events. The default methods all
/// no-op, so `struct Noop; impl Recorder for Noop {}` is the zero-cost
/// disabled sink; [`ObsRecorder`] is the real one.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to counter `name`.
    fn counter_add(&self, _name: &str, _delta: u64) {}
    /// Sets gauge `name`.
    fn gauge_set(&self, _name: &str, _value: f64) {}
    /// Records one histogram sample under `name`.
    fn histogram_record(&self, _name: &str, _value: f64) {}
    /// Records a complete span on track `(pid, tid)`; times in µs.
    #[allow(clippy::too_many_arguments)]
    fn span(
        &self,
        _pid: u32,
        _tid: u32,
        _name: &str,
        _cat: &'static str,
        _ts_us: f64,
        _dur_us: f64,
        _args: Vec<(String, Json)>,
    ) {
    }
    /// Records an instant event on track `(pid, tid)`.
    fn instant(
        &self,
        _pid: u32,
        _tid: u32,
        _name: &str,
        _cat: &'static str,
        _ts_us: f64,
        _args: Vec<(String, Json)>,
    ) {
    }
    /// Records one tail-latency sample under `name` for path-store `epoch`.
    fn sketch_record(&self, _name: &str, _epoch: u64, _value: f64) {}
    /// Records one plane-scoped tail-latency sample (multi-rail fabrics).
    fn sketch_record_plane(&self, _name: &str, _epoch: u64, _plane: u32, _value: f64) {}
}

/// The do-nothing sink; what disabled call sites conceptually talk to.
pub struct Noop;

impl Recorder for Noop {}

/// Live sink: a metrics [`Registry`], a Chrome-trace [`Tracer`] and a
/// per-epoch tail-latency [`SketchRegistry`].
#[derive(Default)]
pub struct ObsRecorder {
    /// The metrics half: named counters, gauges and histograms.
    pub registry: Registry,
    /// The tracing half: Chrome trace-event spans and instants.
    pub tracer: Tracer,
    /// The tail half: per-`(name, epoch)` quantile sketches.
    pub sketches: SketchRegistry,
}

impl ObsRecorder {
    /// Creates an empty recorder.
    pub fn new() -> ObsRecorder {
        ObsRecorder::default()
    }

    /// Microseconds of wall time since this recorder was created.
    pub fn now_us(&self) -> f64 {
        self.tracer.now_us()
    }

    /// Writes `<name>.metrics.jsonl` and `<name>.trace.json` under `dir`
    /// (created if absent). Sketch lines (`{"type":"sketch",...}`) are
    /// appended to the metrics JSONL — one object per line either way.
    /// Returns the two paths.
    pub fn write_files(&self, dir: &Path, name: &str) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let metrics_path = dir.join(format!("{name}.metrics.jsonl"));
        let trace_path = dir.join(format!("{name}.trace.json"));
        let mut jsonl = self.registry.to_jsonl();
        jsonl.push_str(&self.sketches.to_jsonl());
        std::fs::write(&metrics_path, jsonl)?;
        std::fs::write(&trace_path, self.tracer.to_chrome_json())?;
        Ok((metrics_path, trace_path))
    }
}

impl Recorder for ObsRecorder {
    fn counter_add(&self, name: &str, delta: u64) {
        self.registry.counter(name).add(delta);
    }

    fn gauge_set(&self, name: &str, value: f64) {
        self.registry.gauge(name).set(value);
    }

    fn histogram_record(&self, name: &str, value: f64) {
        self.registry.histogram(name).record(value);
    }

    fn span(
        &self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &'static str,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, Json)>,
    ) {
        self.tracer.span(pid, tid, name, cat, ts_us, dur_us, args);
    }

    fn instant(
        &self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &'static str,
        ts_us: f64,
        args: Vec<(String, Json)>,
    ) {
        self.tracer.instant(pid, tid, name, cat, ts_us, args);
    }

    fn sketch_record(&self, name: &str, epoch: u64, value: f64) {
        self.sketches.record(name, epoch, value);
    }

    fn sketch_record_plane(&self, name: &str, epoch: u64, plane: u32, value: f64) {
        self.sketches.record_plane(name, epoch, plane, value);
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<ObsRecorder>>> = RwLock::new(None);

/// True when a sink is installed. One relaxed atomic load — the gate every
/// instrumentation site checks first, so disabled builds pay ~nothing.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs (or replaces) the global sink. Tests may swap sinks freely;
/// production installs once at process start.
pub fn install(r: Arc<ObsRecorder>) {
    *SINK.write() = Some(r);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the global sink, returning it (if any) so callers can still
/// export what was collected.
pub fn uninstall() -> Option<Arc<ObsRecorder>> {
    ENABLED.store(false, Ordering::Release);
    SINK.write().take()
}

/// The current sink, or `None` when observability is off. Callers on hot
/// paths should grab this once per run/solve, not per event.
pub fn sink() -> Option<Arc<ObsRecorder>> {
    if !enabled() {
        return None;
    }
    SINK.read().clone()
}

/// Installs a fresh [`ObsRecorder`] and arms a fresh [`flight`] ring of
/// [`flight::DEFAULT_CAP`] events whose panic dump lands in
/// `<dir>/flightdump.json`, replacing whatever an earlier phase of the
/// same process left installed, so counters, traces, sketches and the
/// ring never bleed across exports. Harness binaries call this at startup
/// and [`finalize`] with the same `dir` before exit.
pub fn init(dir: &Path) {
    install(Arc::new(ObsRecorder::new()));
    flight::install(
        Arc::new(flight::FlightRecorder::new(flight::DEFAULT_CAP)),
        dir,
    );
}

/// Uninstalls the global sink and writes `<name>.metrics.jsonl` +
/// `<name>.trace.json` under `dir`. When a flight ring is armed and holds
/// events, it is dumped to `<dir>/flightdump.json` alongside them and
/// disarmed. No-op (returns `None`) when observability was never enabled.
pub fn finalize(name: &str, dir: &Path) -> Option<(PathBuf, PathBuf)> {
    let rec = uninstall()?;
    if let Some(ring) = flight::uninstall() {
        if ring.recorded() > 0 {
            if let Err(e) = flight::dump_ring_to(&ring, &dir.join(flight::DUMP_FILE)) {
                eprintln!("hxobs: failed to write flight dump: {e}");
            }
        }
    }
    match rec.write_files(dir, name) {
        Ok(paths) => Some(paths),
        Err(e) => {
            eprintln!("hxobs: failed to write observability files: {e}");
            None
        }
    }
}

// ---- convenience free functions: gated, safe to call unconditionally ----

/// Adds to a named counter if observability is on. Also lands in the
/// flight ring as a [`flight::Kind::Counter`] event when one is armed.
#[inline]
pub fn count(name: &str, delta: u64) {
    if enabled() {
        if let Some(s) = sink() {
            s.counter_add(name, delta);
            flight_metric(&s, flight::Kind::Counter, name, delta as f64);
        }
    }
}

/// Sets a named gauge if observability is on. Also lands in the flight
/// ring as a [`flight::Kind::Gauge`] event when one is armed.
#[inline]
pub fn gauge(name: &str, value: f64) {
    if enabled() {
        if let Some(s) = sink() {
            s.gauge_set(name, value);
            flight_metric(&s, flight::Kind::Gauge, name, value);
        }
    }
}

/// Shared flight-ring tail for the metric free functions.
#[inline]
fn flight_metric(s: &ObsRecorder, kind: flight::Kind, name: &str, value: f64) {
    if flight::active() {
        flight::record(&flight::FlightEvent {
            kind,
            pid: 0,
            tid: 0,
            ts_us: s.now_us(),
            span: 0,
            parent: 0,
            epoch: 0,
            value,
            name: name.to_string(),
        });
    }
}

/// Records a histogram sample if observability is on.
#[inline]
pub fn observe(name: &str, value: f64) {
    if enabled() {
        if let Some(s) = sink() {
            s.histogram_record(name, value);
        }
    }
}

/// Records a tail-latency sample under `name` for path-store `epoch` if
/// observability is on. Also lands in the flight ring as a
/// [`flight::Kind::Sample`] event, so a crash dump shows the most recent
/// latencies alongside the open spans.
#[inline]
pub fn sketch_record(name: &str, epoch: u64, value: f64) {
    if enabled() {
        if let Some(s) = sink() {
            s.sketch_record(name, epoch, value);
            flight::record(&flight::FlightEvent {
                kind: flight::Kind::Sample,
                pid: 0,
                tid: 0,
                ts_us: s.now_us(),
                span: 0,
                parent: 0,
                epoch,
                value,
                name: name.to_string(),
            });
        }
    }
}

/// Records a plane-scoped tail-latency sample under `name` for path-store
/// `epoch` on fabric plane `plane` if observability is on. The per-rail
/// sibling of [`sketch_record`]: sketch JSONL lines gain a `plane` field so
/// multi-rail tails stay separable. The flight-ring mirror reuses `tid` to
/// carry the plane id (flight events have no plane slot).
#[inline]
pub fn sketch_record_plane(name: &str, epoch: u64, plane: u32, value: f64) {
    if enabled() {
        if let Some(s) = sink() {
            s.sketch_record_plane(name, epoch, plane, value);
            flight::record(&flight::FlightEvent {
                kind: flight::Kind::Sample,
                pid: 0,
                tid: plane,
                ts_us: s.now_us(),
                span: 0,
                parent: 0,
                epoch,
                value,
                name: name.to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_accepts_everything() {
        let n = Noop;
        n.counter_add("x", 1);
        n.gauge_set("x", 1.0);
        n.histogram_record("x", 1.0);
        n.span(0, 0, "s", "c", 0.0, 1.0, vec![]);
        n.instant(0, 0, "i", "c", 0.0, vec![]);
    }

    #[test]
    fn obs_recorder_routes_to_registry_and_tracer() {
        let r = ObsRecorder::new();
        r.counter_add("c", 2);
        r.gauge_set("g", 3.5);
        r.histogram_record("h", 1.0);
        r.span(1, 2, "work", "test", 0.0, 10.0, vec![]);
        r.instant(1, 2, "tick", "test", 5.0, vec![]);
        assert_eq!(r.registry.counter("c").get(), 2);
        assert_eq!(r.registry.gauge("g").get(), 3.5);
        assert_eq!(r.registry.histogram("h").count(), 1);
        assert_eq!(r.tracer.len(), 2);
    }

    #[test]
    fn write_files_produces_parseable_artifacts() {
        let r = ObsRecorder::new();
        r.counter_add("events", 5);
        r.span(0, 0, "phase", "test", 0.0, 100.0, vec![]);
        let dir = std::env::temp_dir().join(format!("hxobs-test-{}", std::process::id()));
        let (m, t) = r.write_files(&dir, "unit").unwrap();
        let metrics = std::fs::read_to_string(&m).unwrap();
        for line in metrics.lines() {
            json::parse(line).unwrap();
        }
        let trace = std::fs::read_to_string(&t).unwrap();
        let doc = json::parse(&trace).unwrap();
        assert!(doc.get("traceEvents").unwrap().as_arr().unwrap().len() == 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    // Global-sink lifecycle test. Kept as ONE test (not several) because
    // the sink is process-global and cargo runs tests concurrently.
    #[test]
    fn global_install_sink_finalize_cycle() {
        let rec = Arc::new(ObsRecorder::new());
        install(rec.clone());
        assert!(enabled());
        count("global.counter", 7);
        observe("global.hist", 2.0);
        gauge("global.gauge", 9.0);
        assert_eq!(rec.registry.counter("global.counter").get(), 7);
        assert_eq!(rec.registry.histogram("global.hist").count(), 1);
        assert_eq!(rec.registry.gauge("global.gauge").get(), 9.0);
        let back = uninstall().unwrap();
        assert!(Arc::ptr_eq(&back, &rec));
        assert!(!enabled());
        assert!(sink().is_none());
        // Disabled convenience calls are silent no-ops.
        count("global.counter", 100);
        assert_eq!(rec.registry.counter("global.counter").get(), 7);
    }
}
