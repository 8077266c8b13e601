//! hxobs: observability layer for the t2hx HyperX/Fat-Tree study.
//!
//! Instrumented code records a metric one way: the gated free functions
//! [`count`] (counters), [`gauge`] (last-write-wins values) and [`sample`]
//! (a value into the log₂ quantile [`Sketch`] of a name at a [`Scope`]:
//! its path-store epoch and fabric plane, each optional; [`sample_n`] is
//! its weighted form). Each is a no-op unless a sink is installed, and
//! the gate is [`enabled`], a single relaxed atomic load. One rule decides
//! what also lands in the crash [`flight`] ring: counters and gauges do,
//! samples do not (per-message samples would push the span ends a
//! post-mortem needs out of the ring).
//!
//! Traces ride the same gate: causal [`Span`]s with parent/child links
//! and epoch provenance render into a Chrome trace-event file
//! ([`trace::Tracer`]) loadable in Perfetto, and mirror their begin/end
//! into the flight ring. Wall-clock subsystems use the fixed [`track`]
//! pids, named from one table when the trace is exported; the DES, which
//! stamps simulated time explicitly, writes through [`sink`] itself.
//!
//! Enable by calling [`init`] (sink plus flight ring) or [`install`];
//! drain with [`finalize`], which writes `<dir>/<name>.metrics.jsonl`,
//! `<dir>/<name>.trace.json` and the ring's `<dir>/<name>.flightdump.json`.
//! The library never reads the environment: the caller decides whether
//! observability is on and where it writes.

#![deny(missing_docs)]

pub mod flight;
pub mod json;
mod metrics;
mod sketch;
pub mod span;
pub mod stats;
pub mod trace;

use parking_lot::RwLock;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub use json::Json;
pub use sketch::{Scope, Sketch};
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

    /// Process names of the fixed tracks: every trace export names each
    /// of these that holds events.
    pub(crate) const NAMES: [(u32, &str); 5] = [
        (OPENSM, "opensm"),
        (RUNNER, "experiment runner"),
        (MPI, "mpi"),
        (HXD, "hxd"),
        (CAP, "capacity allocator"),
    ];
}

/// Live sink: counters and gauges, per-`(name, scope)` sketches and a
/// Chrome-trace [`Tracer`]. Metrics reach it only through [`count`],
/// [`gauge`] and [`sample`]; it is read back through its export.
#[derive(Default)]
pub struct ObsRecorder {
    registry: metrics::Registry,
    /// The tracing half: Chrome trace-event spans and instants.
    pub tracer: Tracer,
    sketches: sketch::SketchRegistry,
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

    /// The metrics export: every counter, gauge and sketch as one JSON
    /// object per line, sorted by name. A counter or gauge precedes a
    /// sketch of the same name; sketches of one name keep their scope
    /// order.
    pub fn metrics_jsonl(&self) -> String {
        let mut lines = self.registry.lines();
        lines.extend(self.sketches.lines());
        let name = |j: &Json| j.get("name").and_then(Json::as_str).map(str::to_owned);
        lines.sort_by_cached_key(name);
        lines.iter().map(|j| format!("{j}\n")).collect()
    }

    /// Writes `<name>.metrics.jsonl` ([`ObsRecorder::metrics_jsonl`]) and
    /// `<name>.trace.json` under `dir` (created if absent). Returns the
    /// two paths.
    pub fn write_files(&self, dir: &Path, name: &str) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let metrics_path = dir.join(format!("{name}.metrics.jsonl"));
        let trace_path = dir.join(format!("{name}.trace.json"));
        std::fs::write(&metrics_path, self.metrics_jsonl())?;
        std::fs::write(&trace_path, self.tracer.to_chrome_json())?;
        Ok((metrics_path, trace_path))
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

/// The current sink, or `None` when observability is off. For trace
/// events with explicit timestamps; metrics go through [`count`],
/// [`gauge`] and [`sample`].
pub fn sink() -> Option<Arc<ObsRecorder>> {
    if !enabled() {
        return None;
    }
    SINK.read().clone()
}

/// Installs a fresh [`ObsRecorder`] and arms a fresh [`flight`] ring of
/// [`flight::DEFAULT_CAP`] events whose panic dump lands in
/// [`flight::dump_path`]`(dir, name)`, replacing whatever an earlier
/// phase of the same process left installed, so counters, traces,
/// sketches and the ring never bleed across exports. Harness binaries
/// call this at startup and [`finalize`] with the same `name` and `dir`
/// before exit.
pub fn init(dir: &Path, name: &str) {
    install(Arc::new(ObsRecorder::new()));
    flight::install(
        Arc::new(flight::FlightRecorder::new(flight::DEFAULT_CAP)),
        &flight::dump_path(dir, name),
    );
}

/// Uninstalls the global sink and writes `<name>.metrics.jsonl` +
/// `<name>.trace.json` under `dir`. When a flight ring is armed and holds
/// events, it is dumped to [`flight::dump_path`]`(dir, name)` alongside
/// them and disarmed. No-op (returns `None`) when observability was never
/// enabled.
pub fn finalize(name: &str, dir: &Path) -> Option<(PathBuf, PathBuf)> {
    let rec = uninstall()?;
    if let Some(ring) = flight::uninstall() {
        if ring.recorded() > 0 {
            if let Err(e) = flight::dump_ring_to(&ring, &flight::dump_path(dir, name)) {
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

// ---- the recording functions: gated, safe to call unconditionally ----

/// Adds `delta` to counter `name` if observability is on.
#[inline]
pub fn count(name: &str, delta: u64) {
    if enabled() {
        record(name, Metric::Count(delta));
    }
}

/// Sets gauge `name` to `value` if observability is on.
#[inline]
pub fn gauge(name: &str, value: f64) {
    if enabled() {
        record(name, Metric::Gauge(value));
    }
}

/// Records `value` into the sketch of `name` at `scope` if observability
/// is on.
#[inline]
pub fn sample(name: &str, scope: Scope, value: f64) {
    sample_n(name, scope, value, 1);
}

/// Records `n` samples of `value` into the sketch of `name` at `scope` if
/// observability is on: one call for a histogram entry instead of `n`.
#[inline]
pub fn sample_n(name: &str, scope: Scope, value: f64, n: u64) {
    if enabled() {
        record(name, Metric::Sample(scope, value, n));
    }
}

/// What one recording call carries.
enum Metric {
    Count(u64),
    Gauge(f64),
    Sample(Scope, f64, u64),
}

/// The one recording path behind [`count`], [`gauge`] and [`sample_n`].
/// Flight-ring rule: counters and gauges are mirrored into the ring,
/// samples are not.
fn record(name: &str, m: Metric) {
    let sink = SINK.read();
    let Some(s) = sink.as_ref() else { return };
    let (kind, value) = match m {
        Metric::Count(delta) => {
            s.registry.add(name, delta);
            (flight::Kind::Counter, delta as f64)
        }
        Metric::Gauge(value) => {
            s.registry.set(name, value);
            (flight::Kind::Gauge, value)
        }
        Metric::Sample(scope, value, n) => {
            s.sketches.record(name, scope, value, n);
            return;
        }
    };
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The exported `field` of every metric line named `name`.
    fn exported(r: &ObsRecorder, name: &str, field: &str) -> Vec<f64> {
        r.metrics_jsonl()
            .lines()
            .map(|l| json::parse(l).unwrap())
            .filter(|j| j.get("name").and_then(Json::as_str) == Some(name))
            .map(|j| j.get(field).and_then(Json::as_num).unwrap())
            .collect()
    }

    #[test]
    fn write_files_produces_parseable_artifacts() {
        let r = ObsRecorder::new();
        r.registry.add("events", 5);
        r.tracer.span(0, 0, "phase", "test", 0.0, 100.0, vec![]);
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
        sample("global.hist", Scope::NONE, 2.0);
        sample_n("global.hist", Scope::epoch(3), 4.0, 5);
        sample_n("global.hist", Scope::epoch(3), 8.0, 0);
        gauge("global.gauge", 9.0);
        assert_eq!(exported(&rec, "global.counter", "value"), [7.0]);
        assert_eq!(exported(&rec, "global.hist", "count"), [1.0, 5.0]);
        assert_eq!(exported(&rec, "global.hist", "sum"), [2.0, 20.0]);
        assert_eq!(exported(&rec, "global.gauge", "value"), [9.0]);
        let back = uninstall().unwrap();
        assert!(Arc::ptr_eq(&back, &rec));
        assert!(!enabled());
        assert!(sink().is_none());
        // Disabled recording calls are silent no-ops.
        count("global.counter", 100);
        assert_eq!(exported(&rec, "global.counter", "value"), [7.0]);
    }
}
