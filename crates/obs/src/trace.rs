//! Structured event tracer emitting Chrome trace-event JSON.
//!
//! The output object (`{"traceEvents":[...],"displayTimeUnit":"ms"}`) loads
//! directly into Perfetto (ui.perfetto.dev) or `chrome://tracing`. Tracks
//! map pid/tid to domain concepts: for DES traces pid is the plane and tid
//! the MPI rank, with timestamps in *simulated* microseconds; wall-clock
//! tracks (routing sweeps, experiment reps) use microseconds since the
//! tracer was created.

use crate::json::Json;
use parking_lot::Mutex;
use std::time::Instant;

/// One Chrome trace event. `ts`/`dur` are microseconds.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name shown on the track.
    pub name: String,
    /// Category tag (filterable in the trace viewer).
    pub cat: &'static str,
    /// Phase: "X" complete, "i" instant, "M" metadata.
    pub ph: &'static str,
    /// Start timestamp in microseconds.
    pub ts: f64,
    /// Span duration in microseconds (`None` for instants/metadata).
    pub dur: Option<f64>,
    /// Process id — the track group (plane for DES traces).
    pub pid: u32,
    /// Thread id — the track (MPI rank for DES traces).
    pub tid: u32,
    /// Extra key/value payload rendered by the viewer.
    pub args: Vec<(String, Json)>,
}

impl TraceEvent {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("name", Json::str(self.name.clone())),
            ("cat", Json::str(self.cat)),
            ("ph", Json::str(self.ph)),
            ("ts", Json::from(self.ts)),
            ("pid", Json::from(self.pid as u64)),
            ("tid", Json::from(self.tid as u64)),
        ];
        if let Some(d) = self.dur {
            fields.push(("dur", Json::from(d)));
        }
        if self.ph == "i" {
            // Instant scope: thread-local.
            fields.push(("s", Json::str("t")));
        }
        if !self.args.is_empty() {
            fields.push(("args", Json::Obj(self.args.iter().cloned().collect())));
        }
        Json::obj(fields)
    }
}

/// Collects trace events in memory; serialised once at export time.
pub struct Tracer {
    events: Mutex<Vec<TraceEvent>>,
    /// Already-named tracks: (kind, pid, tid), so repeated `name_process`
    /// / `name_thread` calls (e.g. one per simulator run) emit one
    /// metadata record.
    named: Mutex<std::collections::BTreeSet<(&'static str, u32, u32)>>,
    epoch: Instant,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            events: Mutex::new(Vec::new()),
            named: Mutex::new(std::collections::BTreeSet::new()),
            epoch: Instant::now(),
        }
    }
}

impl Tracer {
    /// Creates an empty tracer; wall-clock timestamps are relative to now.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Microseconds of wall time since this tracer was created.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Records a complete ("X") span on track `(pid, tid)`.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        pid: u32,
        tid: u32,
        name: impl Into<String>,
        cat: &'static str,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, Json)>,
    ) {
        self.events.lock().push(TraceEvent {
            name: name.into(),
            cat,
            ph: "X",
            ts: ts_us,
            dur: Some(dur_us.max(0.0)),
            pid,
            tid,
            args,
        });
    }

    /// Records an instant ("i") event on track `(pid, tid)`.
    pub fn instant(
        &self,
        pid: u32,
        tid: u32,
        name: impl Into<String>,
        cat: &'static str,
        ts_us: f64,
        args: Vec<(String, Json)>,
    ) {
        self.events.lock().push(TraceEvent {
            name: name.into(),
            cat,
            ph: "i",
            ts: ts_us,
            dur: None,
            pid,
            tid,
            args,
        });
    }

    /// Names the process track `pid` (Perfetto group header).
    pub fn name_process(&self, pid: u32, name: impl Into<String>) {
        self.metadata("process_name", pid, 0, name.into());
    }

    /// Names thread track `(pid, tid)` (Perfetto row label).
    pub fn name_thread(&self, pid: u32, tid: u32, name: impl Into<String>) {
        self.metadata("thread_name", pid, tid, name.into());
    }

    fn metadata(&self, kind: &'static str, pid: u32, tid: u32, name: String) {
        if self.named.lock().insert((kind, pid, tid)) {
            self.events.lock().push(metadata(kind, pid, tid, name));
        }
    }

    /// Number of events recorded so far (metadata included).
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialises to a Chrome trace JSON object string. Metadata events are
    /// emitted first so viewers label tracks before content arrives: the
    /// recorded names, then a `process_name` for every fixed
    /// [`crate::track`] that holds events and was not named explicitly.
    /// Otherwise insertion order is preserved (deterministic for
    /// single-threaded producers).
    pub fn to_chrome_json(&self) -> String {
        let ev = self.events.lock();
        let named = self.named.lock();
        let mut arr: Vec<Json> = Vec::with_capacity(ev.len());
        for e in ev.iter().filter(|e| e.ph == "M") {
            arr.push(e.to_json());
        }
        for &(pid, name) in &crate::track::NAMES {
            if !named.contains(&("process_name", pid, 0)) && ev.iter().any(|e| e.pid == pid) {
                arr.push(metadata("process_name", pid, 0, name.to_string()).to_json());
            }
        }
        for e in ev.iter().filter(|e| e.ph != "M") {
            arr.push(e.to_json());
        }
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(arr)),
        ])
        .to_string()
    }
}

/// A metadata ("M") record naming track `(pid, tid)`.
fn metadata(kind: &'static str, pid: u32, tid: u32, name: String) -> TraceEvent {
    TraceEvent {
        name: kind.to_string(),
        cat: "__metadata",
        ph: "M",
        ts: 0.0,
        dur: None,
        pid,
        tid,
        args: vec![("name".to_string(), Json::str(name))],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn chrome_json_is_well_formed() {
        let t = Tracer::new();
        t.name_process(0, "plane 0");
        t.name_thread(0, 3, "rank 3");
        t.span(
            0,
            3,
            "compute",
            "des",
            10.0,
            5.5,
            vec![("bytes".to_string(), Json::from(4096u64))],
        );
        t.instant(0, 3, "recv", "des", 20.0, vec![]);
        let doc = parse(&t.to_chrome_json()).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(evs.len(), 4);
        // Metadata first.
        assert_eq!(evs[0].get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(evs[1].get("ph").unwrap().as_str(), Some("M"));
        let span = &evs[2];
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("ts").unwrap().as_num(), Some(10.0));
        assert_eq!(span.get("dur").unwrap().as_num(), Some(5.5));
        assert_eq!(span.get("pid").unwrap().as_num(), Some(0.0));
        assert_eq!(span.get("tid").unwrap().as_num(), Some(3.0));
        assert_eq!(
            span.get("args").unwrap().get("bytes").unwrap().as_num(),
            Some(4096.0)
        );
        let inst = &evs[3];
        assert_eq!(inst.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(inst.get("s").unwrap().as_str(), Some("t"));
    }

    #[test]
    fn track_names_are_deduplicated() {
        let t = Tracer::new();
        t.name_process(1, "opensm");
        t.name_process(1, "opensm");
        t.name_thread(1, 2, "rank 2");
        t.name_thread(1, 2, "rank 2");
        t.name_thread(1, 3, "rank 3");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn negative_duration_clamps_to_zero() {
        let t = Tracer::new();
        t.span(0, 0, "x", "c", 1.0, -2.0, vec![]);
        let doc = parse(&t.to_chrome_json()).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(evs[0].get("dur").unwrap().as_num(), Some(0.0));
    }

    #[test]
    fn empty_tracer_serialises() {
        let t = Tracer::new();
        assert!(t.is_empty());
        let doc = parse(&t.to_chrome_json()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }
}
