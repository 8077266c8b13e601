//! The benchmark's own span recorder.
//!
//! Spans are recorded around the public library calls the benchmark
//! makes: name, layer (the crate that does the work), start, end and
//! parent. They stay in memory until the run ends, when they become a
//! Chrome trace-event file (loads in Perfetto) and a per-layer self-time
//! rollup. A disabled recorder calls straight through, so the end-to-end
//! numbers of an untraced run pay nothing for it.

use hxobs::Json;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer of the benchmark's own code: the timed-phase root, and whatever
/// part of it no library span covers.
pub const BENCH: &str = "bench";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span name; the per-layer metrics aggregate spans by name.
    pub name: Cow<'static, str>,
    /// Crate doing the work.
    pub layer: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span handle from [`Tracer::begin`]; `None` when disabled.
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be passed to Tracer::end"]
pub struct Open(Option<usize>);

impl Open {
    /// Index of the span in [`Tracer::spans`]; `None` when disabled.
    pub fn index(self) -> Option<usize> {
        self.0
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder timing from now.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off between spans.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggling tracing inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: impl Into<Cow<'static, str>>, layer: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name: name.into(),
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let open = self.begin(name, layer);
        let r = f(self);
        self.end(open);
        r
    }

    /// Every closed span so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time summed per layer over the subtree of span `root`.
pub fn layer_self_ns(spans: &[SpanRec], root: usize) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut inside = vec![false; spans.len()];
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    // Parents are recorded before their children, so one forward pass
    // marks the whole subtree.
    for (i, s) in spans.iter().enumerate() {
        inside[i] = i == root || s.parent.is_some_and(|p| inside[p]);
        if inside[i] {
            *out.entry(s.layer).or_default() += own[i];
        }
    }
    out
}

/// Durations (seconds) of every span with this name, in record order.
pub fn durations_s(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .collect()
}

/// Most spans written to a Chrome trace: a traced `churn` run records over
/// a million, which would make a file Perfetto loads slowly. The per-layer
/// rollup always uses every span.
pub const TRACE_EVENTS_MAX: usize = 200_000;

/// Writes the first [`TRACE_EVENTS_MAX`] spans as Chrome trace-event JSON
/// (`ph: "X"` complete events, microsecond timestamps), one event per
/// line. Parents precede their children, so a prefix keeps every parent.
pub fn chrome_trace(spans: &[SpanRec], process: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let written = spans.len().min(TRACE_EVENTS_MAX);
    let meta = Json::obj([
        ("name", Json::from("process_name")),
        ("ph", Json::from("M")),
        ("pid", Json::from(1u64)),
        (
            "args",
            Json::obj([
                ("name", Json::from(process)),
                ("spans_recorded", Json::from(spans.len())),
                ("spans_written", Json::from(written)),
            ]),
        ),
    ]);
    out.push_str(&meta.to_string());
    for (i, s) in spans[..written].iter().enumerate() {
        let mut args = vec![("id", Json::from(i))];
        if let Some(p) = s.parent {
            args.push(("parent", Json::from(p)));
        }
        let ev = Json::obj([
            ("name", Json::from(s.name.as_ref())),
            ("cat", Json::from(s.layer)),
            ("ph", Json::from("X")),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(1u64)),
            ("ts", Json::from(s.start_ns as f64 / 1e3)),
            ("dur", Json::from(s.dur_ns() as f64 / 1e3)),
            ("args", Json::obj(args)),
        ]);
        out.push_str(",\n");
        out.push_str(&ev.to_string());
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        name: &'static str,
        layer: &'static str,
        a: u64,
        b: u64,
        parent: Option<usize>,
    ) -> SpanRec {
        SpanRec {
            name: name.into(),
            layer,
            start_ns: a,
            end_ns: b,
            parent,
        }
    }

    #[test]
    fn self_time_rolls_up_nested_spans() {
        // root [0,100) holds route [10,60) and resolve [70,90); route
        // holds pathdb [20,30) and verify [35,40).
        let spans = vec![
            rec("timed", BENCH, 0, 100, None),
            rec("route", "hxroute", 10, 60, Some(0)),
            rec("pathdb", "hxroute", 20, 30, Some(1)),
            rec("verify", "hxroute", 35, 40, Some(1)),
            rec("resolve", "hxmpi", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 35, 10, 5, 20]);
        let by_layer = layer_self_ns(&spans, 0);
        assert_eq!(by_layer[BENCH], 30);
        assert_eq!(by_layer["hxroute"], 50);
        assert_eq!(by_layer["hxmpi"], 20);
        // Self times partition the root's wall time.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
        // A subtree rollup ignores spans outside it.
        assert_eq!(layer_self_ns(&spans, 1).values().sum::<u64>(), 50);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Children [20,30) and [25,40) overlap by 5: they cover 20 of the
        // parent's 50, not 25.
        let spans = vec![
            rec("route", "hxroute", 10, 60, None),
            rec("a", "hxroute", 20, 30, Some(0)),
            rec("b", "hxroute", 25, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        let v = tr.span("outer", BENCH, |tr| tr.span("inner", "hxsim", |_| 7));
        assert_eq!(v, 7);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", BENCH, |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_parses() {
        let mut tr = Tracer::new(true);
        tr.span("a", BENCH, |tr| tr.span("b", "hxcore", |_| ()));
        let doc = Json::parse(&chrome_trace(tr.spans(), "t2hx_bench")).expect("valid JSON");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[_]>::len),
            Some(3)
        );
    }
}
