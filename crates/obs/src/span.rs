//! Hierarchical, explicitly-threaded causal spans.
//!
//! A [`Span`] is a timed region with an identity: a process-unique id, an
//! optional parent id, and an optional path-store epoch. Parenthood is
//! threaded *explicitly* — a call site that wants its work attributed to a
//! caller takes a [`SpanCtx`] argument; there is no thread-local ambient
//! context, so causality in the trace is exactly the causality in the
//! code, including across worker threads.
//!
//! On close (explicit [`Span::end`] or drop) a span emits one Chrome
//! trace-event "X" record whose `args` carry `span`, `parent` and `epoch`,
//! so the existing Perfetto output gains a reconstructable causal tree:
//! `step → fail_link → pathdb_patch → repath → resolve`. Spans also feed
//! the [`crate::flight`] ring at *begin* and *end* — a crash dump shows
//! which spans were still open, which is precisely what a post-mortem
//! needs.
//!
//! Cost when disabled: [`Span::root`] is one relaxed atomic load and a
//! stack struct with no allocation, no clock read and no sink lookup;
//! every other method on a dead span is a branch. The Criterion group
//! `obs_disabled` (`crates/bench/benches/obs.rs`) pins this.

use crate::flight::{self, FlightEvent, Kind};
use crate::json::Json;
use crate::ObsRecorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide span id source; 0 is reserved for "no span".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A span's identity, cheap to copy into callees: the explicit thread of
/// causality. `id == 0` means "no span" (disabled observability or no
/// parent), and every operation on such a context is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// Process-unique span id (0 = none).
    pub id: u64,
    /// Trace track group the span lives on.
    pub pid: u32,
    /// Trace track within the group.
    pub tid: u32,
}

impl SpanCtx {
    /// The absent context: pass where no parent exists (or observability
    /// is off). Children of `none()` become roots.
    pub const fn none() -> SpanCtx {
        SpanCtx {
            id: 0,
            pid: 0,
            tid: 0,
        }
    }

    /// True when this context names a live span.
    pub fn is_live(&self) -> bool {
        self.id != 0
    }
}

/// A live timed region. Close with [`Span::end`] (or let it drop — early
/// returns and unwinds still close the trace record; the flight ring keeps
/// the begin event either way).
pub struct Span {
    /// `None` when disabled — the whole span is then inert.
    sink: Option<Arc<ObsRecorder>>,
    ctx: SpanCtx,
    parent: u64,
    name: &'static str,
    cat: &'static str,
    start_us: f64,
    /// Manual-clock flag: when set, `end` uses `end_at`'s timestamp and
    /// drop closes with a zero-length span at `start_us`.
    manual: bool,
    epoch: u64,
    plane: Option<u32>,
    args: Vec<(String, Json)>,
}

impl Span {
    fn dead() -> Span {
        Span {
            sink: None,
            ctx: SpanCtx::none(),
            parent: 0,
            name: "",
            cat: "",
            start_us: 0.0,
            manual: false,
            epoch: 0,
            plane: None,
            args: Vec::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn live(
        sink: Arc<ObsRecorder>,
        pid: u32,
        tid: u32,
        parent: u64,
        name: &'static str,
        cat: &'static str,
        start_us: f64,
        manual: bool,
    ) -> Span {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        flight::record(&FlightEvent {
            kind: Kind::SpanBegin,
            pid,
            tid,
            ts_us: start_us,
            span: id,
            parent,
            epoch: 0,
            value: 0.0,
            name: name.to_string(),
        });
        Span {
            sink: Some(sink),
            ctx: SpanCtx { id, pid, tid },
            parent,
            name,
            cat,
            start_us,
            manual,
            epoch: 0,
            plane: None,
            args: Vec::new(),
        }
    }

    /// Opens a root span on track `(pid, tid)` at the current wall clock.
    /// Dead (free) when observability is off.
    pub fn root(pid: u32, tid: u32, name: &'static str, cat: &'static str) -> Span {
        if !crate::enabled() {
            return Span::dead();
        }
        let Some(sink) = crate::sink() else {
            return Span::dead();
        };
        let now = sink.now_us();
        Span::live(sink, pid, tid, 0, name, cat, now, false)
    }

    /// Opens a root span with an explicit (e.g. simulated-time) start
    /// timestamp; close it with [`Span::end_at`].
    pub fn root_at(pid: u32, tid: u32, name: &'static str, cat: &'static str, ts_us: f64) -> Span {
        if !crate::enabled() {
            return Span::dead();
        }
        let Some(sink) = crate::sink() else {
            return Span::dead();
        };
        Span::live(sink, pid, tid, 0, name, cat, ts_us, true)
    }

    /// Opens a span under `parent` — on the parent's track when the parent
    /// is live, on `(pid, tid)` otherwise. This is the cross-crate
    /// threading constructor: callees take a [`SpanCtx`] argument and call
    /// this, so the campaign's `step` and the router's `fail_link` join
    /// into one tree without any ambient state.
    pub fn under(
        parent: SpanCtx,
        pid: u32,
        tid: u32,
        name: &'static str,
        cat: &'static str,
    ) -> Span {
        if !crate::enabled() {
            return Span::dead();
        }
        let Some(sink) = crate::sink() else {
            return Span::dead();
        };
        let (pid, tid) = if parent.is_live() {
            (parent.pid, parent.tid)
        } else {
            (pid, tid)
        };
        let now = sink.now_us();
        Span::live(sink, pid, tid, parent.id, name, cat, now, false)
    }

    /// Opens a child of this span on the same track.
    pub fn child(&self, name: &'static str, cat: &'static str) -> Span {
        match &self.sink {
            None => Span::dead(),
            Some(sink) => {
                let now = sink.now_us();
                Span::live(
                    sink.clone(),
                    self.ctx.pid,
                    self.ctx.tid,
                    self.ctx.id,
                    name,
                    cat,
                    now,
                    false,
                )
            }
        }
    }

    /// This span's identity for threading into callees. [`SpanCtx::none`]
    /// when the span is dead.
    pub fn ctx(&self) -> SpanCtx {
        self.ctx
    }

    /// True when the span will emit (observability was on at open).
    pub fn is_live(&self) -> bool {
        self.sink.is_some()
    }

    /// Stamps the path-store epoch this span's work belongs to.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Stamps the fabric plane (NIC rail) this span's work belongs to.
    /// Plane-scoped code paths call this so Perfetto traces separate
    /// per-rail trees; unplaned spans carry no `plane` arg.
    pub fn set_plane(&mut self, plane: u32) {
        self.plane = Some(plane);
    }

    /// Attaches a key/value argument (dropped when dead).
    pub fn arg(&mut self, key: &str, value: Json) {
        if self.sink.is_some() {
            self.args.push((key.to_string(), value));
        }
    }

    fn emit(&mut self, end_us: f64) {
        let Some(sink) = self.sink.take() else { return };
        let dur = (end_us - self.start_us).max(0.0);
        let mut args = std::mem::take(&mut self.args);
        args.push(("span".to_string(), Json::from(self.ctx.id)));
        if self.parent != 0 {
            args.push(("parent".to_string(), Json::from(self.parent)));
        }
        if self.epoch != 0 {
            args.push(("epoch".to_string(), Json::from(self.epoch)));
        }
        if let Some(plane) = self.plane {
            args.push(("plane".to_string(), Json::from(u64::from(plane))));
        }
        sink.tracer.span(
            self.ctx.pid,
            self.ctx.tid,
            self.name,
            self.cat,
            self.start_us,
            dur,
            args,
        );
        flight::record(&FlightEvent {
            kind: Kind::SpanEnd,
            pid: self.ctx.pid,
            tid: self.ctx.tid,
            ts_us: end_us,
            span: self.ctx.id,
            parent: self.parent,
            epoch: self.epoch,
            value: dur,
            name: self.name.to_string(),
        });
    }

    /// Closes the span at the current wall clock.
    pub fn end(mut self) {
        if let Some(sink) = &self.sink {
            let now = if self.manual {
                self.start_us
            } else {
                sink.now_us()
            };
            self.emit(now);
        }
    }

    /// Closes a manual-clock span at an explicit timestamp.
    pub fn end_at(mut self, ts_us: f64) {
        self.emit(ts_us);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.sink.is_some() {
            let now = if self.manual {
                self.start_us
            } else {
                self.sink
                    .as_ref()
                    .map(|s| s.now_us())
                    .unwrap_or(self.start_us)
            };
            self.emit(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_spans_are_inert() {
        // No global sink installed in this unit-test process section.
        let mut s = Span::dead();
        assert!(!s.is_live());
        assert!(!s.ctx().is_live());
        s.set_epoch(5);
        s.arg("k", Json::from(1u64));
        let c = s.child("x", "y");
        assert!(!c.is_live());
        c.end();
        s.end();
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let b = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        assert!(a > 0 && b > a);
    }
}
