//! Crash flight recorder: a fixed-capacity lock-free ring buffer of the
//! last N observability events, dumped as JSON from a panic hook or on
//! demand.
//!
//! A failing harness, a wedged campaign or a crashed `hxd` service leaves
//! `flightdump.json` in the directory the ring was [`install`]ed with —
//! the post-mortem that flat log files cannot give: the spans that were
//! *open* when the process died, in causal order, with their epoch
//! provenance.
//!
//! ## Concurrency design
//!
//! Events are fixed-size records of [`WORDS`] `u64` words. Writers claim a
//! slot with one `fetch_add` on the global cursor (wait-free), then
//! publish through a per-slot sequence word: CAS even→odd to begin, store
//! the words with relaxed atomics, release-store the claim's even sequence
//! to finish. Readers ([`FlightRecorder::snapshot`]) load the sequence
//! before and after copying the words and discard the slot when the two
//! disagree or are odd — the classic seqlock validation, made race-free in
//! the Rust memory model by keeping every word an `AtomicU64`. Writers
//! never block each other except on lap collisions (two claims `capacity`
//! apart landing on one slot mid-write), where the later claim spins for
//! the ~16-word copy.
//!
//! The ring is global and armed together with the observability sink by
//! [`crate::init`], at [`DEFAULT_CAP`] events.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Words per event record: 1 header + 6 fixed payload + 9 name words.
pub const WORDS: usize = 16;
/// Bytes of event name retained (longer names truncate).
pub const NAME_BYTES: usize = (WORDS - 7) * 8;

/// Ring capacity (events) armed by [`crate::init`].
pub const DEFAULT_CAP: usize = 4096;

/// File name of a ring dump inside its output directory.
pub const DUMP_FILE: &str = "flightdump.json";

/// What a flight event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// A span opened (it may never close — that is the point).
    SpanBegin = 0,
    /// A span closed; `value` is its duration in microseconds.
    SpanEnd = 1,
    /// A counter add; `value` is the delta.
    Counter = 2,
    /// A gauge set; `value` is the new value.
    Gauge = 3,
    /// A histogram/sketch sample; `value` is the sample.
    Sample = 4,
    /// A point event (instants, panics); `value` is unused.
    Instant = 5,
}

impl Kind {
    fn from_u8(v: u8) -> Option<Kind> {
        Some(match v {
            0 => Kind::SpanBegin,
            1 => Kind::SpanEnd,
            2 => Kind::Counter,
            3 => Kind::Gauge,
            4 => Kind::Sample,
            5 => Kind::Instant,
            _ => return None,
        })
    }

    fn label(self) -> &'static str {
        match self {
            Kind::SpanBegin => "span_begin",
            Kind::SpanEnd => "span_end",
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Sample => "sample",
            Kind::Instant => "instant",
        }
    }
}

/// One decoded flight event.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// What happened.
    pub kind: Kind,
    /// Track group (plane / subsystem id).
    pub pid: u32,
    /// Track (rank) within the group.
    pub tid: u32,
    /// Wall-clock microseconds since the obs sink was installed.
    pub ts_us: f64,
    /// Span id for span events, 0 otherwise.
    pub span: u64,
    /// Parent span id, 0 when none.
    pub parent: u64,
    /// Path-store epoch provenance, 0 when not applicable.
    pub epoch: u64,
    /// Kind-dependent payload (duration, delta, sample, gauge value).
    pub value: f64,
    /// Event name, truncated to [`NAME_BYTES`].
    pub name: String,
}

impl FlightEvent {
    fn encode(&self) -> [u64; WORDS] {
        let mut w = [0u64; WORDS];
        let name = self.name.as_bytes();
        let nlen = name.len().min(NAME_BYTES);
        w[0] = (self.kind as u64) | ((nlen as u64) << 8);
        w[1] = (self.pid as u64) | ((self.tid as u64) << 32);
        w[2] = self.ts_us.to_bits();
        w[3] = self.span;
        w[4] = self.parent;
        w[5] = self.epoch;
        w[6] = self.value.to_bits();
        for (i, &b) in name[..nlen].iter().enumerate() {
            w[7 + i / 8] |= (b as u64) << ((i % 8) * 8);
        }
        w
    }

    fn decode(w: &[u64; WORDS]) -> Option<FlightEvent> {
        let kind = Kind::from_u8((w[0] & 0xff) as u8)?;
        let nlen = ((w[0] >> 8) & 0xff) as usize;
        if nlen > NAME_BYTES {
            return None;
        }
        let mut bytes = Vec::with_capacity(nlen);
        for i in 0..nlen {
            bytes.push(((w[7 + i / 8] >> ((i % 8) * 8)) & 0xff) as u8);
        }
        Some(FlightEvent {
            kind,
            pid: (w[1] & 0xffff_ffff) as u32,
            tid: (w[1] >> 32) as u32,
            ts_us: f64::from_bits(w[2]),
            span: w[3],
            parent: w[4],
            epoch: w[5],
            value: f64::from_bits(w[6]),
            name: String::from_utf8_lossy(&bytes).into_owned(),
        })
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("kind", Json::str(self.kind.label())),
            ("name", Json::str(self.name.clone())),
            ("pid", Json::from(self.pid as u64)),
            ("tid", Json::from(self.tid as u64)),
            ("ts_us", Json::from(self.ts_us)),
        ];
        if self.span != 0 {
            fields.push(("span", Json::from(self.span)));
        }
        if self.parent != 0 {
            fields.push(("parent", Json::from(self.parent)));
        }
        if self.epoch != 0 {
            fields.push(("epoch", Json::from(self.epoch)));
        }
        if self.kind != Kind::Instant && self.kind != Kind::SpanBegin {
            fields.push(("value", Json::from(self.value)));
        }
        Json::obj(fields)
    }
}

/// Sequence states: 0 = never written; odd = write in progress; even
/// `2t + 2` = claim `t` published.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The fixed-capacity ring. See the module docs for the seqlock protocol.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    mask: u64,
    cursor: AtomicU64,
}

impl FlightRecorder {
    /// A ring holding the last `capacity` events (rounded up to a power of
    /// two, clamped to `[16, 2^20]`).
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.clamp(16, 1 << 20).next_power_of_two();
        FlightRecorder {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            mask: cap as u64 - 1,
            cursor: AtomicU64::new(0),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (recorded − capacity have been dropped,
    /// when positive).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records one event, overwriting the oldest when the ring is full.
    pub fn record(&self, ev: &FlightEvent) {
        let t = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(t & self.mask) as usize];
        let words = ev.encode();
        // Claim: move seq from any even/zero state to odd. Lap collisions
        // (a writer `capacity` claims ahead on the same slot) spin here
        // for the duration of a 16-word copy.
        let mut cur = slot.seq.load(Ordering::Relaxed);
        loop {
            if cur & 1 == 1 {
                std::hint::spin_loop();
                cur = slot.seq.load(Ordering::Relaxed);
                continue;
            }
            match slot
                .seq
                .compare_exchange_weak(cur, cur | 1, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        for (cell, &w) in slot.words.iter().zip(words.iter()) {
            cell.store(w, Ordering::Relaxed);
        }
        slot.seq.store(2 * t + 2, Ordering::Release);
    }

    /// A consistent copy of the ring's current contents in causal (claim)
    /// order, oldest first. Slots mid-write are skipped, so a snapshot
    /// taken while writers are live may be one event short per racing
    /// writer — acceptable for a post-mortem artefact.
    pub fn snapshot(&self) -> Vec<(u64, FlightEvent)> {
        let mut out: Vec<(u64, FlightEvent)> = Vec::new();
        for slot in self.slots.iter() {
            for _attempt in 0..4 {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 {
                    break; // never written
                }
                if s1 & 1 == 1 {
                    std::hint::spin_loop();
                    continue; // write in progress; retry
                }
                let mut words = [0u64; WORDS];
                for (w, cell) in words.iter_mut().zip(slot.words.iter()) {
                    *w = cell.load(Ordering::Relaxed);
                }
                if slot.seq.load(Ordering::Acquire) != s1 {
                    continue; // torn by a lap collision; retry
                }
                let turn = (s1 - 2) / 2;
                if let Some(ev) = FlightEvent::decode(&words) {
                    out.push((turn, ev));
                }
                break;
            }
        }
        out.sort_by_key(|&(turn, _)| turn);
        out
    }

    /// Serializes the ring to the flight-dump JSON document.
    pub fn to_json(&self) -> Json {
        let recorded = self.recorded();
        let events = self.snapshot();
        let dropped = recorded.saturating_sub(self.capacity() as u64);
        Json::obj([
            ("capacity", Json::from(self.capacity() as u64)),
            ("recorded", Json::from(recorded)),
            ("dropped", Json::from(dropped)),
            (
                "events",
                Json::Arr(events.iter().map(|(_, e)| e.to_json()).collect()),
            ),
        ])
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
/// The armed ring and the file its panic dump goes to.
struct Armed {
    ring: Arc<FlightRecorder>,
    dump: PathBuf,
}

static RING: parking_lot::RwLock<Option<Armed>> = parking_lot::RwLock::new(None);
static PANIC_HOOK: OnceLock<()> = OnceLock::new();

/// True when a flight ring is installed: the single relaxed load gating
/// every record site.
#[inline(always)]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// The installed ring, if any.
pub fn ring() -> Option<Arc<FlightRecorder>> {
    if !active() {
        return None;
    }
    RING.read().as_ref().map(|a| a.ring.clone())
}

/// Installs (or replaces) the global ring and arms the panic hook, which
/// dumps the ring to `<dir>/flightdump.json`.
pub fn install(r: Arc<FlightRecorder>, dir: &Path) {
    *RING.write() = Some(Armed {
        ring: r,
        dump: dir.join(DUMP_FILE),
    });
    ACTIVE.store(true, Ordering::Release);
    install_panic_hook();
}

/// Removes the global ring, returning it so callers can still dump it.
pub fn uninstall() -> Option<Arc<FlightRecorder>> {
    ACTIVE.store(false, Ordering::Release);
    RING.write().take().map(|a| a.ring)
}

/// Records one event if a ring is armed.
#[inline]
pub fn record(ev: &FlightEvent) {
    if active() {
        if let Some(r) = ring() {
            r.record(ev);
        }
    }
}

/// Dumps a ring to `path` (parent directories created) — used for a ring
/// already detached via [`uninstall`].
pub fn dump_ring_to(ring: &FlightRecorder, path: &Path) -> std::io::Result<PathBuf> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, ring.to_json().to_string())?;
    Ok(path.to_path_buf())
}

/// Arms the process panic hook (once): on panic, the hook records the
/// panic itself as an [`Kind::Instant`] event and dumps the armed ring to
/// the directory it was [`install`]ed with before delegating to the
/// previous hook.
fn install_panic_hook() {
    PANIC_HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let armed = RING
                .read()
                .as_ref()
                .filter(|_| active())
                .map(|a| (a.ring.clone(), a.dump.clone()));
            if let Some((r, path)) = armed {
                let msg = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".to_string());
                let loc = info
                    .location()
                    .map(|l| format!("{}:{}", l.file(), l.line()))
                    .unwrap_or_default();
                r.record(&FlightEvent {
                    kind: Kind::Instant,
                    pid: 0,
                    tid: 0,
                    ts_us: crate::sink().map(|s| s.now_us()).unwrap_or(0.0),
                    span: 0,
                    parent: 0,
                    epoch: 0,
                    value: 0.0,
                    name: format!("panic: {msg} @ {loc}"),
                });
                match dump_ring_to(&r, &path) {
                    Ok(p) => eprintln!("hxobs: flight dump -> {}", p.display()),
                    Err(e) => eprintln!("hxobs: flight dump failed: {e}"),
                }
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, kind: Kind, span: u64) -> FlightEvent {
        FlightEvent {
            kind,
            pid: 1,
            tid: 2,
            ts_us: 42.5,
            span,
            parent: span.saturating_sub(1),
            epoch: 7,
            value: 3.25,
            name: name.to_string(),
        }
    }

    #[test]
    fn roundtrip_encode_decode() {
        let e = ev("fail_link", Kind::SpanBegin, 9);
        let d = FlightEvent::decode(&e.encode()).unwrap();
        assert_eq!(d.kind, Kind::SpanBegin);
        assert_eq!(d.pid, 1);
        assert_eq!(d.tid, 2);
        assert_eq!(d.ts_us, 42.5);
        assert_eq!(d.span, 9);
        assert_eq!(d.parent, 8);
        assert_eq!(d.epoch, 7);
        assert_eq!(d.value, 3.25);
        assert_eq!(d.name, "fail_link");
    }

    #[test]
    fn long_names_truncate_at_name_bytes() {
        let long = "x".repeat(NAME_BYTES + 50);
        let d = FlightEvent::decode(&ev(&long, Kind::Counter, 0).encode()).unwrap();
        assert_eq!(d.name.len(), NAME_BYTES);
    }

    #[test]
    fn ring_keeps_last_capacity_events_in_order() {
        let r = FlightRecorder::new(16);
        assert_eq!(r.capacity(), 16);
        for i in 0..40u64 {
            r.record(&ev(&format!("e{i}"), Kind::Sample, i));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 16);
        // Oldest surviving claim is 40 - 16 = 24; order is causal.
        let turns: Vec<u64> = snap.iter().map(|&(t, _)| t).collect();
        assert_eq!(turns, (24..40).collect::<Vec<_>>());
        assert_eq!(snap[0].1.name, "e24");
        assert_eq!(snap[15].1.name, "e39");
        let j = r.to_json();
        assert_eq!(j.get("dropped").unwrap().as_num(), Some(24.0));
        assert_eq!(j.get("recorded").unwrap().as_num(), Some(40.0));
        assert_eq!(j.get("events").unwrap().as_arr().unwrap().len(), 16);
    }

    #[test]
    fn concurrent_writers_never_tear_records() {
        let r = std::sync::Arc::new(FlightRecorder::new(64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    r.record(&ev(&format!("w{t}-{i}"), Kind::Counter, t * 10_000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.recorded(), 8000);
        let snap = r.snapshot();
        assert!(snap.len() <= 64);
        for (_, e) in &snap {
            // A torn record would mismatch name and span id.
            let (w, i) = e.name[1..].split_once('-').unwrap();
            let expect = w.parse::<u64>().unwrap() * 10_000 + i.parse::<u64>().unwrap();
            assert_eq!(e.span, expect, "torn record: {e:?}");
        }
    }
}
