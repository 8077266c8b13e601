//! Named counters and gauges, reached through [`crate::count`] and
//! [`crate::gauge`]. Distributions are [`crate::Sketch`]es in their own
//! registry.
//!
//! Each instrument is one atomic word; the map sits behind a
//! `parking_lot::RwLock` whose write side is taken only on the first use
//! of a name. Its export lines join the sketches' in
//! [`crate::ObsRecorder::metrics_jsonl`].

use crate::json::Json;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A counter (monotonic sum) or a gauge (last-write-wins `f64` bits).
struct Instrument {
    gauge: bool,
    word: AtomicU64,
}

/// Named-instrument registry. A name keeps the kind of its first use; a
/// later update of the other kind is dropped rather than panicking —
/// observability must never take the simulation down.
#[derive(Default)]
pub(crate) struct Registry {
    map: RwLock<BTreeMap<String, Instrument>>,
}

impl Registry {
    /// Adds `delta` to counter `name`.
    pub(crate) fn add(&self, name: &str, delta: u64) {
        self.update(name, false, |w| {
            w.fetch_add(delta, Ordering::Relaxed);
        });
    }

    /// Sets gauge `name`.
    pub(crate) fn set(&self, name: &str, value: f64) {
        self.update(name, true, |w| w.store(value.to_bits(), Ordering::Relaxed));
    }

    /// Applies `f` to the word of `name` if `name` is a gauge exactly when
    /// `gauge` is set, creating it (zero either way) on first use.
    fn update(&self, name: &str, gauge: bool, f: impl FnOnce(&AtomicU64)) {
        if let Some(i) = self.map.read().get(name) {
            if i.gauge == gauge {
                f(&i.word);
            }
            return;
        }
        let mut map = self.map.write();
        let i = map.entry(name.to_string()).or_insert(Instrument {
            gauge,
            word: AtomicU64::new(0),
        });
        if i.gauge == gauge {
            f(&i.word);
        }
    }

    /// One export line per instrument, sorted by name (byte-stable
    /// across identical runs).
    pub(crate) fn lines(&self) -> Vec<Json> {
        let map = self.map.read();
        map.iter()
            .map(|(name, i)| {
                let word = i.word.load(Ordering::Relaxed);
                let (kind, value) = if i.gauge {
                    ("gauge", Json::from(f64::from_bits(word)))
                } else {
                    ("counter", Json::from(word))
                };
                Json::obj([
                    ("type", Json::str(kind)),
                    ("name", Json::str(name.as_str())),
                    ("value", value),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// `(name, type, value)` of every export line.
    fn exported(r: &Registry) -> Vec<(String, String, f64)> {
        r.lines()
            .iter()
            .map(|j| {
                let line = crate::json::parse(&j.to_string()).unwrap();
                let s = |k| line.get(k).unwrap().as_str().unwrap().to_string();
                (
                    s("name"),
                    s("type"),
                    line.get("value").unwrap().as_num().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn counter_accumulates() {
        let r = Registry::default();
        r.add("a", 3);
        r.add("a", 1);
        assert_eq!(exported(&r), [("a".into(), "counter".into(), 4.0)]);
    }

    #[test]
    fn gauge_last_write_wins() {
        let r = Registry::default();
        r.set("g", 1.5);
        r.set("g", -2.0);
        assert_eq!(exported(&r), [("g".into(), "gauge".into(), -2.0)]);
    }

    #[test]
    fn a_name_keeps_its_first_kind() {
        let r = Registry::default();
        r.add("x", 2);
        r.set("x", 9.0);
        assert_eq!(exported(&r), [("x".into(), "counter".into(), 2.0)]);
    }

    #[test]
    fn lines_sorted_and_parseable() {
        let r = Registry::default();
        r.add("z.last", 1);
        r.set("a.first", 0.25);
        r.add("m.mid", 10);
        let names: Vec<String> = exported(&r).into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = Arc::new(Registry::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    r.add("shared", 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(exported(&r), [("shared".into(), "counter".into(), 4000.0)]);
    }
}
