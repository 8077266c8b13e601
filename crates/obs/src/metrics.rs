//! Thread-safe, allocation-light metrics: named counters and gauges.
//! Distributions are [`crate::sketch::Sketch`]es in their own registry.
//!
//! Both instruments are lock-free atomics once created; the registry map
//! itself sits behind a `parking_lot::RwLock` taken only on first use of a
//! name (instrument handles are `Arc`s, so hot loops hold a handle and
//! never touch the map). Its export lines join the sketches' in
//! [`crate::ObsRecorder::metrics_jsonl`].

use crate::json::Json;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
}

/// Named-instrument registry. Cheap to clone handles out of; never hands
/// the same name to two different instrument kinds (first kind wins, a
/// mismatched later request gets a detached instrument rather than a
/// panic — observability must never take the simulation down).
#[derive(Default)]
pub struct Registry {
    map: RwLock<BTreeMap<String, Instrument>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Counter handle for `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(Instrument::Counter(c)) = self.map.read().get(name) {
            return c.clone();
        }
        let mut w = self.map.write();
        match w
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::default())))
        {
            Instrument::Counter(c) => c.clone(),
            _ => Arc::new(Counter::default()),
        }
    }

    /// Gauge handle for `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(Instrument::Gauge(g)) = self.map.read().get(name) {
            return g.clone();
        }
        let mut w = self.map.write();
        match w
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::default())))
        {
            Instrument::Gauge(g) => g.clone(),
            _ => Arc::new(Gauge::default()),
        }
    }

    /// One export line per instrument, sorted by name (byte-stable
    /// across identical runs).
    pub(crate) fn lines(&self) -> Vec<Json> {
        let map = self.map.read();
        map.iter()
            .map(|(name, inst)| {
                let (kind, value) = match inst {
                    Instrument::Counter(c) => ("counter", Json::from(c.get())),
                    Instrument::Gauge(g) => ("gauge", Json::from(g.get())),
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

    #[test]
    fn counter_accumulates() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").inc();
        assert_eq!(r.counter("a").get(), 4);
    }

    #[test]
    fn gauge_last_write_wins() {
        let r = Registry::new();
        r.gauge("g").set(1.5);
        r.gauge("g").set(-2.0);
        assert_eq!(r.gauge("g").get(), -2.0);
    }

    #[test]
    fn a_name_keeps_its_first_kind() {
        let r = Registry::new();
        r.counter("x").add(2);
        r.gauge("x").set(9.0);
        assert_eq!(r.counter("x").get(), 2);
        assert_eq!(r.lines().len(), 1);
    }

    #[test]
    fn lines_sorted_and_parseable() {
        let r = Registry::new();
        r.counter("z.last").add(1);
        r.gauge("a.first").set(0.25);
        r.counter("m.mid").add(10);
        let names: Vec<String> = r
            .lines()
            .iter()
            .map(|j| {
                let line = crate::json::parse(&j.to_string()).unwrap();
                line.get("name").unwrap().as_str().unwrap().to_string()
            })
            .collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                let c = r.counter("shared");
                for _ in 0..1000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("shared").get(), 4000);
    }
}
