//! Criterion benchmark of the observability layer when it is *off*: every
//! hot path carries span/counter/sample call sites, so this group pins
//! their disabled-path cost (one relaxed atomic load each).

use criterion::{criterion_group, criterion_main, Criterion};
use hxobs::Scope;

/// Times each call site runs per timed iteration.
const OBS_BATCH: usize = 1024;

/// One timed iteration runs the call sites 1,024 times: a root span with
/// a child, a counter, an unscoped sample and an epoch-scoped one. The
/// global sink is uninstalled for the measurement and restored afterwards
/// (with no sink, nothing reaches the flight ring), so the number is the
/// unset-`T2HX_OBS` cost whatever the process had installed.
fn obs_disabled(c: &mut Criterion) {
    let saved_sink = hxobs::uninstall();
    assert!(!hxobs::enabled(), "the disabled path must be measured");
    let mut epoch = 0u64;
    let mut g = c.benchmark_group("obs_disabled");
    g.bench_function(format!("callsites-x{OBS_BATCH}"), |b| {
        b.iter(|| {
            for i in 0..OBS_BATCH {
                let root = hxobs::Span::root(hxobs::track::RUNNER, 0, "perf_probe", "perf");
                let child = root.child("perf_probe_child", "perf");
                child.end();
                root.end();
                hxobs::count("perf.obs_disabled.calls", 1);
                hxobs::sample("perf.obs_disabled.sample", Scope::NONE, i as f64);
                hxobs::sample("perf.obs_disabled.us", Scope::epoch(epoch), i as f64);
            }
            epoch = epoch.wrapping_add(1);
            epoch
        })
    });
    g.finish();
    if let Some(s) = saved_sink {
        hxobs::install(s);
    }
}

criterion_group!(benches, obs_disabled);
criterion_main!(benches);
