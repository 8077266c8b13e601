//! What every workload shares: the set-up clock, the timed loop, and the
//! assembly of one run's result record.

use crate::metrics::{time_scale, Src, END_TO_END, PER_LAYER};
use crate::stats::{percentile, sorted, tail, Tail};
use crate::trace::{durations_s, layer_self_ns, Open, Tracer, BENCH};
use hxobs::{Json, Summary};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Problem size: the measured configuration, or a miniature for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The configuration the benchmark measures.
    Full,
    /// A seconds-long miniature on `T2hx::mini()` and 6x4 T=2 planes,
    /// for the smoke tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Mini,
}

impl Size {
    /// `(least set-ups, seconds)`: set-ups repeat at least this many
    /// times, and more, up to [`SETUP_MAX_REPS`], until they add up to
    /// this many seconds. `setup_s` is their median; the timed phase runs
    /// on the last one.
    fn setup_rule(self) -> (usize, f64) {
        match self {
            Size::Full => (3, 0.5),
            Size::Mini => (1, 0.0),
        }
    }
}

/// Most set-ups per run.
const SETUP_MAX_REPS: usize = 50;

/// How one run measures.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record spans (the per-layer run).
    pub trace: bool,
    /// Problem size.
    pub size: Size,
}

/// A set-up workload, ready for its timed phase.
pub trait Live {
    /// Unit operations the correctness checkpoint needs; the timed phase
    /// runs at least this many even if `seconds` has passed.
    fn min_ops(&self) -> u64;

    /// Runs one unit operation and returns the latency it reports, in
    /// seconds.
    fn op(&mut self, tr: &mut Tracer) -> f64;

    /// Seconds spent so far inside [`Live::op`] on background work that
    /// the throughput leaves out (`serve`'s writer).
    fn background_s(&self) -> f64 {
        0.0
    }

    /// The highest percentile `op_tail_ms` may report.
    fn tail_top(&self) -> f64 {
        99.0
    }
}

/// One timed phase: untraced, or (in a per-layer run) traced.
#[derive(Debug)]
struct Phase {
    traced: bool,
    wall_s: f64,
    lat_s: Vec<f64>,
    root: Option<usize>,
}

/// A named pass/fail correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Values behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check with its detail.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// What a workload hands back after its timed phase.
#[derive(Debug)]
pub struct Finish {
    /// Library operations attempted (timed phase and checks).
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    /// FNV-1a over the simulated outputs of the deterministic checkpoint.
    pub fingerprint: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Per-layer values the workload computes itself.
    pub values: BTreeMap<String, f64>,
    /// The resolved configuration.
    pub config: Json,
}

/// Per-run measurement state threaded through a workload.
pub struct Harness {
    /// The plan being run.
    pub plan: Plan,
    /// The main thread's span recorder (on in a per-layer run).
    pub tr: Tracer,
    setup_s: Vec<f64>,
    setup_open: Option<(Instant, Open)>,
    phases: Vec<Phase>,
    tail_top: f64,
    peak_heap_mb: f64,
    vm_hwm_mb: f64,
}

impl Harness {
    /// A harness for `plan`; its clock starts now.
    pub fn new(plan: Plan) -> Harness {
        let tr = Tracer::new(plan.trace);
        Harness {
            plan,
            tr,
            setup_s: Vec::new(),
            setup_open: None,
            phases: Vec::new(),
            tail_top: f64::NAN,
            peak_heap_mb: f64::NAN,
            vm_hwm_mb: f64::NAN,
        }
    }

    /// Starts timing one set-up; returns whether it is the last, the one
    /// the timed phase runs on. The previous ones predict its length.
    pub fn setup_begin(&mut self) -> bool {
        assert!(self.setup_open.is_none(), "set-up already open");
        let done = self.setup_s.len();
        let spent: f64 = self.setup_s.iter().sum();
        let next = if done == 0 { 0.0 } else { spent / done as f64 };
        let (reps, min_s) = self.plan.size.setup_rule();
        let last = done + 1 >= SETUP_MAX_REPS || (done + 1 >= reps && spent + next >= min_s);
        let open = self.tr.begin("bench.setup", BENCH);
        self.setup_open = Some((Instant::now(), open));
        last
    }

    /// Stops timing the open set-up.
    pub fn setup_end(&mut self) {
        let (t0, open) = self.setup_open.take().expect("no set-up open");
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.tr.end(open);
    }

    /// Runs the timed phase: unit operations until `seconds` have passed
    /// and the checkpoint is reached. A per-layer run splits the time
    /// into an untraced half and a traced half, so the recorder's own
    /// cost can be measured. A phase's wall time leaves out the
    /// workload's background work.
    pub fn measure(&mut self, live: &mut dyn Live) {
        let halves = if self.plan.trace {
            vec![
                (false, self.plan.seconds / 2.0),
                (true, self.plan.seconds / 2.0),
            ]
        } else {
            vec![(false, self.plan.seconds)]
        };
        let mut done = 0u64;
        let last = halves.len() - 1;
        for (i, (traced, secs)) in halves.into_iter().enumerate() {
            self.tr.set_enabled(traced);
            let need = if i == last { live.min_ops() } else { 0 };
            let budget = Duration::from_secs_f64(secs);
            let root = self.tr.begin("bench.timed", BENCH);
            let bg0 = live.background_s();
            let t0 = Instant::now();
            let mut lat_s = Vec::new();
            loop {
                let lat = live.op(&mut self.tr);
                crate::alloc::uncounted(|| lat_s.push(lat));
                done += 1;
                if t0.elapsed() >= budget && done >= need {
                    break;
                }
            }
            let wall_s = t0.elapsed().as_secs_f64() - (live.background_s() - bg0);
            self.tr.end(root);
            self.phases.push(Phase {
                traced,
                wall_s,
                lat_s,
                root: root.index(),
            });
        }
        self.tail_top = live.tail_top();
        // Memory high-water marks of set-up and timed phase, before the
        // correctness checks allocate their own oracles.
        self.peak_heap_mb = crate::alloc::peak_heap_mb();
        self.vm_hwm_mb = vm_hwm_mb();
        // Correctness checks after the timed phase stay traced in a
        // per-layer run, so their spans feed the per-call medians.
        self.tr.set_enabled(self.plan.trace);
    }

    fn untraced(&self) -> &Phase {
        self.phases
            .iter()
            .find(|p| !p.traced)
            .expect("measure() ran an untraced phase")
    }

    /// The untraced phase's op latencies: (p50, tail) in seconds.
    fn op_latency(&self) -> (f64, Tail) {
        let lat = &self.untraced().lat_s;
        (percentile(&sorted(lat), 50.0), tail(lat, self.tail_top))
    }

    /// Assembles the run's record and its metric values for the final
    /// line (end-to-end untraced, per-layer traced).
    pub fn record(&self, workload: &str, fin: &Finish, pinned: Option<u64>) -> Record {
        let (p50, tl) = self.op_latency();
        let un = self.untraced();
        let setup = Summary::of(&self.setup_s);
        let mut e2e = BTreeMap::new();
        e2e.insert("setup_s", setup.median);
        e2e.insert("peak_heap_mb", self.peak_heap_mb);
        e2e.insert("op_p50_ms", p50 * 1e3);
        e2e.insert("op_tail_ms", tl.value * 1e3);
        e2e.insert("ops_per_s", un.lat_s.len() as f64 / un.wall_s);
        let e2e: Vec<(&'static str, &'static str, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, e2e[m.name]))
            .collect();

        let mut checks = fin.checks.clone();
        if let Some(pin) = pinned {
            checks.push(Check::new(
                "fingerprint matches the pinned default-seed value",
                fin.fingerprint == pin,
                format!("got {:016x}, pinned {pin:016x}", fin.fingerprint),
            ));
        }
        let correct = checks.iter().all(|c| c.ok);
        let layers = self.plan.trace.then(|| self.layers(fin));
        Record {
            correct,
            attempted: fin.attempted.max(1),
            failed: fin.failed,
            e2e,
            layers,
            detail: self.detail(workload, fin, &checks, setup, tl),
        }
    }

    fn detail(
        &self,
        workload: &str,
        fin: &Finish,
        checks: &[Check],
        setup: Summary,
        tl: Tail,
    ) -> Json {
        let un = self.untraced();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Json::obj([
            ("workload", Json::from(workload)),
            ("seed", Json::from(self.plan.seed)),
            ("seconds", Json::from(self.plan.seconds)),
            ("trace", Json::from(self.plan.trace)),
            ("nproc", Json::from(nproc)),
            ("config", fin.config.clone()),
            (
                "fingerprint",
                Json::from(format!("{:016x}", fin.fingerprint)),
            ),
            (
                "checks",
                Json::Arr(
                    checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::from(c.name.as_str())),
                                ("ok", Json::from(c.ok)),
                                ("detail", Json::from(c.detail.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("setup_s", setup.to_json()),
            ("setups", Json::from(self.setup_s.len())),
            ("vm_hwm_mb", Json::from(self.vm_hwm_mb)),
            (
                "ops",
                Json::obj([
                    ("n", Json::from(un.lat_s.len())),
                    ("wall_s", Json::from(un.wall_s)),
                    ("tail_pct", Json::from(tl.pct)),
                ]),
            ),
        ])
    }

    /// The per-layer metrics of the traced half.
    fn layers(&self, fin: &Finish) -> Layers {
        let spans = self.tr.spans();
        let traced = self
            .phases
            .iter()
            .find(|p| p.traced)
            .expect("a per-layer run has a traced phase");
        let root = traced.root.expect("traced phase has a root span");
        let ops = traced.lat_s.len() as f64;
        let by_layer = layer_self_ns(spans, root);
        let root_ns = spans[root].dur_ns() as f64;
        let bench_ns = by_layer.get(BENCH).copied().unwrap_or(0) as f64;
        let in_root = |name: &str| -> f64 {
            // Spans of the traced timed phase: inside the root's interval.
            let r = &spans[root];
            spans
                .iter()
                .filter(|s| s.start_ns >= r.start_ns && s.end_ns <= r.end_ns)
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 * 1e-9)
                .sum()
        };
        let un = self.untraced();
        let per_op = |p: &Phase| p.wall_s / p.lat_s.len() as f64;
        let mut values = fin.values.clone();
        values.insert(
            "bench.trace_overhead_pct".into(),
            (per_op(traced) / per_op(un) - 1.0) * 100.0,
        );
        values.insert(
            "bench.covered_pct".into(),
            (1.0 - bench_ns / root_ns) * 100.0,
        );
        let metrics = PER_LAYER
            .iter()
            .map(|m| {
                let v = match m.src {
                    Src::Median(name) => {
                        let d = durations_s(spans, name);
                        if d.is_empty() {
                            0.0
                        } else {
                            percentile(&sorted(&d), 50.0) * time_scale(m.unit)
                        }
                    }
                    Src::PerOp(name) => in_root(name) / ops * time_scale(m.unit),
                    Src::PerSetup(name) => {
                        durations_s(spans, name).iter().sum::<f64>() / self.setup_s.len() as f64
                            * time_scale(m.unit)
                    }
                    Src::SelfPerOp(layer) => {
                        by_layer.get(layer).copied().unwrap_or(0) as f64 * 1e-9 / ops
                            * time_scale(m.unit)
                    }
                    Src::Value => values.get(m.name).copied().unwrap_or(0.0),
                };
                (m.name, m.unit, v)
            })
            .collect();
        let self_ms: BTreeMap<String, Json> = by_layer
            .iter()
            .map(|(l, ns)| {
                (
                    l.to_string(),
                    Json::obj([
                        ("self_ms", Json::from(*ns as f64 / 1e6)),
                        ("share_pct", Json::from(*ns as f64 / root_ns * 100.0)),
                    ]),
                )
            })
            .collect();
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in spans {
            by_name
                .entry(&s.name)
                .or_default()
                .push(s.dur_ns() as f64 / 1e3);
        }
        let span_stats: BTreeMap<String, Json> = by_name
            .into_iter()
            .map(|(name, d)| {
                let s = sorted(&d);
                (
                    name.to_string(),
                    Json::obj([
                        ("calls", Json::from(s.len())),
                        ("total_ms", Json::from(s.iter().sum::<f64>() / 1e3)),
                        ("median_us", Json::from(percentile(&s, 50.0))),
                        ("max_us", Json::from(s[s.len() - 1])),
                    ]),
                )
            })
            .collect();
        Layers {
            metrics,
            rollup: Json::obj([
                ("timed_wall_ms", Json::from(root_ns / 1e6)),
                ("ops", Json::from(ops)),
                ("layers", Json::Obj(self_ms)),
                ("spans", Json::Obj(span_stats)),
            ]),
        }
    }
}

/// The traced run's per-layer metrics plus the self-time rollup behind
/// them.
#[derive(Debug)]
pub struct Layers {
    /// `(name, unit, value)` in `PER_LAYER` order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Self time per layer and per-span-name statistics.
    pub rollup: Json,
}

/// One run's outcome.
#[derive(Debug)]
pub struct Record {
    /// Every correctness check held.
    pub correct: bool,
    /// Operations attempted (at least 1).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, unit, value)` in `END_TO_END` order.
    pub e2e: Vec<(&'static str, &'static str, f64)>,
    /// Per-layer metrics, in a traced run.
    pub layers: Option<Layers>,
    /// Configuration, fingerprint, checks and sample counts.
    pub detail: Json,
}

/// `{name: {value, unit}}` for a metric list.
pub fn metrics_json(ms: &[(&'static str, &'static str, f64)]) -> Json {
    Json::Obj(
        ms.iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })
            .collect(),
    )
}

impl Record {
    /// The metrics of the final line: end-to-end untraced, per-layer
    /// traced.
    pub fn line_metrics(&self) -> &[(&'static str, &'static str, f64)] {
        match &self.layers {
            Some(l) => &l.metrics,
            None => &self.e2e,
        }
    }

    /// The final stdout line.
    pub fn line(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics_json(self.line_metrics())),
        ])
    }

    /// The `<workload>.json` result file: the final line's fields, every
    /// end-to-end metric, and the run's detail.
    pub fn file(&self) -> Json {
        let mut doc = match self.detail.clone() {
            Json::Obj(m) => m,
            _ => unreachable!("detail is an object"),
        };
        doc.insert("correct".into(), Json::from(self.correct));
        doc.insert("attempted".into(), Json::from(self.attempted));
        doc.insert("failed".into(), Json::from(self.failed));
        doc.insert("metrics".into(), metrics_json(&self.e2e));
        if let Some(l) = &self.layers {
            doc.insert("per_layer".into(), metrics_json(&l.metrics));
        }
        Json::Obj(doc)
    }
}

/// Peak resident set of this process (`VmHWM`), in MB; recorded for
/// reference beside the heap peak.
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}
