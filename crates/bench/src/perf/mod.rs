//! hxperf — the machine-readable benchmark trajectory.
//!
//! Every hot kernel the repo has grown (PathDb builds, incremental
//! fail/recover patches, congestion re-solves, DES churn, eBB/mpiGraph
//! sampling, campaign steps) is measured N times after a warmup, robustly
//! summarized (median, MAD, deterministic bootstrap 95% CI — see
//! [`hxobs::Summary`]), and written to a stable-schema `BENCH_<pr>.json`
//! at the repo root. The [`compare`] module loads a previous trajectory
//! point and applies noise-aware gating: a kernel is flagged only when the
//! confidence intervals separate *and* the median moved by more than the
//! threshold, so scheduler jitter does not page anyone.
//!
//! Layout:
//!
//! * [`kernels`] — the kernel registry: each entry prepares its workload
//!   (untimed) and returns raw per-iteration nanosecond samples,
//! * [`compare`] — baseline discovery, gating math and report rendering,
//! * this module — the schema ([`BenchFile`], [`KernelRecord`]), the
//!   sampling loop helpers and the driver-facing [`run`] entry point.
//!
//! Schema stability rules: `schema_version` bumps on any breaking shape
//! change; kernels are sorted by name; object keys are sorted; floats use
//! Rust's shortest round-trip formatting — so a file parses and re-emits
//! byte-identically ([`BenchFile::to_text`] ∘ [`BenchFile::parse`] is the
//! identity on its own output, pinned by `tests/perf.rs`).

pub mod compare;
pub mod kernels;

use hxobs::{Json, Summary};
use std::time::Instant;

/// Version of the `BENCH_*.json` shape. Bump on breaking schema changes.
pub const SCHEMA_VERSION: u64 = 1;

/// The PR this build stamps into its trajectory file (`BENCH_<PR>.json`).
pub const PR: u64 = 10;

/// One benchmark kernel: registry name, a one-line description, and the
/// collector producing `(scale label, per-iteration nanoseconds)`.
pub struct Kernel {
    /// Registry name (also the JSON record name and `--only` match key).
    pub name: &'static str,
    /// One-line description for `hxperf --list`.
    pub about: &'static str,
    /// Runs the kernel: `(quick, warmup, samples)` → `(scale, ns samples)`.
    pub collect: fn(quick: bool, warmup: usize, samples: usize) -> (String, Vec<f64>),
}

/// Times `samples` invocations of `f` after `warmup` untimed ones.
pub fn time_loop(warmup: usize, samples: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..warmup {
        f();
    }
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect()
}

/// Like [`time_loop`], but each invocation consumes fresh state from
/// `setup`, whose cost is excluded from the measurement.
pub fn time_loop_batched<S>(
    warmup: usize,
    samples: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S),
) -> Vec<f64> {
    for _ in 0..warmup {
        f(setup());
    }
    (0..samples)
        .map(|_| {
            let s = setup();
            let t = Instant::now();
            f(s);
            t.elapsed().as_nanos() as f64
        })
        .collect()
}

/// One kernel's trajectory record: what was measured, at what scale, and
/// the robust summary of the samples.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Kernel registry name.
    pub name: String,
    /// Workload/scale label; the gate only compares records whose scales
    /// match (quick and full runs are never compared to each other).
    pub scale: String,
    /// Sample unit — always `"ns"` today.
    pub unit: String,
    /// Untimed warmup iterations that preceded the samples.
    pub warmup: u64,
    /// Robust summary (median/MAD/bootstrap CI) of the timed samples.
    pub stats: Summary,
}

impl KernelRecord {
    /// Serializes to the schema's kernel object (sorted keys).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name.clone())),
            ("scale", Json::str(self.scale.clone())),
            ("stats", self.stats.to_json()),
            ("unit", Json::str(self.unit.clone())),
            ("warmup", Json::from(self.warmup)),
        ])
    }

    /// Parses a kernel record; `None` on any missing/mistyped field.
    pub fn from_json(j: &Json) -> Option<KernelRecord> {
        Some(KernelRecord {
            name: j.get("name")?.as_str()?.to_string(),
            scale: j.get("scale")?.as_str()?.to_string(),
            unit: j.get("unit")?.as_str()?.to_string(),
            warmup: j.get("warmup")?.as_num()? as u64,
            stats: Summary::from_json(j.get("stats")?)?,
        })
    }
}

/// A complete trajectory point — the payload of one `BENCH_<pr>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// The PR that produced this point.
    pub pr: u64,
    /// Whether the samples came from a `T2HX_QUICK=1` (CI-sized) run.
    pub quick: bool,
    /// Per-kernel records, sorted by name.
    pub kernels: Vec<KernelRecord>,
}

impl BenchFile {
    /// Renders the canonical on-disk text: one kernel per line, sorted
    /// keys, shortest-round-trip floats. [`BenchFile::parse`] followed by
    /// `to_text` reproduces the input byte-for-byte.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"kernels\": [");
        for (i, k) in self.kernels.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            out.push_str(&k.to_json().to_string());
        }
        out.push_str("\n  ],\n");
        out.push_str(&format!("  \"pr\": {},\n", self.pr));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"schema_version\": {}\n", self.schema_version));
        out.push_str("}\n");
        out
    }

    /// Parses a trajectory point from its on-disk text.
    pub fn parse(text: &str) -> Result<BenchFile, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("missing numeric field {k:?}"))
        };
        let quick = match j.get("quick") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing boolean field \"quick\"".into()),
        };
        let mut kernels = Vec::new();
        for (i, kj) in j
            .get("kernels")
            .and_then(Json::as_arr)
            .ok_or("missing array field \"kernels\"")?
            .iter()
            .enumerate()
        {
            kernels
                .push(KernelRecord::from_json(kj).ok_or(format!("malformed kernel record {i}"))?);
        }
        let file = BenchFile {
            schema_version: num("schema_version")? as u64,
            pr: num("pr")? as u64,
            quick,
            kernels,
        };
        if file.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema version {} (this build reads {SCHEMA_VERSION})",
                file.schema_version
            ));
        }
        Ok(file)
    }

    /// Looks up a kernel record by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelRecord> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

/// Sampling plan for one trajectory run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// CI-sized workloads (`T2HX_QUICK=1`).
    pub quick: bool,
    /// Untimed warmup iterations per kernel.
    pub warmup: usize,
    /// Timed samples per kernel.
    pub samples: usize,
}

impl RunSpec {
    /// The plan a run configuration asks for: `T2HX_QUICK` picks the
    /// scale, `T2HX_PERF_SAMPLES` overrides the sample count (quick 5 /
    /// full 20).
    pub fn from_config(cfg: &crate::knobs::RunConfig) -> RunSpec {
        let quick = cfg.quick;
        let samples = cfg.perf_samples.unwrap_or(if quick { 5 } else { 20 });
        RunSpec {
            quick,
            warmup: if quick { 1 } else { 3 },
            samples,
        }
    }
}

/// Runs every kernel whose name contains one of `only` (all when empty),
/// reporting progress on stderr and per-sample `perf.<kernel>.ns` obs
/// histograms. Records come back sorted by name, ready for [`BenchFile`].
pub fn run(only: &[String], spec: &RunSpec) -> Vec<KernelRecord> {
    let mut records: Vec<KernelRecord> = Vec::new();
    for k in kernels::ALL {
        if !only.is_empty() && !only.iter().any(|p| k.name.contains(p.as_str())) {
            continue;
        }
        eprintln!(
            "# hxperf: {} ({} warmup + {} samples)...",
            k.name, spec.warmup, spec.samples
        );
        let t0 = Instant::now();
        let (scale, samples) = (k.collect)(spec.quick, spec.warmup, spec.samples);
        assert_eq!(samples.len(), spec.samples, "{} sample count", k.name);
        if let Some(o) = hxobs::sink() {
            use hxobs::Recorder;
            let metric = format!("perf.{}.ns", k.name);
            for &s in &samples {
                o.histogram_record(&metric, s);
            }
        }
        let stats = Summary::of(&samples);
        eprintln!(
            "# hxperf: {} done in {:.1?} (median {})",
            k.name,
            t0.elapsed(),
            fmt_ns(stats.median)
        );
        records.push(KernelRecord {
            name: k.name.to_string(),
            scale,
            unit: "ns".to_string(),
            warmup: spec.warmup as u64,
            stats,
        });
    }
    records.sort_by(|a, b| a.name.cmp(&b.name));
    records
}

/// Human-readable nanosecond quantity (`1.23 µs`, `45.6 ms`, ...).
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}
