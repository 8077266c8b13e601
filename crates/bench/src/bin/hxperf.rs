//! hxperf — benchmark-trajectory driver and perf-regression gate.
//!
//! Runs every registered hot-kernel benchmark (warmup + N samples each),
//! summarizes them robustly (median / MAD / deterministic bootstrap 95%
//! CI), writes the stable-schema trajectory point `BENCH_<pr>.json`, and
//! compares it against the previous point with noise-aware gating: a
//! kernel is flagged only when the CIs separate AND the median moves more
//! than the threshold (default 10%, `--threshold`).
//!
//! ```sh
//! cargo run --release -p hxbench --bin hxperf            # full trajectory point
//! T2HX_QUICK=1 hxperf                                    # CI-sized smoke point
//! hxperf --list                                          # kernel registry
//! hxperf --only pathdb --only recompute                  # subset
//! hxperf --out /tmp/BENCH_5.json --baseline BENCH_5.json # explicit paths
//! hxperf --check NEW.json OLD.json                       # compare only, no run
//! hxperf --advisory                                      # report, never fail
//! ```
//!
//! Output path: `--out`, else `BENCH_<pr>.json` in the working directory
//! (full mode) or in the results directory (`$T2HX_RESULTS_DIR`, default
//! `results/quick/`) in quick mode, so a smoke run never clobbers the
//! committed trajectory. Baseline: `--baseline`, else the
//! highest-numbered other `BENCH_<k>.json` (k ≤ pr) next to the output.
//! Exit code 1 on a gated regression unless `--advisory`.

use hxbench::knobs::{self, RunConfig};
use hxbench::perf::{self, compare, BenchFile, RunSpec};
use std::path::{Path, PathBuf};
use std::process::exit;

struct Args {
    only: Vec<String>,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    check: Option<(PathBuf, PathBuf)>,
    advisory: bool,
    threshold: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: hxperf [--list] [--only PAT]... [--out PATH] [--baseline PATH]\n\
         \x20             [--check NEW OLD] [--advisory] [--threshold PCT]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        only: Vec::new(),
        out: None,
        baseline: None,
        check: None,
        advisory: false,
        threshold: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => {
                for k in perf::kernels::ALL {
                    println!("{:<22} {}", k.name, k.about);
                }
                exit(0);
            }
            "--only" => match it.next() {
                Some(p) if !p.is_empty() => args.only.push(p),
                _ => usage(),
            },
            "--out" => args.out = Some(it.next().map(PathBuf::from).unwrap_or_else(|| usage())),
            "--baseline" => {
                args.baseline = Some(it.next().map(PathBuf::from).unwrap_or_else(|| usage()))
            }
            "--check" => {
                let new = it.next().map(PathBuf::from).unwrap_or_else(|| usage());
                let old = it.next().map(PathBuf::from).unwrap_or_else(|| usage());
                args.check = Some((new, old));
            }
            "--advisory" => args.advisory = true,
            "--threshold" => {
                args.threshold = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            _ => usage(),
        }
    }
    args
}

fn load(path: &Path) -> BenchFile {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    BenchFile::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// Where this run's trajectory point goes (see the module docs).
fn out_path(args: &Args, cfg: &RunConfig) -> PathBuf {
    if let Some(p) = &args.out {
        return p.clone();
    }
    let file = format!("BENCH_{}.json", perf::PR);
    if cfg.quick {
        cfg.results_dir().join(file)
    } else {
        PathBuf::from(file)
    }
}

/// Compares `new` against `old`, prints the report, and returns whether
/// the gate should fail the process.
fn run_gate(new: &BenchFile, old: &BenchFile, old_name: &str, gate: &compare::Gate) -> bool {
    println!("## comparison vs {old_name}");
    if old.quick != new.quick {
        println!(
            "(baseline is a {} run, this is a {} run — kernels are incomparable)",
            mode(old.quick),
            mode(new.quick)
        );
    }
    let deltas = compare::compare(old, new, gate);
    print!("{}", compare::render(&deltas, gate));
    compare::has_regression(&deltas)
}

fn mode(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

fn main() {
    let cfg = knobs::config();
    let args = parse_args();
    let mut gate = compare::Gate::default();
    if let Some(t) = args.threshold {
        gate.threshold_pct = t;
    }

    // Compare-only mode: no benchmarks run.
    if let Some((new_path, old_path)) = &args.check {
        let regressed = run_gate(
            &load(new_path),
            &load(old_path),
            &old_path.display().to_string(),
            &gate,
        );
        exit(if regressed && !args.advisory { 1 } else { 0 });
    }

    let _obs = hxbench::obs_scope("hxperf");
    let spec = RunSpec::from_config(cfg);
    println!(
        "# hxperf trajectory point: PR {}, {} mode, {} warmup + {} samples per kernel\n",
        perf::PR,
        mode(spec.quick),
        spec.warmup,
        spec.samples
    );
    let records = perf::run(&args.only, &spec);
    if records.is_empty() {
        eprintln!(
            "--only filter(s) {:?} match no kernel; try --list",
            args.only
        );
        exit(2);
    }
    println!(
        "{:<22} {:<28} {:>10} {:>10}  95% CI",
        "kernel", "scale", "median", "mad"
    );
    for r in &records {
        println!(
            "{:<22} {:<28} {:>10} {:>10}  [{}, {}]",
            r.name,
            r.scale,
            perf::fmt_ns(r.stats.median),
            perf::fmt_ns(r.stats.mad),
            perf::fmt_ns(r.stats.ci_lo),
            perf::fmt_ns(r.stats.ci_hi),
        );
    }
    let file = BenchFile {
        schema_version: perf::SCHEMA_VERSION,
        pr: perf::PR,
        quick: spec.quick,
        kernels: records,
    };
    let out = out_path(&args, cfg);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(&out, file.to_text()).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!(
        "\nwrote {} (schema v{})\n",
        out.display(),
        perf::SCHEMA_VERSION
    );

    // Gate against the previous trajectory point, if any exists.
    let baseline = args.baseline.clone().or_else(|| {
        let dir = out.parent().filter(|d| !d.as_os_str().is_empty());
        compare::find_baseline(dir.unwrap_or(Path::new(".")), perf::PR, Some(&out))
    });
    match baseline {
        None => {
            println!("no baseline BENCH_*.json found — this is the trajectory's first point");
        }
        Some(p) => {
            let regressed = run_gate(&file, &load(&p), &p.display().to_string(), &gate);
            if regressed {
                if args.advisory {
                    println!("(advisory mode: regressions reported, exit 0)");
                } else {
                    exit(1);
                }
            }
        }
    }
}
