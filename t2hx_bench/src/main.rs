//! t2hx_bench — end-to-end benchmark of the t2hx libraries over five
//! workloads, with a traced per-layer breakdown.
//!
//! ```text
//! t2hx_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! t2hx_bench --all [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! t2hx_bench compare <setA> <setB>
//! ```
//!
//! A run prints one `<workload> <metric> <value> <unit>` line per metric
//! and, last, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics, or with `--trace 1` the per-layer
//! ones. `--out DIR` also writes `DIR/<workload>.json`, and with tracing
//! `DIR/<workload>.trace.json` (Chrome trace events) and
//! `DIR/<workload>.layers.json` (self time per layer). `--all` runs every
//! workload in a child process of its own, so peak memory is per
//! workload. See README.md for the workloads and metrics.

mod alloc;
mod compare;
mod harness;
mod metrics;
mod stats;
mod trace;
mod workloads;

use harness::{Harness, Plan, Size};
use hxobs::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{DEFAULT_SEED, NAMES};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Timed-phase length when `--seconds` is not given: `run_seconds` of
/// BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    /// `None` runs every workload.
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
    Help,
}

const USAGE: &str = "usage:
  t2hx_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  t2hx_bench --all [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  t2hx_bench compare <setA> <setB>";

fn parse_seed(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|_| format!("bad --seed {s:?}: expected a decimal or 0x-hex integer"))
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Mode::Compare(a.into(), b.into())),
            _ => Err("compare takes exactly two result directories".into()),
        };
    }
    let mut run = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut all = false;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--help" | "-h" => return Ok(Mode::Help),
            "--all" => all = true,
            "--workload" => {
                let w = value("--workload")?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?} (valid: {})",
                        NAMES.join(", ")
                    ));
                }
                run.workload = Some(w);
            }
            "--seed" => run.seed = parse_seed(&value("--seed")?)?,
            "--seconds" => {
                let s = value("--seconds")?;
                run.seconds = s
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| format!("bad --seconds {s:?}: expected a positive number"))?;
            }
            "--trace" => {
                run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        // A bare `--trace` turns tracing on.
                        run.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--out" => run.out = Some(value("--out")?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (all, &run.workload) {
        (true, Some(_)) => Err("give --all or --workload, not both".into()),
        (false, None) => Err(format!("name a --workload ({}) or --all", NAMES.join(", "))),
        _ => Ok(Mode::Run(run)),
    }
}

/// `T2HX_*` variables in the environment: the libraries read some of them
/// (`T2HX_SOLVER`, `T2HX_ENGINE`, ...), so any of them would change what
/// is measured.
fn stray_knobs() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("T2HX_"))
        .collect();
    v.sort();
    v
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process.
fn run_one(name: &str, a: &RunArgs) -> Result<ExitCode, String> {
    let mut h = Harness::new(Plan {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        size: Size::Full,
    });
    let fin = workloads::run(name, &mut h);
    let rec = h.record(name, &fin, workloads::pinned(name, a.seed));
    for c in fin.checks.iter().filter(|c| !c.ok) {
        eprintln!("{name}: check failed: {} ({})", c.name, c.detail);
    }
    if let Some(dir) = &a.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        write(
            &dir.join(format!("{name}.json")),
            &format!("{}\n", rec.file()),
        )?;
        if let Some(layers) = &rec.layers {
            write(
                &dir.join(format!("{name}.trace.json")),
                &trace::chrome_trace(h.tr.spans(), &format!("t2hx_bench {name}")),
            )?;
            let doc = Json::obj([
                ("workload", Json::from(name)),
                ("seed", Json::from(a.seed)),
                ("metrics", harness::metrics_json(&layers.metrics)),
                ("rollup", layers.rollup.clone()),
            ]);
            write(
                &dir.join(format!("{name}.layers.json")),
                &format!("{doc}\n"),
            )?;
        }
    }
    for &(metric, unit, value) in rec.line_metrics() {
        println!("{name} {metric} {value} {unit}");
    }
    println!("{}", rec.line());
    Ok(if rec.correct && rec.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload, each in a child process of its own.
fn run_all(a: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut ok = true;
    for name in NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }]);
        if let Some(dir) = &a.out {
            cmd.arg("--out").arg(dir);
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        let good = out.status.success()
            && Json::parse(last).is_ok_and(|j| j.get("correct") == Some(&Json::Bool(true)));
        if !good {
            eprintln!("{name}: run failed ({}): {last}", out.status);
        }
        ok &= good;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    alloc::count_this_thread();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("t2hx_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::Help => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Mode::Compare(a, b) => compare::compare(&a, &b).map(|worse| {
            if worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }),
        Mode::Run(run) => {
            let knobs = stray_knobs();
            if !knobs.is_empty() {
                eprintln!(
                    "t2hx_bench: refusing to run with {} set: the libraries read these, \
                     so they would change what is measured",
                    knobs.join(", ")
                );
                return ExitCode::from(2);
            }
            match &run.workload {
                Some(name) => run_one(name, &run),
                None => run_all(&run),
            }
        }
    };
    result.unwrap_or_else(|e| {
        eprintln!("t2hx_bench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn rejects_unknown_workload_listing_valid_names() {
        let err = parse_args(&args("--workload nope")).unwrap_err();
        assert!(err.contains("\"nope\""), "{err}");
        for name in NAMES {
            assert!(err.contains(name), "{err} lacks {name}");
        }
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let m = parse_args(&args("--workload churn --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            m,
            Mode::Run(RunArgs {
                workload: Some("churn".into()),
                seed: 7,
                seconds: 10.0,
                trace: false,
                out: None,
            })
        );
        let Mode::Run(r) = parse_args(&args("--all --seed 0x7258 --trace --out o")).unwrap() else {
            panic!("expected a run");
        };
        assert_eq!((r.workload, r.seed, r.trace), (None, 0x7258, true));
        assert_eq!(r.out, Some(PathBuf::from("o")));
        assert!(parse_args(&args("--all --workload serve")).is_err());
        assert!(parse_args(&args("--workload serve --seconds 0")).is_err());
        assert!(parse_args(&args("")).is_err());
        assert_eq!(
            parse_args(&args("compare a b")).unwrap(),
            Mode::Compare("a".into(), "b".into())
        );
    }
}
