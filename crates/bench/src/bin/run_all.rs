//! Runs every reproduction harness in sequence, writing each output to
//! `<results>/<name>.txt` — the one-command regeneration of all the paper's
//! tables and figures.
//!
//! ```sh
//! cargo run --release -p hxbench --bin run_all
//! T2HX_QUICK=1 cargo run --release -p hxbench --bin run_all   # smoke run
//! T2HX_OBS=1 cargo run --release -p hxbench --bin run_all     # + telemetry
//! run_all --list                    # print harness names and exit
//! run_all --only ebb --only fig01   # run matching harnesses only
//! ```
//!
//! `--only <substring>` may repeat; a harness runs if its name contains any
//! of the given substrings. A filter matching nothing is an error.
//!
//! The results directory is [`hxbench::knobs::RunConfig::results_dir`]:
//! `$T2HX_RESULTS_DIR` when set; otherwise `results/` for full runs and
//! `results/quick/` for `T2HX_QUICK=1` runs, so a smoke run can never
//! silently overwrite the committed full-mode numbers. Pointing a quick run at `results/` explicitly is refused while
//! full-mode outputs are present there.
//!
//! A failing harness leaves its stderr in `<results>/<name>.stderr.txt`.
//! Per-harness wall time and exit status land in
//! `<results>/obs/manifest.json`; with `T2HX_OBS=1` each harness
//! additionally exports `<results>/obs/<name>.metrics.jsonl` and a
//! Perfetto-loadable `<results>/obs/<name>.trace.json`.

use hxbench::knobs;
use hxobs::Json;
use std::fs;
use std::path::Path;
use std::process::Command;

/// The registry lives in the library ([`hxbench::HARNESSES`]) so that
/// `--list`, the README table and `tests/registry_sync.rs` all see one
/// source of truth.
fn harness_names() -> Vec<&'static str> {
    hxbench::HARNESSES.iter().map(|h| h.name).collect()
}

/// Refuses to let a quick run clobber full-mode outputs sitting in the
/// plain `results/` directory (the numbers committed to the repo).
fn guard_against_clobber(dir: &Path) {
    if !hxbench::quick() || dir != Path::new("results") {
        return;
    }
    let existing: Vec<&str> = harness_names()
        .into_iter()
        .filter(|name| dir.join(format!("{name}.txt")).exists())
        .collect();
    if !existing.is_empty() {
        eprintln!(
            "refusing to overwrite {} full-mode output(s) in results/ with a \
             T2HX_QUICK=1 run (first: results/{}.txt).",
            existing.len(),
            existing[0]
        );
        eprintln!("unset T2HX_RESULTS_DIR (quick runs default to results/quick/),");
        eprintln!("or point T2HX_RESULTS_DIR somewhere else.");
        std::process::exit(2);
    }
}

/// Parses `--list` / `--only <substring>` and returns the harnesses to run.
fn select_harnesses() -> Vec<&'static str> {
    let mut only: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for h in hxbench::HARNESSES {
                    println!("{:<24} {}", h.name, h.about);
                }
                std::process::exit(0);
            }
            "--only" => match args.next() {
                Some(pat) if !pat.is_empty() => only.push(pat),
                _ => {
                    eprintln!("--only requires a non-empty substring argument");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: run_all [--list] [--only <substring>]...");
                std::process::exit(2);
            }
        }
    }
    if only.is_empty() {
        return harness_names();
    }
    let selected: Vec<&'static str> = harness_names()
        .into_iter()
        .filter(|name| only.iter().any(|pat| name.contains(pat.as_str())))
        .collect();
    if selected.is_empty() {
        eprintln!("--only filter(s) {only:?} match no harness; try --list");
        std::process::exit(2);
    }
    selected
}

fn main() {
    let cfg = knobs::config();
    let harnesses = select_harnesses();
    let dir = cfg.results_dir();
    guard_against_clobber(&dir);
    fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let obs = cfg.obs;
    // Children inherit the environment; steer their obs artefacts into this
    // run's results tree unless the user already chose a location.
    let obs_dir = cfg.obs_dir();
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .expect("bin directory");
    let mut failures = 0usize;
    let mut entries: Vec<Json> = Vec::new();
    for name in &harnesses {
        let t0 = std::time::Instant::now();
        print!("{name:<24} ... ");
        use std::io::Write;
        std::io::stdout().flush().ok();
        // T2HX_OBS / T2HX_QUICK propagate, so each harness exports its own
        // obs artefacts — into this run's obs directory.
        let out = Command::new(exe_dir.join(name))
            .env("T2HX_OBS_DIR", &obs_dir)
            .output()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        let wall = t0.elapsed();
        let path = dir.join(format!("{name}.txt"));
        fs::write(&path, &out.stdout).expect("write result");
        let stderr_path = dir.join(format!("{name}.stderr.txt"));
        if out.status.success() {
            // Stale stderr from an earlier failing run would mislead.
            fs::remove_file(&stderr_path).ok();
            println!("ok ({wall:.1?}) -> {}", path.display());
        } else {
            failures += 1;
            fs::write(&stderr_path, &out.stderr).expect("write stderr");
            println!("FAILED ({:?}) -> {}", out.status, stderr_path.display());
            eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        }
        let mut fields = vec![
            ("name", Json::str(*name)),
            ("ok", Json::from(out.status.success())),
            (
                "exit_code",
                out.status
                    .code()
                    .map(|c| Json::from(c as i64))
                    .unwrap_or(Json::Null),
            ),
            ("wall_seconds", Json::from(wall.as_secs_f64())),
            ("stdout", Json::str(path.display().to_string())),
        ];
        if !out.status.success() {
            fields.push(("stderr", Json::str(stderr_path.display().to_string())));
        }
        if obs {
            fields.push((
                "metrics",
                Json::str(
                    obs_dir
                        .join(format!("{name}.metrics.jsonl"))
                        .display()
                        .to_string(),
                ),
            ));
            fields.push((
                "trace",
                Json::str(
                    obs_dir
                        .join(format!("{name}.trace.json"))
                        .display()
                        .to_string(),
                ),
            ));
        }
        entries.push(Json::obj(fields));
    }

    let manifest = Json::obj([
        ("obs_enabled", Json::from(obs)),
        ("quick", Json::from(cfg.quick)),
        ("results_dir", Json::str(dir.display().to_string())),
        ("harnesses", Json::Arr(entries)),
        ("failures", Json::from(failures)),
    ]);
    fs::create_dir_all(&obs_dir).unwrap_or_else(|e| panic!("create {}: {e}", obs_dir.display()));
    let manifest_path = obs_dir.join("manifest.json");
    fs::write(&manifest_path, manifest.to_string()).expect("write manifest");
    println!("manifest -> {}", manifest_path.display());

    if failures > 0 {
        eprintln!("{failures} harness(es) failed");
        std::process::exit(1);
    }
    println!("\nall harness outputs written to {}/", dir.display());
}
