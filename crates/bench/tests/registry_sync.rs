//! Pins the harness registry against its mirrors: every registered
//! harness has a binary source file, and README.md's "Reproducing the
//! paper" command list names exactly the registry (plus `run_all`
//! itself). `run_all --list` prints straight from the registry, so this
//! keeps all three views in lockstep. README.md's environment table is
//! pinned the same way to the knob table, and its engine table to the
//! routing-engine registry.

use hxbench::knobs::KNOBS;
use hxbench::HARNESSES;
use hxroute::{engine_by_name, ENGINE_NAMES};
use std::collections::BTreeSet;
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

#[test]
fn every_harness_has_a_binary() {
    for h in HARNESSES {
        let src = repo_root().join(format!("crates/bench/src/bin/{}.rs", h.name));
        assert!(
            src.exists(),
            "registry entry {:?} has no {}",
            h.name,
            src.display()
        );
        assert!(
            !h.about.is_empty(),
            "registry entry {:?} has no description",
            h.name
        );
    }
}

#[test]
fn registry_names_are_unique() {
    let names: BTreeSet<&str> = HARNESSES.iter().map(|h| h.name).collect();
    assert_eq!(names.len(), HARNESSES.len(), "duplicate harness name");
}

#[test]
fn readme_command_list_matches_registry() {
    let readme = std::fs::read_to_string(repo_root().join("README.md")).expect("README.md");
    let section = readme
        .split("## Reproducing the paper")
        .nth(1)
        .expect("a 'Reproducing the paper' section")
        .split("\n## ")
        .next()
        .unwrap();
    let mut listed: Vec<&str> = section
        .lines()
        .filter_map(|l| {
            let rest = l
                .trim()
                .strip_prefix("cargo run --release -p hxbench --bin ")?;
            Some(rest.split_whitespace().next().unwrap())
        })
        .collect();
    // run_all drives the registry rather than living in it.
    assert_eq!(
        listed.pop(),
        Some("run_all"),
        "run_all closes the README list"
    );
    let registry: Vec<&str> = HARNESSES.iter().map(|h| h.name).collect();
    assert_eq!(
        listed, registry,
        "README.md's --bin list must mirror hxbench::HARNESSES (same names, same order)"
    );
}

#[test]
fn readme_env_table_matches_knob_table() {
    let readme = std::fs::read_to_string(repo_root().join("README.md")).expect("README.md");
    let section = readme
        .split("### Environment knobs")
        .nth(1)
        .expect("an 'Environment knobs' section")
        .split("\n## ")
        .next()
        .unwrap();
    let listed: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
        .collect();
    let table: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
    assert_eq!(
        listed, table,
        "README.md's env table must mirror hxbench::knobs::KNOBS (same names, same order)"
    );
}

#[test]
fn readme_engine_table_matches_engine_registry() {
    let readme = std::fs::read_to_string(repo_root().join("README.md")).expect("README.md");
    let section = readme
        .split("## Routing engines")
        .nth(1)
        .expect("a 'Routing engines' section")
        .split("\n## ")
        .next()
        .unwrap();
    let listed: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
        .collect();
    for name in &listed {
        assert!(
            engine_by_name(name).is_some(),
            "README.md lists engine {name:?}, which engine_by_name does not resolve"
        );
    }
    for name in ENGINE_NAMES.iter().chain(&["ftree"]) {
        assert!(
            listed.contains(name),
            "README.md's engine table is missing {name:?}"
        );
    }
}
