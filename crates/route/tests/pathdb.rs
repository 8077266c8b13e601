//! Property-based PathDb tests: the incremental fail-in-place patch must be
//! bit-identical to a from-scratch path extraction of the repaired
//! forwarding state, for every routing engine and any fault sequence — and
//! the parallel build must be byte-identical to the single-threaded one.
//!
//! The from-scratch rebuild refuses any path that traverses a deactivated
//! cable, so these properties also prove the affected-tree computation is
//! complete: a single destination tree left unrepaired fails the rebuild.
//!
//! `PathDb::stats` is checked against a per-pair count through
//! `node_path` that shares no code with it, on fresh and patched stores.

use hxroute::engines::{
    Dfsssp, FatPaths, FtHyperX, Ftree, Lash, MinHop, Parx, RoutingEngine, Sssp, UpDown,
};
use hxroute::{Lid, PathDb, PathStats, SubnetManager};
use hxtopo::fattree::{FatTreeConfig, Stage};
use hxtopo::faults::{FaultCount, FaultPlan};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{LinkClass, LinkId, Topology};
use proptest::prelude::*;

fn hyperx_engines() -> Vec<Box<dyn RoutingEngine>> {
    vec![
        Box::new(MinHop::default()),
        Box::new(Sssp::default()),
        Box::new(Dfsssp::default()),
        Box::new(UpDown::default()),
        Box::new(Lash::default()),
        Box::new(Parx::default()),
        Box::new(FtHyperX::default()),
        Box::new(FatPaths::default()),
    ]
}

fn fattree_engines() -> Vec<Box<dyn RoutingEngine>> {
    vec![
        Box::new(Ftree),
        Box::new(Sssp::default()),
        Box::new(UpDown::default()),
        Box::new(FatPaths::default()),
    ]
}

/// The 8-leaf staged Clos from `T2hx::mini`.
fn mini_fattree() -> Topology {
    FatTreeConfig {
        name: "fat-tree-mini".into(),
        nodes_per_leaf: 4,
        total_nodes: 32,
        stages: vec![
            Stage {
                count: 8,
                uplinks: 6,
            },
            Stage {
                count: 6,
                uplinks: 4,
            },
            Stage {
                count: 4,
                uplinks: 0,
            },
        ],
    }
    .staged()
}

fn active_isls(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|&(id, l)| l.class != LinkClass::Terminal && topo.is_active(id))
        .map(|(id, _)| id)
        .collect()
}

/// Drives a randomized fault sequence through the subnet manager and checks
/// after every failure that the (usually incrementally patched) PathDb is
/// bit-identical to a from-scratch extraction of the live forwarding state.
fn check_fault_sequence(
    topo: &Topology,
    engine: Box<dyn RoutingEngine>,
    kills: &[usize],
) -> Result<(), TestCaseError> {
    let name = engine.name();
    let mut sm = SubnetManager::new(topo.clone(), engine);
    sm.verify = false;
    sm.sweep().unwrap();
    let all_pairs = sm.pathdb().unwrap().stats().pairs;
    for &k in kills {
        let candidates = active_isls(sm.topo());
        if candidates.is_empty() {
            break;
        }
        let victim = candidates[k % candidates.len()];
        // A disconnecting failure rolls back; both outcomes must leave the
        // store equal to a from-scratch rebuild of the live routes.
        let outcome = sm.fail_link(victim);
        let db = sm.pathdb().unwrap();
        let rebuilt = PathDb::build(sm.topo(), sm.routes().unwrap(), db.epoch(), 1)
            .map_err(|e| TestCaseError::Fail(format!("{name}: rebuild failed: {e}")))?;
        prop_assert!(
            db.content_eq(&rebuilt),
            "{name}: patched store diverges from from-scratch rebuild after killing {victim}"
        );
        prop_assert_eq!(db.epoch(), sm.epoch(), "{} epoch stamp", name);
        if let Ok(report) = outcome {
            prop_assert_eq!(report.paths.pairs, all_pairs, "{} lost pairs", name);
        }
    }
    Ok(())
}

fn inactive_isls(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|&(id, l)| l.class != LinkClass::Terminal && !topo.is_active(id))
        .map(|(id, _)| id)
        .collect()
}

/// Drives a randomized fail/recover interleaving through the subnet manager
/// and checks after every event that the patched PathDb is bit-identical to
/// a from-scratch extraction of the live forwarding state. Each op is a
/// `(selector, index)` pair: even selectors fail an active ISL, odd ones
/// recover a downed ISL (degrading to a failure while none is down).
fn check_churn_sequence(
    topo: &Topology,
    engine: Box<dyn RoutingEngine>,
    ops: &[(u8, usize)],
) -> Result<(), TestCaseError> {
    let name = engine.name();
    let mut sm = SubnetManager::new(topo.clone(), engine);
    sm.verify = false;
    sm.sweep().unwrap();
    for &(sel, k) in ops {
        let down = inactive_isls(sm.topo());
        let recover = sel % 2 == 1 && !down.is_empty();
        let outcome = if recover {
            sm.recover_link(down[k % down.len()])
        } else {
            let up = active_isls(sm.topo());
            if up.is_empty() {
                break;
            }
            sm.fail_link(up[k % up.len()])
        };
        let db = sm.pathdb().unwrap();
        let rebuilt = PathDb::build(sm.topo(), sm.routes().unwrap(), db.epoch(), 1)
            .map_err(|e| TestCaseError::Fail(format!("{name}: rebuild failed: {e}")))?;
        prop_assert!(
            db.content_eq(&rebuilt),
            "{name}: store diverges from rebuild after {} (outcome {:?})",
            if recover { "recover" } else { "fail" },
            outcome.map(|r| r.incremental)
        );
        prop_assert_eq!(db.epoch(), sm.epoch(), "{} epoch stamp", name);
    }
    // Recover everything still down: the fabric must return to full health
    // and the store must still match a clean extraction.
    for l in inactive_isls(sm.topo()) {
        sm.recover_link(l)
            .map_err(|e| TestCaseError::Fail(format!("{name}: final recover failed: {e}")))?;
    }
    let db = sm.pathdb().unwrap();
    let rebuilt = PathDb::build(sm.topo(), sm.routes().unwrap(), db.epoch(), 1)
        .map_err(|e| TestCaseError::Fail(format!("{name}: healed rebuild failed: {e}")))?;
    prop_assert!(db.content_eq(&rebuilt), "{name}: healed store diverges");
    Ok(())
}

/// Reference for [`PathDb::stats`]: one count per (source node,
/// destination LID) pair, read through [`PathDb::node_path`] (terminal
/// hops included, self-sends empty, unowned LIDs `None`).
fn stats_oracle(topo: &Topology, db: &PathDb) -> PathStats {
    let (mut pairs, mut sum, mut max) = (0usize, 0u64, 0usize);
    let mut hist = vec![0usize; 8];
    for src in topo.nodes() {
        for lid in 0..db.lid_space() as Lid {
            let Some(path) = db.node_path(src, lid) else {
                continue;
            };
            if path.is_empty() {
                continue;
            }
            let h = path.len() - 2;
            pairs += 1;
            sum += h as u64;
            max = max.max(h);
            if h >= hist.len() {
                hist.resize(h + 1, 0);
            }
            hist[h] += 1;
        }
    }
    PathStats {
        pairs,
        max_isl_hops: max,
        avg_isl_hops: if pairs == 0 {
            0.0
        } else {
            sum as f64 / pairs as f64
        },
        hist,
    }
}

/// `topo` with `faults` random ISLs removed (seeded).
fn faulted(mut topo: Topology, faults: usize, seed: u64) -> Topology {
    FaultPlan {
        count: FaultCount::Absolute(faults),
        class: None,
        seed,
    }
    .apply(&mut topo);
    topo
}

/// Checks `stats()` against the oracle on a fresh sweep of `topo`. A
/// fault set that leaves the engine no route is skipped.
fn check_stats(topo: &Topology, engine: &dyn RoutingEngine) -> Result<(), TestCaseError> {
    let Ok(routes) = engine.route(topo) else {
        return Ok(());
    };
    let Ok(db) = PathDb::build(topo, &routes, 1, 1) else {
        return Ok(());
    };
    prop_assert_eq!(db.stats(), stats_oracle(topo, &db), "{}", engine.name());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `stats()` equals the per-pair oracle on faulted HyperX (MinHop,
    /// DFSSSP), on PARX's LMC > 0 LID space (unowned LIDs), and on the
    /// degraded fat-tree (switches without nodes).
    #[test]
    fn stats_match_per_pair_oracle(
        shape in 0usize..4,
        faults in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let spec = ["4x4:t2", "4x3:t1", "3x2x2:t2", "4x4:t3"][shape];
        let hx = faulted(HyperXConfig::parse_spec(spec).unwrap().build(), faults, seed);
        check_stats(&hx, &MinHop::default())?;
        check_stats(&hx, &Dfsssp::default())?;
        let even = faulted(HyperXConfig::new(vec![4, 4], 2).build(), faults, seed);
        check_stats(&even, &Parx::default())?;
        let ft = faulted(mini_fattree(), faults, seed);
        check_stats(&ft, &Sssp::default())?;
    }

    /// `stats()` equals the oracle on every store `patched` returns along
    /// a random fail/recover sequence.
    #[test]
    fn patched_stats_match_per_pair_oracle(
        ops in proptest::collection::vec((0u8..=255, 0usize..10_000), 1..8),
    ) {
        let engines: [Box<dyn RoutingEngine>; 3] = [
            Box::new(MinHop::default()),
            Box::new(FtHyperX::default()),
            Box::new(Parx::default()),
        ];
        for engine in engines {
            let mut sm = SubnetManager::new(HyperXConfig::new(vec![4, 4], 2).build(), engine);
            sm.verify = false;
            sm.sweep().unwrap();
            for &(sel, k) in &ops {
                let down = inactive_isls(sm.topo());
                let report = if sel % 2 == 1 && !down.is_empty() {
                    sm.recover_link(down[k % down.len()])
                } else {
                    let up = active_isls(sm.topo());
                    sm.fail_link(up[k % up.len()])
                };
                let db = sm.pathdb().unwrap();
                let oracle = stats_oracle(sm.topo(), db);
                prop_assert_eq!(&db.stats(), &oracle);
                if let Ok(r) = report {
                    prop_assert_eq!(r.paths, oracle);
                }
            }
        }
    }

    /// Incremental patching equals a from-scratch resweep extraction on
    /// HyperX planes, for every engine and any ISL fault sequence.
    #[test]
    fn hyperx_incremental_matches_rebuild(
        t in 1u32..3,
        kills in proptest::collection::vec(0usize..10_000, 1..4),
    ) {
        let topo = HyperXConfig::new(vec![4, 4], t).build();
        for engine in hyperx_engines() {
            check_fault_sequence(&topo, engine, &kills)?;
        }
    }

    /// Same property on the staged-Clos Fat-Tree plane.
    #[test]
    fn fattree_incremental_matches_rebuild(
        kills in proptest::collection::vec(0usize..10_000, 1..4),
    ) {
        let topo = mini_fattree();
        for engine in fattree_engines() {
            check_fault_sequence(&topo, engine, &kills)?;
        }
    }

    /// Fail/recover churn equals a from-scratch resweep extraction on
    /// HyperX planes, for every engine and any interleaving.
    #[test]
    fn hyperx_churn_matches_rebuild(
        t in 1u32..3,
        ops in proptest::collection::vec((0u8..=255, 0usize..10_000), 2..6),
    ) {
        let topo = HyperXConfig::new(vec![4, 4], t).build();
        for engine in hyperx_engines() {
            check_churn_sequence(&topo, engine, &ops)?;
        }
    }

    /// Same churn property on the staged-Clos Fat-Tree plane.
    #[test]
    fn fattree_churn_matches_rebuild(
        ops in proptest::collection::vec((0u8..=255, 0usize..10_000), 2..6),
    ) {
        let topo = mini_fattree();
        for engine in fattree_engines() {
            check_churn_sequence(&topo, engine, &ops)?;
        }
    }

    /// The chunked `std::thread::scope` build is byte-identical to the
    /// sequential build — thread interleaving must never leak into results.
    #[test]
    fn parallel_build_is_deterministic(
        t in 1u32..3,
        threads in 2usize..9,
    ) {
        let topo = HyperXConfig::new(vec![4, 4], t).build();
        for engine in hyperx_engines() {
            let routes = engine.route(&topo).unwrap();
            let seq = PathDb::build(&topo, &routes, 5, 1).unwrap();
            let par = PathDb::build(&topo, &routes, 5, threads).unwrap();
            // Full structural equality, epoch stamp included.
            prop_assert_eq!(&seq, &par, "{} threads={}", engine.name(), threads);
        }
        let ft = mini_fattree();
        let routes = Ftree.route(&ft).unwrap();
        let seq = PathDb::build(&ft, &routes, 5, 1).unwrap();
        let par = PathDb::build(&ft, &routes, 5, threads).unwrap();
        prop_assert_eq!(&seq, &par, "ftree threads={}", threads);
    }
}

/// Deeper sequential fault drill on one engine: keep killing cables until
/// the fabric disconnects, checking equivalence at every step.
#[test]
fn fault_drill_until_disconnection() {
    let topo = HyperXConfig::new(vec![3, 3], 1).build();
    let mut sm = SubnetManager::new(topo, Box::new(Sssp::default()));
    sm.verify = false;
    sm.sweep().unwrap();
    let mut killed = 0;
    loop {
        let candidates = active_isls(sm.topo());
        let Some(&victim) = candidates.first() else {
            break;
        };
        let ok = sm.fail_link(victim).is_ok();
        let db = sm.pathdb().unwrap();
        let rebuilt = PathDb::build(sm.topo(), sm.routes().unwrap(), db.epoch(), 1).unwrap();
        assert!(db.content_eq(&rebuilt), "diverged after {killed} kills");
        if !ok {
            // Disconnection detected and rolled back; the drill is over.
            assert!(sm.topo().is_active(victim));
            break;
        }
        killed += 1;
        assert!(killed < 1000, "drill failed to terminate");
    }
    assert!(killed >= 1, "drill must kill at least one cable");
}
