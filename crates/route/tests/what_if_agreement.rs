//! A speculation is the real repair: for every engine, shape, `verify`
//! setting and inter-switch cable, `FabricSnapshot::what_if_fail` answers
//! what `fail_link` installs on a clone of the manager that took the
//! snapshot — the same path statistics, virtual lanes and ladder rung, or
//! a disconnection exactly where the real failure is refused.

use hxobs::SpanCtx;
use hxroute::engines::{engine_by_name, Sssp, ENGINE_NAMES};
use hxroute::{Rung, SubnetManager};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{LinkClass, LinkId, Topology};

fn isls(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|&(id, l)| l.class != LinkClass::Terminal && topo.is_active(id))
        .map(|(id, _)| id)
        .collect()
}

/// Asserts that speculating on every ISL of `sm`'s current epoch agrees
/// with failing it on a clone; returns the rung of each live repair.
fn assert_agreement(sm: &SubnetManager, case: &str) -> Vec<Option<Rung>> {
    let snap = sm.snapshot().unwrap();
    let mut rungs = Vec::new();
    for l in isls(sm.topo()) {
        let w = snap.what_if_fail(l, SpanCtx::none()).unwrap();
        assert_eq!(&w.before, snap.stats(), "{case} {l:?}: before");
        let crossing = snap.pathdb().affected_by(l).len();
        assert_eq!(w.affected_trees, crossing, "{case} {l:?}: affected trees");
        match sm.clone().fail_link(l) {
            Ok(live) => {
                assert!(!w.disconnects, "{case} {l:?}: live repair succeeded");
                assert_eq!(w.after.as_ref(), Some(&live.paths), "{case} {l:?}: stats");
                assert_eq!(w.vls, live.vls, "{case} {l:?}: VLs");
                assert_eq!(w.rung, live.rung, "{case} {l:?}: rung");
                assert_eq!(
                    live.incremental,
                    live.rung != Some(Rung::Resweep),
                    "{case} {l:?}: incremental flag"
                );
                rungs.push(live.rung);
            }
            Err(e) => {
                assert!(w.disconnects, "{case} {l:?}: live repair failed: {e}");
                assert_eq!(w.after, None, "{case} {l:?}");
                assert_eq!(w.rung, None, "{case} {l:?}");
                rungs.push(None);
            }
        }
    }
    rungs
}

/// Runs the agreement over every engine and `verify` setting on one
/// `dims`:t2 HyperX; returns the rungs the live repairs took.
fn assert_agreement_on(dims: &[u32]) -> Vec<Option<Rung>> {
    let topo = HyperXConfig::new(dims.to_vec(), 2).build();
    let cables = isls(&topo).len();
    let mut rungs = Vec::new();
    for name in ENGINE_NAMES {
        for verify in [true, false] {
            let mut sm = SubnetManager::new(topo.clone(), engine_by_name(name).unwrap());
            sm.verify = verify;
            // The checker refuses some engines' bring-up outright (SSSP's
            // cyclic HyperX tables): nothing to speculate on.
            if sm.sweep().is_err() {
                assert!(verify, "{name} {dims:?}: bring-up without the check");
                continue;
            }
            let case = format!("{name} {dims:?}:t2 verify={verify}");
            rungs.extend(assert_agreement(&sm, &case));
        }
    }
    // Every engine ran both settings but SSSP with the check.
    assert_eq!(rungs.len(), (2 * ENGINE_NAMES.len() - 1) * cables);
    rungs
}

#[test]
fn what_if_fail_matches_fail_link_on_4x4() {
    let rungs = assert_agreement_on(&[4, 4]);
    // The speculation climbed every rung of the ladder.
    for rung in [Rung::Engine, Rung::Generic, Rung::Resweep] {
        assert!(rungs.contains(&Some(rung)), "no {rung:?} repair");
    }
}

#[test]
fn what_if_fail_matches_fail_link_on_6x4() {
    assert_agreement_on(&[6, 4]);
}

#[test]
fn what_if_fail_reports_the_disconnection_fail_link_refuses() {
    // 1-D HyperX of 2 switches: the only ISL is a cut edge.
    let topo = HyperXConfig::new(vec![2], 2).build();
    for verify in [true, false] {
        let mut sm = SubnetManager::new(topo.clone(), Box::new(Sssp::default()));
        sm.verify = verify;
        sm.sweep().unwrap();
        let rungs = assert_agreement(&sm, &format!("cut edge verify={verify}"));
        assert_eq!(rungs, [None]);
        let l = isls(&topo)[0];
        assert!(
            sm.snapshot()
                .unwrap()
                .what_if_fail(l, SpanCtx::none())
                .unwrap()
                .disconnects
        );
    }
}
