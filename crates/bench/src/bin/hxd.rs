//! hxd — the resident fabric-management daemon, exercised as a harness.
//!
//! The paper's subnet manager is a long-lived process: cables die and get
//! swapped while jobs keep launching, and operators keep asking questions
//! the whole time. This harness runs that life in miniature: one writer
//! thread churns seeded fail/recover events through the live
//! [`hxroute::SubnetManager`], publishing every epoch into a
//! [`hxcore::FabricService`], while reader threads hammer
//! the read side with a seeded mix of queries — `resolve` (how do two
//! ranks reach each other right now), `what-if` (does losing this cable
//! disconnect us, and at what path cost), `place` (quadrant-aware slice
//! for a k-rank job) and `stats` — each answered against a consistent
//! pinned epoch snapshot, never a torn one, and never by panicking.
//!
//! Two phases keep the run honest about determinism:
//!
//! 1. **Concurrent phase** — readers race the churn loop; throughput,
//!    latency and cache behaviour are reported but *not* fingerprinted
//!    (which epoch a query pins is a race by design).
//! 2. **Replay phase** — the same seeded query streams are replayed
//!    single-threaded against a freshly built fabric taken through a fixed
//!    churn schedule. The folded answer fingerprint is byte-stable per
//!    `(seed, plane, engine, readers, queries)` and is what CI may diff.
//!
//! Knobs: `T2HX_HXD_READERS` (default 4), `T2HX_HXD_QUERIES` (total across
//! readers; default 400 quick / 2000 full), `T2HX_HXD_SEED` (default
//! `0x4878`), plus the usual `T2HX_QUICK` / `T2HX_ENGINE` / `T2HX_OBS`.

use hxbench::knobs;
use hxcore::{FabricService, Query, QueryError};
use hxroute::engines::Dfsssp;
use hxroute::SubnetManager;
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{fnv1a, FaultPlan, LinkClass, LinkId, Topology, FNV_OFFSET};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Stream-splitting xor for per-reader query RNGs, keeping them
/// independent of each other and of the campaign's WORK/FAULT streams.
const QUERY_STREAM: u64 = 0x5155_4552_5953_5452; // "QUERYSTR"

/// Cables the churn loop cycles through per round.
const CHURN_VICTIMS: usize = 6;

/// The served plane: the paper's degraded 12x8 T=7 HyperX in full mode, a
/// 6x4 T=2 miniature under `T2HX_QUICK=1`.
fn plane(quick: bool) -> (Topology, &'static str) {
    if quick {
        (HyperXConfig::new(vec![6, 4], 2).build(), "hx-6x4-t2")
    } else {
        let mut topo = HyperXConfig::t2_hyperx(672).build();
        FaultPlan::t2_hyperx().apply(&mut topo);
        (topo, "hx-12x8-t7+15aoc")
    }
}

/// Draws the next query of a reader's seeded stream: ~70% resolve, 15%
/// place, 10% stats, 5% what-if — the read-mostly profile of an operator
/// console backed by a launch scheduler.
fn draw_query(rng: &mut ChaCha8Rng, num_nodes: u32, num_links: u32) -> Query {
    match rng.gen_range(0..100u32) {
        0..=69 => {
            let src = rng.gen_range(0..num_nodes);
            let mut dst = rng.gen_range(0..num_nodes - 1);
            if dst >= src {
                dst += 1;
            }
            Query::Resolve { src, dst }
        }
        70..=84 => Query::Place {
            ranks: rng.gen_range(2..=num_nodes / 4),
            policy: hxcap::POLICY_KINDS[rng.gen_range(0..hxcap::POLICY_KINDS.len())],
        },
        85..=94 => Query::Stats,
        _ => Query::WhatIfFail {
            link: rng.gen_range(0..num_links),
        },
    }
}

/// Per-reader tallies from the concurrent phase.
#[derive(Default)]
struct ReaderStats {
    answered: [u64; 4],
    errors: u64,
    max_epoch: u64,
}

fn kind_index(q: &Query) -> usize {
    match q {
        Query::Resolve { .. } => 0,
        Query::Place { .. } => 1,
        Query::Stats => 2,
        Query::WhatIfFail { .. } => 3,
    }
}

/// Runs one reader's seeded query stream against the live service. Every
/// query is answered under a `serve` root span on the hxd obs track; a
/// routing-layer refusal (the retryable sweep race) counts as an error
/// tally, never a panic.
fn serve(
    svc: &FabricService,
    seed: u64,
    reader: u64,
    count: u64,
    n: u32,
    links: u32,
) -> ReaderStats {
    let mut rng = ChaCha8Rng::seed_from_u64(
        seed ^ QUERY_STREAM ^ (reader.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    );
    let mut r = svc.reader();
    let mut root = hxobs::Span::root(hxobs::track::HXD, r.id(), "serve", "hxd");
    root.arg("reader", hxobs::Json::from(reader));
    let mut stats = ReaderStats::default();
    for _ in 0..count {
        let q = draw_query(&mut rng, n, links);
        match r.query_spanned(&q, root.ctx()) {
            Ok(a) => {
                stats.answered[kind_index(&q)] += 1;
                stats.max_epoch = stats.max_epoch.max(a.epoch());
            }
            Err(QueryError::Route(_)) => stats.errors += 1,
            Err(QueryError::BadQuery(m)) => panic!("malformed generated query: {m}"),
            Err(QueryError::Place(e)) => panic!("malformed generated placement: {e}"),
        }
    }
    root.end();
    stats
}

/// Fixed churn schedule for the deterministic replay: every victim fails
/// and recovers once, so the final epoch is a pure function of the plane.
fn churn_once(sm: &mut SubnetManager, victims: &[LinkId]) -> (u64, u64) {
    let (mut fails, mut recovers) = (0, 0);
    for &v in victims {
        if sm.fail_link(v).is_ok() {
            fails += 1;
            sm.recover_link(v)
                .expect("recovering a cable this run failed");
            recovers += 1;
        }
    }
    (fails, recovers)
}

fn main() {
    let _obs = hxbench::obs_scope("hxd");
    let knobs = knobs::config();
    let (topo, scale) = plane(knobs.quick);
    let engine = knobs.engine_or(|| Box::new(Dfsssp::default()));
    let engine_name = engine.name();
    let readers = knobs.hxd_readers.unwrap_or(4);
    let queries = knobs
        .hxd_queries
        .unwrap_or(if knobs.quick { 400 } else { 2000 });
    let seed = knobs.hxd_seed.unwrap_or(0x4878);
    let n = topo.num_nodes() as u32;
    let num_links = topo.num_links() as u32;

    let mut sm = SubnetManager::new(topo, engine);
    sm.verify = false;
    sm.incremental = true;
    let t0 = Instant::now();
    sm.sweep().expect("bring-up sweep");
    let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
    // The replay phase starts from this fresh epoch.
    let mut replay_sm = sm.clone();
    let victims: Vec<LinkId> = sm
        .topo()
        .links()
        .filter(|&(id, l)| l.class != LinkClass::Terminal && sm.topo().is_active(id))
        .map(|(id, _)| id)
        .take(CHURN_VICTIMS)
        .collect();

    println!(
        "# hxd: {scale} ({n} nodes), engine {engine_name}, {readers} readers x \
         {} queries, seed {seed:#x} (swept in {sweep_ms:.0} ms)\n",
        queries / readers,
    );

    // Concurrent phase: readers race the churn writer. The writer owns the
    // manager; readers only ever see published Arc snapshots.
    let svc = FabricService::from_manager(&sm).expect("swept manager snapshots");
    let done = AtomicU32::new(0);
    let t1 = Instant::now();
    let (stats, churn_events) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let svc = &svc;
                let done = &done;
                let count = queries / readers + u64::from(r < queries % readers);
                s.spawn(move || {
                    let st = serve(svc, seed, r, count, n, num_links);
                    done.fetch_add(1, Ordering::Release);
                    st
                })
            })
            .collect();
        // The churn loop: cycle fail/recover over the victim cables,
        // publishing every epoch, until the last reader drains. At least
        // one full round runs even if the readers finish first, so every
        // run really does serve "during churn".
        let mut events = 0u64;
        loop {
            for &v in &victims {
                if sm.fail_link(v).is_ok() {
                    svc.publish_from(&sm).expect("publish failed epoch");
                    sm.recover_link(v).expect("recover churned cable");
                    svc.publish_from(&sm).expect("publish recovered epoch");
                    events += 2;
                }
            }
            if done.load(Ordering::Acquire) as u64 == readers {
                break;
            }
        }
        let stats: Vec<ReaderStats> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        (stats, events)
    });
    let wall = t1.elapsed().as_secs_f64();

    let answered: u64 = stats.iter().map(|s| s.answered.iter().sum::<u64>()).sum();
    let errors: u64 = stats.iter().map(|s| s.errors).sum();
    let by_kind: [u64; 4] = std::array::from_fn(|k| stats.iter().map(|s| s.answered[k]).sum());
    let (hits, misses) = svc.cache_stats();
    assert_eq!(answered + errors, queries, "every query accounted for");
    assert_eq!(errors, 0, "a published service never refuses a valid query");

    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10}",
        "concurrent phase", "resolve", "place", "stats", "what-if"
    );
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10}",
        "  answered", by_kind[0], by_kind[1], by_kind[2], by_kind[3]
    );
    println!(
        "  {answered} queries in {:.1} ms during {churn_events} churn events \
         ({} epochs published) -> {:.0} queries/s",
        wall * 1e3,
        svc.published(),
        answered as f64 / wall,
    );
    println!(
        "  cache: {hits} hits / {misses} misses ({:.1}% hit rate), final epoch {}",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
        svc.epoch(),
    );

    // Replay phase: the fresh fabric, a fixed churn schedule, and the same
    // query streams replayed single-threaded. This fingerprint is the
    // determinism contract — identical across runs for one seed.
    let (fails, recovers) = churn_once(&mut replay_sm, &victims);
    let replay_svc = FabricService::from_manager(&replay_sm).expect("replay snapshot");
    let mut fp = FNV_OFFSET;
    let mut fold = |v: u64| fp = fnv1a(fp, &v.to_le_bytes());
    let mut replayed = 0u64;
    {
        let mut root = hxobs::Span::root(hxobs::track::HXD, readers as u32, "serve", "hxd");
        root.arg("reader", hxobs::Json::from("replay"));
        let mut r = replay_svc.reader();
        for reader in 0..readers {
            let mut rng = ChaCha8Rng::seed_from_u64(
                seed ^ QUERY_STREAM ^ (reader.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            );
            let count = queries / readers + u64::from(reader < queries % readers);
            for _ in 0..count {
                let q = draw_query(&mut rng, n, num_links);
                let a = r
                    .query_spanned(&q, root.ctx())
                    .expect("replay on a healed fabric answers everything");
                fold(a.fingerprint());
                replayed += 1;
            }
        }
        root.end();
    }
    println!(
        "\nreplay: {replayed} queries on epoch {} ({fails} fails / {recovers} recovers \
         over {} victims), fingerprint {fp:016x}",
        replay_svc.epoch(),
        victims.len(),
    );
    println!("\nfingerprint is byte-stable per (seed, plane, engine, readers, queries);");
    println!("concurrent-phase numbers race churn by design and are reported only.");
}
