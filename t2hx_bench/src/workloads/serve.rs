//! `serve`: the read side of the same routing state. A `FabricService`
//! over the degraded 12x8 HyperX (DFSSSP) answers the seeded hxd mix of
//! queries from one closed-loop client, while a writer fails or recovers
//! one of six cables and publishes the new epoch every 5 ms.
//!
//! Unit operation: a burst of [`BURST`] `ServiceReader::query` calls that
//! holds the mix in its exact proportions, in a seeded order. Timing
//! single queries read mostly the clock: the median query is a cached
//! resolve of under 200 ns, and across identical runs its median moved by
//! a quarter. Drawing each query's kind independently would make a
//! burst's time follow how many what-if queries, each about 2 ms, it
//! happened to hold. The client loop is closed because callers block on
//! the answer.
//!
//! The writer keeps an open-loop schedule on the same thread, between
//! queries, and reports how late it ran: with the writer on a second
//! thread of a two-core host, the median query time moved by a quarter
//! between identical runs. The writer's ticks are left out of every
//! burst's time, so the metrics measure the read side alone: what a
//! publish does to reads (a flushed reader cache, a pin on the new epoch)
//! stays in, the patching time does not.
//! Reads and publishes never overlap in time, so the service's concurrent
//! path (a reader pinning while another thread publishes) is not timed.

use super::churn::{disconnects, healthy_isls, swept};
use crate::harness::{Check, Finish, Harness, Live, Size};
use crate::stats::{percentile, sorted, Fnv};
use crate::trace::Tracer;
use hxcore::{Answer, FabricService, Query, ServiceReader};
use hxobs::Json;
use hxroute::{FabricSnapshot, SubnetManager};
use hxtopo::LinkId;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Query stream split off the seed.
const QUERY_STREAM: u64 = 0x5155_4552_5953_5452;

/// Cables the writer cycles through: the plane's first healthy ones, as in
/// hxd, so the writer's cost does not follow the seed.
const VICTIMS: usize = 6;

/// Writer period.
const TICK: Duration = Duration::from_millis(5);

#[derive(Debug, Clone)]
struct Config {
    warmup: usize,
    replay: usize,
}

impl Config {
    fn of(size: Size) -> Config {
        match size {
            Size::Full => Config {
                warmup: 2_000,
                replay: 5_000,
            },
            Size::Mini => Config {
                warmup: 50,
                replay: 200,
            },
        }
    }
}

/// Queries per burst; each burst deals every query kind of [`draw_query`]
/// once.
const BURST: u32 = 100;

/// The hxd query mix by `kind` in `0..BURST`: 70 resolves, 15 places (all
/// three policies), 10 stats, 5 what-ifs.
fn draw_query(kind: u32, rng: &mut ChaCha8Rng, num_nodes: u32, num_links: u32) -> Query {
    match kind {
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

struct Reader<'a> {
    reader: ServiceReader<'a>,
    rng: ChaCha8Rng,
    /// Query kinds left in the current burst.
    deck: Vec<u32>,
    nodes: u32,
    links: u32,
    last_epoch: u64,
    queries: u64,
    failed: u64,
    stale: u64,
    errors: Vec<String>,
}

impl<'a> Reader<'a> {
    /// A client of `svc` drawing the seeded query stream.
    fn new(svc: &'a FabricService, seed: u64, snap: &FabricSnapshot) -> Reader<'a> {
        Reader {
            reader: svc.reader(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ QUERY_STREAM),
            deck: Vec::new(),
            nodes: snap.topo().num_nodes() as u32,
            links: snap.topo().num_links() as u32,
            last_epoch: 0,
            queries: 0,
            failed: 0,
            stale: 0,
            errors: Vec::new(),
        }
    }

    fn ask(&mut self, tr: &mut Tracer) -> Option<Answer> {
        if self.deck.is_empty() {
            self.deck.extend(0..BURST);
            self.deck.shuffle(&mut self.rng);
        }
        let kind = self.deck.pop().expect("deck refilled");
        let q = draw_query(kind, &mut self.rng, self.nodes, self.links);
        let name = match q {
            Query::Resolve { .. } => "hxcore.query.resolve",
            Query::Place { .. } => "hxcore.query.place",
            Query::Stats => "hxcore.query.stats",
            Query::WhatIfFail { .. } => "hxcore.query.what-if",
        };
        let res = tr.span(name, "hxcore", |_| self.reader.query(&q));
        self.queries += 1;
        match res {
            Ok(a) => {
                // A reader's pin only moves forward.
                self.stale += u64::from(a.epoch() < self.last_epoch);
                self.last_epoch = a.epoch();
                Some(a)
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{q:?}: {e}"));
                None
            }
        }
    }
}

/// The open-loop writer and what it did.
struct Writer {
    sm: SubnetManager,
    victims: Vec<LinkId>,
    down: Option<LinkId>,
    next: usize,
    start: Option<Instant>,
    ticks: u64,
    /// Seconds spent in ticks.
    busy_s: f64,
    fails: u64,
    recovers: u64,
    rollbacks: u64,
    trees_patched: u64,
    incremental: u64,
    failed: u64,
    late_s: Vec<f64>,
    errors: Vec<String>,
}

impl Writer {
    /// Runs the next tick if it has fallen due: fail the next victim, or
    /// recover the one down, and publish the epoch. One tick at most, so a
    /// writer that falls behind shows as lateness instead of starving the
    /// client.
    fn catch_up(&mut self, svc: &FabricService, tr: &mut Tracer) {
        let now = Instant::now();
        let start = *self.start.get_or_insert(now);
        let due = start + TICK * self.ticks as u32;
        if now < due {
            return;
        }
        self.late_s.push((now - due).as_secs_f64());
        self.ticks += 1;
        self.tick(svc, tr);
        self.busy_s += now.elapsed().as_secs_f64();
    }

    /// One tick's event and publish.
    fn tick(&mut self, svc: &FabricService, tr: &mut Tracer) {
        let sm = &mut self.sm;
        let res = match self.down {
            Some(l) => {
                let r = tr.span("hxroute.recover_link", "hxroute", |_| sm.recover_link(l));
                if r.is_ok() {
                    self.recovers += 1;
                    self.down = None;
                }
                r
            }
            None => {
                let v = self.victims[self.next % self.victims.len()];
                self.next += 1;
                match tr.span("hxroute.fail_link", "hxroute", |_| sm.fail_link(v)) {
                    Ok(r) => {
                        self.fails += 1;
                        self.down = Some(v);
                        Ok(r)
                    }
                    // A disconnecting kill rolls back; nothing to publish.
                    Err(_) if disconnects(sm.topo(), v) => {
                        self.rollbacks += 1;
                        return;
                    }
                    Err(e) => Err(e),
                }
            }
        };
        let res = res.and_then(|r| {
            self.trees_patched += r.patched_trees as u64;
            self.incremental += u64::from(r.incremental);
            tr.span("hxcore.publish", "hxcore", |_| svc.publish_from(sm))
        });
        if let Err(e) = res {
            self.failed += 1;
            self.errors.push(e.to_string());
        }
    }
}

struct Serve<'a> {
    svc: &'a FabricService,
    client: Reader<'a>,
    writer: Writer,
}

impl Live for Serve<'_> {
    fn min_ops(&self) -> u64 {
        0
    }

    /// A run completes one to two thousand bursts, so a p99 would rest on
    /// a dozen samples, and a slow hour would drop it to a p90.
    fn tail_top(&self) -> f64 {
        90.0
    }

    /// One burst; its time leaves out the writer's ticks within it.
    fn op(&mut self, tr: &mut Tracer) -> f64 {
        let busy0 = self.writer.busy_s;
        let t0 = Instant::now();
        for _ in 0..BURST {
            self.writer.catch_up(self.svc, tr);
            self.client.ask(tr);
        }
        t0.elapsed().as_secs_f64() - (self.writer.busy_s - busy0)
    }

    fn background_s(&self) -> f64 {
        self.writer.busy_s
    }
}

pub fn run(h: &mut Harness) -> Finish {
    let cfg = Config::of(h.plan.size);
    loop {
        let last = h.setup_begin();
        let sm = swept(&mut h.tr, h.plan.size).expect("bring-up sweep of the served plane");
        let victims: Vec<LinkId> = healthy_isls(sm.topo()).into_iter().take(VICTIMS).collect();
        let snap = sm.snapshot().expect("swept manager snapshots");
        let svc = FabricService::new(snap.clone());
        let mut client = Reader::new(&svc, h.plan.seed, &snap);
        // Warm-up on the initial epoch; its answers must match the replay.
        let warm: Vec<u64> = (0..cfg.warmup)
            .map(|_| client.ask(&mut h.tr).map_or(0, |a| a.fingerprint()))
            .collect();
        h.setup_end();
        if !last {
            continue;
        }
        let mut s = Serve {
            svc: &svc,
            client,
            writer: Writer {
                sm,
                victims,
                down: None,
                next: 0,
                start: None,
                ticks: 0,
                busy_s: 0.0,
                fails: 0,
                recovers: 0,
                rollbacks: 0,
                trees_patched: 0,
                incremental: 0,
                failed: 0,
                late_s: Vec::new(),
                errors: Vec::new(),
            },
        };
        h.measure(&mut s);
        return finish(h, &cfg, s, snap, &warm);
    }
}

fn finish(
    h: &mut Harness,
    cfg: &Config,
    s: Serve<'_>,
    snap: FabricSnapshot,
    warm: &[u64],
) -> Finish {
    let (r, w) = (s.client, s.writer);
    let (hits, misses) = s.svc.cache_stats();
    // Replay of the stream's first queries on the initial epoch: the
    // fingerprint.
    let replay_svc = FabricService::new(snap.clone());
    let mut replay = Reader::new(&replay_svc, h.plan.seed, &snap);
    let mut fp = Fnv::default();
    let mut warm_mismatch = 0u64;
    for i in 0..cfg.replay {
        let a = replay.ask(&mut h.tr).map_or(0, |a| a.fingerprint());
        fp.eat(a);
        warm_mismatch += u64::from(warm.get(i).is_some_and(|&x| x != a));
    }
    let mut values = BTreeMap::new();
    values.insert(
        "hxcore.cache_hit_ratio".to_string(),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    if !w.late_s.is_empty() {
        values.insert(
            "serve.writer_late_ms".to_string(),
            percentile(&sorted(&w.late_s), 99.0) * 1e3,
        );
    }
    let events = (w.fails + w.recovers).max(1) as f64;
    values.insert(
        "hxroute.trees_patched_mean".to_string(),
        w.trees_patched as f64 / events,
    );
    values.insert(
        "hxroute.incremental_ratio".to_string(),
        w.incremental as f64 / events,
    );
    let checks = vec![
        Check::new(
            "every query answered",
            r.failed + replay.failed == 0,
            r.errors
                .iter()
                .chain(&replay.errors)
                .take(5)
                .cloned()
                .collect::<Vec<_>>()
                .join("; "),
        ),
        Check::new(
            "reader pins never move backwards",
            r.stale == 0,
            format!("{} stale answers", r.stale),
        ),
        Check::new(
            "warm-up answers equal the replay's on the same epoch",
            warm_mismatch == 0,
            format!("{warm_mismatch} of {} differ", warm.len()),
        ),
        Check::new(
            "every writer event applied and published",
            w.failed == 0 && w.fails + w.recovers > 0,
            format!(
                "{} fails, {} recovers, {} rollbacks over {events} events; {}",
                w.fails,
                w.recovers,
                w.rollbacks,
                w.errors.join("; ")
            ),
        ),
    ];
    Finish {
        attempted: r.queries + replay.queries + w.ticks,
        failed: r.failed + replay.failed + w.failed,
        fingerprint: fp.0,
        checks,
        values,
        config: Json::obj([
            ("engine", Json::from("dfsssp")),
            (
                "mix",
                Json::from("70% resolve, 15% place, 10% stats, 5% what-if"),
            ),
            ("clients", Json::from(1u64)),
            ("writer_period_ms", Json::from(TICK.as_secs_f64() * 1e3)),
            (
                "victims",
                Json::Arr(w.victims.iter().map(|l| Json::from(l.0 as u64)).collect()),
            ),
            ("warmup_queries", Json::from(cfg.warmup)),
            ("replay_queries", Json::from(cfg.replay)),
            ("queries", Json::from(r.queries)),
            ("writer_ticks", Json::from(w.ticks)),
            ("writer_busy_s", Json::from(w.busy_s)),
        ]),
    }
}
