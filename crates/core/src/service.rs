//! The resident `hxd` fabric-management service: lock-free epoch snapshots
//! plus a read-side query engine running concurrently with churn.
//!
//! The paper's operational story is a *long-lived* subnet manager: cables
//! die and get swapped while jobs keep launching, so operators need
//! answers — "how does rank 17 reach rank 512 right now?", "what breaks if
//! this cable dies?", "where do I put a 56-rank job?" — without stopping
//! the churn loop. This module provides that read side:
//!
//! * [`FabricService`] owns the latest [`FabricSnapshot`] behind an
//!   epoch-versioned `Arc` swap. Writers ([`FabricService::publish`]) are
//!   rare (one per churn event); readers pin a snapshot with a single
//!   atomic epoch load on the hot path — no reader-side `RwLock`, no lock
//!   at all unless the epoch actually moved since their last query.
//! * [`ServiceReader`] executes [`Query`]s against its pinned snapshot and
//!   memoizes [`Answer`]s in an `(epoch, query)`-keyed cache — keyed
//!   implicitly by pinning: the cache holds one epoch's answers and is
//!   invalidated wholesale when the pin advances.
//! * Every query emits a `query` span on the [`hxobs::track::HXD`] track
//!   (reader index as tid, epoch stamped) and records its wall-clock cost
//!   into the `query.latency_us` sketch keyed by epoch.
//!
//! Consistency: a snapshot is one `Arc` holding topology, forwarding
//! tables, and path store glued under one epoch stamp, so a query can
//! never observe a half-published epoch — the race with a concurrent sweep
//! degrades to answering against the previous epoch, and a query arriving
//! before the first sweep gets a retryable [`RouteError::NotSwept`], never
//! a panic.

use hxroute::{FabricSnapshot, RouteError, SubnetManager};
use hxtopo::{fnv1a, LinkId, NodeId, FNV_OFFSET};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A read-side request against one pinned epoch. Hashable: the variant and
/// its arguments are the cache key (the epoch half of the `(epoch, query)`
/// key is implicit in which cache generation holds the entry).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// Current route between two ranks: the path rank `src`'s traffic
    /// takes to rank `dst`'s base LID.
    Resolve {
        /// Source rank (node id).
        src: u32,
        /// Destination rank (node id).
        dst: u32,
    },
    /// Speculative failure: what would repairing around cable `link` cost,
    /// and does the fabric survive it? Computed on a clone of the pinned
    /// snapshot — live state is never touched.
    WhatIfFail {
        /// The hypothetical victim cable.
        link: u32,
    },
    /// Placement of a `ranks`-rank job under a named policy (see
    /// [`hxcap::place_ranks_with`]). The scattered draw (and the
    /// network-aware slate's scattered candidate) is seeded with the
    /// pinned epoch, so one epoch always answers one way — cacheable like
    /// every other query.
    Place {
        /// Job size in ranks.
        ranks: u32,
        /// Placement policy to select with.
        policy: hxcap::PolicyKind,
    },
    /// Aggregate path statistics of the pinned epoch.
    Stats,
}

impl Query {
    /// Short label for spans and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Resolve { .. } => "resolve",
            Query::WhatIfFail { .. } => "what-if",
            Query::Place { .. } => "place",
            Query::Stats => "stats",
        }
    }
}

/// A served answer, stamped with the epoch it was computed against.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Route between two ranks.
    Resolve {
        /// Epoch the path was resolved against.
        epoch: u64,
        /// Switch-to-switch cables traversed.
        isl_hops: u32,
        /// Switches traversed.
        switch_hops: u32,
        /// Directed cables in traversal order (dense [`hxroute::DirLink`]
        /// indices), terminals included; empty for self-sends.
        hops: Vec<u32>,
    },
    /// Speculative-failure report.
    WhatIf {
        /// Epoch the speculation ran against.
        epoch: u64,
        /// Destination trees a repair would touch.
        affected_trees: u32,
        /// Whether losing the cable disconnects the fabric (or detaches a
        /// node, for terminal cables).
        disconnects: bool,
        /// Mean ISL hops before the hypothetical failure.
        avg_before: f64,
        /// Mean ISL hops after the speculative repair (`None` when the
        /// failure disconnects).
        avg_after: Option<f64>,
    },
    /// Placement answer.
    Place {
        /// Epoch the placement was scored against.
        epoch: u64,
        /// Policy that selected the slice (registry name).
        policy: &'static str,
        /// Chosen ranks, in placement order.
        nodes: Vec<u32>,
        /// Mean pairwise ISL hops across the slice.
        mean_isl_hops: f64,
        /// Distinct HyperX quadrants the slice touches (0 when the plane
        /// has no quadrant structure).
        quadrant_spread: u32,
    },
    /// Epoch statistics.
    Stats {
        /// The pinned epoch.
        epoch: u64,
        /// Routing engine that produced it.
        engine: &'static str,
        /// (source node, destination LID) pairs covered.
        pairs: u64,
        /// Maximum ISL hops over all pairs.
        max_isl_hops: u32,
        /// Mean ISL hops.
        avg_isl_hops: f64,
    },
}

impl Answer {
    /// Epoch stamp of the answer.
    pub fn epoch(&self) -> u64 {
        match self {
            Answer::Resolve { epoch, .. }
            | Answer::WhatIf { epoch, .. }
            | Answer::Place { epoch, .. }
            | Answer::Stats { epoch, .. } => *epoch,
        }
    }

    /// FNV-1a over every field (floats as IEEE bits), for byte-stable
    /// replay fingerprints. Epoch included: the same query answered on a
    /// different epoch is a different answer.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |v: u64| h = fnv1a(h, &v.to_le_bytes());
        match self {
            Answer::Resolve {
                epoch,
                isl_hops,
                switch_hops,
                hops,
            } => {
                eat(1);
                eat(*epoch);
                eat(*isl_hops as u64);
                eat(*switch_hops as u64);
                for &hop in hops {
                    eat(hop as u64);
                }
            }
            Answer::WhatIf {
                epoch,
                affected_trees,
                disconnects,
                avg_before,
                avg_after,
            } => {
                eat(2);
                eat(*epoch);
                eat(*affected_trees as u64);
                eat(*disconnects as u64);
                eat(avg_before.to_bits());
                eat(avg_after.map(|v| v.to_bits()).unwrap_or(u64::MAX));
            }
            Answer::Place {
                epoch,
                policy,
                nodes,
                mean_isl_hops,
                quadrant_spread,
            } => {
                eat(3);
                eat(*epoch);
                for b in policy.as_bytes() {
                    eat(*b as u64);
                }
                eat(mean_isl_hops.to_bits());
                eat(*quadrant_spread as u64);
                for &n in nodes {
                    eat(n as u64);
                }
            }
            Answer::Stats {
                epoch,
                engine,
                pairs,
                max_isl_hops,
                avg_isl_hops,
            } => {
                eat(4);
                eat(*epoch);
                for b in engine.as_bytes() {
                    eat(*b as u64);
                }
                eat(*pairs);
                eat(*max_isl_hops as u64);
                eat(avg_isl_hops.to_bits());
            }
        }
        h
    }
}

/// Why a query could not be answered. Routing-layer errors (including the
/// retryable [`RouteError::NotSwept`] race) pass through; malformed
/// requests get their own variant so callers can tell a bad query from a
/// degraded fabric.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The routing layer refused (retryable when
    /// [`RouteError::NotSwept`]).
    Route(RouteError),
    /// The placement layer refused (typed: a zero-rank request can never
    /// succeed, an [`hxcap::PlaceError::Insufficient`] pool might after a
    /// departure).
    Place(hxcap::PlaceError),
    /// The request itself is malformed (rank or cable out of range);
    /// retrying the same query cannot succeed.
    BadQuery(&'static str),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Route(e) => write!(f, "routing: {e}"),
            QueryError::Place(e) => write!(f, "placement: {e}"),
            QueryError::BadQuery(m) => write!(f, "bad query: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<RouteError> for QueryError {
    fn from(e: RouteError) -> QueryError {
        QueryError::Route(e)
    }
}

impl From<hxcap::PlaceError> for QueryError {
    fn from(e: hxcap::PlaceError) -> QueryError {
        QueryError::Place(e)
    }
}

/// The write side of the resident service: holds the current epoch's
/// [`FabricSnapshot`] behind an epoch-versioned `Arc` swap. One writer
/// (the churn loop) publishes; any number of [`ServiceReader`]s answer
/// queries concurrently, each pinning a coherent snapshot with a single
/// atomic load on the hot path.
pub struct FabricService {
    /// Epoch of the most recently published snapshot. Readers compare this
    /// against their pinned epoch; only a mismatch takes the mutex below.
    epoch: AtomicU64,
    /// The published snapshot. Ordering contract: `publish` installs the
    /// new `Arc` *before* storing its epoch, so any reader that observes
    /// the new epoch finds a snapshot at least that new here. Every
    /// critical section is one `Arc` store or clone, so a holder that
    /// panicked cannot have left a torn value: a poisoned lock is taken
    /// over rather than propagated.
    current: Mutex<Arc<FabricSnapshot>>,
    published: AtomicU64,
    readers: AtomicU32,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FabricService {
    /// Starts the service on an initial snapshot (usually epoch 1, fresh
    /// off the bring-up sweep).
    pub fn new(snap: FabricSnapshot) -> FabricService {
        let epoch = snap.epoch();
        FabricService {
            epoch: AtomicU64::new(epoch),
            current: Mutex::new(Arc::new(snap)),
            published: AtomicU64::new(0),
            readers: AtomicU32::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Starts the service from a swept manager's current state. Before the
    /// first sweep this is the retryable [`RouteError::NotSwept`].
    pub fn from_manager(sm: &SubnetManager) -> Result<FabricService, RouteError> {
        Ok(FabricService::new(sm.snapshot()?))
    }

    /// Publishes a new epoch: installs the snapshot, then advances the
    /// epoch watermark (in that order — see the field contract). Returns
    /// the published epoch.
    pub fn publish(&self, snap: FabricSnapshot) -> u64 {
        let epoch = snap.epoch();
        *self.current.lock().unwrap_or_else(PoisonError::into_inner) = Arc::new(snap);
        self.epoch.store(epoch, Ordering::Release);
        self.published.fetch_add(1, Ordering::Relaxed);
        hxobs::gauge("hxd.epoch", epoch as f64);
        epoch
    }

    /// Snapshots the manager's current state and publishes it.
    pub fn publish_from(&self, sm: &SubnetManager) -> Result<u64, RouteError> {
        Ok(self.publish(sm.snapshot()?))
    }

    /// Epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Epochs published after the initial one.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Service-wide result-cache counters: `(hits, misses)` summed over
    /// every reader.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Creates a reader pinned to the current snapshot. Each reader owns
    /// its result cache and is meant to live on one thread; spawn one per
    /// serving thread.
    pub fn reader(&self) -> ServiceReader<'_> {
        let id = self.readers.fetch_add(1, Ordering::Relaxed);
        let snap = self
            .current
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        ServiceReader {
            svc: self,
            snap,
            cache: HashMap::new(),
            id,
        }
    }
}

/// The read side: executes queries against a pinned snapshot, refreshing
/// the pin (and flushing the result cache) only when the service's epoch
/// watermark moved. The hot resolve path is lock-free: one atomic load,
/// a hash probe, and a CSR path copy.
pub struct ServiceReader<'a> {
    svc: &'a FabricService,
    snap: Arc<FabricSnapshot>,
    /// One epoch generation of the `(epoch, query)` result cache; the
    /// epoch key is implicit — `pin` clears the map when it advances.
    cache: HashMap<Query, Answer>,
    id: u32,
}

impl ServiceReader<'_> {
    /// Index of this reader (tid on the `hxd` obs track).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Pins the freshest published snapshot: a single atomic epoch load
    /// when nothing changed (the overwhelmingly common case at query
    /// rates far above churn rates); on an epoch bump, one mutex lock to
    /// refresh the `Arc` and a cache flush.
    pub fn pin(&mut self) -> &FabricSnapshot {
        let watermark = self.svc.epoch.load(Ordering::Acquire);
        if watermark != self.snap.epoch() {
            self.snap = self
                .svc
                .current
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            self.cache.clear();
        }
        &self.snap
    }

    /// Answers a query against the pinned epoch (refreshing the pin
    /// first). Successful answers are cached for the life of the epoch;
    /// errors are not (a retry may succeed on the next epoch).
    pub fn query(&mut self, q: &Query) -> Result<Answer, QueryError> {
        self.query_spanned(q, hxobs::SpanCtx::none())
    }

    /// [`ServiceReader::query`] with causal attribution: the emitted
    /// `query` span parents under `parent` (e.g. the serve loop's root).
    pub fn query_spanned(
        &mut self,
        q: &Query,
        parent: hxobs::SpanCtx,
    ) -> Result<Answer, QueryError> {
        self.pin();
        let epoch = self.snap.epoch();
        let t0 = std::time::Instant::now();
        let mut sp = hxobs::Span::under(parent, hxobs::track::HXD, self.id, "query", "hxd");
        sp.set_epoch(epoch);
        sp.arg("kind", hxobs::Json::from(q.kind()));
        if let Some(hit) = self.cache.get(q) {
            self.svc.hits.fetch_add(1, Ordering::Relaxed);
            sp.arg("cached", hxobs::Json::from(true));
            sp.end();
            hxobs::count("hxd.cache_hits", 1);
            hxobs::sketch_record("query.latency_us", epoch, t0.elapsed().as_secs_f64() * 1e6);
            return Ok(hit.clone());
        }
        self.svc.misses.fetch_add(1, Ordering::Relaxed);
        sp.arg("cached", hxobs::Json::from(false));
        let result = self.execute(q, epoch);
        match &result {
            Ok(answer) => {
                self.cache.insert(q.clone(), answer.clone());
                hxobs::count("hxd.cache_misses", 1);
            }
            Err(e) => {
                sp.arg("error", hxobs::Json::from(e.to_string()));
                hxobs::count("hxd.query_errors", 1);
            }
        }
        sp.end();
        hxobs::sketch_record("query.latency_us", epoch, t0.elapsed().as_secs_f64() * 1e6);
        result
    }

    /// Computes an answer on the pinned snapshot (no cache, no pin
    /// refresh).
    fn execute(&self, q: &Query, epoch: u64) -> Result<Answer, QueryError> {
        let snap = &*self.snap;
        match *q {
            Query::Resolve { src, dst } => {
                let n = snap.topo().num_nodes() as u32;
                if src >= n || dst >= n {
                    return Err(QueryError::BadQuery("rank out of range"));
                }
                let lid = snap.routes().lid_map.base(NodeId(dst));
                let hops = snap
                    .pathdb()
                    .node_path(NodeId(src), lid)
                    .ok_or(QueryError::Route(RouteError::UnknownLid(lid)))?;
                Ok(Answer::Resolve {
                    epoch,
                    isl_hops: hops.len().saturating_sub(2) as u32,
                    switch_hops: hops.len().saturating_sub(1) as u32,
                    hops: hops.into_iter().map(|dl| dl.index() as u32).collect(),
                })
            }
            Query::WhatIfFail { link } => {
                let w = snap.what_if_fail(LinkId(link))?;
                Ok(Answer::WhatIf {
                    epoch,
                    affected_trees: w.affected_trees as u32,
                    disconnects: w.disconnects,
                    avg_before: w.before.avg_isl_hops,
                    avg_after: w.after.map(|s| s.avg_isl_hops),
                })
            }
            Query::Place { ranks, policy } => {
                let placed = hxcap::place_ranks_with(
                    snap.topo(),
                    snap.routes(),
                    snap.pathdb(),
                    ranks as usize,
                    policy,
                    epoch,
                )?;
                Ok(Answer::Place {
                    epoch,
                    policy: policy.name(),
                    nodes: placed.nodes.iter().map(|n| n.0).collect(),
                    mean_isl_hops: placed.mean_isl_hops,
                    quadrant_spread: placed.quadrant_spread,
                })
            }
            Query::Stats => {
                let s = snap.stats();
                Ok(Answer::Stats {
                    epoch,
                    engine: snap.engine(),
                    pairs: s.pairs as u64,
                    max_isl_hops: s.max_isl_hops as u32,
                    avg_isl_hops: s.avg_isl_hops,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxroute::engines::Sssp;
    use hxtopo::hyperx::HyperXConfig;
    use hxtopo::LinkClass;

    fn swept() -> SubnetManager {
        let topo = HyperXConfig::new(vec![4, 4], 2).build();
        let mut sm = SubnetManager::new(topo, Box::new(Sssp::default()));
        sm.verify = false;
        sm.sweep().unwrap();
        sm
    }

    #[test]
    fn service_requires_a_sweep() {
        let topo = HyperXConfig::new(vec![4, 4], 2).build();
        let sm = SubnetManager::new(topo, Box::new(Sssp::default()));
        assert!(matches!(
            FabricService::from_manager(&sm),
            Err(RouteError::NotSwept("snapshot"))
        ));
    }

    #[test]
    fn queries_answer_on_the_pinned_epoch() {
        let sm = swept();
        let svc = FabricService::from_manager(&sm).unwrap();
        let mut r = svc.reader();
        let a = r.query(&Query::Resolve { src: 0, dst: 31 }).unwrap();
        assert_eq!(a.epoch(), 1);
        let Answer::Resolve { isl_hops, .. } = &a else {
            panic!("wrong variant")
        };
        assert!(*isl_hops <= 2, "2-D HyperX resolves in <= 2 ISL hops");
        let s = r.query(&Query::Stats).unwrap();
        let Answer::Stats { pairs, engine, .. } = s else {
            panic!("wrong variant")
        };
        assert_eq!(pairs, 32 * 31);
        assert_eq!(engine, "sssp");
        let p = r
            .query(&Query::Place {
                ranks: 8,
                policy: hxcap::PolicyKind::Contiguous,
            })
            .unwrap();
        let Answer::Place {
            nodes,
            quadrant_spread,
            policy,
            ..
        } = p
        else {
            panic!("wrong variant")
        };
        assert_eq!(nodes.len(), 8);
        assert_eq!(quadrant_spread, 1);
        assert_eq!(policy, "contiguous");
    }

    #[test]
    fn policies_are_distinct_cached_queries() {
        let sm = swept();
        let svc = FabricService::from_manager(&sm).unwrap();
        let mut r = svc.reader();
        let answers: Vec<Answer> = hxcap::POLICY_KINDS
            .iter()
            .map(|&policy| r.query(&Query::Place { ranks: 8, policy }).unwrap())
            .collect();
        // Each policy is its own cache key and fingerprint.
        let fps: std::collections::BTreeSet<u64> =
            answers.iter().map(|a| a.fingerprint()).collect();
        assert_eq!(fps.len(), 3, "policies must fingerprint apart");
        assert_eq!(svc.cache_stats().1, 3);
        // Asking again hits the cache per policy.
        for &policy in hxcap::POLICY_KINDS.iter() {
            r.query(&Query::Place { ranks: 8, policy }).unwrap();
        }
        assert_eq!(svc.cache_stats().0, 3);
        // The scattered draw is seeded by the epoch: same epoch, same
        // answer, even through a fresh reader with a cold cache.
        let mut r2 = svc.reader();
        let again = r2
            .query(&Query::Place {
                ranks: 8,
                policy: hxcap::PolicyKind::Scattered,
            })
            .unwrap();
        assert_eq!(again.fingerprint(), answers[1].fingerprint());
    }

    #[test]
    fn cache_hits_within_an_epoch_and_flushes_on_bump() {
        let mut sm = swept();
        let svc = FabricService::from_manager(&sm).unwrap();
        let mut r = svc.reader();
        let q = Query::Resolve { src: 3, dst: 17 };
        let a1 = r.query(&q).unwrap();
        let a2 = r.query(&q).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(svc.cache_stats(), (1, 1), "second ask must hit");
        // Epoch bump: the cache generation dies with the old pin.
        let isl = sm
            .topo()
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        sm.fail_link(isl).unwrap();
        svc.publish_from(&sm).unwrap();
        let a3 = r.query(&q).unwrap();
        assert_eq!(a3.epoch(), 2);
        assert_eq!(svc.cache_stats().0, 1, "no stale hit across epochs");
        assert_eq!(svc.cache_stats().1, 2);
    }

    #[test]
    fn a_poisoned_lock_still_serves_new_epochs() {
        let mut sm = swept();
        let svc = FabricService::from_manager(&sm).unwrap();
        let mut r = svc.reader();
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = svc.current.lock().unwrap();
                panic!("panics while holding the snapshot lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(svc.current.is_poisoned());
        let isl = sm
            .topo()
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        sm.fail_link(isl).unwrap();
        assert_eq!(svc.publish_from(&sm).unwrap(), 2);
        assert_eq!(r.pin().epoch(), 2);
        assert_eq!(svc.reader().pin().epoch(), 2);
    }

    #[test]
    fn what_if_and_errors_are_typed() {
        let sm = swept();
        let svc = FabricService::from_manager(&sm).unwrap();
        let mut r = svc.reader();
        let isl = sm
            .topo()
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap()
            .0;
        let w = r.query(&Query::WhatIfFail { link: isl.0 }).unwrap();
        let Answer::WhatIf {
            disconnects,
            avg_after,
            ..
        } = w
        else {
            panic!("wrong variant")
        };
        assert!(!disconnects);
        assert!(avg_after.is_some());
        // Malformed queries are BadQuery, not routing errors and not
        // panics; nothing gets cached for them.
        assert!(matches!(
            r.query(&Query::Resolve { src: 0, dst: 999 }),
            Err(QueryError::BadQuery(_))
        ));
        assert!(matches!(
            r.query(&Query::Place {
                ranks: 0,
                policy: hxcap::PolicyKind::Contiguous,
            }),
            Err(QueryError::Place(hxcap::PlaceError::ZeroRanks))
        ));
        let (_, misses_before) = svc.cache_stats();
        assert!(r
            .query(&Query::Place {
                ranks: 0,
                policy: hxcap::PolicyKind::Contiguous,
            })
            .is_err());
        assert_eq!(svc.cache_stats().1, misses_before + 1, "errors not cached");
    }

    #[test]
    fn answers_fingerprint_deterministically() {
        let sm = swept();
        let svc = FabricService::from_manager(&sm).unwrap();
        let mut r1 = svc.reader();
        let mut r2 = svc.reader();
        for q in [
            Query::Resolve { src: 1, dst: 30 },
            Query::Place {
                ranks: 12,
                policy: hxcap::PolicyKind::NetworkAware,
            },
            Query::Stats,
        ] {
            let a = r1.query(&q).unwrap();
            let b = r2.query(&q).unwrap();
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
        // Different queries land on different fingerprints.
        let a = r1.query(&Query::Resolve { src: 1, dst: 30 }).unwrap();
        let b = r1.query(&Query::Resolve { src: 1, dst: 29 }).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
