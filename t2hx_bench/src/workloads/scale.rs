//! `scale`: fail-in-place cost on a ladder of the 3-D HyperX shapes of
//! Multi-Plane HyperX (`4x4x4:t4`, `6x6x6:t6`, `8x8x8:t8`; 256 to 4,096
//! nodes) with FT-HyperX, whose engine-owned repair is history-free. A
//! fault's cost grows superlinearly with the fabric, which a 96-switch
//! plane cannot show. The ladder stops at 4,096 nodes: a `10x10x10:t10`
//! rung copies a 148 MB PathDb per event, and its cycle time moved by
//! more than 5% between identical runs on a shared two-core KVM guest.
//!
//! Unit operation: one ladder cycle. On every shape and for every
//! dimension but the first, fail the next cable of that dimension's seeded
//! walk with `SubnetManager::fail_link`, then restore it with
//! `recover_link`; the PathDb is the only consumer of each new epoch.
//! FT-HyperX routes the first dimension first, so a first-dimension cable
//! carries from a sixth to all of its line's trees depending on where it
//! sits, and a cycle's cost would follow the seed.

use crate::harness::{Check, Finish, Harness, Live, Size};
use crate::stats::{loglog_slope, percentile, sorted, Fnv};
use crate::trace::Tracer;
use hxobs::Json;
use hxroute::engines::FtHyperX;
use hxroute::{PathDb, SubnetManager};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{LinkId, Topology};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Ladder cycles folded into the fingerprint.
const CHECKPOINT: u64 = 2;

fn ladder(size: Size) -> &'static [&'static str] {
    match size {
        Size::Full => &["4x4x4:t4", "6x6x6:t6", "8x8x8:t8"],
        Size::Mini => &["2x2x2:t2", "3x3x3:t2", "4x4x4:t2"],
    }
}

/// One rung of the ladder.
struct Rung {
    spec: &'static str,
    nodes: usize,
    sm: SubnetManager,
    /// The bring-up store; a healed fabric must route exactly like it.
    initial: Arc<PathDb>,
    /// One victim walk per dimension, from the second on.
    walks: Vec<Walk>,
    fail_s: Vec<f64>,
    recover_s: Vec<f64>,
}

struct Scale {
    rungs: Vec<Rung>,
    cycles: u64,
    events: u64,
    incremental: u64,
    trees_patched: u64,
    failed: u64,
    errors: Vec<String>,
    fp: Fnv,
    fingerprint: Option<u64>,
}

/// Switch-to-switch cables of a HyperX, grouped by the dimension they span,
/// without the first.
fn cables_by_dimension(topo: &Topology) -> Vec<Vec<LinkId>> {
    let shape = topo.meta.as_hyperx().expect("ladder planes are HyperX");
    let mut by_dim = vec![Vec::new(); shape.dims()];
    for (id, l) in topo.links() {
        let (Some(a), Some(b)) = (l.a.switch(), l.b.switch()) else {
            continue;
        };
        let (ca, cb) = (shape.coord(a), shape.coord(b));
        let d = (0..ca.len())
            .find(|&d| ca[d] != cb[d])
            .expect("a cable spans one dimension");
        by_dim[d].push(id);
    }
    by_dim.remove(0);
    by_dim
}

/// A seeded walk over one dimension's cables. The seed picks where it
/// starts; golden-ratio strides then spread the cycles' victims evenly over
/// the cables. Independent random draws made a run's cost follow the seed
/// by up to 8%, because cables of one dimension still differ in repair
/// cost with their position.
struct Walk {
    cables: Vec<LinkId>,
    next: usize,
    stride: usize,
}

impl Walk {
    fn new(cables: Vec<LinkId>, rng: &mut ChaCha8Rng) -> Walk {
        let n = cables.len();
        let gcd = |mut a: usize, mut b: usize| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let mut stride = ((n as f64 * 0.618_034) as usize).max(1);
        while gcd(stride, n) != 1 {
            stride += 1;
        }
        Walk {
            next: rng.gen_range(0..n),
            stride,
            cables,
        }
    }

    fn victim(&mut self) -> LinkId {
        let v = self.cables[self.next];
        self.next = (self.next + self.stride) % self.cables.len();
        v
    }
}

impl Live for Scale {
    fn min_ops(&self) -> u64 {
        CHECKPOINT.saturating_sub(self.cycles)
    }

    fn op(&mut self, tr: &mut Tracer) -> f64 {
        let t0 = Instant::now();
        for r in &mut self.rungs {
            for d in 0..r.walks.len() {
                let victim = r.walks[d].victim();
                let t = Instant::now();
                let fail = tr.span(format!("hxroute.fail_link.{}", r.nodes), "hxroute", |_| {
                    r.sm.fail_link(victim)
                });
                r.fail_s.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                let recover = tr.span(
                    format!("hxroute.recover_link.{}", r.nodes),
                    "hxroute",
                    |_| r.sm.recover_link(victim),
                );
                r.recover_s.push(t.elapsed().as_secs_f64());
                for res in [fail, recover] {
                    self.events += 1;
                    match res {
                        Ok(rep) => {
                            let db = r.sm.pathdb().expect("swept");
                            self.incremental += u64::from(rep.incremental);
                            self.trees_patched += rep.patched_trees as u64;
                            for v in [
                                victim.0 as u64,
                                rep.patched_trees as u64,
                                rep.incremental as u64,
                                rep.epoch,
                                db.num_isl_hops() as u64,
                                db.approx_bytes() as u64,
                            ] {
                                self.fp.eat(v);
                            }
                        }
                        Err(e) => {
                            self.failed += 1;
                            self.errors
                                .push(format!("{} link {}: {e}", r.spec, victim.0));
                        }
                    }
                }
            }
        }
        self.cycles += 1;
        if self.cycles == CHECKPOINT {
            self.fingerprint = Some(self.fp.0);
        }
        t0.elapsed().as_secs_f64()
    }
}

pub fn run(h: &mut Harness) -> Finish {
    loop {
        let last = h.setup_begin();
        let mut rungs = Vec::new();
        for (i, &spec) in ladder(h.plan.size).iter().enumerate() {
            let topo = h.tr.span("hxtopo.build", "hxtopo", |_| {
                HyperXConfig::parse_spec(spec)
                    .expect("ladder specs parse")
                    .build()
            });
            let nodes = topo.num_nodes();
            let mut sm = SubnetManager::new(topo, Box::new(FtHyperX::default()));
            sm.verify = false;
            sm.incremental = true;
            sm.threads = super::PATHDB_THREADS;
            h.tr.span("hxroute.sweep", "hxroute", |_| sm.sweep())
                .expect("FT-HyperX routes the ladder");
            let initial = sm.pathdb().expect("swept").clone();
            let mut rng =
                ChaCha8Rng::seed_from_u64(h.plan.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9));
            let walks = cables_by_dimension(sm.topo())
                .into_iter()
                .map(|cables| Walk::new(cables, &mut rng))
                .collect();
            rungs.push(Rung {
                spec,
                nodes,
                sm,
                initial,
                walks,
                fail_s: Vec::new(),
                recover_s: Vec::new(),
            });
        }
        h.setup_end();
        if !last {
            continue;
        }
        let mut s = Scale {
            rungs,
            cycles: 0,
            events: 0,
            incremental: 0,
            trees_patched: 0,
            failed: 0,
            errors: Vec::new(),
            fp: Fnv::default(),
            fingerprint: None,
        };
        h.measure(&mut s);
        return finish(s);
    }
}

fn finish(s: Scale) -> Finish {
    let mut values = BTreeMap::new();
    let mut points = Vec::new();
    let mut healed = 0usize;
    for r in &s.rungs {
        let db = r.sm.pathdb().expect("swept");
        healed += usize::from(db.content_eq(&r.initial));
        values.insert(
            format!("hxroute.pathdb_mb.{}", r.nodes),
            r.initial.approx_bytes() as f64 / 1e6,
        );
        points.push((r.nodes as f64, percentile(&sorted(&r.fail_s), 50.0)));
    }
    values.insert(
        "hxroute.fail_link_exponent".to_string(),
        loglog_slope(&points),
    );
    let events = s.events.max(1) as f64;
    values.insert(
        "hxroute.trees_patched_mean".to_string(),
        s.trees_patched as f64 / events,
    );
    values.insert(
        "hxroute.incremental_ratio".to_string(),
        s.incremental as f64 / events,
    );
    let checks = vec![
        Check::new(
            "fingerprint checkpoint reached",
            s.fingerprint.is_some(),
            format!("{} cycles, checkpoint at {CHECKPOINT}", s.cycles),
        ),
        Check::new(
            "every fail and recover succeeded",
            s.failed == 0,
            s.errors.join("; "),
        ),
        Check::new(
            "each healed rung routes exactly like its bring-up sweep",
            healed == s.rungs.len(),
            format!("{healed} of {} rungs", s.rungs.len()),
        ),
    ];
    let rungs = s
        .rungs
        .iter()
        .map(|r| {
            Json::obj([
                ("shape", Json::from(r.spec)),
                ("nodes", Json::from(r.nodes)),
                ("events", Json::from(r.fail_s.len() + r.recover_s.len())),
            ])
        })
        .collect();
    Finish {
        attempted: s.events,
        failed: s.failed,
        fingerprint: s.fingerprint.unwrap_or(0),
        checks,
        values,
        config: Json::obj([
            ("engine", Json::from("ft-hyperx")),
            (
                "victims",
                Json::from("one per dimension but the first, per rung and cycle, on a seeded walk"),
            ),
            ("ladder", Json::Arr(rungs)),
            ("pathdb_threads", Json::from(super::PATHDB_THREADS)),
            ("checkpoint_cycles", Json::from(CHECKPOINT)),
            ("cycles", Json::from(s.cycles)),
        ]),
    }
}
