//! `paper`: the figure pipeline. Set-up is `T2hx::build(672, true)`, the
//! paper's dual-plane system with its cable faults; each pass then
//! regenerates thinned Figure 4 (IMB collective latencies) and Figure 5c
//! (effective bisection bandwidth) on all five combos. No routing runs in
//! the timed phase: it is bound by hxsim, hxmpi and hxload.
//!
//! Unit operation: one pass.

use crate::harness::{Check, Finish, Harness, Live, Size};
use crate::stats::Fnv;
use crate::trace::Tracer;
use hxcore::{Combo, T2hx};
use hxload::ebb::{effective_bisection_bandwidth, EBB_BYTES};
use hxload::imb::ImbCollective;
use hxmpi::{estimate, Fabric};
use hxobs::Json;
use hxroute::DirLink;
use hxsim::flow::directed_capacities;
use hxsim::solver::OneShot;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Config {
    /// Figure 4 job sizes.
    ranks: Vec<usize>,
    /// Keep every `thin`-th message size of each collective's sweep.
    thin: usize,
    /// Figure 5c job size.
    ebb_ranks: usize,
    ebb_batches: usize,
    ebb_batch: usize,
}

impl Config {
    fn of(size: Size) -> Config {
        match size {
            Size::Full => Config {
                ranks: vec![28, 112, 448, 672],
                thin: 4,
                ebb_ranks: 672,
                ebb_batches: 10,
                ebb_batch: 100,
            },
            Size::Mini => Config {
                ranks: vec![8, 16, 32],
                thin: 8,
                ebb_ranks: 32,
                ebb_batches: 2,
                ebb_batch: 10,
            },
        }
    }
}

/// Placement seed of the clustered and random combos: the figure
/// harnesses' own, so every run measures the same job layouts and the
/// workload seed only draws the eBB bisections.
const PLACEMENT_SEED: u64 = 0x7258;

/// The eBB seed of one batch.
fn batch_seed(seed: u64, batch: usize) -> u64 {
    seed ^ (batch as u64).wrapping_mul(0x2545_f491_4f6c_dd1d)
}

struct Paper {
    cfg: Config,
    sys: T2hx,
    seed: u64,
    passes: u64,
    first: Option<u64>,
    drifted: u64,
    estimates: u64,
    samples: u64,
}

impl Live for Paper {
    fn min_ops(&self) -> u64 {
        2
    }

    fn op(&mut self, tr: &mut Tracer) -> f64 {
        let t0 = Instant::now();
        let mut fp = Fnv::default();
        for combo in Combo::all() {
            for &n in &self.cfg.ranks {
                let fabric = self.sys.fabric(combo, n, PLACEMENT_SEED);
                for coll in ImbCollective::figure4() {
                    for bytes in coll.message_sizes().into_iter().step_by(self.cfg.thin) {
                        let prog =
                            tr.span("hxload.imb_program", "hxload", |_| coll.program(n, bytes));
                        let secs = tr.span("hxmpi.estimate", "hxmpi", |_| estimate(&fabric, &prog));
                        fp.eat_f64(secs * 1e6);
                        self.estimates += 1;
                    }
                }
            }
            let fabric = self.sys.fabric(combo, self.cfg.ebb_ranks, PLACEMENT_SEED);
            for b in 0..self.cfg.ebb_batches {
                let gib = tr.span("hxload.ebb_batch", "hxload", |_| {
                    effective_bisection_bandwidth(
                        &fabric,
                        self.cfg.ebb_ranks,
                        EBB_BYTES,
                        self.cfg.ebb_batch,
                        batch_seed(self.seed, b),
                    )
                });
                self.samples += gib.len() as u64;
                gib.iter().for_each(|&g| fp.eat_f64(g));
            }
        }
        let lat = t0.elapsed().as_secs_f64();
        match self.first {
            None => self.first = Some(fp.0),
            Some(f) => self.drifted += u64::from(f != fp.0),
        }
        self.passes += 1;
        lat
    }
}

/// Recomputes eBB batch 0 of a combo sample by sample through
/// `Fabric::node_path_into` and `OneShot::rates`, the calls hxload makes,
/// returning each sample's mean GiB/s.
fn ebb_oracle(
    tr: &mut Tracer,
    fabric: &Fabric<'_>,
    n: usize,
    samples: usize,
    seed: u64,
) -> Vec<f64> {
    let caps = directed_capacities(fabric.topo);
    let mut solver = OneShot::new(fabric.params.solver);
    let half = n / 2;
    let mut paths: Vec<Vec<DirLink>> = vec![Vec::new(); 2 * half];
    (0..samples)
        .map(|s| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (s as u64).wrapping_mul(0x9e37));
            let mut ranks: Vec<usize> = (0..n).collect();
            ranks.shuffle(&mut rng);
            tr.span("hxmpi.node_path", "hxmpi", |_| {
                for p in 0..half {
                    let (a, b) = (ranks[p], ranks[p + half]);
                    for (k, (src, dst)) in [(a, b), (b, a)].into_iter().enumerate() {
                        let (sn, dn) = (fabric.placement.node(src), fabric.placement.node(dst));
                        let lid = fabric.pml.select_lid_index(
                            fabric.topo,
                            fabric.routes,
                            sn,
                            dn,
                            EBB_BYTES,
                            s as u64,
                        );
                        fabric.node_path_into(sn, dn, lid, &mut paths[2 * p + k]);
                    }
                }
            });
            let rates = tr.span("hxsim.oneshot_rates", "hxsim", |_| {
                solver
                    .rates(&caps, paths.iter().map(|p| p.as_slice()))
                    .to_vec()
            });
            rates.iter().map(|&r| r / (1u64 << 30) as f64).sum::<f64>() / rates.len() as f64
        })
        .collect()
}

pub fn run(h: &mut Harness) -> Finish {
    let cfg = Config::of(h.plan.size);
    loop {
        let last = h.setup_begin();
        let size = h.plan.size;
        let sys =
            h.tr.span("hxcore.t2hx_build", "hxcore", |_| match size {
                Size::Full => T2hx::build(672, true),
                Size::Mini => T2hx::mini(),
            })
            .expect("the paper's dual-plane system routes");
        h.setup_end();
        if !last {
            continue;
        }
        let mut p = Paper {
            cfg: cfg.clone(),
            sys,
            seed: h.plan.seed,
            passes: 0,
            first: None,
            drifted: 0,
            estimates: 0,
            samples: 0,
        };
        h.measure(&mut p);
        return finish(h, p);
    }
}

fn finish(h: &mut Harness, p: Paper) -> Finish {
    let mut mismatched = 0usize;
    let mut compared = 0usize;
    for combo in Combo::all() {
        let fabric = p.sys.fabric(combo, p.cfg.ebb_ranks, PLACEMENT_SEED);
        let seed = batch_seed(p.seed, 0);
        let lib = effective_bisection_bandwidth(
            &fabric,
            p.cfg.ebb_ranks,
            EBB_BYTES,
            p.cfg.ebb_batch,
            seed,
        );
        let oracle = ebb_oracle(&mut h.tr, &fabric, p.cfg.ebb_ranks, p.cfg.ebb_batch, seed);
        compared += lib.len();
        mismatched += lib
            .iter()
            .zip(&oracle)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count()
            + lib.len().abs_diff(oracle.len());
    }
    let checks = vec![
        Check::new(
            "every pass reproduced the first pass's latencies and bandwidths",
            p.drifted == 0,
            format!("{} of {} passes drifted", p.drifted, p.passes),
        ),
        Check::new(
            "eBB GiB/s equals a sample-by-sample OneShot recomputation",
            mismatched == 0,
            format!("{mismatched} of {compared} samples differ"),
        ),
    ];
    let combos = Combo::all().iter().map(|c| Json::from(c.label())).collect();
    Finish {
        attempted: p.estimates + p.samples,
        failed: 0,
        fingerprint: p.first.unwrap_or(0),
        checks,
        values: BTreeMap::new(),
        config: Json::obj([
            ("nodes", Json::from(p.sys.num_nodes())),
            ("placement_seed", Json::from(PLACEMENT_SEED)),
            ("combos", Json::Arr(combos)),
            ("solver", Json::from(p.sys.params().solver.label())),
            (
                "fig4_ranks",
                Json::Arr(p.cfg.ranks.iter().map(|&n| Json::from(n)).collect()),
            ),
            ("fig4_size_stride", Json::from(p.cfg.thin)),
            ("ebb_ranks", Json::from(p.cfg.ebb_ranks)),
            (
                "ebb_samples_per_combo",
                Json::from(p.cfg.ebb_batches * p.cfg.ebb_batch),
            ),
            ("ebb_batch", Json::from(p.cfg.ebb_batch)),
            ("passes", Json::from(p.passes)),
        ]),
    }
}
