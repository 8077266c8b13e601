//! Combo-level glue for the capacity experiment, plus the day-scale
//! allocation stream behind the `capacity_scale` harness.
//!
//! Two layers:
//!
//! * [`run_capacity_combo`] reproduces the paper's three-hour Figure-7
//!   mix under one routing/placement combo.
//! * [`run_capacity_scale`] drives the hxcap [`Allocator`] with a
//!   seeded Poisson job stream (exponential inter-arrivals, lognormal
//!   service times) over simulated *days*, placing under one
//!   [`PolicyKind`] across every plane of a [`System`]. The private
//!   stepper behind it integrates node-seconds of utilization,
//!   records queue waits and fragmentation into hxobs sketches on the
//!   `CAP` track, checkpoints solver-backed interference, and folds every
//!   placement into an FNV fingerprint so a `(policy, seed)` run is
//!   byte-stable across machines (DESIGN.md §15).

use crate::combos::Combo;
use crate::system::{System, T2hx};
use hxcap::{
    interference, run_capacity, Allocator, AppSlot, CapacityConfig, CapacityResult, PolicyKind,
};
use hxsim::flow::directed_capacities;
use hxtopo::{fnv1a, FNV_OFFSET};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Runs a capacity mix under one combo. The allocation scheme orders the
/// node pool (how a scheduler would hand out blocks); applications receive
/// consecutive slices.
pub fn run_capacity_combo(
    sys: &T2hx,
    combo: Combo,
    apps: &[AppSlot],
    cfg: &CapacityConfig,
    seed: u64,
) -> CapacityResult {
    run_capacity(
        sys.topo(combo),
        sys.routes(combo),
        sys.pathdb(combo),
        combo.pml(),
        sys.params(),
        sys.placement(combo, sys.num_nodes(), seed).nodes(),
        apps,
        cfg,
    )
}

/// Knobs of the day-scale allocation stream. All times are simulated
/// seconds; nothing here consults the wall clock.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Simulated horizon in days (arrivals stop at the horizon; live jobs
    /// then drain to completion).
    pub days: f64,
    /// Poisson arrival intensity, jobs per simulated hour.
    pub jobs_per_hour: f64,
    /// Median job service time in seconds (lognormal location `ln` of
    /// this).
    pub service_median_s: f64,
    /// Lognormal shape `sigma`: 1.0 gives the heavy right tail batch
    /// traces show.
    pub service_sigma: f64,
    /// Smallest job size in ranks (inclusive).
    pub min_ranks: usize,
    /// Largest job size in ranks (inclusive).
    pub max_ranks: usize,
    /// Solver-backed interference is checkpointed every this many
    /// placements (0 disables the checkpoints entirely).
    pub interference_every: usize,
}

impl ScaleConfig {
    /// Full-paper shape: one simulated day on the 672-node machine at
    /// roughly 85% offered load, jobs between 4 and 32 ranks.
    pub fn full() -> ScaleConfig {
        ScaleConfig {
            days: 1.0,
            jobs_per_hour: 38.0,
            service_median_s: 1800.0,
            service_sigma: 1.0,
            min_ranks: 4,
            max_ranks: 32,
            interference_every: 64,
        }
    }

    /// CI shape: a tenth of a day on the 48-node quick plane, sized so a
    /// smoke run finishes in seconds yet still queues jobs.
    pub fn quick() -> ScaleConfig {
        ScaleConfig {
            days: 0.1,
            jobs_per_hour: 30.0,
            service_median_s: 900.0,
            service_sigma: 1.0,
            min_ranks: 2,
            max_ranks: 12,
            interference_every: 16,
        }
    }
}

/// What one `(policy, seed)` day-scale run measured. Every float in here
/// is a deterministic function of the config, the system, the policy,
/// and the seed; [`ScaleReport::fingerprint`] digests the full placement
/// history so replays can be diffed byte-for-byte.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Policy the stream placed under.
    pub policy: PolicyKind,
    /// Stream seed.
    pub seed: u64,
    /// Jobs the Poisson stream offered inside the horizon.
    pub jobs_arrived: u64,
    /// Jobs that ran to completion (equals `jobs_arrived` after drain).
    pub jobs_finished: u64,
    /// Node-seconds busy over node-seconds offered, integrated across
    /// the whole run (drain included).
    pub utilization: f64,
    /// Mean seconds a job sat queued before its nodes came free.
    pub mean_wait_s: f64,
    /// Worst queue wait seen, seconds.
    pub max_wait_s: f64,
    /// Mean fragmentation index of the chosen plane, sampled at each
    /// placement (1 − longest free run / free count; 0 is unfragmented).
    pub mean_fragmentation: f64,
    /// Worst per-job interference slowdown across all checkpoints (1.0
    /// when jobs never share a cable, or when checkpoints are disabled).
    pub max_slowdown: f64,
    /// FNV-1a digest of every placement (job id, plane, ranks, start
    /// time, node list) plus the final utilization bits.
    pub fingerprint: u64,
}

/// A queued or running job in the day-scale stream.
#[derive(Debug, Clone, Copy)]
struct StreamJob {
    ranks: usize,
    arrival_s: f64,
    service_s: f64,
}

/// A departure event: `(end time, plane, job)` ordered by time then
/// insertion. Times come from one deterministic stream, so bit-compare
/// ordering is stable across platforms.
#[derive(Debug, Clone, Copy)]
struct Departure {
    end_s: f64,
    plane: usize,
    id: hxcap::JobId,
}

/// The day-scale allocation stream: one [`Allocator`] per plane of a
/// [`System`], one FIFO queue in front of them all, advanced event by
/// event by [`run_capacity_scale`].
struct ScaleStepper<'a> {
    cfg: ScaleConfig,
    policy: PolicyKind,
    seed: u64,
    allocs: Vec<Allocator<'a>>,
    caps: Vec<Vec<f64>>,
    rng: ChaCha8Rng,
    place_rng: ChaCha8Rng,
    now_s: f64,
    next_arrival_s: f64,
    horizon_s: f64,
    queue: VecDeque<StreamJob>,
    departures: Vec<Departure>,
    placements: u64,
    // Accumulators.
    jobs_arrived: u64,
    jobs_finished: u64,
    busy_node_s: f64,
    wait_sum_s: f64,
    wait_max_s: f64,
    frag_sum: f64,
    frag_samples: u64,
    max_slowdown: f64,
    fp: u64,
}

impl<'a> ScaleStepper<'a> {
    /// Builds the stream over every plane of `sys`, placing under
    /// `policy`, with all randomness derived from `seed`.
    fn new(sys: &'a System, policy: PolicyKind, cfg: ScaleConfig, seed: u64) -> ScaleStepper<'a> {
        let allocs: Vec<Allocator<'a>> = sys
            .planes()
            .map(|p| Allocator::new(p.topo(), p.routes(), p.pathdb()))
            .collect();
        let caps: Vec<Vec<f64>> = sys
            .planes()
            .map(|p| directed_capacities(p.topo()))
            .collect();
        // Two split streams: arrivals/sizes/services on one, placement
        // draws on the other, so the offered job stream is a pure
        // function of (cfg, seed) — identical across policies and plane
        // counts, which is what makes the tournament a fair comparison.
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5ca1_ab1e_0000_0001);
        let place_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x91ac_e000_0000_0002);
        let horizon_s = cfg.days * 86_400.0;
        let first = exp_draw(&mut rng, cfg.jobs_per_hour / 3600.0);
        ScaleStepper {
            cfg,
            policy,
            seed,
            allocs,
            caps,
            rng,
            place_rng,
            now_s: 0.0,
            next_arrival_s: first,
            horizon_s,
            queue: VecDeque::new(),
            departures: Vec::new(),
            placements: 0,
            jobs_arrived: 0,
            jobs_finished: 0,
            busy_node_s: 0.0,
            wait_sum_s: 0.0,
            wait_max_s: 0.0,
            frag_sum: 0.0,
            frag_samples: 0,
            max_slowdown: 1.0,
            fp: FNV_OFFSET,
        }
    }

    /// Whether every event — arrivals, queue, departures — is exhausted.
    fn done(&self) -> bool {
        self.next_arrival_s > self.horizon_s && self.queue.is_empty() && self.departures.is_empty()
    }

    /// Index of the earliest departure (ties go to the earliest-placed
    /// job, which sits first in the vector).
    fn next_departure(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, d) in self.departures.iter().enumerate() {
            match best {
                None => best = Some(i),
                Some(b) if d.end_s < self.departures[b].end_s => best = Some(i),
                _ => {}
            }
        }
        best
    }

    /// Advances simulated time, integrating busy node-seconds.
    fn advance_to(&mut self, t_s: f64) {
        let dt = t_s - self.now_s;
        if dt > 0.0 {
            let busy: usize = self
                .allocs
                .iter()
                .map(|a| a.free_bitmap().len() - a.free_nodes())
                .sum();
            self.busy_node_s += busy as f64 * dt;
            self.now_s = t_s;
        }
    }

    /// Tries to start queued jobs, strictly FIFO (no backfilling: a job
    /// that cannot fit blocks everything behind it, like the paper
    /// system's production scheduler). Planes are tried most-free-first.
    fn drain_queue(&mut self) {
        while let Some(&job) = self.queue.front() {
            // Most-free plane first; ties to the lowest index.
            let mut order: Vec<usize> = (0..self.allocs.len()).collect();
            order.sort_by_key(|&p| (usize::MAX - self.allocs[p].free_nodes(), p));
            let mut placed = false;
            for p in order {
                let draw = self.place_rng.gen::<u64>();
                match self.allocs[p].allocate(job.ranks, self.policy, draw) {
                    Ok(id) => {
                        self.queue.pop_front();
                        self.record_start(p, id, job);
                        placed = true;
                        break;
                    }
                    Err(_) => continue,
                }
            }
            if !placed {
                return;
            }
        }
    }

    /// Books a started job: wait metrics, fragmentation sample, departure
    /// event, fingerprint fold, interference checkpoint.
    fn record_start(&mut self, plane: usize, id: hxcap::JobId, job: StreamJob) {
        let wait = self.now_s - job.arrival_s;
        self.wait_sum_s += wait;
        self.wait_max_s = self.wait_max_s.max(wait);
        hxobs::sketch_record("cap.wait_s", self.seed, wait);
        let frag = self.allocs[plane].fragmentation();
        self.frag_sum += frag;
        self.frag_samples += 1;
        hxobs::sketch_record("cap.frag", self.seed, frag);
        self.departures.push(Departure {
            end_s: self.now_s + job.service_s,
            plane,
            id,
        });
        // Fold the placement into the run fingerprint.
        self.fp = fnv1a(self.fp, &id.0.to_le_bytes());
        self.fp = fnv1a(self.fp, &(plane as u64).to_le_bytes());
        self.fp = fnv1a(self.fp, &(job.ranks as u64).to_le_bytes());
        self.fp = fnv1a(self.fp, &self.now_s.to_bits().to_le_bytes());
        if let Some(live) = self.allocs[plane].job(id) {
            for n in &live.nodes {
                self.fp = fnv1a(self.fp, &(n.0 as u64).to_le_bytes());
            }
        }
        self.placements += 1;
        if self.cfg.interference_every > 0
            && self
                .placements
                .is_multiple_of(self.cfg.interference_every as u64)
        {
            self.checkpoint_interference();
        }
    }

    /// Solver-backed interference across every plane's live jobs.
    fn checkpoint_interference(&mut self) {
        for (p, a) in self.allocs.iter().enumerate() {
            if a.live_jobs() < 2 {
                continue;
            }
            let rep = interference(a, &self.caps[p]);
            let worst = rep.max_slowdown();
            self.max_slowdown = self.max_slowdown.max(worst);
            hxobs::sketch_record("cap.slowdown", self.seed, worst);
        }
    }

    /// Processes the single next event (one arrival or one departure).
    /// Returns `false` once the stream is exhausted.
    fn step(&mut self) -> bool {
        let next_dep = self.next_departure();
        let arrival_due = self.next_arrival_s <= self.horizon_s;
        match (arrival_due, next_dep) {
            (false, None) => {
                // Nothing can free nodes for a stuck over-large job: drop
                // it (cannot happen when max_ranks fits a plane, but keeps
                // the loop total).
                self.queue.pop_front().is_some() && !self.done()
            }
            (true, dep) => {
                let dep_time = dep.map(|i| self.departures[i].end_s).unwrap_or(f64::MAX);
                if self.next_arrival_s <= dep_time {
                    self.advance_to(self.next_arrival_s);
                    let lam = self.cfg.jobs_per_hour / 3600.0;
                    let gap = exp_draw(&mut self.rng, lam);
                    let span = (self.cfg.max_ranks - self.cfg.min_ranks) as u64;
                    let ranks = self.cfg.min_ranks
                        + if span == 0 {
                            0
                        } else {
                            (self.rng.gen::<u64>() % (span + 1)) as usize
                        };
                    let service_s = lognormal_draw(
                        &mut self.rng,
                        self.cfg.service_median_s,
                        self.cfg.service_sigma,
                    );
                    self.jobs_arrived += 1;
                    self.queue.push_back(StreamJob {
                        ranks,
                        arrival_s: self.now_s,
                        service_s,
                    });
                    self.next_arrival_s += gap;
                    self.drain_queue();
                } else {
                    self.depart(dep.unwrap());
                }
                true
            }
            (false, Some(i)) => {
                self.depart(i);
                !self.done()
            }
        }
    }

    fn depart(&mut self, idx: usize) {
        let d = self.departures.swap_remove(idx);
        self.advance_to(d.end_s);
        let _ = self.allocs[d.plane].release(d.id);
        self.jobs_finished += 1;
        self.drain_queue();
    }

    /// Runs the stream to exhaustion and seals the report.
    fn run(mut self) -> ScaleReport {
        while self.step() {}
        let total_nodes: usize = self.allocs.iter().map(|a| a.free_bitmap().len()).sum();
        let offered = total_nodes as f64 * self.now_s;
        let utilization = if offered > 0.0 {
            self.busy_node_s / offered
        } else {
            0.0
        };
        self.fp = fnv1a(self.fp, &utilization.to_bits().to_le_bytes());
        hxobs::gauge("cap.utilization", utilization);
        hxobs::count("cap.jobs_finished", self.jobs_finished);
        ScaleReport {
            policy: self.policy,
            seed: self.seed,
            jobs_arrived: self.jobs_arrived,
            jobs_finished: self.jobs_finished,
            utilization,
            mean_wait_s: if self.jobs_finished == 0 {
                0.0
            } else {
                self.wait_sum_s / self.jobs_finished as f64
            },
            max_wait_s: self.wait_max_s,
            mean_fragmentation: if self.frag_samples == 0 {
                0.0
            } else {
                self.frag_sum / self.frag_samples as f64
            },
            max_slowdown: self.max_slowdown,
            fingerprint: self.fp,
        }
    }
}

/// Exponential inter-arrival draw: `−ln(1−u)/λ`.
fn exp_draw(rng: &mut ChaCha8Rng, lambda_per_s: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).max(f64::MIN_POSITIVE).ln() / lambda_per_s
}

/// Lognormal service draw via Box–Muller: `median · exp(σ·z)`.
fn lognormal_draw(rng: &mut ChaCha8Rng, median_s: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    median_s * (sigma * z).exp()
}

/// Runs one `(policy, seed)` day-scale stream over `sys` to exhaustion.
pub fn run_capacity_scale(
    sys: &System,
    policy: PolicyKind,
    cfg: &ScaleConfig,
    seed: u64,
) -> ScaleReport {
    ScaleStepper::new(sys, policy, cfg.clone(), seed).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxload::proxy::{Amg, Swfft};
    use hxsim::NoiseModel;

    fn mini_mix() -> Vec<AppSlot> {
        vec![
            AppSlot {
                workload: Box::new(Amg { iters: 10 }),
                nodes: 12,
            },
            AppSlot {
                workload: Box::new(Swfft {
                    reps: 4,
                    local_bytes: 64 << 20,
                }),
                nodes: 16,
            },
        ]
    }

    #[test]
    fn capacity_runs_on_all_combos() {
        let sys = T2hx::mini().unwrap();
        let cfg = CapacityConfig {
            noise: NoiseModel::none(),
            ..CapacityConfig::default()
        };
        let mut totals = Vec::new();
        for combo in Combo::all() {
            let res = run_capacity_combo(&sys, combo, &mini_mix(), &cfg, 1);
            assert_eq!(res.apps.len(), 2);
            assert!(res.total_runs() > 0, "{}", combo.label());
            totals.push((combo.label(), res.total_runs()));
        }
        // Different combos produce different throughput.
        let first = totals[0].1;
        assert!(
            totals.iter().any(|&(_, t)| t != first),
            "all combos identical: {totals:?}"
        );
    }

    use hxroute::engines::Dfsssp;
    use hxtopo::hyperx::HyperXConfig;

    /// DFSSSP, as the `capacity_scale` harness routes: a system plane's
    /// sweep checks deadlock freedom, which SSSP on a HyperX fails.
    fn tiny_system(planes: usize) -> System {
        System::replicated_hyperx(HyperXConfig::new(vec![4, 4], 2), planes, |_| {
            Box::new(Dfsssp::default())
        })
        .unwrap()
    }

    fn tiny_cfg() -> ScaleConfig {
        ScaleConfig {
            days: 0.02,
            jobs_per_hour: 60.0,
            service_median_s: 300.0,
            service_sigma: 1.0,
            min_ranks: 2,
            max_ranks: 8,
            interference_every: 8,
        }
    }

    #[test]
    fn scale_stream_is_deterministic() {
        let sys = tiny_system(1);
        let a = run_capacity_scale(&sys, PolicyKind::Scattered, &tiny_cfg(), 7);
        let b = run_capacity_scale(&sys, PolicyKind::Scattered, &tiny_cfg(), 7);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.jobs_arrived, b.jobs_arrived);
        assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
        assert_eq!(a.mean_wait_s.to_bits(), b.mean_wait_s.to_bits());
        let c = run_capacity_scale(&sys, PolicyKind::Scattered, &tiny_cfg(), 8);
        assert_ne!(a.fingerprint, c.fingerprint, "seeds must steer the stream");
    }

    #[test]
    fn scale_policies_place_differently_on_one_offered_stream() {
        let sys = tiny_system(1);
        let reports: Vec<ScaleReport> = hxcap::POLICY_KINDS
            .iter()
            .map(|&p| run_capacity_scale(&sys, p, &tiny_cfg(), 3))
            .collect();
        assert_ne!(
            reports[0].fingerprint, reports[1].fingerprint,
            "contiguous vs scattered must differ"
        );
        assert_ne!(
            reports[0].fingerprint, reports[2].fingerprint,
            "contiguous vs network-aware must differ"
        );
        // The arrival stream is split from the placement stream: every
        // policy (and plane count) faces the identical offered jobs.
        let two = tiny_system(2);
        let r2 = run_capacity_scale(&two, PolicyKind::Contiguous, &tiny_cfg(), 3);
        for r in reports.iter().chain([&r2]) {
            assert_eq!(r.jobs_arrived, reports[0].jobs_arrived, "{:?}", r.policy);
        }
    }

    #[test]
    fn scale_stream_conserves_jobs_and_bounds_metrics() {
        let sys = tiny_system(1);
        let r = run_capacity_scale(&sys, PolicyKind::Contiguous, &tiny_cfg(), 11);
        assert!(r.jobs_arrived > 0, "the stream must offer jobs");
        assert_eq!(
            r.jobs_finished, r.jobs_arrived,
            "every placeable job must drain"
        );
        assert!(r.utilization > 0.0 && r.utilization <= 1.0, "{r:?}");
        assert!(r.mean_wait_s >= 0.0 && r.max_wait_s >= r.mean_wait_s);
        assert!((0.0..=1.0).contains(&r.mean_fragmentation), "{r:?}");
        assert!(r.max_slowdown >= 1.0, "{r:?}");
    }

    #[test]
    fn extra_planes_absorb_load() {
        // Same stream, twice the rails: waits cannot get worse.
        let one = tiny_system(1);
        let two = tiny_system(2);
        let cfg = ScaleConfig {
            jobs_per_hour: 240.0,
            ..tiny_cfg()
        };
        let r1 = run_capacity_scale(&one, PolicyKind::Contiguous, &cfg, 5);
        let r2 = run_capacity_scale(&two, PolicyKind::Contiguous, &cfg, 5);
        assert_eq!(r2.jobs_finished, r2.jobs_arrived);
        assert!(
            r2.mean_wait_s <= r1.mean_wait_s,
            "two planes queue no worse: {} vs {}",
            r2.mean_wait_s,
            r1.mean_wait_s
        );
    }
}
