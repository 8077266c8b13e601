//! Solver-backed inter-job interference metrics.
//!
//! FatPaths (Besta et al.) argues that congestion is a property of
//! *shared cables*, not hop counts: two jobs with identical locality
//! scores can behave completely differently depending on whether their
//! traffic meets on a wire. This module measures exactly that, using the
//! same max-min-fair [`hxsim::solver`] kernel the simulators run on:
//!
//! * [`interference`] rates every live job's ring flows *solo* (alone on
//!   an idle fabric) and *shared* (all live jobs solved together); the
//!   ratio is the job's slowdown — 1.0 when its cables are private,
//!   rising as co-running rings pile onto them.
//! * [`pairwise_loss`] isolates victim/aggressor pairs: the rate a
//!   victim loses when exactly one aggressor co-runs, skipping pairs
//!   whose rings share no cable (their loss is structurally zero).
//!
//! Rates are bit-identical across solver backends (DESIGN.md §8), so
//! every number here is byte-stable per allocation state and safe to
//! fold into the `capacity_scale` fingerprints.

use crate::alloc::{Allocator, JobId, LiveJob};
use hxroute::DirLink;
use hxsim::solver::OneShot;
use hxsim::SolverKind;

/// One live job's interference outcome.
#[derive(Debug, Clone)]
pub struct JobInterference {
    /// The job.
    pub id: JobId,
    /// Plane (rail) the job's flows were grouped under (0 on single-plane
    /// systems).
    pub plane: u32,
    /// Mean ring-flow rate with the job alone on the fabric (bytes/s;
    /// infinite-rate loopback flows excluded). 0.0 for single-rank jobs
    /// with no flows.
    pub solo_rate: f64,
    /// Mean ring-flow rate with every co-planar job solved together.
    pub shared_rate: f64,
}

impl JobInterference {
    /// Victim slowdown: `solo / shared` (1.0 when nothing is shared or
    /// the job has no flows).
    pub fn slowdown(&self) -> f64 {
        if self.shared_rate <= 0.0 || self.solo_rate <= 0.0 {
            1.0
        } else {
            self.solo_rate / self.shared_rate
        }
    }
}

/// Interference outcomes of every live job at one allocation state.
#[derive(Debug, Clone, Default)]
pub struct InterferenceReport {
    /// Per-job outcomes, in job-id order.
    pub per_job: Vec<JobInterference>,
}

impl InterferenceReport {
    /// Largest per-job slowdown (1.0 when no job is slowed).
    pub fn max_slowdown(&self) -> f64 {
        self.per_job
            .iter()
            .map(|j| j.slowdown())
            .fold(1.0, f64::max)
    }
}

/// Mean of the finite entries of a rate slice (ring flows over a shared
/// cable are always finite; loopback self-flows are infinite and carry no
/// interference signal).
fn mean_finite(rates: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u32;
    for &r in rates {
        if r.is_finite() {
            sum += r;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn solve_mean(os: &mut OneShot, caps: &[f64], paths: &[&LiveJob]) -> Vec<(usize, f64)> {
    // Solve all jobs' flows in one shot, then average per job.
    let flat: Vec<&[DirLink]> = paths
        .iter()
        .flat_map(|j| j.paths.iter().map(|p| p.as_slice()))
        .collect();
    let rates = os.rates(caps, flat.iter().copied()).to_vec();
    let mut out = Vec::with_capacity(paths.len());
    let mut off = 0usize;
    for (ji, j) in paths.iter().enumerate() {
        let n = j.paths.len();
        out.push((ji, mean_finite(&rates[off..off + n])));
        off += n;
    }
    out
}

/// Rates every live job's ring flows solo and shared, grouped by plane:
/// `plane_of(job id)` names the rail a job's traffic rides (return 0
/// everywhere for a single-plane system), and jobs on different planes
/// never contend. `caps` comes from
/// [`hxsim::flow::directed_capacities`] for the plane topology.
pub fn interference_planes(
    alloc: &Allocator<'_>,
    caps: &[f64],
    plane_of: impl Fn(JobId) -> u32,
) -> InterferenceReport {
    let mut os = OneShot::new(SolverKind::Exact);
    let mut groups: std::collections::BTreeMap<u32, Vec<(JobId, &LiveJob)>> = Default::default();
    for (id, job) in alloc.jobs() {
        groups.entry(plane_of(id)).or_default().push((id, job));
    }
    let mut per_job = Vec::new();
    for (plane, members) in groups {
        let jobs: Vec<&LiveJob> = members.iter().map(|&(_, j)| j).collect();
        let shared = solve_mean(&mut os, caps, &jobs);
        for (idx, (id, job)) in members.iter().enumerate() {
            let solo = solve_mean(&mut os, caps, &[job]);
            per_job.push(JobInterference {
                id: *id,
                plane,
                solo_rate: solo[0].1,
                shared_rate: shared[idx].1,
            });
        }
    }
    per_job.sort_by_key(|j| j.id);
    InterferenceReport { per_job }
}

/// Single-plane convenience wrapper of [`interference_planes`].
pub fn interference(alloc: &Allocator<'_>, caps: &[f64]) -> InterferenceReport {
    interference_planes(alloc, caps, |_| 0)
}

/// Victim/aggressor decomposition: for every ordered pair of live jobs
/// whose rings share at least one cable, the victim's fractional rate
/// loss `1 - shared(victim | aggressor) / solo(victim)` when exactly the
/// aggressor co-runs. Pairs with disjoint rings are skipped — their loss
/// is structurally zero. Returned as `(victim, aggressor, loss)` in
/// job-id order.
pub fn pairwise_loss(alloc: &Allocator<'_>, caps: &[f64]) -> Vec<(JobId, JobId, f64)> {
    let jobs: Vec<(JobId, &LiveJob)> = alloc.jobs().collect();
    let mut os = OneShot::new(SolverKind::Exact);
    let mut out = Vec::new();
    for &(vid, victim) in &jobs {
        if victim.paths.is_empty() {
            continue;
        }
        let solo = solve_mean(&mut os, caps, &[victim])[0].1;
        if solo <= 0.0 {
            continue;
        }
        for &(aid, aggressor) in &jobs {
            if aid == vid {
                continue;
            }
            // Disjoint rings cannot contend; skip the solve.
            if !share_a_cable(victim, aggressor) {
                continue;
            }
            let both = solve_mean(&mut os, caps, &[victim, aggressor]);
            let loss = 1.0 - both[0].1 / solo;
            out.push((vid, aid, loss.max(0.0)));
        }
    }
    out
}

/// Whether two jobs' deduplicated, sorted ring-cable lists intersect.
fn share_a_cable(a: &LiveJob, b: &LiveJob) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.links.len() && j < b.links.len() {
        match a.links[i].cmp(&b.links[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Contiguous, Scattered};
    use crate::Allocator;
    use hxroute::engines::{RoutingEngine, Sssp};
    use hxroute::{PathDb, Routes};
    use hxsim::flow::directed_capacities;
    use hxtopo::hyperx::HyperXConfig;
    use hxtopo::Topology;

    fn ctx() -> (Topology, Routes, PathDb) {
        let topo = HyperXConfig::new(vec![4, 4], 2).build();
        let routes = Sssp::default().route(&topo).unwrap();
        let db = PathDb::build(&topo, &routes, 1, 1).unwrap();
        (topo, routes, db)
    }

    #[test]
    fn empty_allocator_reports_nothing() {
        let (topo, routes, db) = ctx();
        let a = Allocator::new(&topo, &routes, &db);
        let caps = directed_capacities(&topo);
        let r = interference(&a, &caps);
        assert!(r.per_job.is_empty());
        assert_eq!(r.max_slowdown(), 1.0);
        assert!(pairwise_loss(&a, &caps).is_empty());
    }

    #[test]
    fn scattered_jobs_interfere_more_than_contiguous() {
        let (topo, routes, db) = ctx();
        let caps = directed_capacities(&topo);
        // Four contiguous 8-rank jobs: one per quadrant, private cables.
        let mut tight = Allocator::new(&topo, &routes, &db);
        for i in 0..4 {
            tight.allocate(8, &Contiguous, i).unwrap();
        }
        let tight_r = interference(&tight, &caps);
        // Four scattered 8-rank jobs: rings sprawl over shared cables.
        let mut loose = Allocator::new(&topo, &routes, &db);
        for i in 0..4 {
            loose.allocate(8, &Scattered, i).unwrap();
        }
        let loose_r = interference(&loose, &caps);
        assert!(
            loose_r.max_slowdown() >= tight_r.max_slowdown(),
            "scattered {:.3} must not beat contiguous {:.3}",
            loose_r.max_slowdown(),
            tight_r.max_slowdown()
        );
        // Slowdowns hover at or above 1 (max-min filling is not strictly
        // per-flow monotone, but a job's mean cannot meaningfully gain
        // from co-runners).
        for j in tight_r.per_job.iter().chain(&loose_r.per_job) {
            assert!(j.slowdown() >= 0.99, "{:?}", j);
        }
    }

    #[test]
    fn planes_isolate_jobs() {
        let (topo, routes, db) = ctx();
        let caps = directed_capacities(&topo);
        let mut a = Allocator::new(&topo, &routes, &db);
        let j0 = a.allocate(16, &Scattered, 1).unwrap();
        let j1 = a.allocate(16, &Scattered, 2).unwrap();
        // Same fabric, but each job on its own rail: no contention.
        let split = interference_planes(&a, &caps, |id| if id == j0 { 0 } else { 1 });
        assert!(
            (split.max_slowdown() - 1.0).abs() < 1e-9,
            "cross-plane jobs cannot contend: {}",
            split.max_slowdown()
        );
        // On one shared rail the same pair does contend.
        let merged = interference(&a, &caps);
        assert!(merged.max_slowdown() >= split.max_slowdown());
        let _ = j1;
    }

    #[test]
    fn pairwise_loss_names_victims_and_aggressors() {
        let (topo, routes, db) = ctx();
        let caps = directed_capacities(&topo);
        let mut a = Allocator::new(&topo, &routes, &db);
        a.allocate(16, &Scattered, 3).unwrap();
        a.allocate(16, &Scattered, 4).unwrap();
        let pairs = pairwise_loss(&a, &caps);
        // Two 16-rank scattered jobs on a 32-node plane must collide.
        assert!(!pairs.is_empty(), "scattered halves must share a cable");
        for (v, ag, loss) in &pairs {
            assert_ne!(v, ag);
            assert!((0.0..=1.0).contains(loss), "loss {loss}");
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let (topo, routes, db) = ctx();
        let caps = directed_capacities(&topo);
        let mut a = Allocator::new(&topo, &routes, &db);
        for i in 0..3 {
            a.allocate(8, &Scattered, i).unwrap();
        }
        let r1 = interference(&a, &caps);
        let r2 = interference(&a, &caps);
        for (x, y) in r1.per_job.iter().zip(&r2.per_job) {
            assert_eq!(x.solo_rate.to_bits(), y.solo_rate.to_bits());
            assert_eq!(x.shared_rate.to_bits(), y.shared_rate.to_bits());
        }
    }
}
