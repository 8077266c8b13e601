//! Solver-backed inter-job interference: the one interference model of
//! `hxcap`.
//!
//! FatPaths (Besta et al.) argues that congestion is a property of
//! *shared cables*, not hop counts: two jobs with identical locality
//! scores can behave completely differently depending on whether their
//! traffic meets on a wire. The private kernel `slowdowns` measures
//! exactly that, using the same max-min-fair [`hxsim::solver`] kernel the
//! simulators run on: it rates every job's flows *solo* (alone on an idle
//! fabric) and *shared* (all jobs solved together), and the ratio is the
//! job's slowdown — 1.0 when its cables are private, rising as co-runners
//! pile onto them. Two callers feed it flows:
//!
//! * [`interference`] passes the allocator's live ring paths (the
//!   `capacity_scale` checkpoints),
//! * [`crate::run_capacity`] passes each application's own exchange
//!   traffic and dilates its communication time by the slowdown
//!   (Figure 7).
//!
//! Rates are bit-identical across solver backends (DESIGN.md §8), so
//! every number here is byte-stable per allocation state and safe to
//! fold into the `capacity_scale` fingerprints.

use crate::alloc::{Allocator, JobId};
use hxroute::DirLink;
use hxsim::solver::OneShot;
use hxsim::SolverKind;

/// One live job's interference outcome.
#[derive(Debug, Clone)]
pub struct JobInterference {
    /// The job.
    pub id: JobId,
    /// Victim slowdown: mean ring-flow rate alone on the fabric over the
    /// mean with every live job solved together (1.0 when nothing is
    /// shared or the job has no flows).
    pub slowdown: f64,
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
        self.per_job.iter().map(|j| j.slowdown).fold(1.0, f64::max)
    }
}

/// Rates every live job's ring flows solo and shared. `caps` comes from
/// [`hxsim::flow::directed_capacities`] for the allocator's plane; jobs
/// on other planes live in other allocators and never contend.
pub fn interference(alloc: &Allocator<'_>, caps: &[f64]) -> InterferenceReport {
    let jobs: Vec<&[Vec<DirLink>]> = alloc.jobs().map(|(_, j)| j.paths.as_slice()).collect();
    let per_job = alloc
        .jobs()
        .zip(slowdowns(caps, &jobs))
        .map(|((id, _), slowdown)| JobInterference { id, slowdown })
        .collect();
    InterferenceReport { per_job }
}

/// Per-job slowdown `solo / shared`, where each rate is the job's mean
/// finite flow rate (Exact max-min) with all `jobs` solved together and
/// with the job alone; 1.0 when either rate is 0 (a job without flows).
pub(crate) fn slowdowns(caps: &[f64], jobs: &[&[Vec<DirLink>]]) -> Vec<f64> {
    let mut os = OneShot::new(SolverKind::Exact);
    let shared = mean_rates(&mut os, caps, jobs);
    jobs.iter()
        .zip(shared)
        .map(|(&job, shared)| {
            let solo = mean_rates(&mut os, caps, &[job])[0];
            if shared <= 0.0 || solo <= 0.0 {
                1.0
            } else {
                solo / shared
            }
        })
        .collect()
}

/// Solves every job's flows in one shot and averages the rates per job.
fn mean_rates(os: &mut OneShot, caps: &[f64], jobs: &[&[Vec<DirLink>]]) -> Vec<f64> {
    let rates = os.rates(caps, jobs.iter().flat_map(|j| j.iter().map(Vec::as_slice)));
    let mut off = 0usize;
    jobs.iter()
        .map(|j| {
            let mean = mean_finite(&rates[off..off + j.len()]);
            off += j.len();
            mean
        })
        .collect()
}

/// Mean of the finite entries of a rate slice (flows over a shared cable
/// are always finite; loopback self-flows are infinite and carry no
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind::{Contiguous, Scattered};
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
    }

    #[test]
    fn scattered_jobs_interfere_more_than_contiguous() {
        let (topo, routes, db) = ctx();
        let caps = directed_capacities(&topo);
        // Four contiguous 8-rank jobs: one per quadrant, private cables.
        let mut tight = Allocator::new(&topo, &routes, &db);
        for i in 0..4 {
            tight.allocate(8, Contiguous, i).unwrap();
        }
        let tight_r = interference(&tight, &caps);
        // Four scattered 8-rank jobs: rings sprawl over shared cables.
        let mut loose = Allocator::new(&topo, &routes, &db);
        for i in 0..4 {
            loose.allocate(8, Scattered, i).unwrap();
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
            assert!(j.slowdown >= 0.99, "{:?}", j);
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let (topo, routes, db) = ctx();
        let caps = directed_capacities(&topo);
        let mut a = Allocator::new(&topo, &routes, &db);
        for i in 0..3 {
            a.allocate(8, Scattered, i).unwrap();
        }
        let r1 = interference(&a, &caps);
        let r2 = interference(&a, &caps);
        for (x, y) in r1.per_job.iter().zip(&r2.per_job) {
            assert_eq!(x.slowdown.to_bits(), y.slowdown.to_bits());
        }
    }
}
