//! Communication-profile recording — the ibprof role of Section 3.2.2.
//!
//! The paper records, per benchmark/input/rank-count, the absolute bytes
//! every rank pair exchanges (including the point-to-point messages hiding
//! inside collectives, which high-level tools miss). Here the recorder
//! walks a workload's round program — which already contains the exploded
//! point-to-point messages of every collective — and accumulates the
//! rank-level byte matrix; combined with a placement it yields the
//! node-level [`Demand`] PARX ingests. Profiles are placement-oblivious
//! exactly as the paper notes (footnote 6): record once per (workload, n),
//! bind to nodes at job submission.

use crate::workload::Workload;
use hxmpi::rounds::{Phase, RoundProgram};
use hxmpi::Placement;
use hxroute::Demand;

/// Rank-level byte matrix (placement-oblivious profile).
#[derive(Debug, Clone)]
pub struct RankProfile {
    n: usize,
    bytes: Vec<u64>,
}

impl RankProfile {
    /// Records one execution of a round program.
    pub fn record(prog: &RoundProgram) -> RankProfile {
        Self::record_scaled(prog, 1.0)
    }

    /// Records a program executed `factor` times (e.g. the iteration count
    /// of a workload skeleton).
    pub fn record_scaled(prog: &RoundProgram, factor: f64) -> RankProfile {
        let n = prog.n;
        let mut bytes = vec![0u64; n * n];
        for phase in &prog.phases {
            if let Phase::Exchange(msgs) = phase {
                for &(src, dst, b) in msgs.iter() {
                    if src != dst {
                        bytes[src * n + dst] += (b as f64 * factor) as u64;
                    }
                }
            }
        }
        RankProfile { n, bytes }
    }

    /// Records a workload's full run profile at `n` ranks.
    pub fn of_workload(w: &dyn Workload, n: usize) -> RankProfile {
        let sk = w.skeleton(n);
        Self::record_scaled(&sk.iter, sk.iters)
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.n
    }

    /// Bytes rank `src` sends to rank `dst` over the run.
    pub fn bytes(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.n + dst]
    }

    /// Total bytes recorded.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Binds the rank profile to a node allocation, producing the
    /// node-level demand file for PARX (the job-submission/OpenSM
    /// interface of Section 4.4.3).
    pub fn bind(&self, placement: &Placement, num_nodes: usize) -> Demand {
        assert!(placement.num_ranks() >= self.n);
        let mut d = Demand::new(num_nodes);
        for src in 0..self.n {
            for dst in 0..self.n {
                let b = self.bytes(src, dst);
                if b > 0 {
                    d.add(placement.node(src), placement.node(dst), b);
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::Swfft;
    use hxtopo::NodeId;

    #[test]
    fn records_collective_point_to_point() {
        let mut rp = RoundProgram::new(4);
        rp.allreduce_ring(4000);
        let p = RankProfile::record(&rp);
        // Ring: each rank sends 2*(n-1) chunks of 1000 B to its successor.
        assert_eq!(p.bytes(0, 1), 6000);
        assert_eq!(p.bytes(3, 0), 6000);
        assert_eq!(p.bytes(0, 2), 0);
        assert_eq!(p.total(), 4 * 6000);
    }

    #[test]
    fn scaling_multiplies() {
        let mut rp = RoundProgram::new(3);
        rp.exchange(vec![(0, 1, 100)]);
        let p = RankProfile::record_scaled(&rp, 50.0);
        assert_eq!(p.bytes(0, 1), 5000);
    }

    #[test]
    fn workload_profile_is_dense_for_transpose_codes() {
        let w = Swfft {
            reps: 2,
            local_bytes: 1 << 20,
        };
        let p = RankProfile::of_workload(&w, 16);
        assert!(p.total() > 0);
        // A 2-D FFT touches every pair within each row/column line.
        let touched = (0..16)
            .flat_map(|i| (0..16).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j && p.bytes(i, j) > 0)
            .count();
        assert!(touched >= 16 * 6, "only {touched} pairs touched");
    }

    #[test]
    fn bind_respects_placement() {
        let mut rp = RoundProgram::new(2);
        rp.exchange(vec![(0, 1, 777)]);
        let p = RankProfile::record(&rp);
        let placement = Placement::explicit(vec![NodeId(9), NodeId(3)], "test");
        let d = p.bind(&placement, 12);
        assert_eq!(d.sends(NodeId(9)), &[(NodeId(3), 777)]);
        assert!(d.sends(NodeId(3)).is_empty());
    }

    #[test]
    fn profile_is_placement_oblivious() {
        // Same workload, same n => same rank profile regardless of where
        // ranks later land (paper footnote 6).
        let w = Swfft {
            reps: 1,
            local_bytes: 1 << 18,
        };
        let a = RankProfile::of_workload(&w, 8);
        let b = RankProfile::of_workload(&w, 8);
        assert_eq!(a.bytes, b.bytes);
    }
}
