//! Intel MPI Benchmarks (IMB) drivers — the single-mode MPI-1 collectives
//! of Figure 4, Barrier (Figure 5b), plus the paper's two capacity-run
//! extras: Multi-PingPong (MuPP) and the EmDL deep-learning Allreduce
//! (modified IMB Allreduce alternating communication with a 0.1 s compute
//! phase, footnote 12).

use hxmpi::rounds::RoundProgram;
use hxmpi::{estimate, Fabric};

/// The IMB collectives evaluated in Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImbCollective {
    /// Figure 4a.
    Bcast,
    /// Figure 4b.
    Gather,
    /// Figure 4c.
    Scatter,
    /// Figure 4d.
    Reduce,
    /// Figure 4e.
    Allreduce,
    /// Figure 4f.
    Alltoall,
    /// Figure 5b.
    Barrier,
}

impl ImbCollective {
    /// All Figure-4 collectives in figure order.
    pub fn figure4() -> [ImbCollective; 6] {
        [
            ImbCollective::Bcast,
            ImbCollective::Gather,
            ImbCollective::Scatter,
            ImbCollective::Reduce,
            ImbCollective::Allreduce,
            ImbCollective::Alltoall,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ImbCollective::Bcast => "Bcast",
            ImbCollective::Gather => "Gather",
            ImbCollective::Scatter => "Scatter",
            ImbCollective::Reduce => "Reduce",
            ImbCollective::Allreduce => "Allreduce",
            ImbCollective::Alltoall => "Alltoall",
            ImbCollective::Barrier => "Barrier",
        }
    }

    /// The message sizes the paper's grids sweep: powers of two from 1 B
    /// (4 B for the reduction collectives, matching Figure 4d/4e) to 4 MiB.
    pub fn message_sizes(&self) -> Vec<u64> {
        let start: u64 = match self {
            ImbCollective::Reduce | ImbCollective::Allreduce => 4,
            ImbCollective::Barrier => return vec![0],
            _ => 1,
        };
        let mut v = Vec::new();
        let mut b = start;
        while b <= 4 << 20 {
            v.push(b);
            b *= 2;
        }
        v
    }

    /// One IMB iteration of this collective at `n` ranks.
    pub fn program(&self, n: usize, bytes: u64) -> RoundProgram {
        let mut rp = RoundProgram::new(n);
        match self {
            ImbCollective::Bcast => rp.bcast(0, bytes),
            ImbCollective::Gather => rp.gather(0, bytes),
            ImbCollective::Scatter => rp.scatter(0, bytes),
            ImbCollective::Reduce => rp.reduce(0, bytes),
            ImbCollective::Allreduce => rp.allreduce(bytes),
            ImbCollective::Alltoall => rp.alltoall(bytes),
            ImbCollective::Barrier => rp.barrier(),
        }
        rp
    }

    /// IMB latency (µs) of one operation over the fabric — the `t_min`
    /// quantity of Figure 4 before repetitions/noise.
    pub fn latency_us(&self, fabric: &Fabric<'_>, n: usize, bytes: u64) -> f64 {
        estimate(fabric, &self.program(n, bytes)) * 1e6
    }
}

/// IMB Multi-PingPong as a capacity workload (MuPP in Figure 7): pairs
/// `(i, i + n/2)` — maximally sensitive to placements that separate the
/// halves.
#[derive(Debug, Clone)]
pub struct Mupp {
    /// Ping-pong iterations per run.
    pub iters: u64,
    /// Message size.
    pub bytes: u64,
}

impl Default for Mupp {
    fn default() -> Self {
        Mupp {
            iters: 12_000_000,
            bytes: 4096,
        }
    }
}

impl crate::workload::Workload for Mupp {
    fn name(&self) -> &'static str {
        "MuPP"
    }

    fn scaling(&self) -> crate::workload::Scaling {
        crate::workload::Scaling::Weak
    }

    fn metric(&self) -> crate::workload::MetricKind {
        crate::workload::MetricKind::LatencyUs
    }

    fn metric_value(&self, _n: usize, seconds: f64) -> f64 {
        seconds / self.iters as f64 * 1e6
    }

    fn skeleton(&self, n: usize) -> crate::workload::Skeleton {
        let mut rp = RoundProgram::new(n);
        rp.multi_pingpong(self.bytes);
        crate::workload::Skeleton {
            setup: 0.0,
            iters: self.iters as f64,
            iter: rp,
        }
    }
}

/// The paper's EmDL benchmark as a capacity workload: IMB Allreduce
/// alternating with a 0.1 s usleep compute phase (footnote 12).
#[derive(Debug, Clone)]
pub struct Emdl {
    /// Compute/allreduce alternations per run.
    pub iters: u32,
    /// Gradient size per allreduce.
    pub bytes: u64,
}

impl Default for Emdl {
    fn default() -> Self {
        Emdl {
            iters: 2500,
            bytes: 26 << 20,
        }
    }
}

impl crate::workload::Workload for Emdl {
    fn name(&self) -> &'static str {
        "EmDL"
    }

    fn scaling(&self) -> crate::workload::Scaling {
        crate::workload::Scaling::Weak
    }

    fn skeleton(&self, n: usize) -> crate::workload::Skeleton {
        let mut rp = RoundProgram::new(n);
        rp.compute(0.1);
        rp.allreduce(self.bytes);
        crate::workload::Skeleton {
            setup: 0.0,
            iters: self.iters as f64,
            iter: rp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use hxmpi::{Placement, Pml};
    use hxroute::engines::{Dfsssp, RoutingEngine};
    use hxroute::Routes;
    use hxsim::NetParams;
    use hxtopo::hyperx::HyperXConfig;
    use hxtopo::{NodeId, Topology};

    fn setup() -> (Topology, Routes) {
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = Dfsssp::default().route(&t).unwrap();
        (t, r)
    }

    fn fabric<'a>(t: &'a Topology, r: &'a Routes, n: usize) -> Fabric<'a> {
        let nodes: Vec<NodeId> = t.nodes().collect();
        Fabric::new(
            t,
            r,
            Placement::linear(&nodes, n),
            Pml::Ob1,
            NetParams::qdr(),
        )
        .expect("routable fabric")
    }

    #[test]
    fn message_size_lists_match_figure4() {
        assert_eq!(ImbCollective::Bcast.message_sizes().len(), 23); // 1..4Mi
        assert_eq!(ImbCollective::Allreduce.message_sizes().len(), 21); // 4..4Mi
        assert_eq!(ImbCollective::Barrier.message_sizes(), vec![0]);
        assert_eq!(
            *ImbCollective::Alltoall.message_sizes().last().unwrap(),
            4 << 20
        );
    }

    #[test]
    fn latency_grows_with_size_and_ranks() {
        let (t, r) = setup();
        let f = fabric(&t, &r, 16);
        for c in ImbCollective::figure4() {
            let small = c.latency_us(&f, 8, 64);
            let large = c.latency_us(&f, 8, 1 << 20);
            assert!(large > small, "{}: {small} !< {large}", c.name());
            let few = c.latency_us(&f, 4, 1024);
            let many = c.latency_us(&f, 16, 1024);
            assert!(many > few, "{}: {few} !< {many}", c.name());
        }
    }

    #[test]
    fn barrier_is_microseconds() {
        let (t, r) = setup();
        let f = fabric(&t, &r, 16);
        let lat = ImbCollective::Barrier.latency_us(&f, 16, 0);
        // Paper Fig 5b: tens to a few hundred µs at scale.
        assert!((1.0..500.0).contains(&lat), "{lat}");
    }

    #[test]
    fn emdl_dominated_by_compute() {
        let (t, r) = setup();
        let f = fabric(&t, &r, 8);
        let emdl = Emdl {
            iters: 5,
            bytes: 1 << 20,
        };
        let s = emdl.kernel_seconds(&f, 8);
        assert!(s >= 0.5, "{s}"); // 5 x 0.1s sleep
        assert!(s < 0.7, "{s}");
    }

    #[test]
    fn mupp_and_emdl_capacity_windows() {
        let (t, r) = setup();
        let f = fabric(&t, &r, 32);
        let mupp = Mupp::default().kernel_seconds(&f, 32);
        assert!((20.0..400.0).contains(&mupp), "MuPP {mupp}");
        let emdl = Emdl::default().kernel_seconds(&f, 32);
        assert!((250.0..450.0).contains(&emdl), "EmDL {emdl}");
        // EmDL is compute-floor bound: at least iters x 0.1 s.
        assert!(emdl >= 250.0);
    }

    #[test]
    fn mupp_scales_with_iters() {
        let (t, r) = setup();
        let f = fabric(&t, &r, 8);
        let mupp = |iters| Mupp { iters, bytes: 4096 }.kernel_seconds(&f, 8);
        let (one, ten) = (mupp(1), mupp(10));
        assert!((ten / one - 10.0).abs() < 0.01, "{one} {ten}");
    }
}
