//! Max-min fair bandwidth allocation (progressive filling).
//!
//! Progressive filling is the classical water-filling algorithm: repeatedly
//! find the directed cable with the smallest fair share among its unfrozen
//! flows, freeze those flows at that rate, subtract, repeat. The result is
//! the unique max-min fair allocation — the steady-state behaviour of
//! per-VL round-robin arbitration in an InfiniBand fabric, and the mechanism
//! behind the paper's Figure 1 (seven flows on one QDR cable get ~1/7 of
//! its bandwidth each).

use hxroute::DirLink;
use hxtopo::Topology;

/// A unidirectional traffic flow over a fixed path.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Directed cables the flow crosses (terminal cables included).
    pub path: Vec<DirLink>,
    /// Payload bytes.
    pub bytes: u64,
}

/// Per-direction capacities of every directed cable, indexed by
/// [`DirLink::index`].
pub fn directed_capacities(topo: &Topology) -> Vec<f64> {
    let mut cap = vec![0.0; topo.num_links() * 2];
    for (id, l) in topo.links() {
        let c = if l.active { l.capacity } else { 0.0 };
        cap[DirLink::new(id, true).index()] = c;
        cap[DirLink::new(id, false).index()] = c;
    }
    cap
}

/// Computes the max-min fair rate (bytes/s) of each flow.
///
/// `caps` comes from [`directed_capacities`]. Flows with empty paths (loopback
/// messages) get `f64::INFINITY`.
///
/// This is the one-shot front-end of the congestion engine: it runs the
/// same component-decomposed water-filling kernel as [`crate::solver`]'s
/// backends (see DESIGN.md §8 for why the decomposition is exact), so its
/// results are bit-identical to what a [`crate::FluidNet`] under either
/// backend computes for the same flow set.
pub fn max_min_rates(caps: &[f64], flows: &[&[DirLink]]) -> Vec<f64> {
    use crate::solver::{OneShot, SolverKind};
    if flows.is_empty() {
        return Vec::new();
    }
    let mut os = OneShot::new(SolverKind::Exact);
    os.rates(caps, flows.iter().copied()).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxtopo::{LinkClass, SwitchId, TopologyBuilder};

    /// Two switches joined by one cable, `n` nodes each.
    fn dumbbell(n: u32) -> Topology {
        let mut b = TopologyBuilder::new("dumbbell", 2);
        for i in 0..2 * n {
            b.attach_node(SwitchId(i / n));
        }
        b.link_switches(SwitchId(0), SwitchId(1), LinkClass::Aoc);
        b.build()
    }

    fn isl_dir(topo: &Topology) -> DirLink {
        let (id, _) = topo
            .links()
            .find(|(_, l)| l.class != LinkClass::Terminal)
            .unwrap();
        DirLink::new(id, true)
    }

    #[test]
    fn seven_flows_share_one_cable() {
        // The paper's Figure 1 core effect: 7 node pairs crossing one QDR
        // cable each get ~1/7 of its bandwidth.
        let t = dumbbell(7);
        let caps = directed_capacities(&t);
        let isl = isl_dir(&t);
        let flows: Vec<Vec<DirLink>> = (0..7).map(|_| vec![isl]).collect();
        let refs: Vec<&[DirLink]> = flows.iter().map(|f| f.as_slice()).collect();
        let rates = max_min_rates(&caps, &refs);
        let cap = caps[isl.index()];
        for r in &rates {
            assert!((r - cap / 7.0).abs() < cap * 1e-6, "rate {r}");
        }
    }

    #[test]
    fn disjoint_flows_get_full_capacity() {
        let t = dumbbell(2);
        let caps = directed_capacities(&t);
        // Two flows on different terminal cables.
        let l0 = DirLink::new(t.node_switch(hxtopo::NodeId(0)).1, false);
        let l1 = DirLink::new(t.node_switch(hxtopo::NodeId(1)).1, false);
        let flows = [vec![l0], vec![l1]];
        let refs: Vec<&[DirLink]> = flows.iter().map(|f| f.as_slice()).collect();
        let rates = max_min_rates(&caps, &refs);
        let cap = caps[l0.index()];
        assert!((rates[0] - cap).abs() < 1.0);
        assert!((rates[1] - cap).abs() < 1.0);
    }

    #[test]
    fn max_min_is_water_filling() {
        // Flow A crosses links 1 and 2; flow B only link 1; flow C only
        // link 2. Capacities equal: A is bottlenecked at cap/2 on both, and
        // B, C soak up the rest: cap/2 each... then B and C rise to
        // cap - cap/2 = cap/2. All equal here; make link 2 twice as wide to
        // see the difference.
        let mut b = TopologyBuilder::new("chain", 3);
        b.attach_node(SwitchId(0));
        let l1 = b.link_switches(SwitchId(0), SwitchId(1), LinkClass::Aoc);
        let l2 = b.link_switches(SwitchId(1), SwitchId(2), LinkClass::Aoc);
        let t = b.build();
        let mut caps = directed_capacities(&t);
        let d1 = DirLink::new(l1, true);
        let d2 = DirLink::new(l2, true);
        caps[d2.index()] = 2.0 * caps[d1.index()];
        let c = caps[d1.index()];
        let flows = [vec![d1, d2], vec![d1], vec![d2]];
        let refs: Vec<&[DirLink]> = flows.iter().map(|f| f.as_slice()).collect();
        let r = max_min_rates(&caps, &refs);
        // Link1 shared by A and B -> each c/2. Link2: A uses c/2, C gets
        // 2c - c/2 = 1.5c.
        assert!((r[0] - c / 2.0).abs() < c * 1e-6, "{r:?}");
        assert!((r[1] - c / 2.0).abs() < c * 1e-6, "{r:?}");
        assert!((r[2] - 1.5 * c).abs() < c * 1e-6, "{r:?}");
    }

    #[test]
    fn empty_path_is_infinite() {
        let t = dumbbell(1);
        let caps = directed_capacities(&t);
        let flows = [vec![]];
        let refs: Vec<&[DirLink]> = flows.iter().map(|f| f.as_slice()).collect();
        let r = max_min_rates(&caps, &refs);
        assert!(r[0].is_infinite());
    }

    #[test]
    fn rates_conserve_capacity() {
        // Random-ish flow set: total allocated on any link <= capacity.
        let t = dumbbell(4);
        let caps = directed_capacities(&t);
        let isl = isl_dir(&t);
        let mut flows: Vec<Vec<DirLink>> = Vec::new();
        for n in 0..4u32 {
            let term = DirLink::leaving(
                &t,
                t.node_switch(hxtopo::NodeId(n)).1,
                hxtopo::Endpoint::Node(hxtopo::NodeId(n)),
            );
            flows.push(vec![term, isl]);
        }
        let refs: Vec<&[DirLink]> = flows.iter().map(|f| f.as_slice()).collect();
        let rates = max_min_rates(&caps, &refs);
        let mut used = vec![0.0f64; caps.len()];
        for (f, r) in flows.iter().zip(&rates) {
            for dl in f {
                used[dl.index()] += r;
            }
        }
        for (li, &u) in used.iter().enumerate() {
            assert!(u <= caps[li] * (1.0 + 1e-6), "link {li} over capacity");
        }
        // The shared ISL must be fully utilized.
        assert!(used[isl.index()] > caps[isl.index()] * 0.999);
    }
}
