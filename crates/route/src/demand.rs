//! Communication-demand matrices — the input PARX ingests.
//!
//! The paper records, with a low-level IB profiler, the absolute number of
//! bytes transferred between every pair of MPI ranks, then normalizes to
//! `0..=255` (0 = no traffic, 1 = lowest non-zero, 255 = heaviest pair;
//! Section 3.2.3). A job-submission interface turns the rank-based profile
//! plus the selected node allocation into the node/LID-based demand file the
//! routing engine consumes; here that is `hxload`'s `RankProfile::bind`,
//! which builds a [`Demand`] over nodes from rank-level byte counts and a
//! placement.

use hxtopo::NodeId;

/// Raw byte counts between node pairs (sparse, per source).
#[derive(Debug, Clone, Default)]
pub struct Demand {
    /// `entries[i]` lists `(destination, bytes)` sent by node `i`.
    entries: Vec<Vec<(NodeId, u64)>>,
}

impl Demand {
    /// Empty demand over `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Demand {
        Demand {
            entries: vec![Vec::new(); num_nodes],
        }
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.entries.len()
    }

    /// Accumulates bytes sent from `src` to `dst`.
    pub fn add(&mut self, src: NodeId, dst: NodeId, bytes: u64) {
        if src == dst || bytes == 0 {
            return;
        }
        let row = &mut self.entries[src.idx()];
        match row.iter_mut().find(|(d, _)| *d == dst) {
            Some((_, b)) => *b += bytes,
            None => row.push((dst, bytes)),
        }
    }

    /// Sends of one node.
    pub fn sends(&self, src: NodeId) -> &[(NodeId, u64)] {
        &self.entries[src.idx()]
    }

    /// All nodes that appear as destinations, in first-appearance order —
    /// the order Algorithm 1 processes the demand-listed destinations.
    pub fn listed_destinations(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.entries.len()];
        let mut out = Vec::new();
        for row in &self.entries {
            for &(d, _) in row {
                if !seen[d.idx()] {
                    seen[d.idx()] = true;
                    out.push(d);
                }
            }
        }
        out
    }

    /// Normalizes byte counts to the paper's `0..=255` range: the heaviest
    /// pair maps to 255, any non-zero pair to at least 1.
    pub fn normalized(&self) -> NormalizedDemand {
        let max = self
            .entries
            .iter()
            .flat_map(|r| r.iter().map(|&(_, b)| b))
            .max()
            .unwrap_or(0);
        let mut rows = vec![Vec::new(); self.entries.len()];
        if max > 0 {
            for (i, row) in self.entries.iter().enumerate() {
                rows[i] = row
                    .iter()
                    .map(|&(d, b)| {
                        let w = ((b as u128 * 255) / max as u128) as u8;
                        (d, w.max(1))
                    })
                    .collect();
            }
        }
        NormalizedDemand { rows }
    }
}

/// Demand normalized to the paper's `D_n = [0, ..., 255]` weights.
#[derive(Debug, Clone)]
pub struct NormalizedDemand {
    rows: Vec<Vec<(NodeId, u8)>>,
}

impl NormalizedDemand {
    /// Weighted sends of one node.
    pub fn sends(&self, src: NodeId) -> &[(NodeId, u8)] {
        &self.rows[src.idx()]
    }

    /// Weight from `src` to `dst` (0 = no recorded traffic).
    pub fn weight(&self, src: NodeId, dst: NodeId) -> u8 {
        self.rows[src.idx()]
            .iter()
            .find(|(d, _)| *d == dst)
            .map_or(0, |&(_, w)| w)
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.rows.len()
    }

    /// Sources with a given destination, with weights — the inner lookup of
    /// Algorithm 1's edge-update loop.
    pub fn senders_to(&self, dst: NodeId) -> impl Iterator<Item = (NodeId, u8)> + '_ {
        self.rows.iter().enumerate().filter_map(move |(i, row)| {
            row.iter()
                .find(|(d, _)| *d == dst)
                .map(|&(_, w)| (NodeId(i as u32), w))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates() {
        let mut d = Demand::new(4);
        d.add(NodeId(0), NodeId(1), 100);
        d.add(NodeId(0), NodeId(1), 50);
        d.add(NodeId(0), NodeId(2), 10);
        assert_eq!(d.sends(NodeId(0)), &[(NodeId(1), 150), (NodeId(2), 10)]);
    }

    #[test]
    fn self_and_zero_ignored() {
        let mut d = Demand::new(2);
        d.add(NodeId(0), NodeId(0), 100);
        d.add(NodeId(0), NodeId(1), 0);
        assert!(d.sends(NodeId(0)).is_empty());
    }

    #[test]
    fn normalization_range() {
        let mut d = Demand::new(3);
        d.add(NodeId(0), NodeId(1), 1_000_000);
        d.add(NodeId(0), NodeId(2), 1); // tiny but non-zero -> weight 1
        d.add(NodeId(1), NodeId(2), 500_000);
        let n = d.normalized();
        assert_eq!(n.weight(NodeId(0), NodeId(1)), 255);
        assert_eq!(n.weight(NodeId(0), NodeId(2)), 1);
        assert_eq!(n.weight(NodeId(1), NodeId(2)), 127);
        assert_eq!(n.weight(NodeId(2), NodeId(0)), 0);
    }

    #[test]
    fn listed_destinations_order() {
        let mut d = Demand::new(4);
        d.add(NodeId(0), NodeId(3), 5);
        d.add(NodeId(1), NodeId(2), 5);
        d.add(NodeId(2), NodeId(3), 5);
        assert_eq!(d.listed_destinations(), vec![NodeId(3), NodeId(2)]);
    }

    #[test]
    fn senders_to_inverts() {
        let mut d = Demand::new(3);
        d.add(NodeId(0), NodeId(2), 10);
        d.add(NodeId(1), NodeId(2), 20);
        let n = d.normalized();
        let senders: Vec<_> = n.senders_to(NodeId(2)).collect();
        assert_eq!(senders.len(), 2);
        assert_eq!(senders[0].0, NodeId(0));
        assert_eq!(senders[1].0, NodeId(1));
        assert_eq!(senders[1].1, 255);
    }

    #[test]
    fn empty_demand_normalizes() {
        let d = Demand::new(3);
        let n = d.normalized();
        assert_eq!(n.weight(NodeId(0), NodeId(1)), 0);
        assert!(d.listed_destinations().is_empty());
    }
}
