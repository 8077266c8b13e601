//! Channel dependency graph (CDG) and virtual-lane layering.
//!
//! Dally & Seitz: a set of routes is deadlock-free iff the channel
//! dependency graph — nodes are directed channels, an edge `c1 -> c2` exists
//! when some packet may hold `c1` while requesting `c2` — is acyclic.
//! DFSSSP (and PARX on top of it) achieves deadlock freedom by partitioning
//! the source-destination paths into virtual lanes such that each lane's CDG
//! stays acyclic (paper Algorithm 1, last loop).
//!
//! Each lane's graph maintains a topological order of its channels
//! incrementally (Pearce & Kelly, "A dynamic topological sort algorithm for
//! directed acyclic graphs", JEA 2006). An edge that agrees with the order
//! is inserted in O(1); one that does not searches only the channels ordered
//! between its endpoints, and either finds the cycle it would close or
//! reorders those channels. The cycle test is exact, so lane placement is
//! the same as with a full reachability search per edge.

use crate::lft::DirLink;

/// One virtual lane's channel dependency graph over the directed channels of
/// a topology. Channels are identified by [`DirLink::index`]. The graph is
/// acyclic at all times: [`Cdg::try_add_chain`] refuses a chain that would
/// close a cycle.
#[derive(Debug, Clone)]
pub struct Cdg {
    /// `out[c]` lists the channels `c` depends on (edges `c -> d`).
    out: Vec<Vec<u32>>,
    /// `inc[d]` lists the channels that depend on `d` (edges `c -> d`).
    inc: Vec<Vec<u32>>,
    /// Position of every channel in a topological order of the edges: a
    /// permutation of `0..n` with `ord[c] < ord[d]` for every edge `c -> d`.
    ord: Vec<u32>,
    /// A channel is visited by the current search iff `seen[c] == stamp`.
    seen: Vec<u32>,
    stamp: u32,
    // Scratch reused across insertions: the forward and backward search
    // sets, the search stack, the order slots they share, and the edges the
    // current chain added (for rollback).
    fwd: Vec<u32>,
    bwd: Vec<u32>,
    stack: Vec<u32>,
    slots: Vec<u32>,
    added: Vec<(u32, u32)>,
}

impl Cdg {
    /// Empty CDG over `num_channels` directed channels.
    pub fn new(num_channels: usize) -> Cdg {
        Cdg {
            out: vec![Vec::new(); num_channels],
            inc: vec![Vec::new(); num_channels],
            ord: (0..num_channels as u32).collect(),
            seen: vec![0; num_channels],
            stamp: 0,
            fwd: Vec::new(),
            bwd: Vec::new(),
            stack: Vec::new(),
            slots: Vec::new(),
            added: Vec::new(),
        }
    }

    /// Adds a path's dependency chain if the graph stays acyclic with it.
    ///
    /// `chain` is the path's consecutive channel pairs. Edges already in
    /// the graph are skipped; the new ones are inserted one at a time. When
    /// one of them would close a cycle, the edges this call inserted are
    /// removed again and `false` is returned: the edge set is then exactly
    /// what it was before the call. Removing edges keeps any topological
    /// order valid, so the rollback needs no reordering.
    pub fn try_add_chain(&mut self, chain: &[(DirLink, DirLink)]) -> bool {
        self.added.clear();
        for &(a, b) in chain {
            let (a, b) = (a.index() as u32, b.index() as u32);
            if self.out[a as usize].contains(&b) {
                continue;
            }
            if !self.insert(a, b) {
                while let Some((a, b)) = self.added.pop() {
                    let popped = (self.out[a as usize].pop(), self.inc[b as usize].pop());
                    debug_assert_eq!(popped, (Some(b), Some(a)));
                }
                return false;
            }
            self.added.push((a, b));
        }
        true
    }

    /// Inserts the new edge `a -> b` unless it closes a cycle, restoring the
    /// topological order first when the edge contradicts it.
    fn insert(&mut self, a: u32, b: u32) -> bool {
        let (lo, hi) = (self.ord[b as usize], self.ord[a as usize]);
        if lo < hi {
            // The edge contradicts the order. The channels `b` reaches below
            // `hi` must move after the channels reaching `a` above `lo`.
            if !self.search_forward(b, hi) {
                return false;
            }
            self.search_backward(a, lo);
            self.reorder();
        } else if lo == hi {
            return false; // a self-dependency
        }
        self.out[a as usize].push(b);
        self.inc[b as usize].push(a);
        true
    }

    fn next_stamp(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
    }

    /// Collects into `fwd` the channels reachable from `from` whose position
    /// is below `hi`. Returns `false` when the channel at position `hi` is
    /// reachable (the new edge would close a cycle).
    fn search_forward(&mut self, from: u32, hi: u32) -> bool {
        self.next_stamp();
        self.fwd.clear();
        self.stack.clear();
        self.seen[from as usize] = self.stamp;
        self.stack.push(from);
        while let Some(c) = self.stack.pop() {
            self.fwd.push(c);
            for &d in &self.out[c as usize] {
                let o = self.ord[d as usize];
                if o == hi {
                    return false;
                }
                if o < hi && self.seen[d as usize] != self.stamp {
                    self.seen[d as usize] = self.stamp;
                    self.stack.push(d);
                }
            }
        }
        true
    }

    /// Collects into `bwd` the channels reaching `to` whose position is
    /// above `lo`.
    fn search_backward(&mut self, to: u32, lo: u32) {
        self.next_stamp();
        self.bwd.clear();
        self.stack.clear();
        self.seen[to as usize] = self.stamp;
        self.stack.push(to);
        while let Some(c) = self.stack.pop() {
            self.bwd.push(c);
            for &p in &self.inc[c as usize] {
                if self.ord[p as usize] > lo && self.seen[p as usize] != self.stamp {
                    self.seen[p as usize] = self.stamp;
                    self.stack.push(p);
                }
            }
        }
    }

    /// Gives the positions held by `bwd ∪ fwd` to the `bwd` channels first,
    /// then the `fwd` ones, each set keeping its relative order.
    fn reorder(&mut self) {
        let ord = &mut self.ord;
        self.bwd.sort_unstable_by_key(|&c| ord[c as usize]);
        self.fwd.sort_unstable_by_key(|&c| ord[c as usize]);
        self.slots.clear();
        self.slots
            .extend(self.bwd.iter().chain(&self.fwd).map(|&c| ord[c as usize]));
        self.slots.sort_unstable();
        for (&c, &slot) in self.bwd.iter().chain(&self.fwd).zip(&self.slots) {
            ord[c as usize] = slot;
        }
    }
}

/// Converts a sequence of directed ISL hops into its dependency chain.
pub fn chain_of(hops: &[DirLink]) -> Vec<(DirLink, DirLink)> {
    hops.windows(2).map(|w| (w[0], w[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxtopo::LinkId;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn dl(i: u32) -> DirLink {
        DirLink::new(LinkId(i), true)
    }

    fn edges(c: &Cdg) -> BTreeSet<(u32, u32)> {
        c.out
            .iter()
            .enumerate()
            .flat_map(|(a, outs)| outs.iter().map(move |&b| (a as u32, b)))
            .collect()
    }

    /// Kahn's algorithm over an explicit edge set.
    fn kahn_acyclic(n: usize, edges: &BTreeSet<(u32, u32)>) -> bool {
        let mut indeg = vec![0usize; n];
        for &(_, b) in edges {
            indeg[b as usize] += 1;
        }
        let mut ready: Vec<u32> = (0..n as u32).filter(|&c| indeg[c as usize] == 0).collect();
        let mut removed = 0;
        while let Some(c) = ready.pop() {
            removed += 1;
            for &(_, b) in edges.range((c, 0)..=(c, u32::MAX)) {
                indeg[b as usize] -= 1;
                if indeg[b as usize] == 0 {
                    ready.push(b);
                }
            }
        }
        removed == n
    }

    /// `ord` is a permutation of the channels that every edge respects.
    fn assert_topological(c: &Cdg) {
        let mut sorted = c.ord.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &o)| o == i as u32));
        for (a, b) in edges(c) {
            assert!(c.ord[a as usize] < c.ord[b as usize], "{a} -> {b}");
        }
    }

    #[test]
    fn empty_cdg_is_acyclic() {
        let c = Cdg::new(10);
        assert!(edges(&c).is_empty());
        assert_topological(&c);
    }

    #[test]
    fn chain_addition_and_dedup() {
        let mut c = Cdg::new(20);
        let chain = chain_of(&[dl(0), dl(1), dl(2)]);
        assert_eq!(chain.len(), 2);
        assert!(c.try_add_chain(&chain));
        assert_eq!(edges(&c).len(), 2);
        assert!(c.try_add_chain(&chain)); // idempotent
        assert_eq!(edges(&c).len(), 2);
        assert!(edges(&c).contains(&(dl(0).index() as u32, dl(1).index() as u32)));
        assert_topological(&c);
    }

    #[test]
    fn cycle_detected() {
        let mut c = Cdg::new(20);
        assert!(c.try_add_chain(&chain_of(&[dl(0), dl(1)])));
        assert!(c.try_add_chain(&chain_of(&[dl(1), dl(2)])));
        // 2 -> 0 closes the cycle.
        assert!(!c.try_add_chain(&chain_of(&[dl(2), dl(0)])));
        // 0 -> 2 already implied transitively: no cycle.
        assert!(c.try_add_chain(&chain_of(&[dl(0), dl(2)])));
        assert_eq!(edges(&c).len(), 3);
    }

    #[test]
    fn self_cycle_within_one_chain() {
        let mut c = Cdg::new(20);
        // A chain that revisits a channel: a -> b -> a is a cycle by itself,
        // and the rejected chain leaves nothing behind.
        assert!(!c.try_add_chain(&[(dl(0), dl(1)), (dl(1), dl(0))]));
        assert!(edges(&c).is_empty());
        assert!(!c.try_add_chain(&[(dl(3), dl(3))]));
    }

    #[test]
    fn triangle_credit_loop() {
        // The paper's Section 3.2 triangle example: routing A->C via B while
        // B->C via A creates the dependency cycle the paper warns about.
        let mut c = Cdg::new(10);
        // Channels: 0 = A->B, 1 = B->C, 2 = B->A, 3 = A->C ... model the
        // problematic pair: holding A->B requesting B->A-side channels.
        assert!(c.try_add_chain(&[(dl(0), dl(1))])); // A->B->C
        assert!(!c.try_add_chain(&[(dl(1), dl(0))]));
        assert_topological(&c);
    }

    #[test]
    fn rejected_chain_rolls_back_its_earlier_edges() {
        let mut c = Cdg::new(10);
        assert!(c.try_add_chain(&chain_of(&[dl(0), dl(1), dl(2)])));
        let before = edges(&c);
        // 3 -> 4 and 4 -> 0 are fine on their own; 2 -> 3 then closes
        // 0 -> 1 -> 2 -> 3 -> 4 -> 0.
        let chain = [(dl(3), dl(4)), (dl(4), dl(0)), (dl(2), dl(3))];
        assert!(!c.try_add_chain(&chain));
        assert_eq!(edges(&c), before);
        assert_topological(&c);
    }

    #[test]
    fn back_edge_reorders_both_sides() {
        // Insert against the initial order, forcing the forward and backward
        // search sets to swap places.
        let mut c = Cdg::new(8);
        assert!(c.try_add_chain(&chain_of(&[dl(0), dl(1)])));
        assert!(c.try_add_chain(&chain_of(&[dl(2), dl(3)])));
        assert!(c.try_add_chain(&[(dl(3), dl(0))]));
        assert_topological(&c);
        assert!(!c.try_add_chain(&[(dl(1), dl(2))]));
        assert_topological(&c);
    }

    #[test]
    fn chain_of_short_paths() {
        assert!(chain_of(&[dl(0)]).is_empty());
        assert!(chain_of(&[]).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `try_add_chain` agrees with "add the chain, then run Kahn"; after
        /// every call `ord` is a topological order of the edges, and a
        /// rejected chain leaves the edge set as it was.
        #[test]
        fn try_add_chain_matches_kahn(
            chains in proptest::collection::vec(
                proptest::collection::vec((0usize..8, 0usize..8), 1..5),
                1..40,
            ),
        ) {
            let n = 8;
            let mut c = Cdg::new(n);
            for pairs in chains {
                let chain: Vec<(DirLink, DirLink)> = pairs
                    .iter()
                    .map(|&(a, b)| (DirLink::from_index(a), DirLink::from_index(b)))
                    .collect();
                let before = edges(&c);
                let mut with = before.clone();
                with.extend(chain.iter().map(|&(a, b)| (a.index() as u32, b.index() as u32)));
                let accepted = c.try_add_chain(&chain);
                prop_assert_eq!(accepted, kahn_acyclic(n, &with));
                prop_assert_eq!(edges(&c), if accepted { with } else { before });
                assert_topological(&c);
            }
        }
    }
}
