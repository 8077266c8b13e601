//! Event-driven fluid transfers: active flows progress at their max-min fair
//! rates; rates are re-solved whenever a flow is added or removed.
//!
//! Rate allocation is delegated to a pluggable [`RateSolver`] backend (see
//! [`crate::solver`]); completions are answered from a lazy heap keyed by
//! `(finish time, flow, rate epoch)`. A heap entry is valid only while its
//! flow is live *and* its rate epoch is current — a flow's absolute finish
//! time `now + remaining/rate` is invariant between rate changes, so each
//! entry stays correct until the solver changes that flow's rate bits
//! (which bumps the epoch and pushes a fresh entry). Stale entries are
//! discarded when they surface.

use crate::solver::{RateSolver, RateTable, SolverKind};
use hxobs::Scope;
use hxroute::DirLink;
use hxtopo::Topology;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub use crate::solver::FlowId;

#[derive(Debug, Clone)]
struct ActiveFlow {
    remaining: f64,
    rate: f64,
    /// Absolute finish time at the current rate: the key of the flow's
    /// live heap entry (infinite until solved, or while stalled).
    finish: f64,
}

/// Ordered f64 for the completion heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct T(f64);
impl Eq for T {}
impl PartialOrd for T {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for T {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The fluid network: capacities plus the set of in-flight flows.
#[derive(Debug)]
pub struct FluidNet {
    caps: Vec<f64>,
    flows: Vec<Option<ActiveFlow>>,
    /// Per-slot rate epoch; bumped on add/remove/rate change so stale heap
    /// entries (including ones from a recycled id's past life) never match.
    epochs: Vec<u64>,
    free: Vec<FlowId>,
    active: usize,
    now: f64,
    /// Cumulative bytes carried per directed cable (traffic statistics).
    pub carried: Vec<f64>,
    solver: Box<dyn RateSolver>,
    rates: RateTable,
    heap: BinaryHeap<Reverse<(T, FlowId, u64)>>,
    /// Set by add/remove; cleared by [`FluidNet::recompute`]. Querying or
    /// advancing a dirty net would use stale rates, so debug builds refuse.
    dirty: bool,
    /// Path-store epoch stamped onto re-solve tail-latency sketches (see
    /// [`FluidNet::set_obs_epoch`]); purely observational.
    obs_epoch: u64,
    /// Plane id stamped onto re-solve tail-latency sketches when this net
    /// simulates one plane of a multi-plane system (see
    /// [`FluidNet::set_plane`]); purely observational.
    obs_plane: Option<u32>,
}

impl Clone for FluidNet {
    fn clone(&self) -> FluidNet {
        FluidNet {
            caps: self.caps.clone(),
            flows: self.flows.clone(),
            epochs: self.epochs.clone(),
            free: self.free.clone(),
            active: self.active,
            now: self.now,
            carried: self.carried.clone(),
            solver: self.solver.boxed_clone(),
            rates: self.rates.clone(),
            heap: self.heap.clone(),
            dirty: self.dirty,
            obs_epoch: self.obs_epoch,
            obs_plane: self.obs_plane,
        }
    }
}

/// A flow is considered drained below this many bytes.
const EPS_BYTES: f64 = 1e-6;

impl FluidNet {
    /// Fluid network over a topology's active cables, using the default
    /// congestion engine.
    pub fn new(topo: &Topology) -> FluidNet {
        FluidNet::with_solver(topo, SolverKind::default())
    }

    /// Fluid network with an explicit congestion engine.
    pub fn with_solver(topo: &Topology, kind: SolverKind) -> FluidNet {
        let caps = crate::flow::directed_capacities(topo);
        let n = caps.len();
        FluidNet {
            caps,
            flows: Vec::new(),
            epochs: Vec::new(),
            free: Vec::new(),
            active: 0,
            now: 0.0,
            carried: vec![0.0; n],
            solver: kind.new_solver(),
            rates: RateTable::default(),
            heap: BinaryHeap::new(),
            dirty: false,
            obs_epoch: 0,
            obs_plane: None,
        }
    }

    /// Stamps the path-store epoch that subsequent re-solves belong to, so
    /// per-epoch `solver.resolve_us` tail sketches attribute solve latency
    /// to the routing state that caused it. Observational only — rates and
    /// completion order are unaffected.
    pub fn set_obs_epoch(&mut self, epoch: u64) {
        self.obs_epoch = epoch;
    }

    /// Tags every subsequent re-solve tail-latency sample with a plane id
    /// (multi-plane campaigns run one net per plane); purely observational.
    pub fn set_plane(&mut self, plane: u32) {
        self.obs_plane = Some(plane);
    }

    /// Current simulation time of the fluid state.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// A live flow's current rate (None once removed).
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.flows.get(id)?.as_ref().map(|f| f.rate)
    }

    /// A live flow's remaining bytes (None once removed).
    pub fn flow_remaining(&self, id: FlowId) -> Option<f64> {
        self.flows.get(id)?.as_ref().map(|f| f.remaining)
    }

    /// Advances all flows to absolute time `t` (must be >= now).
    pub fn advance_to(&mut self, t: f64) {
        debug_assert!(
            !self.dirty,
            "advance_to() on a dirty FluidNet; call recompute() first"
        );
        let dt = t - self.now;
        debug_assert!(dt >= -1e-12, "time went backwards: {dt}");
        let Self {
            flows,
            solver,
            carried,
            ..
        } = self;
        for (id, f) in flows.iter_mut().enumerate() {
            let Some(f) = f else { continue };
            if f.rate.is_infinite() {
                // Loopback flows never touch a cable.
                f.remaining = 0.0;
            } else if dt > 0.0 && f.rate > 0.0 {
                let moved = (f.rate * dt).min(f.remaining);
                f.remaining -= moved;
                for dl in solver.path(id) {
                    carried[dl.index()] += moved;
                }
            }
        }
        self.now = self.now.max(t);
    }

    /// Adds a flow starting now; caller must [`FluidNet::recompute`] before
    /// querying completions.
    pub fn add_flow(&mut self, path: Vec<DirLink>, bytes: u64) -> FlowId {
        self.add_flow_ref(&path, bytes)
    }

    /// [`FluidNet::add_flow`] without consuming the hop vector (the path is
    /// copied into the solver's reusable storage either way).
    pub fn add_flow_ref(&mut self, path: &[DirLink], bytes: u64) -> FlowId {
        let f = ActiveFlow {
            remaining: bytes as f64,
            rate: 0.0,
            finish: f64::INFINITY,
        };
        self.active += 1;
        self.dirty = true;
        let id = if let Some(id) = self.free.pop() {
            self.flows[id] = Some(f);
            id
        } else {
            self.flows.push(Some(f));
            self.epochs.push(0);
            self.flows.len() - 1
        };
        self.epochs[id] = self.epochs[id].wrapping_add(1);
        self.rates.invalidate(id);
        self.solver.add(id, path);
        id
    }

    /// Removes a flow (normally after completion).
    pub fn remove(&mut self, id: FlowId) {
        if self.flows[id].take().is_some() {
            self.active -= 1;
            self.free.push(id);
            self.epochs[id] = self.epochs[id].wrapping_add(1);
            self.solver.remove(id);
            self.dirty = true;
        }
    }

    /// Moves a live flow onto a new path, keeping its remaining bytes: the
    /// live-reroute primitive for epoch swaps mid-campaign. The flow's rate
    /// epoch bumps so stale completion entries die, and the solver sees a
    /// remove+add on the same id — its dirty-set machinery re-solves only
    /// the cables the old and new paths touch. Caller must
    /// [`FluidNet::recompute`] before querying completions again.
    pub fn repath(&mut self, id: FlowId, path: &[DirLink]) {
        assert!(self.flows[id].is_some(), "repath of a dead flow {id}");
        self.epochs[id] = self.epochs[id].wrapping_add(1);
        self.rates.invalidate(id);
        self.solver.remove(id);
        self.solver.add(id, path);
        self.dirty = true;
    }

    /// Re-solves the max-min fair rates for the current flow set (no-op if
    /// nothing changed since the last solve) and refreshes the completion
    /// heap for every flow whose rate bits moved.
    pub fn recompute(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let obs = hxobs::enabled();
        if obs && self.active > 0 {
            hxobs::count("fluid.recomputes", 1);
            hxobs::sample("fluid.flows_per_recompute", Scope::NONE, self.active as f64);
        }
        let t0 = obs.then(std::time::Instant::now);
        let Self {
            caps,
            flows,
            epochs,
            now,
            solver,
            rates,
            heap,
            ..
        } = self;
        solver.resolve(caps, rates);
        if let (true, Some(t0)) = (obs, t0) {
            let ns = t0.elapsed().as_nanos() as f64;
            hxobs::sample("solver.resolve_ns", Scope::NONE, ns);
            let at = Scope {
                epoch: Some(self.obs_epoch),
                plane: self.obs_plane,
            };
            hxobs::sample("solver.resolve_us", at, ns / 1e3);
        }
        for &id in rates.changed() {
            // The solver only re-solves live flows, so the slot exists.
            let Some(f) = flows[id].as_mut() else {
                continue;
            };
            f.rate = rates.rate(id);
            epochs[id] = epochs[id].wrapping_add(1);
            let finish = if f.remaining <= EPS_BYTES || f.rate.is_infinite() {
                *now
            } else if f.rate > 0.0 {
                *now + f.remaining / f.rate
            } else {
                f64::INFINITY
            };
            f.finish = finish;
            if finish.is_finite() {
                heap.push(Reverse((T(finish), id, epochs[id])));
            }
        }
        rates.clear_changed();
        // Lazy deletion keeps stale entries below the heap top; prune when
        // they dominate so long churny runs stay O(active) in memory.
        if self.heap.len() > 2 * self.active + 64 {
            let flows = &self.flows;
            let epochs = &self.epochs;
            let live: Vec<_> = std::mem::take(&mut self.heap)
                .into_vec()
                .into_iter()
                .filter(|&Reverse((_, id, ep))| flows[id].is_some() && epochs[id] == ep)
                .collect();
            self.heap = BinaryHeap::from(live);
        }
    }

    /// Absolute time of the next flow completion, if any flow is active.
    pub fn next_completion(&mut self) -> Option<f64> {
        debug_assert!(
            !self.dirty,
            "next_completion() on a dirty FluidNet; call recompute() first"
        );
        while let Some(&Reverse((T(t), id, ep))) = self.heap.peek() {
            if self.flows[id].is_some() && self.epochs[id] == ep {
                // Clamp: a drained flow's cached finish may sit slightly in
                // the past after the net advanced beyond it.
                return Some(t.max(self.now));
            }
            self.heap.pop();
        }
        None
    }

    /// Flows fully drained at the current time, collected into `out`
    /// (cleared first; allocation reusable across events).
    pub fn drained_into(&self, out: &mut Vec<FlowId>) {
        let collect = |out: &mut Vec<FlowId>, done: &dyn Fn(&ActiveFlow) -> bool| {
            out.extend(
                self.flows
                    .iter()
                    .enumerate()
                    .filter_map(|(i, f)| f.as_ref().filter(|f| done(f)).map(|_| i)),
            );
        };
        out.clear();
        collect(out, &|f| f.remaining <= EPS_BYTES);
        if out.is_empty() {
            // Far into a run the clock's resolution times a cable rate
            // exceeds EPS_BYTES: `now + remaining / rate` rounds to `now`
            // while bytes remain, so no advance of the clock can move them.
            // Such a flow is due; without this a loop that advances to the
            // next completion would spin at `now` forever.
            collect(out, &|f| f.finish <= self.now);
        }
    }

    /// Flows fully drained at the current time.
    pub fn drained(&self) -> Vec<FlowId> {
        let mut out = Vec::new();
        self.drained_into(&mut out);
        out
    }

    /// Convenience: runs a set of simultaneously-starting flows to
    /// completion, returning each flow's finish time.
    pub fn complete_times(topo: &Topology, specs: &[crate::flow::FlowSpec]) -> Vec<f64> {
        Self::complete_times_with(topo, specs, SolverKind::default())
    }

    /// [`FluidNet::complete_times`] under an explicit congestion engine.
    pub fn complete_times_with(
        topo: &Topology,
        specs: &[crate::flow::FlowSpec],
        kind: SolverKind,
    ) -> Vec<f64> {
        let mut net = FluidNet::with_solver(topo, kind);
        let ids: Vec<FlowId> = specs
            .iter()
            .map(|s| net.add_flow_ref(&s.path, s.bytes))
            .collect();
        let mut finish = vec![0.0f64; specs.len()];
        let mut done: Vec<FlowId> = Vec::new();
        net.recompute();
        while net.active_flows() > 0 {
            let t = net.next_completion().expect("active flows must complete");
            net.advance_to(t);
            net.drained_into(&mut done);
            for &id in &done {
                let pos = ids.iter().position(|&x| x == id).unwrap();
                finish[pos] = t;
                net.remove(id);
            }
            net.recompute();
        }
        finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use hxtopo::{LinkClass, NodeId, SwitchId, TopologyBuilder};

    fn dumbbell(n: u32) -> (Topology, DirLink) {
        let mut b = TopologyBuilder::new("dumbbell", 2);
        for i in 0..2 * n {
            b.attach_node(SwitchId(i / n));
        }
        let isl = b.link_switches(SwitchId(0), SwitchId(1), LinkClass::Aoc);
        (b.build(), DirLink::new(isl, true))
    }

    #[test]
    fn overdue_flow_drains_instead_of_stalling_the_clock() {
        // At t = 1e9 s one clock ulp is ~1.2e-7 s, more than a 1-byte
        // flow needs on any cable: its finish time rounds to `now`. The
        // event loop is bounded so a stall fails instead of hanging.
        let (t, isl) = dumbbell(1);
        let mut net = FluidNet::new(&t);
        net.advance_to(1e9);
        net.add_flow(vec![isl], 1);
        net.recompute();
        let mut done = Vec::new();
        for _ in 0..8 {
            let Some(tc) = net.next_completion() else {
                break;
            };
            net.advance_to(tc);
            net.drained_into(&mut done);
            for &id in &done {
                net.remove(id);
            }
            net.recompute();
        }
        assert_eq!(net.active_flows(), 0, "the event loop stalled at t = 1e9");
    }

    #[test]
    fn single_flow_finishes_at_bytes_over_cap() {
        let (t, isl) = dumbbell(1);
        let cap = t.link(isl.link()).capacity;
        let bytes = 1u64 << 30;
        let f = FluidNet::complete_times(
            &t,
            &[FlowSpec {
                path: vec![isl],
                bytes,
            }],
        );
        let expect = bytes as f64 / cap;
        assert!((f[0] - expect).abs() < expect * 1e-9);
    }

    #[test]
    fn staggered_completion_speeds_up_survivor() {
        // Two flows share a cable; one carries half the bytes. It finishes
        // at t1 = (b/2)/(c/2) = b/c; the big one then runs alone:
        // remaining b - (c/2)*t1 = b/2 at rate c => total 1.5 b/c.
        let (t, isl) = dumbbell(2);
        let cap = t.link(isl.link()).capacity;
        let b = 1u64 << 30;
        let f = FluidNet::complete_times(
            &t,
            &[
                FlowSpec {
                    path: vec![isl],
                    bytes: b,
                },
                FlowSpec {
                    path: vec![isl],
                    bytes: b / 2,
                },
            ],
        );
        let unit = b as f64 / cap;
        assert!((f[1] - unit).abs() < unit * 1e-6, "{f:?}");
        assert!((f[0] - 1.5 * unit).abs() < unit * 1e-6, "{f:?}");
    }

    #[test]
    fn seven_way_sharing_is_seven_times_slower() {
        let (t, isl) = dumbbell(7);
        let cap = t.link(isl.link()).capacity;
        let b = 1u64 << 20;
        let specs: Vec<FlowSpec> = (0..7)
            .map(|_| FlowSpec {
                path: vec![isl],
                bytes: b,
            })
            .collect();
        let f = FluidNet::complete_times(&t, &specs);
        let expect = 7.0 * b as f64 / cap;
        for x in f {
            assert!((x - expect).abs() < expect * 1e-6);
        }
    }

    #[test]
    fn zero_byte_flows_complete_immediately() {
        let (t, isl) = dumbbell(1);
        let f = FluidNet::complete_times(
            &t,
            &[FlowSpec {
                path: vec![isl],
                bytes: 0,
            }],
        );
        assert_eq!(f[0], 0.0);
    }

    #[test]
    fn carried_bytes_accounted() {
        let (t, isl) = dumbbell(1);
        let mut net = FluidNet::new(&t);
        let id = net.add_flow(vec![isl], 1000);
        net.recompute();
        let tc = net.next_completion().unwrap();
        net.advance_to(tc);
        assert!((net.carried[isl.index()] - 1000.0).abs() < 1e-3);
        net.remove(id);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn empty_path_flow_is_instant() {
        let (t, _) = dumbbell(1);
        let mut net = FluidNet::new(&t);
        net.add_flow(vec![], 1 << 20);
        net.recompute();
        let tc = net.next_completion().unwrap();
        assert_eq!(tc, 0.0);
        net.advance_to(tc);
        assert_eq!(net.drained().len(), 1);
    }

    #[test]
    fn node_link_limits_injection() {
        // One sender to two receivers: both flows share the sender's
        // terminal cable -> each gets cap/2.
        let (t, isl) = dumbbell(2);
        let term = DirLink::leaving(
            &t,
            t.node_switch(NodeId(0)).1,
            hxtopo::Endpoint::Node(NodeId(0)),
        );
        let b = 1u64 << 20;
        let specs = vec![
            FlowSpec {
                path: vec![term, isl],
                bytes: b,
            },
            FlowSpec {
                path: vec![term],
                bytes: b,
            },
        ];
        let f = FluidNet::complete_times(&t, &specs);
        let cap = t.link(term.link()).capacity;
        let expect = 2.0 * b as f64 / cap;
        for x in f {
            assert!((x - expect).abs() < expect * 1e-6);
        }
    }

    #[test]
    fn both_engines_complete_identically() {
        let (t, isl) = dumbbell(3);
        let specs: Vec<FlowSpec> = (0..3u64)
            .map(|i| FlowSpec {
                path: vec![isl],
                bytes: (i + 1) << 20,
            })
            .collect();
        let a = FluidNet::complete_times_with(&t, &specs, SolverKind::Exact);
        let b = FluidNet::complete_times_with(&t, &specs, SolverKind::Incremental);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn recycled_id_invalidates_stale_heap_entries() {
        let (t, isl) = dumbbell(2);
        let mut net = FluidNet::new(&t);
        let a = net.add_flow(vec![isl], 1 << 20);
        net.recompute();
        let t1 = net.next_completion().unwrap();
        net.remove(a);
        // Recycle the slot with a much bigger flow: the old entry at t1
        // must not be reported for the new incarnation.
        let b = net.add_flow(vec![isl], 1 << 28);
        assert_eq!(a, b, "free list should recycle the slot");
        net.recompute();
        let t2 = net.next_completion().unwrap();
        assert!(t2 > t1 * 100.0, "stale entry leaked: {t2} vs {t1}");
    }

    /// Two parallel cables between the same switch pair, for repath tests.
    fn parallel_dumbbell() -> (Topology, DirLink, DirLink) {
        let mut b = TopologyBuilder::new("parallel-dumbbell", 2);
        b.attach_node(SwitchId(0));
        b.attach_node(SwitchId(1));
        let l0 = b.link_switches(SwitchId(0), SwitchId(1), LinkClass::Aoc);
        let l1 = b.link_switches(SwitchId(0), SwitchId(1), LinkClass::Aoc);
        (b.build(), DirLink::new(l0, true), DirLink::new(l1, true))
    }

    #[test]
    fn repath_moves_flow_and_keeps_remaining() {
        // Two flows share cable 0 at cap/2 each. Half-way through, one is
        // repathed onto the idle cable 1: both then run at full cap, and the
        // carried bytes split across the cables accordingly.
        let (t, c0, c1) = parallel_dumbbell();
        let cap = t.link(c0.link()).capacity;
        let b = 1u64 << 30;
        let unit = b as f64 / cap;
        let mut net = FluidNet::new(&t);
        let stay = net.add_flow(vec![c0], b);
        let mover = net.add_flow(vec![c0], b);
        net.recompute();
        // At t = unit each flow (rate cap/2) has b/2 left.
        net.advance_to(unit);
        net.repath(mover, &[c1]);
        net.recompute();
        assert!((net.flow_remaining(mover).unwrap() - b as f64 / 2.0).abs() < 1.0);
        assert_eq!(net.flow_rate(stay).unwrap(), cap);
        assert_eq!(net.flow_rate(mover).unwrap(), cap);
        // Both finish half a unit later.
        let tc = net.next_completion().unwrap();
        assert!((tc - 1.5 * unit).abs() < unit * 1e-9, "tc {tc}");
        net.advance_to(tc);
        assert_eq!(net.drained().len(), 2);
        // Carried: cable 0 got b (shared phase) + b/2 (stayer alone);
        // cable 1 got the mover's second half.
        assert!((net.carried[c0.index()] - 1.5 * b as f64).abs() < 2.0);
        assert!((net.carried[c1.index()] - 0.5 * b as f64).abs() < 2.0);
    }

    #[test]
    fn both_engines_agree_under_repath_churn() {
        // The Exact and Incremental engines must stay bit-identical through
        // repath events, not just add/remove.
        let run = |kind: SolverKind| -> Vec<u64> {
            let (t, c0, c1) = parallel_dumbbell();
            let mut net = FluidNet::with_solver(&t, kind);
            let a = net.add_flow(vec![c0], 1 << 30);
            let b = net.add_flow(vec![c0], 1 << 29);
            let c = net.add_flow(vec![c1], 1 << 28);
            net.recompute();
            let t1 = net.next_completion().unwrap();
            net.advance_to(t1 * 0.5);
            net.repath(b, &[c1]);
            net.recompute();
            net.advance_to(t1 * 0.75);
            net.repath(c, &[c0, c1]);
            net.recompute();
            let mut out = Vec::new();
            let mut done = Vec::new();
            while net.active_flows() > 0 {
                let tc = net.next_completion().unwrap();
                net.advance_to(tc);
                net.drained_into(&mut done);
                for &id in &done {
                    out.push(tc.to_bits());
                    net.remove(id);
                }
                net.recompute();
            }
            let _ = (a, b, c);
            out
        };
        assert_eq!(run(SolverKind::Exact), run(SolverKind::Incremental));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "dirty FluidNet")]
    fn missed_recompute_fails_loudly() {
        let (t, isl) = dumbbell(1);
        let mut net = FluidNet::new(&t);
        net.add_flow(vec![isl], 1 << 20);
        // recompute() deliberately skipped.
        let _ = net.next_completion();
    }
}
