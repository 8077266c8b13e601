//! The congestion engine: max-min fair rate allocation behind the
//! [`RateSolver`] trait, with an exact (from-scratch) and an incremental
//! (component-wise) backend.
//!
//! # Why decomposition is exact
//!
//! Progressive filling touches a flow's rate only through the cables that
//! flow crosses, and touches a cable's residual capacity only through the
//! flows crossing it. Partition the active flows into connected components
//! of the *interaction graph* (flows are adjacent when they share a
//! directed cable): no filling round in one component can observe or
//! perturb state in another, so running the water-filling kernel per
//! component yields the same unique max-min allocation as one global run.
//! Both backends therefore call the *same* per-component kernel over the
//! *same* component partition, with flows in ascending-id order — the
//! incremental backend merely skips components no add/remove has touched
//! since the last solve, which makes its rates bit-identical to
//! [`Exact`]'s, not approximately equal.
//!
//! The [`Incremental`] backend maintains a per-directed-cable
//! flow-incidence index plus a dirty set: a removed flow marks its cables
//! dirty, an added flow seeds a component walk directly. At resolve time
//! the affected components are gathered by breadth-first search over the
//! incidence index and re-solved; everything else keeps its frozen rate.

use hxobs::Scope;
use hxroute::DirLink;
use std::fmt;

/// Handle to an active flow (assigned by the caller, e.g. [`crate::FluidNet`]).
pub type FlowId = usize;

/// Which congestion engine a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// From-scratch progressive filling over all active flows — the oracle.
    Exact,
    /// Component-wise incremental re-solve (bit-identical to [`Exact`]).
    #[default]
    Incremental,
}

impl SolverKind {
    /// Stable lower-case label.
    pub fn label(&self) -> &'static str {
        match self {
            SolverKind::Exact => "exact",
            SolverKind::Incremental => "incremental",
        }
    }

    /// Constructs the backend.
    pub fn new_solver(&self) -> Box<dyn RateSolver> {
        match self {
            SolverKind::Exact => Box::new(Exact::default()),
            SolverKind::Incremental => Box::new(Incremental::default()),
        }
    }
}

/// Aggregate counters of one [`RateSolver::resolve`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Interaction components solved.
    pub components: u64,
    /// Flows whose rate was recomputed (frozen anew).
    pub flows: u64,
    /// Directed cables touched by the solved components.
    pub links_touched: u64,
    /// Total progressive-filling rounds across components.
    pub rounds: u64,
    /// Capacity left unallocated on touched cables (convergence residual).
    pub residual: f64,
}

/// Rate table written by [`RateSolver::resolve`]: per-flow rates plus the
/// set of flows whose rate *bits* changed in the last resolve (the only
/// flows whose completion heap entries need refreshing).
#[derive(Debug, Clone, Default)]
pub struct RateTable {
    rates: Vec<f64>,
    changed: Vec<FlowId>,
}

impl RateTable {
    /// Marks a (new or recycled) flow slot as having no valid rate, so the
    /// next [`RateTable::set`] always registers as a change.
    pub fn invalidate(&mut self, id: FlowId) {
        if id >= self.rates.len() {
            self.rates.resize(id + 1, f64::NAN);
        }
        self.rates[id] = f64::NAN;
    }

    /// Records a solved rate; pushes `id` onto the changed set iff the bits
    /// differ from the previous value (NaN slots always count as changed).
    pub fn set(&mut self, id: FlowId, rate: f64) {
        if id >= self.rates.len() {
            self.rates.resize(id + 1, f64::NAN);
        }
        let old = self.rates[id];
        if old.is_nan() || old.to_bits() != rate.to_bits() {
            self.rates[id] = rate;
            self.changed.push(id);
        }
    }

    /// The solved rate of a flow (NaN if never solved).
    #[inline]
    pub fn rate(&self, id: FlowId) -> f64 {
        self.rates[id]
    }

    /// All stored rates, indexed by flow id.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Flows whose rate bits changed since [`RateTable::clear_changed`].
    pub fn changed(&self) -> &[FlowId] {
        &self.changed
    }

    /// Forgets the changed set (call after consuming it).
    pub fn clear_changed(&mut self) {
        self.changed.clear();
    }
}

/// A congestion engine: owns the active flows' paths and solves their
/// max-min fair rates on demand.
///
/// Implementations must agree bit-for-bit: for any add/remove sequence,
/// every backend's [`RateTable`] holds identical rate bits after
/// [`RateSolver::resolve`] (the property `crates/sim/tests/solver.rs`
/// pins with proptests).
pub trait RateSolver: fmt::Debug + Send {
    /// Registers a flow under a caller-chosen id (ids may be recycled after
    /// [`RateSolver::remove`]). The path is copied into internal storage.
    fn add(&mut self, id: FlowId, path: &[DirLink]);

    /// Unregisters a flow.
    fn remove(&mut self, id: FlowId);

    /// The stored path of a live flow.
    fn path(&self, id: FlowId) -> &[DirLink];

    /// Re-solves rates into `out` for every flow whose allocation may have
    /// changed since the last resolve. `caps` is the directed-cable
    /// capacity vector ([`crate::flow::directed_capacities`]).
    fn resolve(&mut self, caps: &[f64], out: &mut RateTable) -> SolveStats;

    /// Drops all flows but keeps allocations (for samplers reusing one
    /// solver across independent flow sets).
    fn reset(&mut self);

    /// Clones the backend (for cloning a [`crate::FluidNet`]).
    fn boxed_clone(&self) -> Box<dyn RateSolver>;
}

/// Path storage shared by both backends: per-id hop vectors whose
/// allocations survive id recycling.
#[derive(Debug, Clone, Default)]
struct FlowStore {
    paths: Vec<Vec<DirLink>>,
    alive: Vec<bool>,
    active: usize,
}

impl FlowStore {
    fn add(&mut self, id: FlowId, path: &[DirLink]) {
        if id >= self.paths.len() {
            self.paths.resize_with(id + 1, Vec::new);
            self.alive.resize(id + 1, false);
        }
        debug_assert!(!self.alive[id], "flow {id} added twice");
        self.paths[id].clear();
        self.paths[id].extend_from_slice(path);
        self.alive[id] = true;
        self.active += 1;
    }

    fn remove(&mut self, id: FlowId) {
        debug_assert!(self.alive[id], "flow {id} removed twice");
        self.alive[id] = false;
        self.active -= 1;
    }

    #[inline]
    fn path(&self, id: FlowId) -> &[DirLink] {
        debug_assert!(self.alive[id], "path of dead flow {id}");
        &self.paths[id]
    }

    fn reset(&mut self) {
        self.alive.fill(false);
        self.active = 0;
    }
}

/// Reusable solve-time buffers (the allocations the old global solver paid
/// for on every recompute).
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Residual capacity per directed cable (valid for touched cables only).
    rem: Vec<f64>,
    /// Unfrozen-flow count per directed cable (zero outside the kernel).
    count: Vec<u32>,
    /// Generation stamps for cable visits (no clearing between solves).
    cable_mark: Vec<u64>,
    /// Per-cable payload under the current mark (first-seen flow / visited).
    cable_aux: Vec<u32>,
    /// Current generation.
    gen: u64,
    /// Cables of the component being solved.
    touched: Vec<u32>,
    /// Per-component frozen flags (local indices).
    frozen: Vec<bool>,
}

impl Scratch {
    fn ensure_cables(&mut self, n: usize) {
        if self.rem.len() < n {
            self.rem.resize(n, 0.0);
            self.count.resize(n, 0);
            self.cable_mark.resize(n, 0);
            self.cable_aux.resize(n, 0);
        }
    }
}

/// Progressive filling restricted to one interaction component.
///
/// `comp` must be in ascending id order — both backends uphold this so the
/// freeze order (and thus every floating-point operation) is identical.
/// Leaves `s.count` zeroed for all touched cables.
fn fill_component(
    caps: &[f64],
    store: &FlowStore,
    comp: &[FlowId],
    s: &mut Scratch,
    out: &mut RateTable,
    stats: &mut SolveStats,
) {
    let n = comp.len();
    stats.components += 1;
    stats.flows += n as u64;
    s.frozen.clear();
    s.frozen.resize(n, false);
    s.touched.clear();
    let mut unfrozen = 0usize;
    for (li, &id) in comp.iter().enumerate() {
        let path = store.path(id);
        if path.is_empty() {
            // Loopback flows are free.
            s.frozen[li] = true;
            out.set(id, f64::INFINITY);
            continue;
        }
        unfrozen += 1;
        for dl in path {
            let c = dl.index();
            if s.count[c] == 0 {
                s.touched.push(c as u32);
                s.rem[c] = caps[c];
            }
            s.count[c] += 1;
        }
    }
    stats.links_touched += s.touched.len() as u64;

    while unfrozen > 0 {
        stats.rounds += 1;
        // Bottleneck cable: smallest fair share among cables with unfrozen
        // flows.
        let mut best = f64::INFINITY;
        for &c in &s.touched {
            let c = c as usize;
            if s.count[c] > 0 {
                let share = s.rem[c] / s.count[c] as f64;
                if share < best {
                    best = share;
                }
            }
        }
        if !best.is_finite() {
            break;
        }
        // Freeze every unfrozen flow crossing a cable at the bottleneck
        // share (within a small tolerance absorbing floating-point noise).
        let tol = best * 1e-9 + 1e-12;
        let mut froze_any = false;
        for (li, &id) in comp.iter().enumerate() {
            if s.frozen[li] {
                continue;
            }
            let tight = store
                .path(id)
                .iter()
                .map(|dl| s.rem[dl.index()] / s.count[dl.index()] as f64)
                .fold(f64::INFINITY, f64::min);
            if tight <= best + tol {
                out.set(id, best);
                s.frozen[li] = true;
                froze_any = true;
                unfrozen -= 1;
                for dl in store.path(id) {
                    let c = dl.index();
                    s.rem[c] = (s.rem[c] - best).max(0.0);
                    s.count[c] -= 1;
                }
            }
        }
        if !froze_any {
            // Numerical safety net: freeze the single tightest flow.
            if let Some((li, t)) = comp
                .iter()
                .enumerate()
                .filter(|(li, _)| !s.frozen[*li])
                .map(|(li, &id)| {
                    let t = store
                        .path(id)
                        .iter()
                        .map(|dl| s.rem[dl.index()] / s.count[dl.index()] as f64)
                        .fold(f64::INFINITY, f64::min);
                    (li, t)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
            {
                out.set(comp[li], t);
                s.frozen[li] = true;
                unfrozen -= 1;
                for dl in store.path(comp[li]) {
                    let c = dl.index();
                    s.rem[c] = (s.rem[c] - t).max(0.0);
                    s.count[c] -= 1;
                }
            } else {
                break;
            }
        }
    }
    for &c in &s.touched {
        stats.residual += s.rem[c as usize];
        s.count[c as usize] = 0;
    }
    hxobs::sample("solver.component_size", Scope::NONE, n as f64);
}

/// Emits the per-resolve metric set both backends share (names kept from
/// the pre-refactor `max_min_rates` so dashboards carry over).
fn observe_resolve(stats: &SolveStats) {
    hxobs::count("flow.solves", 1);
    hxobs::count("flow.filling_rounds", stats.rounds);
    hxobs::sample("flow.rounds_per_solve", Scope::NONE, stats.rounds as f64);
    hxobs::sample(
        "solver.links_touched",
        Scope::NONE,
        stats.links_touched as f64,
    );
    hxobs::gauge("flow.last_residual_capacity", stats.residual);
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// From-scratch backend: partitions all active flows into interaction
/// components (union-find over first-seen cable owners) and water-fills
/// each — today's oracle, with scratch reuse.
#[derive(Debug, Clone, Default)]
pub struct Exact {
    store: FlowStore,
    scratch: Scratch,
    // Decomposition buffers (local indices).
    ids: Vec<FlowId>,
    parent: Vec<u32>,
    bucket: Vec<u32>,
    order: Vec<u32>,
    comp: Vec<FlowId>,
}

impl Exact {
    fn decompose_and_solve(&mut self, caps: &[f64], out: &mut RateTable) -> SolveStats {
        let mut stats = SolveStats::default();
        let store = &self.store;
        let s = &mut self.scratch;
        s.ensure_cables(caps.len());
        self.ids.clear();
        for id in 0..store.paths.len() {
            if store.alive[id] {
                self.ids.push(id);
            }
        }
        let n = self.ids.len();
        if n == 0 {
            return stats;
        }
        // Union flows sharing a cable; `cable_aux` holds the first local
        // flow seen on each cable under the current generation mark.
        self.parent.clear();
        self.parent.extend(0..n as u32);
        s.gen += 1;
        let gen = s.gen;
        for (li, &id) in self.ids.iter().enumerate() {
            for dl in store.path(id) {
                let c = dl.index();
                if s.cable_mark[c] == gen {
                    let a = find(&mut self.parent, li as u32);
                    let b = find(&mut self.parent, s.cable_aux[c]);
                    if a != b {
                        self.parent[a as usize] = b;
                    }
                } else {
                    s.cable_mark[c] = gen;
                    s.cable_aux[c] = li as u32;
                }
            }
        }
        // Counting sort by root: groups each component contiguously while
        // preserving ascending id order within it.
        self.bucket.clear();
        self.bucket.resize(n, 0);
        for li in 0..n as u32 {
            let r = find(&mut self.parent, li);
            self.bucket[r as usize] += 1;
        }
        let mut off = 0u32;
        for b in self.bucket.iter_mut() {
            let c = *b;
            *b = off;
            off += c;
        }
        self.order.clear();
        self.order.resize(n, 0);
        for li in 0..n as u32 {
            let r = find(&mut self.parent, li) as usize;
            self.order[self.bucket[r] as usize] = li;
            self.bucket[r] += 1;
        }
        // `bucket[root]` is now each component's end offset.
        let mut start = 0usize;
        while start < n {
            let root = find(&mut self.parent, self.order[start]) as usize;
            let end = self.bucket[root] as usize;
            self.comp.clear();
            self.comp.extend(
                self.order[start..end]
                    .iter()
                    .map(|&li| self.ids[li as usize]),
            );
            fill_component(caps, store, &self.comp, s, out, &mut stats);
            start = end;
        }
        stats
    }
}

impl RateSolver for Exact {
    fn add(&mut self, id: FlowId, path: &[DirLink]) {
        self.store.add(id, path);
    }

    fn remove(&mut self, id: FlowId) {
        self.store.remove(id);
    }

    fn path(&self, id: FlowId) -> &[DirLink] {
        self.store.path(id)
    }

    fn resolve(&mut self, caps: &[f64], out: &mut RateTable) -> SolveStats {
        let stats = self.decompose_and_solve(caps, out);
        if hxobs::enabled() {
            observe_resolve(&stats);
        }
        stats
    }

    fn reset(&mut self) {
        self.store.reset();
    }

    fn boxed_clone(&self) -> Box<dyn RateSolver> {
        Box::new(self.clone())
    }
}

/// Incremental backend: a per-directed-cable flow-incidence index plus a
/// dirty set. On resolve, only the interaction components reachable from
/// dirty cables (flows removed) or dirty flows (flows added) are
/// re-solved; unaffected components keep their frozen rates untouched —
/// bit-identical to [`Exact`] because the kernel and the component
/// partition are shared.
#[derive(Debug, Clone, Default)]
pub struct Incremental {
    store: FlowStore,
    scratch: Scratch,
    /// Live flows crossing each directed cable (order irrelevant; the
    /// component walk sorts before solving).
    link_flows: Vec<Vec<FlowId>>,
    /// Cables whose flow set changed since the last resolve.
    dirty_cables: Vec<u32>,
    dirty_cable: Vec<bool>,
    /// Flows added since the last resolve (component walk seeds).
    dirty_flows: Vec<FlowId>,
    /// Generation stamps per flow id for the component walk.
    flow_mark: Vec<u64>,
    queue: Vec<FlowId>,
    comp: Vec<FlowId>,
}

impl Incremental {
    fn ensure_cable(&mut self, c: usize) {
        if c >= self.link_flows.len() {
            self.link_flows.resize_with(c + 1, Vec::new);
            self.dirty_cable.resize(c + 1, false);
        }
    }

    fn mark_cable_dirty(&mut self, c: usize) {
        if !self.dirty_cable[c] {
            self.dirty_cable[c] = true;
            self.dirty_cables.push(c as u32);
        }
    }

    /// Gathers the whole interaction component containing `seed` into
    /// `self.comp` (ascending id order), marking every visited flow/cable
    /// with the current generation. Returns false if the seed was already
    /// visited.
    fn gather_component(&mut self, seed: FlowId, gen: u64) -> bool {
        if self.flow_mark[seed] == gen {
            return false;
        }
        self.flow_mark[seed] = gen;
        self.comp.clear();
        self.queue.clear();
        self.queue.push(seed);
        while let Some(f) = self.queue.pop() {
            self.comp.push(f);
            for dl in &self.store.paths[f] {
                let c = dl.index();
                if self.scratch.cable_mark[c] == gen {
                    continue;
                }
                self.scratch.cable_mark[c] = gen;
                for &g in &self.link_flows[c] {
                    if self.flow_mark[g] != gen {
                        self.flow_mark[g] = gen;
                        self.queue.push(g);
                    }
                }
            }
        }
        self.comp.sort_unstable();
        true
    }
}

impl RateSolver for Incremental {
    fn add(&mut self, id: FlowId, path: &[DirLink]) {
        self.store.add(id, path);
        for i in 0..self.store.paths[id].len() {
            let c = self.store.paths[id][i].index();
            self.ensure_cable(c);
            self.link_flows[c].push(id);
        }
        self.dirty_flows.push(id);
    }

    fn remove(&mut self, id: FlowId) {
        for i in 0..self.store.paths[id].len() {
            let c = self.store.paths[id][i].index();
            let lf = &mut self.link_flows[c];
            let pos = lf.iter().position(|&f| f == id).expect("incidence entry");
            lf.swap_remove(pos);
            self.mark_cable_dirty(c);
        }
        self.store.remove(id);
    }

    fn path(&self, id: FlowId) -> &[DirLink] {
        self.store.path(id)
    }

    fn resolve(&mut self, caps: &[f64], out: &mut RateTable) -> SolveStats {
        let mut stats = SolveStats::default();
        self.scratch.ensure_cables(caps.len());
        if self.flow_mark.len() < self.store.paths.len() {
            self.flow_mark.resize(self.store.paths.len(), 0);
        }
        self.scratch.gen += 1;
        let gen = self.scratch.gen;
        // Seeds: flows added since the last resolve, then the survivors on
        // cables whose flow set shrank. Each seed pulls in its entire
        // component; repeat visits are skipped by generation mark.
        let dirty_flows = std::mem::take(&mut self.dirty_flows);
        for &id in &dirty_flows {
            if self.store.alive[id] && self.gather_component(id, gen) {
                let comp = std::mem::take(&mut self.comp);
                fill_component(caps, &self.store, &comp, &mut self.scratch, out, &mut stats);
                self.comp = comp;
            }
        }
        let dirty_cables = std::mem::take(&mut self.dirty_cables);
        for &c in &dirty_cables {
            self.dirty_cable[c as usize] = false;
            // Clone-free walk over this cable's current flow list: indices
            // stay valid because gather/fill never mutate the incidence.
            let mut i = 0;
            while i < self.link_flows[c as usize].len() {
                let seed = self.link_flows[c as usize][i];
                if self.gather_component(seed, gen) {
                    let comp = std::mem::take(&mut self.comp);
                    fill_component(caps, &self.store, &comp, &mut self.scratch, out, &mut stats);
                    self.comp = comp;
                }
                i += 1;
            }
        }
        self.dirty_flows = dirty_flows;
        self.dirty_flows.clear();
        self.dirty_cables = dirty_cables;
        self.dirty_cables.clear();
        if hxobs::enabled() {
            observe_resolve(&stats);
        }
        stats
    }

    fn reset(&mut self) {
        for (id, alive) in self.store.alive.iter().enumerate() {
            if *alive {
                for dl in &self.store.paths[id] {
                    self.link_flows[dl.index()].clear();
                }
            }
        }
        self.store.reset();
        for &c in &self.dirty_cables {
            self.dirty_cable[c as usize] = false;
        }
        self.dirty_cables.clear();
        self.dirty_flows.clear();
    }

    fn boxed_clone(&self) -> Box<dyn RateSolver> {
        Box::new(self.clone())
    }
}

/// One-shot sampler front-end: solves independent flow sets (e.g. eBB's
/// random bisections) with a persistent backend, reusing every internal
/// allocation across calls.
#[derive(Debug)]
pub struct OneShot {
    solver: Box<dyn RateSolver>,
    table: RateTable,
}

impl OneShot {
    /// A sampler over the chosen backend.
    pub fn new(kind: SolverKind) -> OneShot {
        OneShot {
            solver: kind.new_solver(),
            table: RateTable::default(),
        }
    }

    /// Max-min fair rates of `paths` (flow `i` gets `rates()[i]`), as if
    /// all flows started simultaneously on an otherwise idle network.
    pub fn rates<'a>(
        &mut self,
        caps: &[f64],
        paths: impl IntoIterator<Item = &'a [DirLink]>,
    ) -> &[f64] {
        self.solver.reset();
        let mut n = 0usize;
        for p in paths {
            self.solver.add(n, p);
            self.table.invalidate(n);
            n += 1;
        }
        self.solver.resolve(caps, &mut self.table);
        self.table.clear_changed();
        &self.table.rates()[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_and_default() {
        assert_eq!(SolverKind::Exact.label(), "exact");
        assert_eq!(SolverKind::Incremental.label(), "incremental");
        assert_eq!(SolverKind::default(), SolverKind::Incremental);
    }

    #[test]
    fn rate_table_tracks_bit_changes() {
        let mut t = RateTable::default();
        t.invalidate(0);
        t.set(0, 1.5);
        assert_eq!(t.changed(), &[0]);
        t.clear_changed();
        t.set(0, 1.5); // same bits: no change
        assert!(t.changed().is_empty());
        t.set(0, 2.5);
        assert_eq!(t.changed(), &[0]);
        t.clear_changed();
        t.invalidate(0);
        t.set(0, 2.5); // invalidated: counts again even with same bits
        assert_eq!(t.changed(), &[0]);
    }

    #[test]
    fn disjoint_flows_are_separate_components() {
        // Two flows on distinct cables => two singleton components.
        let caps = vec![10.0, 20.0];
        let mut ex = Exact::default();
        ex.add(0, &[DirLink::from_index(0)]);
        ex.add(1, &[DirLink::from_index(1)]);
        let mut out = RateTable::default();
        let stats = ex.resolve(&caps, &mut out);
        assert_eq!(stats.components, 2);
        assert_eq!(out.rate(0), 10.0);
        assert_eq!(out.rate(1), 20.0);
    }

    #[test]
    fn incremental_skips_untouched_components() {
        let caps = vec![8.0, 8.0];
        let mut inc = Incremental::default();
        inc.add(0, &[DirLink::from_index(0)]);
        inc.add(1, &[DirLink::from_index(1)]);
        let mut out = RateTable::default();
        inc.resolve(&caps, &mut out);
        out.clear_changed();
        // Churn only cable 1's component.
        inc.remove(1);
        inc.add(2, &[DirLink::from_index(1)]);
        let stats = inc.resolve(&caps, &mut out);
        assert_eq!(stats.components, 1, "flow 0's component must not re-solve");
        assert_eq!(out.changed(), &[2]);
        assert_eq!(out.rate(2), 8.0);
    }

    #[test]
    fn removal_resolves_survivors() {
        // Two flows share one cable; removing one must bump the survivor
        // back to full capacity.
        let caps = vec![6.0];
        let mut inc = Incremental::default();
        inc.add(0, &[DirLink::from_index(0)]);
        inc.add(1, &[DirLink::from_index(0)]);
        let mut out = RateTable::default();
        inc.resolve(&caps, &mut out);
        assert_eq!(out.rate(0), 3.0);
        inc.remove(1);
        out.clear_changed();
        inc.resolve(&caps, &mut out);
        assert_eq!(out.rate(0), 6.0);
        assert_eq!(out.changed(), &[0]);
    }

    #[test]
    fn oneshot_reuses_across_flow_sets() {
        let caps = vec![4.0, 2.0];
        for kind in [SolverKind::Exact, SolverKind::Incremental] {
            let mut os = OneShot::new(kind);
            let a = [DirLink::from_index(0)];
            let b = [DirLink::from_index(1)];
            let r1: Vec<f64> = os.rates(&caps, [&a[..], &a[..]]).to_vec();
            assert_eq!(r1, vec![2.0, 2.0], "{}", kind.label());
            let r2: Vec<f64> = os.rates(&caps, [&b[..]]).to_vec();
            assert_eq!(r2, vec![2.0], "{}", kind.label());
            let r3: Vec<f64> = os.rates(&caps, [&a[..], &b[..], &[][..]]).to_vec();
            assert_eq!(r3[0], 4.0);
            assert_eq!(r3[1], 2.0);
            assert!(r3[2].is_infinite());
        }
    }
}
