//! Round-synchronous collective models — the fast evaluation path for
//! full-system parameter sweeps.
//!
//! The exact discrete-event simulator ([`hxsim::Simulator`]) re-solves
//! max-min rates on every flow completion, which is exact but too expensive
//! for the paper's full grids (23 message sizes x 8 node counts x 5 combos
//! x 10 repetitions per collective). The classical alternative — used by
//! LogGP-style analyses — is to treat each algorithm as a sequence of
//! communication *rounds*: all messages of a round start together, and the
//! round ends when the most-loaded directed cable has drained (see
//! [`estimate`]).
//!
//! A [`RoundProgram`] is a list of [`Phase`]s (exchanges or compute), with
//! generators for the classic algorithms of MPICH/Open MPI's tuned modules
//! — the algorithm families of the paper's Open MPI 1.10 stack:
//!
//! * Barrier — dissemination,
//! * Bcast — binomial tree; van de Geijn (scatter + ring allgather) for
//!   large payloads,
//! * Gather / Scatter — binomial trees with subtree-sized payloads,
//! * Reduce — binomial tree (+ reduction compute),
//! * Allreduce — recursive doubling (small, power-of-two) or ring
//!   (reduce-scatter + allgather; also Baidu's DeepBench algorithm),
//! * Allgather — recursive doubling (small, power-of-two) or ring,
//! * Alltoall — Bruck (small) or pairwise exchange,
//!
//! plus subgroup (`*_among`) variants used by the proxy applications'
//! sub-communicators. [`estimate`] evaluates a program over a routed
//! [`Fabric`] in milliseconds of CPU time even at 672 ranks.
//!
//! # One schedule, two pricers
//!
//! [`RoundProgram::lower`] turns the same program into per-rank
//! send/receive/compute lists for the exact discrete-event simulator
//! ([`hxsim::Simulator`]), so the DES checks the round model on exactly
//! the schedule the harnesses price.
//!
//! # Shared exchanges
//!
//! An exchange holds its messages as an `Arc<[Msg]>`. The ring generators
//! (`allreduce_ring_among`, `allgather_ring_among`,
//! `reduce_scatter_ring_among`) repeat one identical exchange per step, so
//! they build it once and push a clone of the `Arc` per step: a 672-rank
//! ring allreduce stores 672 messages, not 1342 x 672. Message and phase
//! counts are unchanged — every step is still its own phase.
//!
//! # Sequence independence
//!
//! The estimator prices an exchange that is [`Arc::ptr_eq`] to the previous
//! exchange by re-adding the previous exchange's cost (and, with
//! accounting on, its per-cable bytes) instead of resolving its messages
//! again. That is exact only when the step's cost depends on nothing but
//! its messages: the round state (cable loads, send counts) is reset per
//! exchange, but the per-sender sequence number is not, and a PML that
//! reads it may route step `s + 1` differently from step `s`. The reuse is
//! therefore gated on [`crate::Pml::ignores_seq`], true only for a PML
//! whose LID choice is constant over the sequence number (ob1).

use crate::fabric::Fabric;
use hxroute::DirLink;
use hxsim::flow::directed_capacities;
use hxsim::{NetParams, Op, Program};
use std::collections::HashMap;
use std::sync::Arc;

/// Reduction compute cost (seconds per byte): memory-bound streaming
/// add on the Westmere-generation hosts (~4 GB/s effective for
/// read-read-write).
pub const REDUCE_SEC_PER_BYTE: f64 = 0.25e-9;

/// Payload threshold above which Bcast switches to van de Geijn.
pub const BCAST_LARGE: u64 = 128 * 1024;

/// Payload threshold above which Allreduce switches to the ring algorithm.
pub const ALLREDUCE_LARGE: u64 = 16 * 1024;

/// Per-pair payload threshold below which Alltoall uses Bruck.
pub const ALLTOALL_SMALL: u64 = 256;

/// Total-payload threshold below which Allgather uses recursive doubling.
pub const ALLGATHER_SMALL: u64 = 8 * 1024;

/// One message: `(source rank, destination rank, bytes)`.
pub type Msg = (usize, usize, u64);

/// A phase of a round-synchronous program.
#[derive(Debug, Clone)]
pub enum Phase {
    /// Simultaneous messages; the phase ends when all have arrived. Ring
    /// steps share one allocation (see the module docs).
    Exchange(Arc<[Msg]>),
    /// Per-rank local compute (all ranks, same duration).
    Compute(f64),
}

/// A round-synchronous parallel program.
#[derive(Debug, Clone)]
pub struct RoundProgram {
    /// Number of ranks.
    pub n: usize,
    /// Ordered phases.
    pub phases: Vec<Phase>,
}

impl RoundProgram {
    /// Empty program over `n` ranks.
    pub fn new(n: usize) -> RoundProgram {
        assert!(n > 0);
        RoundProgram {
            n,
            phases: Vec::new(),
        }
    }

    /// Total messages over all exchange phases.
    pub fn num_messages(&self) -> usize {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::Exchange(m) => m.len(),
                Phase::Compute(_) => 0,
            })
            .sum()
    }

    /// Lowers the program to per-rank operation lists for the exact
    /// discrete-event simulator. Each exchange becomes every rank's sends,
    /// then its receives, under a fresh tag range: the `k`-th copy of a
    /// `(src, dst)` pair within one exchange gets the range's `k`-th tag,
    /// so duplicate pairs still match one to one. Each compute phase
    /// becomes a compute op on every rank.
    pub fn lower(&self) -> Program {
        let mut prog = Program::new(self.n);
        let mut recvs: Vec<Vec<Op>> = vec![Vec::new(); self.n];
        let mut copies: HashMap<(usize, usize), u32> = HashMap::new();
        let mut tag = 0u32;
        for phase in &self.phases {
            match phase {
                Phase::Compute(s) => {
                    for ops in &mut prog.ops {
                        ops.push(Op::Compute(*s));
                    }
                }
                Phase::Exchange(msgs) => {
                    copies.clear();
                    let mut width = 1u32;
                    for &(src, dst, bytes) in msgs.iter() {
                        let k = copies.entry((src, dst)).or_insert(0);
                        let t = tag + *k;
                        *k += 1;
                        width = width.max(*k);
                        prog.ops[src].push(Op::Send {
                            to: dst,
                            bytes,
                            tag: t,
                        });
                        recvs[dst].push(Op::Recv { from: src, tag: t });
                    }
                    for (ops, rs) in prog.ops.iter_mut().zip(&mut recvs) {
                        ops.append(rs);
                    }
                    tag += width;
                }
            }
        }
        prog
    }

    /// Appends an exchange phase.
    pub fn exchange(&mut self, msgs: Vec<Msg>) {
        self.exchange_shared(&msgs.into());
    }

    /// Appends an exchange phase that shares `msgs`' allocation; repeated
    /// calls with one `Arc` mark the steps as identical exchanges.
    fn exchange_shared(&mut self, msgs: &Arc<[Msg]>) {
        if !msgs.is_empty() {
            self.phases.push(Phase::Exchange(Arc::clone(msgs)));
        }
    }

    /// The exchange every ring step repeats: each member of `g` sends
    /// `bytes` to its successor.
    fn ring_step(g: &[usize], bytes: u64) -> Arc<[Msg]> {
        let m = g.len();
        (0..m).map(|i| (g[i], g[(i + 1) % m], bytes)).collect()
    }

    /// Appends a compute phase.
    pub fn compute(&mut self, seconds: f64) {
        if seconds > 0.0 {
            self.phases.push(Phase::Compute(seconds));
        }
    }

    fn all(&self) -> Vec<usize> {
        (0..self.n).collect()
    }

    /// Records rounds-per-collective when observability is on.
    fn record(&self, name: &str, phases_before: usize) {
        if hxobs::enabled() {
            hxobs::count("mpi.collectives", 1);
            hxobs::sample(
                &format!("mpi.rounds_per_collective.{name}"),
                hxobs::Scope::NONE,
                (self.phases.len() - phases_before) as f64,
            );
        }
    }

    // ----- collectives over the full communicator -----

    /// Dissemination barrier.
    pub fn barrier(&mut self) {
        let before = self.phases.len();
        self.barrier_among(&self.all());
        self.record("barrier", before);
    }

    /// Binomial (or van de Geijn for large payloads) broadcast.
    pub fn bcast(&mut self, root: usize, bytes: u64) {
        let before = self.phases.len();
        self.bcast_among(&self.all(), root, bytes);
        self.record("bcast", before);
    }

    /// Binomial gather of `bytes` per rank.
    pub fn gather(&mut self, root: usize, bytes: u64) {
        let before = self.phases.len();
        self.gather_among(&self.all(), root, bytes);
        self.record("gather", before);
    }

    /// Binomial scatter of `bytes` per rank.
    pub fn scatter(&mut self, root: usize, bytes: u64) {
        let before = self.phases.len();
        self.scatter_among(&self.all(), root, bytes);
        self.record("scatter", before);
    }

    /// Binomial reduce.
    pub fn reduce(&mut self, root: usize, bytes: u64) {
        let before = self.phases.len();
        self.reduce_among(&self.all(), root, bytes);
        self.record("reduce", before);
    }

    /// Allreduce: recursive doubling below [`ALLREDUCE_LARGE`] on
    /// power-of-two ranks, ring otherwise.
    pub fn allreduce(&mut self, bytes: u64) {
        let before = self.phases.len();
        self.allreduce_among(&self.all(), bytes);
        self.record("allreduce", before);
    }

    /// Ring allreduce (Baidu DeepBench).
    pub fn allreduce_ring(&mut self, bytes: u64) {
        let before = self.phases.len();
        self.allreduce_ring_among(&self.all(), bytes);
        self.record("allreduce_ring", before);
    }

    /// Allgather.
    pub fn allgather(&mut self, bytes: u64) {
        let before = self.phases.len();
        self.allgather_among(&self.all(), bytes);
        self.record("allgather", before);
    }

    /// Alltoall with Bruck/pairwise selection.
    pub fn alltoall(&mut self, bytes: u64) {
        let before = self.phases.len();
        self.alltoall_among(&self.all(), bytes);
        self.record("alltoall", before);
    }

    /// IMB Multi-PingPong: one iteration (ping + pong) of concurrent pairs
    /// `(i, i + n/2)`.
    pub fn multi_pingpong(&mut self, bytes: u64) {
        let before = self.phases.len();
        let half = self.n / 2;
        assert!(half >= 1, "multi-pingpong needs >= 2 ranks");
        let ping: Vec<Msg> = (0..half).map(|i| (i, i + half, bytes)).collect();
        let pong: Vec<Msg> = (0..half).map(|i| (i + half, i, bytes)).collect();
        self.exchange(ping);
        self.exchange(pong);
        self.record("multi_pingpong", before);
    }

    // ----- subgroup collectives -----

    /// Dissemination barrier among `g`.
    pub fn barrier_among(&mut self, g: &[usize]) {
        let m = g.len();
        if m < 2 {
            return;
        }
        let rounds = usize::BITS - (m - 1).leading_zeros();
        for k in 0..rounds {
            let d = 1usize << k;
            self.exchange((0..m).map(|i| (g[i], g[(i + d) % m], 0)).collect());
        }
    }

    /// Binomial broadcast among `g`; van de Geijn above
    /// [`BCAST_LARGE`].
    pub fn bcast_among(&mut self, g: &[usize], root: usize, bytes: u64) {
        let m = g.len();
        if m < 2 {
            return;
        }
        if bytes >= BCAST_LARGE && m > 2 {
            let chunk = bytes.div_ceil(m as u64);
            self.scatter_among(g, root, chunk);
            self.allgather_ring_among(g, chunk);
            return;
        }
        let ri = g
            .iter()
            .position(|&r| r == root)
            .expect("root not in group");
        // Round k: ranks vr < 2^k send to vr + 2^k.
        let mut k = 0usize;
        while (1 << k) < m {
            let d = 1usize << k;
            let mut msgs = Vec::new();
            for vr in 0..d.min(m) {
                if vr + d < m {
                    msgs.push((g[(vr + ri) % m], g[(vr + d + ri) % m], bytes));
                }
            }
            self.exchange(msgs);
            k += 1;
        }
    }

    /// Binomial gather among `g`.
    pub fn gather_among(&mut self, g: &[usize], root: usize, bytes: u64) {
        let m = g.len();
        if m < 2 {
            return;
        }
        let ri = g
            .iter()
            .position(|&r| r == root)
            .expect("root not in group");
        // Round k: ranks with bit k set and lower bits clear send their
        // subtree (size min(2^k, m - vr)) to vr - 2^k.
        let mut k = 0usize;
        while (1 << k) < m {
            let d = 1usize << k;
            let mut msgs = Vec::new();
            let mut vr = d;
            while vr < m {
                if vr & (d - 1) == 0 && vr & d != 0 {
                    let subtree = d.min(m - vr) as u64;
                    msgs.push((g[(vr + ri) % m], g[(vr - d + ri) % m], subtree * bytes));
                }
                vr += d;
            }
            self.exchange(msgs);
            k += 1;
        }
    }

    /// Binomial scatter among `g`.
    pub fn scatter_among(&mut self, g: &[usize], root: usize, bytes: u64) {
        let m = g.len();
        if m < 2 {
            return;
        }
        let ri = g
            .iter()
            .position(|&r| r == root)
            .expect("root not in group");
        // Mirror of gather: rounds in decreasing mask order.
        let top = m.next_power_of_two() >> 1;
        let mut d = top;
        while d >= 1 {
            let mut msgs = Vec::new();
            let mut vr = 0usize;
            while vr < m {
                // vr sends its upper-half subtree if it owns one this round.
                if vr & (2 * d - 1) == 0 && vr + d < m {
                    let sub = d.min(m - vr - d) as u64;
                    msgs.push((g[(vr + ri) % m], g[(vr + d + ri) % m], sub * bytes));
                }
                vr += 2 * d;
            }
            self.exchange(msgs);
            d >>= 1;
        }
    }

    /// Binomial reduce among `g` with reduction compute.
    pub fn reduce_among(&mut self, g: &[usize], root: usize, bytes: u64) {
        let m = g.len();
        if m < 2 {
            return;
        }
        let ri = g
            .iter()
            .position(|&r| r == root)
            .expect("root not in group");
        let mut k = 0usize;
        while (1 << k) < m {
            let d = 1usize << k;
            let mut msgs = Vec::new();
            let mut vr = d;
            while vr < m {
                if vr & (d - 1) == 0 && vr & d != 0 {
                    msgs.push((g[(vr + ri) % m], g[(vr - d + ri) % m], bytes));
                }
                vr += d;
            }
            self.exchange(msgs);
            self.compute(bytes as f64 * REDUCE_SEC_PER_BYTE);
            k += 1;
        }
    }

    /// Allreduce among `g` (recursive doubling when small and power-of-two,
    /// ring otherwise).
    pub fn allreduce_among(&mut self, g: &[usize], bytes: u64) {
        let m = g.len();
        if m < 2 {
            return;
        }
        if bytes < ALLREDUCE_LARGE && m.is_power_of_two() {
            for k in 0..m.trailing_zeros() as usize {
                let d = 1usize << k;
                self.exchange((0..m).map(|i| (g[i], g[i ^ d], bytes)).collect());
                self.compute(bytes as f64 * REDUCE_SEC_PER_BYTE);
            }
        } else {
            self.allreduce_ring_among(g, bytes);
        }
    }

    /// Ring allreduce among `g`.
    pub fn allreduce_ring_among(&mut self, g: &[usize], bytes: u64) {
        let m = g.len();
        if m < 2 {
            return;
        }
        let chunk = bytes.div_ceil(m as u64).max(1);
        let step = Self::ring_step(g, chunk);
        for s in 0..2 * (m - 1) {
            self.exchange_shared(&step);
            if s < m - 1 {
                self.compute(chunk as f64 * REDUCE_SEC_PER_BYTE);
            }
        }
    }

    /// Allgather among `g` (recursive doubling when small and power-of-two,
    /// ring otherwise).
    pub fn allgather_among(&mut self, g: &[usize], bytes: u64) {
        let m = g.len();
        if m < 2 {
            return;
        }
        if bytes * m as u64 <= ALLGATHER_SMALL && m.is_power_of_two() {
            for k in 0..m.trailing_zeros() as usize {
                let d = 1usize << k;
                let payload = bytes << k;
                self.exchange((0..m).map(|i| (g[i], g[i ^ d], payload)).collect());
            }
        } else {
            self.allgather_ring_among(g, bytes);
        }
    }

    /// Ring allgather among `g`.
    pub fn allgather_ring_among(&mut self, g: &[usize], bytes: u64) {
        let m = g.len();
        if m < 2 {
            return;
        }
        let step = Self::ring_step(g, bytes);
        for _ in 0..m - 1 {
            self.exchange_shared(&step);
        }
    }

    /// Ring reduce-scatter among `g`: each member ends up with the
    /// reduction of its `bytes_per_block` block — the first half of the
    /// ring allreduce, used standalone by Graph500's distributed frontier
    /// reduction (Table 2).
    pub fn reduce_scatter_ring_among(&mut self, g: &[usize], bytes_per_block: u64) {
        let m = g.len();
        if m < 2 {
            return;
        }
        let step = Self::ring_step(g, bytes_per_block);
        for _ in 0..m - 1 {
            self.exchange_shared(&step);
            self.compute(bytes_per_block as f64 * REDUCE_SEC_PER_BYTE);
        }
    }

    /// Ring reduce-scatter over the full communicator.
    pub fn reduce_scatter_ring(&mut self, bytes_per_block: u64) {
        self.reduce_scatter_ring_among(&self.all(), bytes_per_block);
    }

    /// Alltoall among `g` (Bruck below [`ALLTOALL_SMALL`],
    /// pairwise otherwise).
    pub fn alltoall_among(&mut self, g: &[usize], bytes: u64) {
        let m = g.len();
        if m < 2 {
            return;
        }
        if bytes <= ALLTOALL_SMALL {
            let rounds = usize::BITS as usize - (m - 1).leading_zeros() as usize;
            for k in 0..rounds {
                let pk = 1usize << k;
                let full = (m >> (k + 1)) << k;
                let rem = (m & ((pk << 1) - 1)).saturating_sub(pk);
                let cnt = (full + rem) as u64;
                self.exchange(
                    (0..m)
                        .map(|i| (g[i], g[(i + pk) % m], cnt * bytes))
                        .collect(),
                );
            }
        } else {
            for s in 1..m {
                self.exchange((0..m).map(|i| (g[i], g[(i + s) % m], bytes)).collect());
            }
        }
    }
    /// Rabenseifner allreduce (power-of-two groups): recursive-halving
    /// reduce-scatter followed by recursive-doubling allgather — MPICH's
    /// large-message algorithm, provided alongside the ring for ablations.
    pub fn allreduce_rabenseifner_among(&mut self, g: &[usize], bytes: u64) {
        let m = g.len();
        if m < 2 {
            return;
        }
        assert!(m.is_power_of_two(), "Rabenseifner needs 2^k ranks");
        let rounds = m.trailing_zeros() as usize;
        // Reduce-scatter: payload halves every round.
        for k in 0..rounds {
            let d = m >> (k + 1);
            let payload = (bytes >> (k + 1)).max(1);
            self.exchange((0..m).map(|i| (g[i], g[i ^ d], payload)).collect());
            self.compute(payload as f64 * REDUCE_SEC_PER_BYTE);
        }
        // Allgather: payload doubles every round.
        for k in (0..rounds).rev() {
            let d = m >> (k + 1);
            let payload = (bytes >> (k + 1)).max(1);
            self.exchange((0..m).map(|i| (g[i], g[i ^ d], payload)).collect());
        }
    }

    /// Irregular alltoall (MPI_Alltoallv): pairwise rounds where the payload
    /// of each (src, dst) pair comes from `sizes(src_index, dst_index)`
    /// (indices within the group). Zero-byte pairs are skipped.
    pub fn alltoallv_among(&mut self, g: &[usize], sizes: &dyn Fn(usize, usize) -> u64) -> u64 {
        let m = g.len();
        let mut total = 0u64;
        if m < 2 {
            return 0;
        }
        for s in 1..m {
            let mut msgs = Vec::with_capacity(m);
            for i in 0..m {
                let j = (i + s) % m;
                let b = sizes(i, j);
                if b > 0 {
                    total += b;
                    msgs.push((g[i], g[j], b));
                }
            }
            self.exchange(msgs);
        }
        total
    }

    /// Pairwise alltoalls running *concurrently* within several disjoint
    /// groups (the row/column transposes of FFT-style codes: every grid
    /// line redistributes at the same time). Round `s` carries each group's
    /// `i -> i+s` messages in one phase.
    pub fn alltoall_concurrent(&mut self, groups: &[Vec<usize>], bytes: u64) {
        let max_g = groups.iter().map(|g| g.len()).max().unwrap_or(0);
        for s in 1..max_g {
            let mut msgs = Vec::new();
            for g in groups {
                let m = g.len();
                if s < m {
                    for i in 0..m {
                        msgs.push((g[i], g[(i + s) % m], bytes));
                    }
                }
            }
            self.exchange(msgs);
        }
    }
}

/// Detailed result of a round-program evaluation.
#[derive(Debug, Clone)]
pub struct EstimateDetail {
    /// Total time (seconds).
    pub total: f64,
    /// Time spent in compute phases.
    pub compute: f64,
    /// Bytes carried per directed cable over the whole program (indexed by
    /// `DirLink::index`).
    pub link_bytes: Vec<f64>,
}

impl EstimateDetail {
    /// Communication time (total minus compute).
    pub fn comm(&self) -> f64 {
        self.total - self.compute
    }
}

/// Evaluates a round program and additionally reports the compute/
/// communication split (which the capacity scheduler dilates) and
/// per-cable traffic (which the `dark_fiber` harness reports).
pub fn estimate_detailed(fabric: &Fabric<'_>, prog: &RoundProgram) -> EstimateDetail {
    let mut link_bytes = vec![0.0f64; fabric.topo.num_links() * 2];
    let (total, compute) = estimate_inner(fabric, prog, Some(&mut link_bytes));
    EstimateDetail {
        total,
        compute,
        link_bytes,
    }
}

/// Evaluates a round program over a routed fabric.
///
/// Per exchange phase, the cost is
/// `sender-side serialization + max wire latency + o_recv + bottleneck
/// bandwidth term`, where the bandwidth term is the drain time of the most
/// loaded directed cable (max-min sharing of a synchronized round).
pub fn estimate(fabric: &Fabric<'_>, prog: &RoundProgram) -> f64 {
    estimate_inner(fabric, prog, None).0
}

/// The state of the exchange being priced: per-cable load, the cables it
/// touched, per-rank send counts and the longest wire latency. The
/// estimators keep one per program and reset it after every exchange.
struct RoundState {
    caps: Vec<f64>,
    load: Vec<f64>,
    touched: Vec<usize>,
    sends: Vec<u32>,
    max_wire: f64,
}

impl RoundState {
    fn new(fabric: &Fabric<'_>, n: usize) -> RoundState {
        let caps = directed_capacities(fabric.topo);
        RoundState {
            load: vec![0.0; caps.len()],
            caps,
            touched: Vec::new(),
            sends: vec![0; n],
            max_wire: 0.0,
        }
    }

    /// Puts one message of `bytes` on every cable of `path`.
    fn carry(&mut self, p: &NetParams, path: &[DirLink], bytes: u64) {
        let wire = p.wire_latency(path.len().saturating_sub(1), path.len());
        self.max_wire = self.max_wire.max(wire);
        for dl in path {
            let i = dl.index();
            if self.load[i] == 0.0 {
                self.touched.push(i);
            }
            self.load[i] += bytes as f64;
        }
    }

    /// Prices the exchange `msgs` and resets the state. `per_send` is the
    /// sender-side cost of one message; with `step` given, each touched
    /// cable's bytes are appended to it.
    fn finish(
        &mut self,
        p: &NetParams,
        per_send: f64,
        msgs: &[Msg],
        mut step: Option<&mut Vec<(usize, f64)>>,
    ) -> f64 {
        // Sender-side serialization: the busiest sender posts its messages
        // back to back.
        let max_sends = msgs
            .iter()
            .map(|&(s, _, _)| self.sends[s])
            .max()
            .unwrap_or(0) as f64;
        let latency = max_sends * per_send + self.max_wire + p.o_recv;
        let mut bw = 0.0f64;
        for &i in &self.touched {
            bw = bw.max(self.load[i] / self.caps[i]);
            if let Some(step) = step.as_deref_mut() {
                step.push((i, self.load[i]));
            }
            self.load[i] = 0.0;
        }
        self.touched.clear();
        for &(s, _, _) in msgs {
            self.sends[s] = 0;
        }
        self.max_wire = 0.0;
        latency + bw
    }
}

fn estimate_inner(
    fabric: &Fabric<'_>,
    prog: &RoundProgram,
    mut accounting: Option<&mut Vec<f64>>,
) -> (f64, f64) {
    let mut est_sp = hxobs::Span::root(hxobs::track::MPI, 0, "collective_rounds", "mpi");
    // One snapshot for the whole program: a newer epoch installed
    // mid-program applies from the next program on.
    let db = fabric.pathdb();
    est_sp.set_epoch(db.epoch());
    let p = &fabric.params;
    let per_send = p.o_send + fabric.pml_overhead();
    let reuse = fabric.pml.ignores_seq();
    let mut st = RoundState::new(fabric, prog.n);
    let mut seq = vec![0u64; prog.n];
    let mut hops = Vec::new();
    // The last priced exchange's per-cable bytes (kept only with
    // accounting on) and cost.
    let mut step: Vec<(usize, f64)> = Vec::new();
    let mut prev: Option<(&Arc<[Msg]>, f64)> = None;
    let mut total = 0.0f64;
    let mut compute = 0.0f64;

    for phase in &prog.phases {
        match phase {
            Phase::Compute(s) => {
                total += s;
                compute += s;
            }
            Phase::Exchange(msgs) => {
                let cost = match prev {
                    // A repeated ring step under a sequence-blind PML
                    // routes exactly as the step before it.
                    Some((last, cost)) if reuse && Arc::ptr_eq(last, msgs) => cost,
                    _ => {
                        for &(src, dst, bytes) in msgs.iter() {
                            st.sends[src] += 1;
                            let sn = fabric.placement.node(src);
                            let dn = fabric.placement.node(dst);
                            if sn == dn {
                                continue;
                            }
                            let lid_idx = fabric.pml.select_lid_index(
                                fabric.topo,
                                fabric.routes,
                                sn,
                                dn,
                                bytes,
                                seq[src],
                            );
                            seq[src] += 1;
                            fabric.node_path_in(&db, sn, dn, lid_idx, &mut hops);
                            st.carry(p, &hops, bytes);
                        }
                        step.clear();
                        st.finish(p, per_send, msgs, accounting.is_some().then_some(&mut step))
                    }
                };
                // Byte counts are integers below 2^53, so adding a step's
                // per-cable sums is exact whatever the grouping.
                if let Some(acc) = accounting.as_deref_mut() {
                    for &(i, b) in &step {
                        acc[i] += b;
                    }
                }
                prev = Some((msgs, cost));
                total += cost;
            }
        }
    }
    if hxobs::enabled() {
        let (mut rounds, mut bytes) = (0u64, 0u64);
        for phase in &prog.phases {
            if let Phase::Exchange(msgs) = phase {
                rounds += 1;
                bytes += msgs.iter().map(|&(_, _, b)| b).sum::<u64>();
            }
        }
        hxobs::count("mpi.round_programs", 1);
        hxobs::count("mpi.rounds", rounds);
        hxobs::count(
            if fabric.pml.is_bfo() {
                "mpi.bytes.bfo"
            } else {
                "mpi.bytes.ob1"
            },
            bytes,
        );
        hxobs::sample("mpi.rounds_per_program", hxobs::Scope::NONE, rounds as f64);
        est_sp.arg("rounds", hxobs::Json::from(rounds));
        est_sp.arg("bytes", hxobs::Json::from(bytes));
        est_sp.arg("estimated_s", hxobs::Json::from(total));
    }
    est_sp.end();
    (total, compute)
}

/// Adaptive-routing model (UGAL-flavoured): per message, pick — among the
/// destination's `k` virtual-LID paths — the one minimizing the incremental
/// bottleneck of the current round. This stands in for the
/// Dimensionally-Adaptive Load-balanced (DAL) routing the HyperX was
/// designed for; the paper expects real AR to beat its static PARX
/// prototype ("Future HyperX deployments use AR, making our static routing
/// prototype obsolete", footnote 3). No PML software penalty applies: the
/// adaptivity lives in the switches.
pub fn estimate_adaptive(fabric: &Fabric<'_>, prog: &RoundProgram, k: u32) -> f64 {
    assert!(k >= 1 && k <= fabric.routes.lid_map.lids_per_node());
    let db = fabric.pathdb();
    let p = &fabric.params;
    let mut st = RoundState::new(fabric, prog.n);
    let mut cands: Vec<Vec<DirLink>> = vec![Vec::new(); k as usize];
    let mut total = 0.0f64;

    for phase in &prog.phases {
        match phase {
            Phase::Compute(s) => total += s,
            Phase::Exchange(msgs) => {
                for &(src, dst, bytes) in msgs.iter() {
                    st.sends[src] += 1;
                    let sn = fabric.placement.node(src);
                    let dn = fabric.placement.node(dst);
                    if sn == dn {
                        continue;
                    }
                    // Evaluate each candidate path's post-assignment
                    // bottleneck; take the least loaded.
                    let mut best: Option<(f64, usize)> = None;
                    for (x, path) in cands.iter_mut().enumerate() {
                        fabric.node_path_in(&db, sn, dn, x as u32, path);
                        let bn = path
                            .iter()
                            .map(|dl| (st.load[dl.index()] + bytes as f64) / st.caps[dl.index()])
                            .fold(0.0f64, f64::max);
                        // Penalize longer paths slightly (UGAL's 2x-minimal
                        // rule of thumb folds into the bottleneck metric via
                        // the extra cables already; tie-break on x).
                        if best.is_none_or(|(b, _)| bn < b) {
                            best = Some((bn, x));
                        }
                    }
                    let (_, x) = best.expect("k >= 1");
                    st.carry(p, &cands[x], bytes);
                }
                total += st.finish(p, p.o_send, msgs, None);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use crate::pml::Pml;
    use hxroute::engines::{Dfsssp, RoutingEngine};
    use hxroute::Routes;
    use hxsim::{NetParams, Simulator};
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

    /// Runs `rp` lowered in the exact DES over `f`.
    fn des(t: &Topology, f: &Fabric<'_>, rp: &RoundProgram) -> f64 {
        Simulator::new(t, f, NetParams::qdr())
            .run(&rp.lower())
            .makespan
    }

    #[test]
    fn estimate_tracks_des_for_barrier() {
        let (t, r) = setup();
        let n = 16;
        let f = fabric(&t, &r, n);
        let mut rp = RoundProgram::new(n);
        rp.barrier();
        let est = estimate(&f, &rp);
        let des = des(&t, &f, &rp);
        // Round model and DES agree within 2x for latency-bound patterns.
        assert!(est > 0.5 * des && est < 2.0 * des, "est {est} des {des}");
    }

    #[test]
    fn estimate_tracks_des_for_large_alltoall() {
        let (t, r) = setup();
        let n = 16;
        let f = fabric(&t, &r, n);
        let mut rp = RoundProgram::new(n);
        rp.alltoall(1 << 18);
        let est = estimate(&f, &rp);
        let des = des(&t, &f, &rp);
        assert!(est > 0.4 * des && est < 2.5 * des, "est {est} des {des}");
    }

    #[test]
    fn round_bandwidth_term_is_the_shared_cable_drain() {
        // Seven flows over the one cable of a two-switch HyperX: the
        // round's bandwidth term is that cable's drain time, 7 x bytes /
        // capacity (paper Figure 1), on top of a byte-free latency term.
        let t = HyperXConfig::new(vec![2], 7).build();
        let r = Dfsssp::default().route(&t).unwrap();
        let f = fabric(&t, &r, 14);
        let round = |bytes| {
            let mut rp = RoundProgram::new(14);
            rp.exchange((0..7).map(|i| (i, i + 7, bytes)).collect());
            estimate(&f, &rp)
        };
        let (_, cable) = t
            .links()
            .find(|(_, l)| l.class != hxtopo::LinkClass::Terminal)
            .unwrap();
        let bytes = 1u64 << 20;
        let expect = 7.0 * bytes as f64 / cable.capacity;
        let bw = round(bytes) - round(0);
        assert!((bw - expect).abs() < expect * 1e-9, "{bw} vs {expect}");
    }

    /// The 4x4 HyperX with one node per switch, for the DES checks of the
    /// lowered schedules.
    fn des_setup() -> (Topology, Routes) {
        let t = HyperXConfig::new(vec![4, 4], 1).build();
        let r = Dfsssp::default().route(&t).unwrap();
        (t, r)
    }

    /// DES makespan of `rp` on [`des_setup`]'s fabric.
    fn run(t: &Topology, r: &Routes, rp: &RoundProgram) -> f64 {
        des(t, &fabric(t, r, rp.n), rp)
    }

    /// Bytes of every lowered send to rank `to` (`None` = any rank).
    fn sent_bytes(p: &Program, to: Option<usize>) -> u64 {
        p.ops
            .iter()
            .flatten()
            .filter_map(|o| match *o {
                Op::Send { to: d, bytes, .. } if to.is_none_or(|t| t == d) => Some(bytes),
                _ => None,
            })
            .sum()
    }

    #[test]
    fn barrier_scales_logarithmically() {
        let (t, r) = des_setup();
        let mut times = Vec::new();
        for n in [2usize, 4, 8, 16] {
            let mut rp = RoundProgram::new(n);
            rp.barrier();
            times.push(run(&t, &r, &rp));
        }
        // Monotone in rounds and within ~per-round bounds.
        assert!(times[0] < times[1] && times[1] < times[2] && times[2] < times[3]);
        // 16 ranks = 4 rounds: latency under 4x a generous per-round bound.
        assert!(times[3] < 4.0 * 10e-6, "{times:?}");
    }

    #[test]
    fn barrier_message_count() {
        let mut rp = RoundProgram::new(10);
        rp.barrier();
        // ceil(log2 10) = 4 rounds x 10 ranks.
        assert_eq!(rp.lower().num_messages(), 40);
    }

    #[test]
    fn bcast_binomial_message_count() {
        let mut rp = RoundProgram::new(16);
        rp.bcast(0, 1024);
        // A broadcast reaches 15 ranks with exactly 15 messages.
        assert_eq!(rp.lower().num_messages(), 15);
    }

    #[test]
    fn bcast_nonzero_root_completes() {
        let (t, r) = des_setup();
        for root in [0usize, 3, 15] {
            let mut rp = RoundProgram::new(16);
            rp.bcast(root, 4096);
            let m = run(&t, &r, &rp);
            assert!(m > 0.0 && m < 1.0);
        }
    }

    #[test]
    fn large_bcast_uses_van_de_geijn() {
        let mut rp = RoundProgram::new(8);
        rp.bcast(0, 1 << 20);
        // scatter (7 msgs) + ring allgather (8 * 7 msgs) = 63.
        assert_eq!(rp.lower().num_messages(), 63);
    }

    #[test]
    fn gather_and_scatter_complete_any_n() {
        let (t, r) = des_setup();
        for n in [3usize, 7, 12, 16] {
            for root in [0usize, n - 1] {
                let mut rp = RoundProgram::new(n);
                rp.gather(root, 1024);
                rp.scatter(root, 1024);
                let m = run(&t, &r, &rp);
                assert!(m > 0.0, "n={n} root={root}");
            }
        }
    }

    #[test]
    fn gather_root_receives_all_data() {
        // Binomial gather: every rank's block crosses towards root once
        // per tree edge; the three direct children of root deliver all 7.
        let mut rp = RoundProgram::new(8);
        rp.gather(0, 100);
        let p = rp.lower();
        assert_eq!(sent_bytes(&p, Some(0)), 700);
        assert!(sent_bytes(&p, None) >= 700);
    }

    #[test]
    fn allreduce_ring_bandwidth_shape() {
        let (t, r) = des_setup();
        // Large ring allreduce moves ~2*bytes per node: time must be close
        // to 2 * bytes / cap for co-located ranks, far below n * bytes / cap.
        let bytes = 8u64 << 20;
        let mut rp = RoundProgram::new(8);
        rp.allreduce_ring(bytes);
        let m = run(&t, &r, &rp);
        let cap = 3.4e9;
        let lower = 2.0 * (7.0 / 8.0) * bytes as f64 / cap;
        assert!(m >= lower * 0.9, "{m} vs {lower}");
        assert!(m <= lower * 3.0, "{m} vs {lower}");
    }

    #[test]
    fn allreduce_selects_algorithm() {
        let count = |n: usize, bytes: u64| {
            let mut rp = RoundProgram::new(n);
            rp.allreduce(bytes);
            rp.lower().num_messages()
        };
        // Recursive doubling: 3 rounds x 8 ranks = 24 msgs.
        assert_eq!(count(8, 1024), 24);
        // Ring: 14 steps x 8 = 112.
        assert_eq!(count(8, 1 << 20), 112);
        // Non-power-of-two falls back to ring: 10 steps x 6 = 60.
        assert_eq!(count(6, 1024), 60);
    }

    #[test]
    fn alltoall_pairwise_counts() {
        let mut rp = RoundProgram::new(7);
        rp.alltoall(4096);
        assert_eq!(rp.lower().num_messages(), 7 * 6);
    }

    #[test]
    fn alltoall_bruck_counts_and_volume() {
        let n = 8usize;
        let mut rp = RoundProgram::new(n);
        rp.alltoall(64);
        let p = rp.lower();
        // log2(8) rounds, each carrying n/2 blocks.
        assert_eq!(p.num_messages(), n * 3);
        for o in p.ops.iter().flatten() {
            if let Op::Send { bytes, .. } = o {
                assert_eq!(*bytes, 4 * 64);
            }
        }
    }

    #[test]
    fn alltoall_completes_on_non_power_of_two() {
        let (t, r) = des_setup();
        for n in [5usize, 11, 14] {
            let mut rp = RoundProgram::new(n);
            rp.alltoall(64); // bruck
            rp.alltoall(8192); // pairwise
            let m = run(&t, &r, &rp);
            assert!(m > 0.0, "n={n}");
        }
    }

    /// One ping-pong of `bytes` between ranks 0 and 1: two one-message
    /// exchanges.
    fn pingpong(bytes: u64) -> RoundProgram {
        let mut rp = RoundProgram::new(2);
        rp.exchange(vec![(0, 1, bytes)]);
        rp.exchange(vec![(1, 0, bytes)]);
        rp
    }

    #[test]
    fn pingpong_latency_matches_params() {
        let (t, r) = des_setup();
        let m = run(&t, &r, &pingpong(0));
        // One node per switch; the 2-D HyperX connects adjacent switches
        // directly: 2 switches, 3 cables per direction.
        let one_way = NetParams::qdr().base_latency(2, 3);
        assert!((m - 2.0 * one_way).abs() < 1e-7, "{m}");
    }

    #[test]
    fn multi_pingpong_is_concurrent() {
        let (t, r) = des_setup();
        let bytes = 1u64 << 20;
        let t_one = run(&t, &r, &pingpong(bytes));
        let mut many = RoundProgram::new(16);
        many.multi_pingpong(bytes);
        let t_many = run(&t, &r, &many);
        // Eight concurrent pairs on disjoint terminal links should not take
        // 8x one pair.
        assert!(t_many < 4.0 * t_one, "{t_many} vs {t_one}");
    }

    #[test]
    fn exchange_handles_duplicate_pairs() {
        let (t, r) = des_setup();
        let mut rp = RoundProgram::new(4);
        rp.exchange(vec![(0, 1, 100), (0, 1, 200), (2, 3, 50)]);
        let m = run(&t, &r, &rp);
        assert!(m > 0.0);
    }

    #[test]
    fn composed_schedule_runs_in_order() {
        let (t, r) = des_setup();
        let mut rp = RoundProgram::new(8);
        rp.compute(1e-3);
        rp.allreduce(4096);
        rp.barrier();
        rp.bcast(0, 4096);
        let m = run(&t, &r, &rp);
        assert!(m >= 1e-3);
        assert!(m < 2e-3, "{m}");
    }

    #[test]
    fn subgroup_collectives_only_touch_group() {
        let mut rp = RoundProgram::new(16);
        let g = [2usize, 5, 7, 11];
        rp.alltoall_among(&g, 4096);
        rp.allreduce_ring_among(&g, 1 << 20);
        rp.bcast_among(&g, 5, 1024);
        for phase in &rp.phases {
            if let Phase::Exchange(msgs) = phase {
                for &(s, d, _) in msgs.iter() {
                    assert!(g.contains(&s) && g.contains(&d));
                }
            }
        }
    }

    #[test]
    fn larger_messages_take_longer() {
        let (t, r) = setup();
        let f = fabric(&t, &r, 16);
        let time = |bytes: u64| {
            let mut rp = RoundProgram::new(16);
            rp.allreduce(bytes);
            estimate(&f, &rp)
        };
        assert!(time(1 << 22) > time(1 << 12));
        assert!(time(1 << 12) > 0.0);
    }

    #[test]
    fn nonzero_roots_supported() {
        let (t, r) = setup();
        let f = fabric(&t, &r, 12);
        for root in [0usize, 5, 11] {
            let mut rp = RoundProgram::new(12);
            rp.bcast(root, 1 << 10);
            rp.reduce(root, 1 << 10);
            rp.gather(root, 1 << 10);
            rp.scatter(root, 1 << 10);
            assert!(estimate(&f, &rp) > 0.0);
        }
    }

    #[test]
    fn rabenseifner_moves_less_data_than_ring() {
        // Rabenseifner's total volume per rank is 2*(1 - 1/p)*bytes, same
        // as the ring, but in 2*log2(p) rounds instead of 2*(p-1): fewer
        // latency terms, identical asymptotic bandwidth.
        let (t, r) = setup();
        let f = fabric(&t, &r, 16);
        let bytes = 8u64 << 20;
        let g: Vec<usize> = (0..16).collect();
        let mut ring = RoundProgram::new(16);
        ring.allreduce_ring_among(&g, bytes);
        let mut rab = RoundProgram::new(16);
        rab.allreduce_rabenseifner_among(&g, bytes);
        // Round counts: ring 2*(p-1)=30 exchanges, rabenseifner 2*log2 p=8.
        let count = |rp: &RoundProgram| {
            rp.phases
                .iter()
                .filter(|p| matches!(p, Phase::Exchange(_)))
                .count()
        };
        assert_eq!(count(&ring), 30);
        assert_eq!(count(&rab), 8);
        // Both estimates are in the same bandwidth regime (within 2x).
        let (et_ring, et_rab) = (estimate(&f, &ring), estimate(&f, &rab));
        assert!(
            et_rab < et_ring * 2.0 && et_ring < et_rab * 3.0,
            "{et_ring} {et_rab}"
        );
    }

    #[test]
    fn alltoallv_respects_size_function() {
        let mut rp = RoundProgram::new(6);
        let g: Vec<usize> = (0..6).collect();
        // Upper-triangular traffic only.
        let total = rp.alltoallv_among(&g, &|i, j| if i < j { 100 } else { 0 });
        assert_eq!(total, 15 * 100); // C(6,2) pairs
        for phase in &rp.phases {
            if let Phase::Exchange(msgs) = phase {
                for &(s, d, b) in msgs.iter() {
                    assert!(s < d);
                    assert_eq!(b, 100);
                }
            }
        }
    }

    #[test]
    fn adaptive_beats_static_on_dense_alltoall() {
        // 16 nodes on a 4x4 HyperX (1/switch) with PARX's 4 LIDs: picking
        // the least-loaded path per message must not lose to the static
        // single-path choice for a congested alltoall.
        use hxroute::engines::Parx;
        let t = HyperXConfig::new(vec![4, 4], 1).build();
        let r = Parx::default().route(&t).unwrap();
        let nodes: Vec<NodeId> = t.nodes().collect();
        let f = Fabric::new(
            &t,
            &r,
            Placement::linear(&nodes, 16),
            Pml::Ob1, // static: always LID0
            NetParams::qdr(),
        )
        .expect("routable fabric");
        let mut rp = RoundProgram::new(16);
        rp.alltoall(1 << 20);
        let static_t = estimate(&f, &rp);
        let adaptive_t = estimate_adaptive(&f, &rp, 4);
        assert!(
            adaptive_t <= static_t * 1.001,
            "adaptive {adaptive_t} vs static {static_t}"
        );
    }

    #[test]
    fn adaptive_with_one_candidate_close_to_static() {
        use hxroute::engines::Parx;
        let t = HyperXConfig::new(vec![4, 4], 2).build();
        let r = Parx::default().route(&t).unwrap();
        let nodes: Vec<NodeId> = t.nodes().collect();
        let f = Fabric::new(
            &t,
            &r,
            Placement::linear(&nodes, 16),
            Pml::Ob1,
            NetParams::qdr(),
        )
        .expect("routable fabric");
        let mut rp = RoundProgram::new(16);
        rp.allreduce(1 << 16);
        // k=1 degenerates to static LID0 (minus nothing: ob1 has no extra).
        let a = estimate_adaptive(&f, &rp, 1);
        let s = estimate(&f, &rp);
        assert!((a - s).abs() < s * 1e-9, "{a} vs {s}");
    }

    #[test]
    fn multi_pingpong_rounds() {
        let mut rp = RoundProgram::new(8);
        rp.multi_pingpong(1024);
        assert_eq!(rp.num_messages(), 8);
        assert_eq!(rp.phases.len(), 2);
    }
}
