//! Discrete-event execution of per-rank programs over the fluid network.
//!
//! Collective algorithms (in `hxmpi`) compile to per-rank operation lists —
//! sends, receives and compute phases. The simulator executes them with
//! LogGP-style costs: a send occupies the sender for `o_send` (+ the PML's
//! extra overhead), the payload then moves as a fluid flow competing
//! max-min-fairly for every cable on its route, and delivery costs the wire
//! latency plus `o_recv`. Receives block until the matching message has
//! fully arrived.

use crate::fluid::{FlowId, FluidNet};
use crate::params::NetParams;
use hxobs::Scope;
use hxroute::DirLink;
use hxtopo::Topology;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Seconds of simulated time → trace microseconds.
const US: f64 = 1e6;

/// One operation of a rank's program.
#[derive(Debug, Clone)]
pub enum Op {
    /// Non-blocking send of `bytes` to rank `to` (sender is busy only for
    /// the software overhead).
    Send { to: usize, bytes: u64, tag: u32 },
    /// Blocking receive from rank `from`.
    Recv { from: usize, tag: u32 },
    /// Local computation for the given seconds.
    Compute(f64),
}

/// A complete parallel program: `ops[rank]` is rank `rank`'s sequence.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Per-rank operation lists.
    pub ops: Vec<Vec<Op>>,
}

impl Program {
    /// Empty program over `n` ranks.
    pub fn new(n: usize) -> Program {
        Program {
            ops: vec![Vec::new(); n],
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ops.len()
    }

    /// Total message count.
    pub fn num_messages(&self) -> usize {
        self.ops
            .iter()
            .flatten()
            .filter(|o| matches!(o, Op::Send { .. }))
            .count()
    }
}

/// A resolved route for one message.
#[derive(Debug, Clone)]
pub struct ResolvedPath {
    /// Directed cables, terminal links included; empty for self-sends.
    pub hops: Vec<DirLink>,
    /// Extra per-message software overhead (e.g. the bfo PML penalty).
    pub extra_overhead: f64,
}

/// Resolves rank-to-rank messages onto network routes. Implemented by the
/// MPI layer, which knows placement, routing tables and the PML's LID
/// selection.
pub trait PathResolver {
    /// Route for the `seq`-th message from `src` to `dst` of `bytes` bytes.
    fn resolve(&self, src: usize, dst: usize, bytes: u64, seq: u64) -> ResolvedPath;
}

/// Result of one simulated program execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-rank completion times (seconds).
    pub finish: Vec<f64>,
    /// Time the last rank finished.
    pub makespan: f64,
    /// Number of messages transferred.
    pub messages: usize,
}

/// Priority-queue event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Rank becomes runnable again.
    RankReady(usize),
    /// Network state check (generation-stamped; stale checks are dropped).
    NetCheck(u64),
    /// A message starts flowing (after the sender-side overheads).
    FlowStart(usize),
    /// A message is delivered to its receiver's MPI layer.
    Deliver(usize),
}

/// Ordered f64 for the event heap.
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

#[derive(Debug)]
struct Msg {
    from: usize,
    to: usize,
    tag: u32,
    bytes: u64,
    hops: Vec<DirLink>,
    tail_latency: f64,
    flow: Option<FlowId>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RankState {
    /// Ready to execute its next op at the given time.
    Ready,
    /// Blocked in a receive.
    Blocked { from: usize, tag: u32 },
    /// Program finished.
    Done,
}

/// The discrete-event simulator.
pub struct Simulator<'a> {
    topo: &'a Topology,
    resolver: &'a dyn PathResolver,
    /// Timing parameters.
    pub params: NetParams,
    /// Trace process id for this simulator's events (callers running one
    /// simulator per rail set this to the plane index so Perfetto groups
    /// rank tracks per plane).
    pub trace_pid: u32,
}

impl<'a> Simulator<'a> {
    /// New simulator over a topology and a message resolver.
    pub fn new(
        topo: &'a Topology,
        resolver: &'a dyn PathResolver,
        params: NetParams,
    ) -> Simulator<'a> {
        Simulator {
            topo,
            resolver,
            params,
            trace_pid: 0,
        }
    }

    /// Executes a program, all ranks starting at time zero.
    pub fn run(&self, program: &Program) -> RunResult {
        let n = program.num_ranks();
        let mut heap: BinaryHeap<Reverse<(T, u64, Event)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let push = |heap: &mut BinaryHeap<_>, t: f64, e: Event, seq: &mut u64| {
            *seq += 1;
            heap.push(Reverse((T(t), *seq, e)));
        };

        let mut net = FluidNet::with_solver(self.topo, self.params.solver);
        let mut net_gen = 0u64;
        // Reused across NetCheck events: drained-flow scratch.
        let mut drained: Vec<FlowId> = Vec::new();
        let mut pc = vec![0usize; n];
        let mut state = vec![RankState::Ready; n];
        let mut finish = vec![0.0f64; n];
        let mut msgs: Vec<Msg> = Vec::new();
        let mut flow_to_msg: HashMap<FlowId, usize> = HashMap::new();
        // Arrived-but-unreceived messages: (to, from, tag) -> delivery times.
        let mut arrived: HashMap<(usize, usize, u32), VecDeque<f64>> = HashMap::new();
        let mut msg_seq = vec![0u64; n];
        let mut done = 0usize;

        // Observability: every emission below only *reads* simulator state,
        // so simulation results are identical with tracing on or off.
        let obs = hxobs::sink();
        let pid = self.trace_pid;
        let mut blocked_at = vec![0.0f64; n];
        if let Some(o) = &obs {
            o.tracer.name_process(pid, format!("des plane {pid}"));
            for r in 0..n {
                o.tracer.name_thread(pid, r as u32, format!("rank {r}"));
            }
        }
        // Simulated-clock root span covering the whole program execution;
        // closed at the makespan below.
        let mut run_sp = hxobs::Span::root_at(pid, 0, "des_run", "des", 0.0);
        run_sp.arg("ranks", hxobs::Json::from(n));

        for r in 0..n {
            push(&mut heap, 0.0, Event::RankReady(r), &mut seq);
        }

        // Runs a rank's ops from time `t` until it blocks or finishes.
        // Returns events to schedule. (Implemented inline for borrow
        // simplicity.)
        while let Some(Reverse((T(t), _, ev))) = heap.pop() {
            match ev {
                Event::RankReady(r) => {
                    if state[r] == RankState::Done {
                        continue;
                    }
                    let mut now = t;
                    loop {
                        let Some(op) = program.ops[r].get(pc[r]) else {
                            state[r] = RankState::Done;
                            finish[r] = now;
                            done += 1;
                            break;
                        };
                        match *op {
                            Op::Compute(d) => {
                                pc[r] += 1;
                                if d > 0.0 {
                                    if let Some(o) = &obs {
                                        o.tracer.span(
                                            pid,
                                            r as u32,
                                            "compute",
                                            "des",
                                            now * US,
                                            d * US,
                                            vec![],
                                        );
                                        hxobs::sample("des.compute_seconds", Scope::NONE, d);
                                    }
                                    push(&mut heap, now + d, Event::RankReady(r), &mut seq);
                                    break;
                                }
                            }
                            Op::Send { to, bytes, tag } => {
                                pc[r] += 1;
                                let rp = self.resolver.resolve(r, to, bytes, msg_seq[r]);
                                msg_seq[r] += 1;
                                let switch_hops = rp.hops.len().saturating_sub(1);
                                let wire = self.params.wire_latency(switch_hops, rp.hops.len());
                                let send_busy = self.params.o_send + rp.extra_overhead;
                                let m = Msg {
                                    from: r,
                                    to,
                                    tag,
                                    bytes,
                                    hops: rp.hops,
                                    tail_latency: wire + self.params.o_recv,
                                    flow: None,
                                };
                                msgs.push(m);
                                if let Some(o) = &obs {
                                    o.tracer.span(
                                        pid,
                                        r as u32,
                                        "send",
                                        "des",
                                        now * US,
                                        send_busy * US,
                                        vec![
                                            ("to".to_string(), hxobs::Json::from(to)),
                                            ("bytes".to_string(), hxobs::Json::from(bytes)),
                                            ("tag".to_string(), hxobs::Json::from(tag as u64)),
                                        ],
                                    );
                                    hxobs::sample("des.msg_bytes", Scope::NONE, bytes as f64);
                                }
                                push(
                                    &mut heap,
                                    now + send_busy,
                                    Event::FlowStart(msgs.len() - 1),
                                    &mut seq,
                                );
                                now += send_busy;
                            }
                            Op::Recv { from, tag } => {
                                let key = (r, from, tag);
                                let ready = arrived.get_mut(&key).and_then(|q| q.pop_front());
                                match ready {
                                    Some(deliver_t) => {
                                        pc[r] += 1;
                                        if deliver_t > now {
                                            if let Some(o) = &obs {
                                                o.tracer.span(
                                                    pid,
                                                    r as u32,
                                                    "recv_wait",
                                                    "des",
                                                    now * US,
                                                    (deliver_t - now) * US,
                                                    vec![(
                                                        "from".to_string(),
                                                        hxobs::Json::from(from),
                                                    )],
                                                );
                                                hxobs::sample(
                                                    "des.recv_wait_seconds",
                                                    Scope::NONE,
                                                    deliver_t - now,
                                                );
                                            }
                                            push(
                                                &mut heap,
                                                deliver_t,
                                                Event::RankReady(r),
                                                &mut seq,
                                            );
                                            break;
                                        }
                                    }
                                    None => {
                                        state[r] = RankState::Blocked { from, tag };
                                        blocked_at[r] = now;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                }
                Event::FlowStart(mid) => {
                    let m = &mut msgs[mid];
                    if m.bytes == 0 || m.hops.is_empty() {
                        // Latency-only delivery.
                        push(&mut heap, t + m.tail_latency, Event::Deliver(mid), &mut seq);
                    } else {
                        net.advance_to(t);
                        // The hop vector is only needed by the flow model;
                        // hand it over instead of cloning (it was resolved
                        // from the shared PathDb and is ours to consume).
                        let fid = net.add_flow(std::mem::take(&mut m.hops), m.bytes);
                        m.flow = Some(fid);
                        flow_to_msg.insert(fid, mid);
                        net.recompute();
                        net_gen += 1;
                        if let Some(tc) = net.next_completion() {
                            push(&mut heap, tc, Event::NetCheck(net_gen), &mut seq);
                        }
                    }
                }
                Event::NetCheck(gen) => {
                    if gen != net_gen {
                        continue; // stale
                    }
                    net.advance_to(t);
                    net.drained_into(&mut drained);
                    if drained.is_empty() {
                        continue;
                    }
                    for &fid in &drained {
                        net.remove(fid);
                        let mid = flow_to_msg.remove(&fid).expect("flow has msg");
                        let tail = msgs[mid].tail_latency;
                        push(&mut heap, t + tail, Event::Deliver(mid), &mut seq);
                    }
                    net.recompute();
                    net_gen += 1;
                    if let Some(tc) = net.next_completion() {
                        push(&mut heap, tc, Event::NetCheck(net_gen), &mut seq);
                    }
                }
                Event::Deliver(mid) => {
                    let m = &msgs[mid];
                    let key = (m.to, m.from, m.tag);
                    if let Some(o) = &obs {
                        o.tracer.instant(
                            pid,
                            m.to as u32,
                            "deliver",
                            "des",
                            t * US,
                            vec![
                                ("from".to_string(), hxobs::Json::from(m.from)),
                                ("bytes".to_string(), hxobs::Json::from(m.bytes)),
                            ],
                        );
                    }
                    // If the receiver is blocked on exactly this message,
                    // unblock it; otherwise buffer the arrival.
                    if state[m.to]
                        == (RankState::Blocked {
                            from: m.from,
                            tag: m.tag,
                        })
                    {
                        if let Some(o) = &obs {
                            o.tracer.span(
                                pid,
                                m.to as u32,
                                "recv_wait",
                                "des",
                                blocked_at[m.to] * US,
                                (t - blocked_at[m.to]) * US,
                                vec![("from".to_string(), hxobs::Json::from(m.from))],
                            );
                            hxobs::sample(
                                "des.recv_wait_seconds",
                                Scope::NONE,
                                t - blocked_at[m.to],
                            );
                        }
                        state[m.to] = RankState::Ready;
                        pc[m.to] += 1;
                        push(&mut heap, t, Event::RankReady(m.to), &mut seq);
                    } else {
                        arrived.entry(key).or_default().push_back(t);
                    }
                }
            }
            if done == n && net.active_flows() == 0 {
                break;
            }
        }

        debug_assert_eq!(done, n, "deadlocked program: {done}/{n} ranks finished");
        let makespan = finish.iter().copied().fold(0.0, f64::max);
        run_sp.arg("messages", hxobs::Json::from(msgs.len()));
        run_sp.end_at(makespan * US);
        hxobs::count("des.runs", 1);
        hxobs::count("des.messages", msgs.len() as u64);
        hxobs::gauge("des.last_makespan_s", makespan);
        RunResult {
            finish,
            makespan,
            messages: msgs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxtopo::{LinkClass, SwitchId, TopologyBuilder};

    /// Resolver with straight-line two-switch paths for a dumbbell topology.
    struct Dumbbell {
        topo: Topology,
    }

    impl Dumbbell {
        fn new(n: u32) -> Dumbbell {
            let mut b = TopologyBuilder::new("dumbbell", 2);
            for i in 0..2 * n {
                b.attach_node(SwitchId(i / n));
            }
            b.link_switches(SwitchId(0), SwitchId(1), LinkClass::Aoc);
            Dumbbell { topo: b.build() }
        }
    }

    impl PathResolver for Dumbbell {
        fn resolve(&self, src: usize, dst: usize, _bytes: u64, _seq: u64) -> ResolvedPath {
            use hxtopo::{Endpoint, NodeId};
            if src == dst {
                return ResolvedPath {
                    hops: vec![],
                    extra_overhead: 0.0,
                };
            }
            let (ssw, sl) = self.topo.node_switch(NodeId(src as u32));
            let (dsw, dl) = self.topo.node_switch(NodeId(dst as u32));
            let mut hops = vec![DirLink::leaving(
                &self.topo,
                sl,
                Endpoint::Node(NodeId(src as u32)),
            )];
            if ssw != dsw {
                let isl = self
                    .topo
                    .links()
                    .find(|(_, l)| l.class != LinkClass::Terminal)
                    .unwrap()
                    .0;
                hops.push(DirLink::leaving(&self.topo, isl, Endpoint::Switch(ssw)));
            }
            hops.push(DirLink::leaving(&self.topo, dl, Endpoint::Switch(dsw)));
            ResolvedPath {
                hops,
                extra_overhead: 0.0,
            }
        }
    }

    #[test]
    fn pingpong_latency() {
        let d = Dumbbell::new(1);
        let sim = Simulator::new(&d.topo, &d, NetParams::qdr());
        let mut p = Program::new(2);
        p.ops[0] = vec![
            Op::Send {
                to: 1,
                bytes: 0,
                tag: 0,
            },
            Op::Recv { from: 1, tag: 1 },
        ];
        p.ops[1] = vec![
            Op::Recv { from: 0, tag: 0 },
            Op::Send {
                to: 0,
                bytes: 0,
                tag: 1,
            },
        ];
        let r = sim.run(&p);
        // Round trip = 2 x (o_send + wire(2 switches, 3 cables) + o_recv).
        let one_way = NetParams::qdr().base_latency(2, 3);
        assert!(
            (r.makespan - 2.0 * one_way).abs() < 1e-9,
            "makespan {} vs {}",
            r.makespan,
            2.0 * one_way
        );
        assert_eq!(r.messages, 2);
    }

    #[test]
    fn bandwidth_transfer_time() {
        let d = Dumbbell::new(1);
        let sim = Simulator::new(&d.topo, &d, NetParams::qdr());
        let bytes = 1u64 << 30;
        let mut p = Program::new(2);
        p.ops[0] = vec![Op::Send {
            to: 1,
            bytes,
            tag: 0,
        }];
        p.ops[1] = vec![Op::Recv { from: 0, tag: 0 }];
        let r = sim.run(&p);
        let cap = d.topo.link(hxtopo::LinkId(0)).capacity;
        let expect = bytes as f64 / cap;
        assert!(
            (r.makespan - expect).abs() < expect * 0.01,
            "{} vs {}",
            r.makespan,
            expect
        );
    }

    #[test]
    fn contention_halves_bandwidth() {
        // Two concurrent 2-node pairs crossing the single ISL.
        let d = Dumbbell::new(2);
        let sim = Simulator::new(&d.topo, &d, NetParams::qdr());
        let bytes = 1u64 << 28;
        let mut p = Program::new(4);
        // Nodes 0,1 on switch 0; nodes 2,3 on switch 1.
        p.ops[0] = vec![Op::Send {
            to: 2,
            bytes,
            tag: 0,
        }];
        p.ops[1] = vec![Op::Send {
            to: 3,
            bytes,
            tag: 0,
        }];
        p.ops[2] = vec![Op::Recv { from: 0, tag: 0 }];
        p.ops[3] = vec![Op::Recv { from: 1, tag: 0 }];
        let r = sim.run(&p);
        let cap = d.topo.link(hxtopo::LinkId(4)).capacity; // the ISL
        let expect = 2.0 * bytes as f64 / cap;
        assert!(
            (r.makespan - expect).abs() < expect * 0.01,
            "{} vs {}",
            r.makespan,
            expect
        );
    }

    #[test]
    fn compute_serializes() {
        let d = Dumbbell::new(1);
        let sim = Simulator::new(&d.topo, &d, NetParams::qdr());
        let mut p = Program::new(2);
        p.ops[0] = vec![Op::Compute(1.0), Op::Compute(0.5)];
        p.ops[1] = vec![];
        let r = sim.run(&p);
        assert!((r.makespan - 1.5).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_arrival_is_buffered() {
        let d = Dumbbell::new(1);
        let sim = Simulator::new(&d.topo, &d, NetParams::qdr());
        let mut p = Program::new(2);
        // Rank 0 sends two tagged messages; rank 1 receives them in reverse
        // tag order.
        p.ops[0] = vec![
            Op::Send {
                to: 1,
                bytes: 1024,
                tag: 7,
            },
            Op::Send {
                to: 1,
                bytes: 1024,
                tag: 8,
            },
        ];
        p.ops[1] = vec![Op::Recv { from: 0, tag: 8 }, Op::Recv { from: 0, tag: 7 }];
        let r = sim.run(&p);
        assert!(r.makespan > 0.0);
        assert_eq!(r.messages, 2);
    }

    #[test]
    fn self_send_works() {
        let d = Dumbbell::new(1);
        let sim = Simulator::new(&d.topo, &d, NetParams::qdr());
        let mut p = Program::new(2);
        p.ops[0] = vec![
            Op::Send {
                to: 0,
                bytes: 4096,
                tag: 0,
            },
            Op::Recv { from: 0, tag: 0 },
        ];
        let r = sim.run(&p);
        assert!(r.makespan > 0.0 && r.makespan < 1e-4);
    }

    #[test]
    fn bfo_extra_overhead_applied() {
        struct SlowPml(Dumbbell);
        impl PathResolver for SlowPml {
            fn resolve(&self, s: usize, d: usize, b: u64, q: u64) -> ResolvedPath {
                let mut r = self.0.resolve(s, d, b, q);
                r.extra_overhead = NetParams::qdr().bfo_extra;
                r
            }
        }
        let fast = Dumbbell::new(1);
        let slow = SlowPml(Dumbbell::new(1));
        let mut p = Program::new(2);
        p.ops[0] = vec![Op::Send {
            to: 1,
            bytes: 0,
            tag: 0,
        }];
        p.ops[1] = vec![Op::Recv { from: 0, tag: 0 }];
        let r_fast = Simulator::new(&fast.topo, &fast, NetParams::qdr()).run(&p);
        let r_slow = Simulator::new(&slow.0.topo, &slow, NetParams::qdr()).run(&p);
        let delta = r_slow.makespan - r_fast.makespan;
        assert!((delta - NetParams::qdr().bfo_extra).abs() < 1e-12);
    }
}
