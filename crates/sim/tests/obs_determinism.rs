//! Determinism guard: a DES run with the observability sink installed must
//! produce bit-identical results to an uninstrumented run. The
//! instrumentation in `hxsim::des` only *reads* simulator state, and this
//! test keeps it honest.
//!
//! Lives in its own integration-test binary because it installs the
//! process-global `hxobs` sink.

use hxroute::DirLink;
use hxsim::des::{Op, PathResolver, Program, ResolvedPath, RunResult, Simulator};
use hxsim::solver::SolverKind;
use hxsim::NetParams;
use hxtopo::{Endpoint, LinkClass, NodeId, SwitchId, Topology, TopologyBuilder};
use std::sync::Arc;

/// Two switches, `n` nodes each, one inter-switch cable.
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

/// A busy little program: contention, buffering, compute, zero-byte sends.
fn workload(n: usize) -> Program {
    let mut p = Program::new(2 * n);
    for r in 0..n {
        p.ops[r] = vec![
            Op::Compute(1e-6 * (r + 1) as f64),
            Op::Send {
                to: n + r,
                bytes: 1 << 20,
                tag: 0,
            },
            Op::Send {
                to: n + r,
                bytes: 0,
                tag: 1,
            },
            Op::Recv {
                from: n + r,
                tag: 2,
            },
        ];
        // Receivers take the messages in reverse tag order to exercise the
        // arrival buffer, then answer.
        p.ops[n + r] = vec![
            Op::Recv { from: r, tag: 1 },
            Op::Recv { from: r, tag: 0 },
            Op::Compute(5e-7),
            Op::Send {
                to: r,
                bytes: 4096,
                tag: 2,
            },
        ];
    }
    p
}

fn assert_bit_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(a.finish.len(), b.finish.len());
    for (i, (x, y)) in a.finish.iter().zip(&b.finish).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "rank {i}: {x} vs {y}");
    }
}

#[test]
fn traced_run_is_bit_identical_to_uninstrumented() {
    // Both congestion engines must satisfy the guard — and agree with each
    // other, since their rates are bit-identical by construction.
    let d = Dumbbell::new(4);
    let p = workload(4);
    let mut results: Vec<RunResult> = Vec::new();

    for kind in [SolverKind::Exact, SolverKind::Incremental] {
        let sim = Simulator::new(&d.topo, &d, NetParams::qdr().with_solver(kind));

        assert!(!hxobs::enabled(), "sink must start uninstalled");
        let plain = sim.run(&p);

        let rec = Arc::new(hxobs::ObsRecorder::new());
        hxobs::install(rec.clone());
        let traced = sim.run(&p);
        hxobs::uninstall();

        assert_bit_identical(&plain, &traced);
        // The traced run really did record: per-rank tracks plus events,
        // and the message counter saw all 3 messages per pair of ranks.
        assert!(!rec.tracer.is_empty(), "trace should not be empty");
        let lines: Vec<hxobs::Json> = rec
            .metrics_jsonl()
            .lines()
            .map(|l| hxobs::Json::parse(l).unwrap())
            .collect();
        let named = |name: &str| -> Vec<&hxobs::Json> {
            lines
                .iter()
                .filter(|j| j.get("name").and_then(hxobs::Json::as_str) == Some(name))
                .collect()
        };
        let field = |j: &hxobs::Json, k: &str| j.get(k).and_then(hxobs::Json::as_num);
        let messages = named("des.messages");
        assert_eq!(messages.len(), 1);
        assert_eq!(field(messages[0], "value"), Some(plain.messages as f64));
        // Every message's size reached the exported `des.msg_bytes` sketch.
        let msg_bytes = named("des.msg_bytes");
        assert_eq!(msg_bytes.len(), 1);
        assert_eq!(field(msg_bytes[0], "count"), Some(plain.messages as f64));

        // And a second uninstrumented run still agrees (the recorder left
        // no residue in the simulator).
        let again = sim.run(&p);
        assert_bit_identical(&plain, &again);
        results.push(plain);
    }

    // Exact vs Incremental: same simulation, bit for bit.
    assert_bit_identical(&results[0], &results[1]);
}
