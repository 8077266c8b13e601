//! End-to-end congestion-engine equivalence: for every (topology, engine,
//! placement) combo of the dual-plane system, a full DES collective run
//! under the `Incremental` backend must be bit-identical to the `Exact`
//! oracle — makespan, per-rank finish times and message counts.

use t2hx::core::{Combo, T2hx};
use t2hx::mpi::RoundProgram;
use t2hx::sim::solver::SolverKind;
use t2hx::sim::{RunResult, Simulator};

fn assert_bit_identical(combo: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.messages, b.messages, "{combo}: message count");
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{combo}: makespan {} vs {}",
        a.makespan,
        b.makespan
    );
    assert_eq!(a.finish.len(), b.finish.len());
    for (i, (x, y)) in a.finish.iter().zip(&b.finish).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{combo}: rank {i}: {x} vs {y}");
    }
}

#[test]
fn des_runs_are_bit_identical_across_backends_on_every_combo() {
    let sys = T2hx::mini().expect("mini system routes");
    let n = 16;
    // A contention-heavy mixed schedule: barrier, fan-out, alltoall and a
    // reduction, so flows constantly join and leave shared cables.
    let mut rp = RoundProgram::new(n);
    rp.barrier();
    rp.bcast(1, 1 << 16);
    rp.alltoall(4096);
    rp.allreduce(1 << 17);
    let program = rp.lower();

    for combo in Combo::all() {
        let fabric = sys.fabric(combo, n, 1);
        let run = |kind: SolverKind| {
            Simulator::new(sys.topo(combo), &fabric, sys.params().with_solver(kind)).run(&program)
        };
        let exact = run(SolverKind::Exact);
        let incr = run(SolverKind::Incremental);
        assert!(exact.makespan > 0.0, "{}: empty run", combo.label());
        assert_bit_identical(combo.label(), &exact, &incr);
    }
}
