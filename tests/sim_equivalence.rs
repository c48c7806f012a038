//! Engine-equivalence suite for the simulator: the compiled bytecode
//! engine ([`sim::SimEngine::Compiled`], the default) must agree *bit for
//! bit* with the full-sweep oracle ([`sim::SimEngine::FullSweep`]) — same
//! cycles, exit values, per-channel transfer/stall counters, memory
//! contents, error cases, and the per-cycle handshake view a VCD waveform
//! records — on randomized DFGs and on all nine evaluation kernels. The
//! parallel slack-matching pass built on top must additionally pick
//! identical buffer sets after identical trials on either engine and at
//! any job count, on the reduced and the full-size kernels.

use frequenz::core::{slack_match_traced, FlowTrace, SlackOptions, SynthCache};
use frequenz::dataflow::{BufferSpec, ChannelId, Graph, OpKind, PortRef, UnitKind};
use frequenz::hls::{kernels, Kernel};
use frequenz::sim::{RunStats, SimEngine, SimError, Simulator, VcdTracer};
use proptest::prelude::*;

const ENGINES: [SimEngine; 2] = [SimEngine::FullSweep, SimEngine::Compiled];

/// Everything externally observable about one finished (or failed) run.
type Fingerprint = (
    Result<RunStats, SimError>,
    u64,           // elapsed cycles (also meaningful after errors)
    Vec<u64>,      // per-channel transfers
    Vec<u64>,      // per-channel stalls
    Vec<Vec<u64>>, // memory contents
    String,        // VCD of every cycle's channel valid/ready/data
);

/// Steps the run cycle by cycle exactly as `run(budget)` does, sampling
/// the handshake view into a VCD after every completed cycle, then takes
/// the run's result from `run` itself.
fn fingerprint(g: &Graph, engine: SimEngine, args: &[u64], budget: u64) -> Fingerprint {
    let mut s = Simulator::with_engine(g, engine).expect("valid graph constructs");
    for (i, &v) in args.iter().enumerate() {
        s.set_arg(i as u8, v);
    }
    let mut wave = Vec::new();
    let mut vcd = VcdTracer::new(g, &mut wave).expect("in-memory VCD");
    let mut stepped = Ok(());
    while stepped.is_ok() && !s.exited() && s.cycle() < budget {
        stepped = s.step();
        if stepped.is_ok() {
            vcd.sample(&s).expect("in-memory VCD");
        }
    }
    drop(vcd);
    // After the exit `run` only reports; at the budget it times out.
    let res = stepped.and_then(|()| s.run(budget));
    (
        res,
        s.cycle(),
        g.channels().map(|(c, _)| s.transfers(c)).collect(),
        g.channels().map(|(c, _)| s.stalls(c)).collect(),
        g.memories().map(|(m, _)| s.memory(m).to_vec()).collect(),
        String::from_utf8(wave).expect("VCD is ASCII"),
    )
}

/// Runs both engines and asserts bit-identity against the full-sweep
/// oracle; returns the oracle fingerprint for further checks.
fn assert_engines_identical(g: &Graph, args: &[u64], budget: u64, label: &str) -> Fingerprint {
    let sweep = fingerprint(g, SimEngine::FullSweep, args, budget);
    let got = fingerprint(g, SimEngine::Compiled, args, budget);
    assert_eq!(got, sweep, "{label}: Compiled diverged from FullSweep");
    sweep
}

/// Builds a pipelined operator chain ending in an [`UnitKind::Exit`], with
/// buffers sprinkled on arbitrary channels: `ops` picks the operators
/// (including latency>0 multiplies, exercising the pipeline registers) and
/// `bufs` picks (channel, buffer kind) pairs.
fn sim_chain(ops: &[u8], bufs: &[u16]) -> Graph {
    let mut g = Graph::new("prop");
    let bbs = [g.add_basic_block("bb0"), g.add_basic_block("bb1")];
    let a0 = g
        .add_unit(UnitKind::Argument { index: 0 }, "a0", bbs[0], 8)
        .unwrap();
    let mut prev = PortRef::new(a0, 0);
    let mut prev_width = 8u16;
    for (i, &op) in ops.iter().enumerate() {
        let bb = bbs[i % 2];
        let kind = match op % 8 {
            0 => OpKind::Add,
            1 => OpKind::Sub,
            2 => OpKind::Mul, // latency > 0: exercises the Pipe state
            3 => OpKind::Or,
            4 => OpKind::Xor,
            5 => OpKind::Eq,
            6 => OpKind::Ge,
            _ => OpKind::And,
        };
        let width = prev_width;
        let out_width = match kind {
            OpKind::Eq | OpKind::Ge => 1,
            _ => width,
        };
        let arg = g
            .add_unit(
                UnitKind::Argument {
                    index: (i + 1) as u8,
                },
                format!("a{}", i + 1),
                bb,
                width,
            )
            .unwrap();
        let u = g
            .add_unit(UnitKind::Operator(kind), format!("op{i}"), bb, width)
            .unwrap();
        g.connect(prev, PortRef::new(u, 0)).unwrap();
        g.connect(PortRef::new(arg, 0), PortRef::new(u, 1)).unwrap();
        prev = PortRef::new(u, 0);
        prev_width = out_width;
    }
    let exit = g
        .add_unit(UnitKind::Exit, "exit", bbs[ops.len() % 2], prev_width)
        .unwrap();
    g.connect(prev, PortRef::new(exit, 0)).unwrap();
    g.validate().unwrap();
    let channels: Vec<_> = g.channels().map(|(c, _)| c).collect();
    for &b in bufs {
        let c = channels[b as usize % channels.len()];
        let spec = match b % 3 {
            0 => BufferSpec::FULL,
            1 => BufferSpec::OPAQUE,
            _ => BufferSpec::TRANSPARENT,
        };
        g.set_buffer(c, spec);
    }
    g
}

/// `gsum(n)` with extra buffers on arbitrary channels: loops, merges,
/// branches, and memory ports under randomized backpressure. Whatever the
/// outcome — completion, deadlock, timeout — both engines must agree.
fn buffered_gsum(n: usize, bufs: &[u16]) -> Graph {
    let k = kernels::gsum(n);
    let mut g = k.seeded_graph();
    let channels: Vec<_> = g.channels().map(|(c, _)| c).collect();
    for &b in bufs {
        let c = channels[b as usize % channels.len()];
        let spec = match b % 3 {
            0 => BufferSpec::FULL,
            1 => BufferSpec::OPAQUE,
            _ => BufferSpec::TRANSPARENT,
        };
        g.set_buffer(c, spec);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random pipelined chains with random buffers and random argument
    /// vectors: bit-identical runs on both engines.
    #[test]
    fn engines_agree_on_random_dfgs(
        ops in prop::collection::vec(any::<u8>(), 1..12),
        bufs in prop::collection::vec(any::<u16>(), 0..8),
        args in prop::collection::vec(any::<u64>(), 13),
    ) {
        let g = sim_chain(&ops, &bufs);
        let sweep = fingerprint(&g, SimEngine::FullSweep, &args, 10_000);
        let got = fingerprint(&g, SimEngine::Compiled, &args, 10_000);
        prop_assert_eq!(&got, &sweep, "Compiled diverged");
    }

    /// Random loop graphs (gsum + arbitrary extra buffers): bit-identical
    /// runs, including deadlocks or timeouts the extra buffers may cause.
    #[test]
    fn engines_agree_on_random_buffered_loops(
        n in 2usize..24,
        bufs in prop::collection::vec(any::<u16>(), 0..6),
    ) {
        let g = buffered_gsum(n, &bufs);
        let sweep = fingerprint(&g, SimEngine::FullSweep, &[], 50_000);
        let got = fingerprint(&g, SimEngine::Compiled, &[], 50_000);
        prop_assert_eq!(&got, &sweep, "Compiled diverged");
    }
}

/// All nine evaluation kernels: bit-identical engines, and the oracle
/// still computes the expected results.
#[test]
fn engines_bit_identical_on_all_kernels() {
    for k in kernels::all_kernels() {
        let g = k.seeded_graph();
        let sweep = assert_engines_identical(&g, &[], k.max_cycles * 4, k.name);
        let stats = sweep.0.expect("kernel completes");
        assert_eq!(stats.exit_value, k.expected_exit, "{}: exit value", k.name);
        for (mem, expected) in &k.expected_mems {
            assert_eq!(
                &sweep.4[mem.index()],
                expected,
                "{}: memory {mem} contents",
                k.name
            );
        }
    }
}

/// Unseeded kernels (no back-edge buffers) fail identically: combinational
/// loops and deadlocks are engine-invariant error cases.
#[test]
fn engines_agree_on_unseeded_kernel_failures() {
    for k in kernels::all_kernels_small() {
        let _ = assert_engines_identical(k.graph(), &[], k.max_cycles, k.name);
    }
}

/// A data cycle through two adders never settles: both engines must call
/// it [`SimError::NoFixpoint`] on the same cycle.
#[test]
fn no_fixpoint_is_engine_invariant() {
    let mut g = Graph::new("osc");
    let bb = g.add_basic_block("bb0");
    let a0 = g
        .add_unit(UnitKind::Argument { index: 0 }, "a0", bb, 8)
        .unwrap();
    let a1 = g
        .add_unit(UnitKind::Argument { index: 1 }, "a1", bb, 8)
        .unwrap();
    let u = g
        .add_unit(UnitKind::Operator(OpKind::Add), "u", bb, 8)
        .unwrap();
    let v = g
        .add_unit(UnitKind::Operator(OpKind::Add), "v", bb, 8)
        .unwrap();
    g.connect(PortRef::new(a0, 0), PortRef::new(u, 0)).unwrap();
    g.connect(PortRef::new(v, 0), PortRef::new(u, 1)).unwrap();
    g.connect(PortRef::new(u, 0), PortRef::new(v, 0)).unwrap();
    g.connect(PortRef::new(a1, 0), PortRef::new(v, 1)).unwrap();
    g.validate().unwrap();
    let sweep = assert_engines_identical(&g, &[1, 1], 100, "osc");
    assert_eq!(sweep.0, Err(SimError::NoFixpoint));
}

/// An out-of-range load faults identically under both engines.
#[test]
fn addr_out_of_bounds_is_engine_invariant() {
    let mut g = Graph::new("oob");
    let bb = g.add_basic_block("bb0");
    let mem = g.add_memory("m", 4, 8, vec![1, 2, 3, 4]);
    let a = g
        .add_unit(UnitKind::Argument { index: 0 }, "addr", bb, 8)
        .unwrap();
    let ld = g.add_unit(UnitKind::Load { mem }, "ld", bb, 8).unwrap();
    let x = g.add_unit(UnitKind::Exit, "x", bb, 8).unwrap();
    g.connect(PortRef::new(a, 0), PortRef::new(ld, 0)).unwrap();
    g.connect(PortRef::new(ld, 0), PortRef::new(x, 0)).unwrap();
    g.validate().unwrap();
    let sweep = assert_engines_identical(&g, &[99], 100, "oob");
    assert!(
        matches!(
            sweep.0,
            Err(SimError::AddrOutOfBounds {
                addr: 99,
                size: 4,
                ..
            })
        ),
        "got {:?}",
        sweep.0
    );
}

/// Truncated runs (timeout) leave identical counters behind.
#[test]
fn timeouts_are_engine_invariant() {
    let k = kernels::gsum(64);
    let g = k.seeded_graph();
    for budget in [1, 7, 50] {
        let sweep = assert_engines_identical(&g, &[], budget, "gsum(64)");
        assert_eq!(sweep.0, Err(SimError::Timeout { max_cycles: budget }));
    }
}

/// `run(max_cycles)` boundary, pinned for every engine: a circuit that
/// finishes on cycle `N` completes under a budget of exactly `N`, times out
/// under `N - 1`, and a zero budget times out before the first step.
#[test]
fn run_budget_boundary_is_exact() {
    let k = kernels::gsum(8);
    let g = k.seeded_graph();
    // Reference cycle count from an effectively unbounded run.
    let n = fingerprint(&g, SimEngine::FullSweep, &[], u64::MAX)
        .0
        .expect("gsum(8) completes")
        .cycles;
    assert!(n > 1, "kernel must take more than one cycle");
    for engine in ENGINES {
        let mut exact = Simulator::with_engine(&g, engine).unwrap();
        let stats = exact.run(n).expect("budget == completion cycle is enough");
        assert_eq!(stats.cycles, n, "{engine:?}: cycles at exact budget");

        let mut short = Simulator::with_engine(&g, engine).unwrap();
        assert_eq!(
            short.run(n - 1),
            Err(SimError::Timeout { max_cycles: n - 1 }),
            "{engine:?}: one cycle short must time out"
        );
        assert_eq!(short.cycle(), n - 1, "{engine:?}: stops at the budget");

        let mut zero = Simulator::with_engine(&g, engine).unwrap();
        assert_eq!(
            zero.run(0),
            Err(SimError::Timeout { max_cycles: 0 }),
            "{engine:?}: zero budget"
        );
        assert_eq!(zero.cycle(), 0, "{engine:?}: zero budget runs no cycles");
    }
}

/// Feeding an unvalidated graph (dangling ports) must yield a structured
/// [`SimError::UnconnectedPort`] from every engine's constructor — never a
/// panic.
#[test]
fn unvalidated_graph_is_rejected_with_structured_error() {
    let mut g = Graph::new("dangling");
    let bb = g.add_basic_block("bb0");
    let a = g
        .add_unit(UnitKind::Argument { index: 0 }, "a", bb, 8)
        .unwrap();
    let u = g
        .add_unit(UnitKind::Operator(OpKind::Add), "u", bb, 8)
        .unwrap();
    let x = g.add_unit(UnitKind::Exit, "x", bb, 8).unwrap();
    g.connect(PortRef::new(a, 0), PortRef::new(u, 0)).unwrap();
    g.connect(PortRef::new(u, 0), PortRef::new(x, 0)).unwrap();
    // Deliberately no g.validate(): u's second input port is dangling.
    for engine in ENGINES {
        match Simulator::with_engine(&g, engine) {
            Err(SimError::UnconnectedPort { port, output, .. }) => {
                assert_eq!((port, output), (1, false), "{engine:?}: wrong port");
            }
            other => panic!("{engine:?}: expected UnconnectedPort, got {other:?}"),
        }
    }
}

/// One slack-matching pass on `k` through the caller's synthesis cache:
/// the buffers it picks and the trials it ran (and pruned) to pick them.
fn slack_outcome(
    k: &Kernel,
    engine: SimEngine,
    jobs: usize,
    cache: &SynthCache,
) -> (Vec<ChannelId>, u64, u64) {
    let opts = SlackOptions {
        sim_budget: k.max_cycles * 4,
        jobs,
        engine,
        ..SlackOptions::default()
    };
    let mut trace = FlowTrace::default();
    let buffers = slack_match_traced(k.graph(), k.back_edges(), &opts, cache, &mut trace)
        .expect("slack matching succeeds");
    (buffers, trace.slack_trials, trace.slack_trials_pruned)
}

/// Asserts `engine`'s slack pass on `k` is identical at jobs 1, 2 and 8.
fn assert_slack_jobs_invariant(k: &Kernel, engine: SimEngine) {
    let cache = SynthCache::new();
    let reference = slack_outcome(k, engine, 1, &cache);
    for jobs in [2usize, 8] {
        assert_eq!(
            slack_outcome(k, engine, jobs, &cache),
            reference,
            "{}: jobs={jobs} engine={engine:?} diverged",
            k.name
        );
    }
}

/// The parallel slack-matching pass picks the same buffers after the same
/// trials at any job count: trials are evaluated concurrently but applied
/// in fixed candidate order. Sweeps both engines on the reduced kernels
/// and the compiled engine on the full-size ones.
#[test]
fn slack_matching_jobs_sweep_is_bit_identical() {
    for k in kernels::all_kernels_small() {
        for engine in ENGINES {
            assert_slack_jobs_invariant(&k, engine);
        }
    }
    for k in kernels::all_kernels() {
        assert_slack_jobs_invariant(&k, SimEngine::Compiled);
    }
}

/// The two slack engines must choose the same buffer set after the same
/// trials: simulation is bit-identical, so the greedy pass sees identical
/// cycle counts. Reduced kernels at jobs 2, full-size kernels at jobs 1.
#[test]
fn slack_matching_engines_agree() {
    let sets = [
        (kernels::all_kernels_small(), 2),
        (kernels::all_kernels(), 1),
    ];
    for (set, jobs) in sets {
        for k in set {
            let cache = SynthCache::new();
            let picks = ENGINES.map(|engine| slack_outcome(&k, engine, jobs, &cache));
            assert_eq!(
                picks[0], picks[1],
                "{}: engines picked different buffers",
                k.name
            );
        }
    }
}
