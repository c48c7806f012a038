//! Engine-equivalence suite for the simulator: the compiled bytecode
//! engine ([`sim::SimEngine::Compiled`], the default) must agree *bit for
//! bit* with the full-sweep oracle ([`sim::SimEngine::FullSweep`]) — same
//! cycles, exit values, per-channel transfer/stall counters, memory
//! contents, error cases, and the per-cycle handshake view a VCD waveform
//! records — on randomized DFGs and on all nine evaluation kernels. The
//! multi-lane run ([`sim::CompiledLanes`]) must agree lane by lane with
//! the single-lane compiled engine — result, cycle, per-channel stalls and
//! transfers — on random lane sets, failing graphs and the first slack
//! round of every kernel. The unit kinds and arities no kernel builds
//! (plain merges, sources, lazy forks, and joins, muxes and control
//! merges with more than two inputs) get one small graph each under both
//! pins, so every opcode of the compiled engines is covered. The parallel
//! slack-matching pass built on top must additionally pick identical
//! buffer sets after identical trials and simulated cycles on either
//! engine and at any job count, on the reduced and the full-size kernels.

use frequenz::core::{slack_match_traced, FlowTrace, SlackOptions, SynthCache};
use frequenz::dataflow::{BufferSpec, ChannelId, Graph, OpKind, PortRef, UnitKind};
use frequenz::hls::{kernels, Kernel};
use frequenz::sim::{
    CompiledLanes, CompiledSim, LaneRun, Program, RunStats, SimEngine, SimError, Simulator,
    VcdTracer,
};
use proptest::prelude::*;
use std::sync::Arc;

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

/// What the single-lane engine reports for `prog` with FULL buffers on
/// `bufs`, run under `cap`.
fn single_lane(prog: &Arc<Program>, bufs: &[ChannelId], args: &[u64], cap: u64) -> LaneRun {
    let mut vm = CompiledSim::with_buffers(Arc::clone(prog), bufs);
    for (i, &v) in args.iter().enumerate() {
        vm.set_arg(i as u8, v);
    }
    let result = vm.run(cap);
    let ids = (0..prog.num_channels()).map(|c| ChannelId::from_raw(c as u32));
    LaneRun {
        result,
        cycle: vm.cycle(),
        stalls: ids.clone().map(|c| vm.stalls(c)).collect(),
        transfers: ids.map(|c| vm.transfers(c)).collect(),
    }
}

/// Runs `lanes` over `g` as one lane run under every cap in `caps` and
/// asserts each lane equals its single-lane run.
fn assert_lanes_match(
    g: &Graph,
    args: &[u64],
    lanes: &[Vec<ChannelId>],
    caps: &[u64],
    label: &str,
) {
    let prog = Arc::new(Program::compile(g).expect("valid graph compiles"));
    for &cap in caps {
        let mut run = CompiledLanes::with_buffers(Arc::clone(&prog), lanes);
        for (i, &v) in args.iter().enumerate() {
            run.set_arg(i as u8, v);
        }
        let got = run.run(cap);
        assert_eq!(got.len(), lanes.len(), "{label}: one run per lane");
        for (l, (lane, got)) in lanes.iter().zip(&got).enumerate() {
            let want = single_lane(&prog, lane, args, cap);
            assert!(
                *got == want,
                "{label}: lane {l} (buffers {lane:?}) diverged at cap {cap}: \
                 got {:?} at cycle {}, want {:?} at cycle {}; stalls agree: {}, \
                 transfers agree: {}",
                got.result,
                got.cycle,
                want.result,
                want.cycle,
                got.stalls == want.stalls,
                got.transfers == want.transfers
            );
        }
    }
}

/// The caps every lane set is pinned at: 0, 1, 7, 50, and one cycle short
/// of and exactly at `completion`, the base circuit's completion cycle.
fn lane_caps(completion: Option<u64>) -> Vec<u64> {
    let mut caps = vec![0, 1, 7, 50];
    if let Some(n) = completion {
        caps.extend([n.saturating_sub(1), n]);
    }
    caps
}

/// Lane overlays drawn from `picks`: each inner list becomes one lane's
/// extra FULL buffers, channels taken modulo the graph's channel count.
fn lane_sets(g: &Graph, picks: &[Vec<u16>]) -> Vec<Vec<ChannelId>> {
    let channels: Vec<_> = g.channels().map(|(c, _)| c).collect();
    picks
        .iter()
        .map(|p| {
            let mut lane: Vec<_> = p
                .iter()
                .map(|&b| channels[b as usize % channels.len()])
                .collect();
            lane.sort();
            lane.dedup();
            lane
        })
        .collect()
}

/// The base circuit's completion cycle under `budget`, if it completes.
fn completion(g: &Graph, args: &[u64], budget: u64) -> Option<u64> {
    let mut s = Simulator::new(g).expect("valid graph constructs");
    for (i, &v) in args.iter().enumerate() {
        s.set_arg(i as u8, v);
    }
    s.run(budget).ok().map(|r| r.cycles)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random chains and buffered loops with random lane sets: every lane
    /// of one lane run equals its single-lane run at every pinned cap.
    #[test]
    fn lanes_agree_with_single_lane_on_random_graphs(
        ops in prop::collection::vec(any::<u8>(), 1..12),
        bufs in prop::collection::vec(any::<u16>(), 0..8),
        args in prop::collection::vec(any::<u64>(), 13),
        n in 2usize..24,
        picks in prop::collection::vec(prop::collection::vec(any::<u16>(), 0..3), 1..12),
    ) {
        let chain = sim_chain(&ops, &bufs);
        let lanes = lane_sets(&chain, &picks);
        let caps = lane_caps(completion(&chain, &args, 10_000));
        assert_lanes_match(&chain, &args, &lanes, &caps, "chain");
        let looped = buffered_gsum(n, &bufs);
        let lanes = lane_sets(&looped, &picks);
        let caps = lane_caps(completion(&looped, &[], 50_000));
        assert_lanes_match(&looped, &[], &lanes, &caps, "gsum");
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

/// A data cycle through two adders without a buffer: it never settles.
fn osc_graph() -> Graph {
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
    g
}

/// The data cycle never settles: both engines must call it
/// [`SimError::NoFixpoint`] on the same cycle.
#[test]
fn no_fixpoint_is_engine_invariant() {
    let sweep = assert_engines_identical(&osc_graph(), &[1, 1], 100, "osc");
    assert_eq!(sweep.0, Err(SimError::NoFixpoint));
}

/// A load from a four-word memory at an address taken from argument 0.
fn oob_graph() -> Graph {
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
    g
}

/// An out-of-range load faults identically under both engines.
#[test]
fn addr_out_of_bounds_is_engine_invariant() {
    let sweep = assert_engines_identical(&oob_graph(), &[99], 100, "oob");
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

/// Every single-channel overlay of `g`, plus the empty one.
fn single_channel_lanes(g: &Graph) -> Vec<Vec<ChannelId>> {
    std::iter::once(Vec::new())
        .chain(g.channels().map(|(c, _)| vec![c]))
        .take(64)
        .collect()
}

/// Pins `lanes` over `g` as one lane run, then again without the lanes
/// that never settle: one such lane sends every lane to the single-lane
/// re-run, so only the second run keeps deadlocks on the shared path.
fn assert_failing_lanes_match(
    g: &Graph,
    args: &[u64],
    lanes: &[Vec<ChannelId>],
    caps: &[u64],
    label: &str,
) {
    assert_lanes_match(g, args, lanes, caps, label);
    let prog = Arc::new(Program::compile(g).expect("valid graph compiles"));
    let cap = caps.iter().copied().max().unwrap_or(0);
    let settling: Vec<_> = lanes
        .iter()
        .filter(|lane| single_lane(&prog, lane, args, cap).result != Err(SimError::NoFixpoint))
        .cloned()
        .collect();
    assert_lanes_match(g, args, &settling, caps, label);
}

/// Failing graphs as lanes: unseeded kernels (which deadlock or never
/// settle unless a lane buffers their back edges), the unsettling data
/// cycle and the faulting load. Each lane still equals its single-lane run.
#[test]
fn lanes_agree_with_single_lane_on_failing_graphs() {
    for k in kernels::all_kernels_small() {
        let g = k.graph();
        let mut lanes = vec![Vec::new(), k.back_edges().to_vec()];
        lanes.extend(k.back_edges().iter().map(|&c| vec![c]));
        lanes.extend(single_channel_lanes(g).into_iter().skip(1).step_by(5));
        lanes.truncate(64);
        let caps = lane_caps(completion(&k.seeded_graph(), &[], k.max_cycles));
        assert_failing_lanes_match(g, &[], &lanes, &caps, k.name);
    }
    let osc = osc_graph();
    let lanes = single_channel_lanes(&osc);
    assert_failing_lanes_match(&osc, &[1, 1], &lanes, &lane_caps(None), "osc");
    let oob = oob_graph();
    for addr in [99, 2] {
        let caps = lane_caps(completion(&oob, &[addr], 100));
        assert_lanes_match(&oob, &[addr], &single_channel_lanes(&oob), &caps, "oob");
    }
}

/// The first slack-matching round of `k`, as the pass runs it: the
/// seeded circuit's top stalled channels singly and in pairs, capped at
/// the seeded circuit's own cycle count.
fn first_round(k: &Kernel) -> (Vec<Vec<ChannelId>>, u64) {
    let g = k.graph();
    let current = k.back_edges().to_vec();
    let prog = Arc::new(Program::compile(g).expect("kernel compiles"));
    let profile = single_lane(&prog, &current, &[], k.max_cycles * 4);
    let cycles = profile.result.expect("seeded kernel completes").cycles;
    let mut ranked: Vec<(ChannelId, u64)> = g
        .channels()
        .map(|(c, _)| (c, profile.stalls[c.index()]))
        .filter(|&(c, n)| n > 0 && !current.contains(&c))
        .collect();
    ranked.sort_by_key(|&(c, n)| (std::cmp::Reverse(n), c));
    let top: Vec<ChannelId> = ranked.iter().take(8).map(|&(c, _)| c).collect();
    let mut lanes: Vec<Vec<ChannelId>> = top.iter().map(|&c| vec![c]).collect();
    for i in 0..top.len() {
        for j in (i + 1)..top.len() {
            lanes.push(vec![top[i], top[j]]);
        }
    }
    for lane in &mut lanes {
        lane.splice(0..0, current.iter().copied());
    }
    (lanes, cycles)
}

/// The first slack round of the nine kernels at reduced and full size and
/// of the three long-trip kernels: every candidate lane, under the
/// round's own cap and the pinned caps, equals its single-lane run.
#[test]
fn lanes_agree_with_single_lane_on_kernel_slack_rounds() {
    let long_trip = [
        kernels::insertion_sort(256),
        kernels::gsum(1024),
        kernels::gsumif(1024),
    ];
    let sets = [kernels::all_kernels_small(), kernels::all_kernels()];
    for k in sets.iter().flatten() {
        let (lanes, cap) = first_round(k);
        assert!(!lanes.is_empty(), "{}: the seeded kernel stalls", k.name);
        assert_lanes_match(k.graph(), &[], &lanes, &lane_caps(Some(cap)), k.name);
    }
    for k in &long_trip {
        let (lanes, cap) = first_round(k);
        assert_lanes_match(k.graph(), &[], &lanes, &[cap], k.name);
    }
}

/// Pins `g` under each argument vector in `arg_sets`: both engines
/// bit-identical (VCD included), and every single-channel overlay, run as
/// one lane set, equal lane by lane to its single-lane run. Returns the
/// oracle's results in `arg_sets` order.
fn assert_pinned(g: &Graph, arg_sets: &[Vec<u64>], label: &str) -> Vec<Result<RunStats, SimError>> {
    let lanes = single_channel_lanes(g);
    arg_sets
        .iter()
        .map(|args| {
            let label = format!("{label} {args:?}");
            let sweep = assert_engines_identical(g, args, 100, &label);
            let caps = lane_caps(completion(g, args, 100));
            assert_lanes_match(g, args, &lanes, &caps, &label);
            sweep.0
        })
        .collect()
}

/// The exit values of `results`, with every error as `None`.
fn exit_values(results: &[Result<RunStats, SimError>]) -> Vec<Option<u64>> {
    results
        .iter()
        .map(|r| r.as_ref().ok().and_then(|s| s.exit_value))
        .collect()
}

/// `n` arguments into one `Merge` (or `ControlMerge`, its index output
/// into a sink) that feeds a fork: one copy is compared with a constant 7
/// that a `Source` triggers, and the comparison steers the other copy to
/// the exit (equal) or to a sink.
fn merge_graph(n: u8, control: bool) -> Graph {
    let mut g = Graph::new("merge");
    let bb = g.add_basic_block("bb0");
    let kind = if control {
        UnitKind::ControlMerge { inputs: n }
    } else {
        UnitKind::Merge { inputs: n }
    };
    let m = g.add_unit(kind, "m", bb, 8).unwrap();
    for k in 0..n {
        let a = g
            .add_unit(UnitKind::Argument { index: k }, format!("a{k}"), bb, 8)
            .unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(m, k as usize))
            .unwrap();
    }
    if control {
        let w = g.unit(m).output_spec(1).width;
        let idx = g.add_unit(UnitKind::Sink, "idx", bb, w).unwrap();
        g.connect(PortRef::new(m, 1), PortRef::new(idx, 0)).unwrap();
    }
    let f = g
        .add_unit(UnitKind::Fork { outputs: 2 }, "f", bb, 8)
        .unwrap();
    let src = g.add_unit(UnitKind::Source, "src", bb, 0).unwrap();
    let k7 = g
        .add_unit(UnitKind::Constant { value: 7 }, "k7", bb, 8)
        .unwrap();
    let eq = g
        .add_unit(UnitKind::Operator(OpKind::Eq), "eq", bb, 8)
        .unwrap();
    let br = g.add_unit(UnitKind::Branch, "br", bb, 8).unwrap();
    let x = g.add_unit(UnitKind::Exit, "x", bb, 8).unwrap();
    let drop = g.add_unit(UnitKind::Sink, "drop", bb, 8).unwrap();
    for (a, b) in [
        ((m, 0), (f, 0)),
        ((src, 0), (k7, 0)),
        ((f, 0), (eq, 0)),
        ((k7, 0), (eq, 1)),
        ((f, 1), (br, 0)),
        ((eq, 0), (br, 1)),
        ((br, 0), (x, 0)),
        ((br, 1), (drop, 0)),
    ] {
        g.connect(PortRef::new(a.0, a.1), PortRef::new(b.0, b.1))
            .unwrap();
    }
    g.validate().unwrap();
    g
}

/// The argument vectors every merge graph of `n` inputs runs under: the
/// 7 on the lowest-priority input (every token passes before the exit),
/// on the highest (the exit comes first), and nowhere (a deadlock).
fn merge_args(n: u8) -> [Vec<u64>; 3] {
    let others = (1..n as u64).collect::<Vec<_>>();
    let last = std::iter::once(7).chain(others.iter().copied()).collect();
    let first = others.iter().copied().chain(std::iter::once(7)).collect();
    let none = std::iter::once(9).chain(others).collect();
    [last, first, none]
}

/// Plain merges (`Merge2` and the generic arm), sources and the constant
/// they trigger: no kernel builds them. Highest-index priority puts the
/// lowest input's 7 last, `n` cycles in.
#[test]
fn plain_merges_and_sources_are_pinned() {
    for n in [2u8, 3, 4] {
        let g = merge_graph(n, false);
        let got = assert_pinned(&g, &merge_args(n), &format!("merge{n}"));
        assert_eq!(exit_values(&got), [Some(7), Some(7), None], "merge{n}");
        assert_eq!(got[0].as_ref().map(|s| s.cycles), Ok(n as u64), "merge{n}");
        assert!(matches!(got[2], Err(SimError::Deadlock { .. })), "merge{n}");
    }
}

/// Control merges with two, three and four inputs grant the highest valid
/// input, as plain merges do; three always-valid sources into a
/// three-input control merge exit with index 2 after one cycle.
#[test]
fn wide_control_merges_are_pinned() {
    for n in [2u8, 3, 4] {
        let g = merge_graph(n, true);
        let got = assert_pinned(&g, &merge_args(n), &format!("cmerge{n}"));
        assert_eq!(exit_values(&got), [Some(7), Some(7), None], "cmerge{n}");
        assert_eq!(got[0].as_ref().map(|s| s.cycles), Ok(n as u64), "cmerge{n}");
    }
    let mut g = Graph::new("sources");
    let bb = g.add_basic_block("bb0");
    let cm = g
        .add_unit(UnitKind::ControlMerge { inputs: 3 }, "cm", bb, 0)
        .unwrap();
    for k in 0..3 {
        let s = g
            .add_unit(UnitKind::Source, format!("s{k}"), bb, 0)
            .unwrap();
        g.connect(PortRef::new(s, 0), PortRef::new(cm, k)).unwrap();
    }
    let sk = g.add_unit(UnitKind::Sink, "sk", bb, 0).unwrap();
    let w = g.unit(cm).output_spec(1).width;
    let x = g.add_unit(UnitKind::Exit, "x", bb, w).unwrap();
    g.connect(PortRef::new(cm, 0), PortRef::new(sk, 0)).unwrap();
    g.connect(PortRef::new(cm, 1), PortRef::new(x, 0)).unwrap();
    g.validate().unwrap();
    let got = assert_pinned(&g, &[vec![]], "sources");
    assert_eq!(
        got[0],
        Ok(RunStats {
            cycles: 1,
            exit_value: Some(2)
        })
    );
}

/// The two lazy-fork graphs of the sim crate's operator tests: a lazy
/// fork into the exit and a sink delivers its token; one into both inputs
/// of an adder couples ready into valid and deadlocks.
#[test]
fn lazy_forks_are_pinned() {
    for into_join in [false, true] {
        let mut g = Graph::new("lf");
        let bb = g.add_basic_block("bb0");
        let a = g
            .add_unit(UnitKind::Argument { index: 0 }, "a", bb, 8)
            .unwrap();
        let lf = g
            .add_unit(UnitKind::LazyFork { outputs: 2 }, "lf", bb, 8)
            .unwrap();
        let x = g.add_unit(UnitKind::Exit, "x", bb, 8).unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(lf, 0)).unwrap();
        if into_join {
            let add = g
                .add_unit(UnitKind::Operator(OpKind::Add), "add", bb, 8)
                .unwrap();
            g.connect(PortRef::new(lf, 0), PortRef::new(add, 0))
                .unwrap();
            g.connect(PortRef::new(lf, 1), PortRef::new(add, 1))
                .unwrap();
            g.connect(PortRef::new(add, 0), PortRef::new(x, 0)).unwrap();
        } else {
            let sk = g.add_unit(UnitKind::Sink, "sk", bb, 8).unwrap();
            g.connect(PortRef::new(lf, 0), PortRef::new(x, 0)).unwrap();
            g.connect(PortRef::new(lf, 1), PortRef::new(sk, 0)).unwrap();
        }
        g.validate().unwrap();
        let got = assert_pinned(&g, &[vec![42]], "lazy fork");
        if into_join {
            assert!(matches!(got[0], Err(SimError::Deadlock { .. })));
        } else {
            assert_eq!(exit_values(&got), [Some(42)]);
        }
    }
}

/// The generic `Join` and `Mux` arms: a three-input join of an entry, a
/// source and a constant whose trigger crosses an opaque buffer, so the
/// join waits one cycle on its last input alone; and a three-way mux whose
/// select comes from argument 0 (select 3 matches no input and deadlocks).
#[test]
fn wide_joins_and_muxes_are_pinned() {
    let mut g = Graph::new("join3");
    let bb = g.add_basic_block("bb0");
    let j = g.add_unit(UnitKind::join(3), "j", bb, 0).unwrap();
    let e0 = g.add_unit(UnitKind::Entry, "e0", bb, 0).unwrap();
    let src = g.add_unit(UnitKind::Source, "src", bb, 0).unwrap();
    let e1 = g.add_unit(UnitKind::Entry, "e1", bb, 0).unwrap();
    let late = g
        .add_unit(UnitKind::Constant { value: 0 }, "late", bb, 0)
        .unwrap();
    let x = g.add_unit(UnitKind::Exit, "x", bb, 0).unwrap();
    let trigger = g
        .connect(PortRef::new(e1, 0), PortRef::new(late, 0))
        .unwrap();
    g.set_buffer(trigger, BufferSpec::OPAQUE);
    for (k, u) in [e0, src, late].into_iter().enumerate() {
        g.connect(PortRef::new(u, 0), PortRef::new(j, k)).unwrap();
    }
    g.connect(PortRef::new(j, 0), PortRef::new(x, 0)).unwrap();
    g.validate().unwrap();
    let got = assert_pinned(&g, &[vec![]], "join3");
    assert_eq!(got[0].as_ref().map(|s| s.cycles), Ok(2));

    let mut g = Graph::new("mux3");
    let bb = g.add_basic_block("bb0");
    let mux = g.add_unit(UnitKind::mux(3), "mux", bb, 8).unwrap();
    let w = g.unit(mux).input_spec(0).width;
    let sel = g
        .add_unit(UnitKind::Argument { index: 0 }, "sel", bb, w)
        .unwrap();
    g.connect(PortRef::new(sel, 0), PortRef::new(mux, 0))
        .unwrap();
    for k in 1..4u8 {
        let a = g
            .add_unit(UnitKind::Argument { index: k }, format!("d{k}"), bb, 8)
            .unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(mux, k as usize))
            .unwrap();
    }
    let x = g.add_unit(UnitKind::Exit, "x", bb, 8).unwrap();
    g.connect(PortRef::new(mux, 0), PortRef::new(x, 0)).unwrap();
    g.validate().unwrap();
    let sets: Vec<Vec<u64>> = (0..4).map(|s| vec![s, 10, 11, 12]).collect();
    let got = assert_pinned(&g, &sets, "mux3");
    assert_eq!(
        exit_values(&got),
        [Some(10), Some(11), Some(12), None],
        "mux3"
    );
    assert!(matches!(got[3], Err(SimError::Deadlock { .. })));
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

/// What one slack-matching pass reports: the buffers it picks, the
/// trials it ran and pruned, and its simulation runs and cycles.
type SlackOutcome = (Vec<ChannelId>, u64, u64, u64, u64);

/// One slack-matching pass on `k` through the caller's synthesis cache:
/// the buffers it picks and the simulation it spent to pick them.
fn slack_outcome(k: &Kernel, engine: SimEngine, jobs: usize, cache: &SynthCache) -> SlackOutcome {
    let opts = SlackOptions {
        sim_budget: k.max_cycles * 4,
        jobs,
        engine,
        ..SlackOptions::default()
    };
    let mut trace = FlowTrace::default();
    let buffers = slack_match_traced(k.graph(), k.back_edges(), &opts, cache, &mut trace)
        .expect("slack matching succeeds");
    (
        buffers,
        trace.slack_trials,
        trace.slack_trials_pruned,
        trace.sim_runs,
        trace.sim_cycles,
    )
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
/// trials and simulated cycles at any job count: trials are evaluated
/// concurrently (as lane groups on the compiled engine) but applied in
/// fixed candidate order. Sweeps both engines on the reduced kernels
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
/// trials and simulated cycles: the compiled engine's lane runs equal the
/// interpreted trials, so the greedy pass sees identical cycle counts. Reduced kernels at jobs 2, full-size kernels at jobs 1.
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
