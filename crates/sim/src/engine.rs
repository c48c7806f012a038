//! The simulation engine: two executions of one shared semantics.
//!
//! Both engines compute the same two-phase cycle — a combinational
//! handshake fixpoint ([`crate::eval`]) followed by a clock-edge state
//! commit ([`crate::commit`]):
//!
//! * [`SimEngine::Compiled`] (the default) lowers the graph once into flat
//!   bytecode ([`crate::compile`]) and executes it with SoA state and
//!   dense dirty bitmasks — no per-cycle `UnitKind` dispatch or port
//!   lookups. The program is `Arc`-shared read-only, and slack matching
//!   runs a round's trials over it as the lanes of one
//!   [`crate::CompiledLanes`] run.
//! * [`SimEngine::FullSweep`] interprets the graph directly: it re-queues
//!   every unit and re-derives every channel at the start of each settle,
//!   and commits every channel and unit at each edge. It is the original
//!   engine, kept as the oracle.
//!
//! The engines are bit-identical on [`RunStats`], per-channel
//! transfer/stall counters, memory images, the per-cycle handshake view,
//! and every error case; `tests/sim_equivalence.rs` pins the identity on
//! randomized graphs and all evaluation kernels.

use crate::compile::{CompiledSim, Program};
use crate::index::AdjIndex;
use crate::state::{ChanSig, ChanState, UnitState};
use crate::types::{fixpoint_limit, RunStats, SimError};
use dataflow::{ChannelId, Graph, MemoryId, UnitId, UnitKind};
use std::sync::Arc;

/// Execution strategy of a [`Simulator`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SimEngine {
    /// Re-evaluates everything every cycle; the oracle engine.
    FullSweep,
    /// One-time bytecode compile, tight decode-loop execution; the
    /// production path of every pass (profiling, slack trials,
    /// verification, measurement).
    #[default]
    Compiled,
}

/// Initial sequential state for a unit of the given kind.
fn reset_state(kind: &UnitKind) -> UnitState {
    match kind {
        UnitKind::Entry | UnitKind::Argument { .. } => UnitState::Fired(false),
        UnitKind::Fork { outputs } => UnitState::ForkDone(vec![false; *outputs as usize]),
        UnitKind::ControlMerge { .. } => UnitState::CmergeState {
            dones: [false; 2],
            grant: None,
        },
        UnitKind::Operator(op) if op.latency() > 0 => {
            UnitState::Pipe(vec![(false, 0); op.latency() as usize])
        }
        UnitKind::Load { .. } | UnitKind::Store { .. } => UnitState::MemPort { v: false, data: 0 },
        _ => UnitState::None,
    }
}

/// Whether a sequential state has the shape the per-cycle evaluators
/// expect for `kind`. Checked once at [`Simulator`] construction (see
/// [`SimError::BadUnit`]) so [`crate::eval`]/[`crate::commit`] never have
/// to panic on a mismatched state mid-cycle.
pub(crate) fn state_consistent(kind: &UnitKind, st: &UnitState) -> bool {
    match (kind, st) {
        (UnitKind::Entry | UnitKind::Argument { .. }, UnitState::Fired(_)) => true,
        (UnitKind::Fork { outputs }, UnitState::ForkDone(d)) => d.len() == *outputs as usize,
        (UnitKind::ControlMerge { .. }, UnitState::CmergeState { .. }) => true,
        (UnitKind::Operator(op), UnitState::Pipe(stages)) => {
            op.latency() > 0 && stages.len() == op.latency() as usize
        }
        (UnitKind::Operator(op), UnitState::None) => op.latency() == 0,
        (UnitKind::Load { .. } | UnitKind::Store { .. }, UnitState::MemPort { .. }) => true,
        (
            UnitKind::LazyFork { .. }
            | UnitKind::Join { .. }
            | UnitKind::Branch
            | UnitKind::Merge { .. }
            | UnitKind::Mux { .. }
            | UnitKind::Constant { .. }
            | UnitKind::Source
            | UnitKind::Sink
            | UnitKind::Exit,
            UnitState::None,
        ) => true,
        _ => false,
    }
}

/// A cycle-accurate simulator for one dataflow graph.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Simulator<'g> {
    g: &'g Graph,
    /// Present iff the engine is [`SimEngine::Compiled`]; every public
    /// accessor dispatches to it before touching the interpreted state
    /// (which is left empty under the compiled engine).
    vm: Option<CompiledSim>,
    pub(crate) idx: AdjIndex,
    pub(crate) args: Vec<u64>,
    pub(crate) sig: Vec<ChanSig>,
    pub(crate) chan: Vec<ChanState>,
    pub(crate) unit: Vec<UnitState>,
    pub(crate) mems: Vec<Vec<u64>>,
    pub(crate) transfers: Vec<u64>,
    pub(crate) stalls: Vec<u64>,
    cycle: u64,
    pub(crate) exit_value: Option<u64>,
    pub(crate) exited: bool,
    /// Settle worklist: units awaiting (re-)evaluation.
    dirty_unit: Vec<bool>,
    unit_queue: Vec<UnitId>,
    /// Channels whose signals were touched by a unit this settle.
    pub(crate) touched: Vec<ChannelId>,
    /// Reusable valid/ready staging buffer for the evaluators.
    pub(crate) scratch: Vec<bool>,
}

impl<'g> Simulator<'g> {
    /// Prepares a simulator on the default (compiled) engine with all
    /// state at reset.
    ///
    /// # Errors
    ///
    /// [`SimError::UnconnectedPort`] if the graph skipped validation and
    /// has a dangling port, [`SimError::BadUnit`] if a unit's reset state
    /// is inconsistent with its kind.
    pub fn new(g: &'g Graph) -> Result<Self, SimError> {
        Self::with_engine(g, SimEngine::default())
    }

    /// Prepares a simulator using the given scheduling engine.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::new`].
    pub fn with_engine(g: &'g Graph, engine: SimEngine) -> Result<Self, SimError> {
        if engine == SimEngine::Compiled {
            let vm = CompiledSim::new(Arc::new(Program::compile(g)?));
            return Ok(Simulator {
                g,
                vm: Some(vm),
                idx: AdjIndex::empty(),
                args: Vec::new(),
                sig: Vec::new(),
                chan: Vec::new(),
                unit: Vec::new(),
                mems: Vec::new(),
                transfers: Vec::new(),
                stalls: Vec::new(),
                cycle: 0,
                exit_value: None,
                exited: false,
                dirty_unit: Vec::new(),
                unit_queue: Vec::new(),
                touched: Vec::new(),
                scratch: Vec::new(),
            });
        }
        let mut unit = Vec::with_capacity(g.num_units());
        for (uid, u) in g.units() {
            let st = reset_state(u.kind());
            if !state_consistent(u.kind(), &st) {
                return Err(SimError::BadUnit {
                    unit: uid,
                    reason: format!(
                        "sequential state {st:?} inconsistent with unit kind {}",
                        u.kind()
                    ),
                });
            }
            unit.push(st);
        }
        let mems = g
            .memories()
            .map(|(_, m)| {
                let mut v = m.init().to_vec();
                v.resize(m.size(), 0);
                v
            })
            .collect();
        Ok(Simulator {
            g,
            vm: None,
            idx: AdjIndex::try_build(g)?,
            args: vec![0; 256],
            sig: vec![ChanSig::default(); g.num_channels()],
            chan: vec![ChanState::default(); g.num_channels()],
            unit,
            mems,
            transfers: vec![0; g.num_channels()],
            stalls: vec![0; g.num_channels()],
            cycle: 0,
            exit_value: None,
            exited: false,
            dirty_unit: vec![false; g.num_units()],
            unit_queue: Vec::new(),
            touched: Vec::new(),
            scratch: Vec::new(),
        })
    }

    fn mark_dirty(&mut self, u: UnitId) {
        if !self.dirty_unit[u.index()] {
            self.dirty_unit[u.index()] = true;
            self.unit_queue.push(u);
        }
    }

    /// Sets the value of kernel argument `index` (before running).
    pub fn set_arg(&mut self, index: u8, value: u64) {
        if let Some(vm) = self.vm.as_mut() {
            vm.set_arg(index, value);
        } else {
            self.args[index as usize] = value;
        }
    }

    /// Reads back a memory after (or during) simulation.
    pub fn memory(&self, id: MemoryId) -> &[u64] {
        match &self.vm {
            Some(vm) => vm.memory(id),
            None => &self.mems[id.index()],
        }
    }

    /// Number of tokens transferred over a channel so far (producer side).
    pub fn transfers(&self, ch: ChannelId) -> u64 {
        match &self.vm {
            Some(vm) => vm.transfers(ch),
            None => self.transfers[ch.index()],
        }
    }

    /// Cycles in which a token was offered on `ch` but not accepted
    /// (`valid && !ready` at the producer side) — the backpressure-stall
    /// counter driving slack matching.
    pub fn stalls(&self, ch: ChannelId) -> u64 {
        match &self.vm {
            Some(vm) => vm.stalls(ch),
            None => self.stalls[ch.index()],
        }
    }

    /// Elapsed cycles.
    pub fn cycle(&self) -> u64 {
        match &self.vm {
            Some(vm) => vm.cycle(),
            None => self.cycle,
        }
    }

    /// Debug view of a channel's handshake state as of the last settle:
    /// `(valid_src, ready_src, valid_dst, ready_dst)`.
    pub fn channel_state(&self, ch: ChannelId) -> (bool, bool, bool, bool) {
        match &self.vm {
            Some(vm) => vm.channel_state(ch),
            None => {
                let s = self.sig[ch.index()];
                (s.valid_src, s.ready_src, s.valid_dst, s.ready_dst)
            }
        }
    }

    /// The data payload currently presented by the producer of `ch`.
    pub fn channel_data(&self, ch: ChannelId) -> u64 {
        match &self.vm {
            Some(vm) => vm.channel_data(ch),
            None => self.sig[ch.index()].data_src,
        }
    }

    /// `true` once the exit token has been consumed.
    pub fn exited(&self) -> bool {
        match &self.vm {
            Some(vm) => vm.exited(),
            None => self.exited,
        }
    }

    /// Runs until the exit fires.
    ///
    /// The budget check precedes each step, so a circuit that completes in
    /// exactly `max_cycles` cycles completes — [`SimError::Timeout`] is
    /// returned only when the budget is exhausted *and* the exit token has
    /// still not been consumed (`tests/sim_equivalence.rs` pins this
    /// boundary on both engines).
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] after `max_cycles`, [`SimError::Deadlock`] if
    /// the circuit stops making progress, [`SimError::NoFixpoint`] for
    /// unbuffered cycles, or [`SimError::AddrOutOfBounds`].
    pub fn run(&mut self, max_cycles: u64) -> Result<RunStats, SimError> {
        if let Some(vm) = self.vm.as_mut() {
            return vm.run(max_cycles);
        }
        while !self.exited {
            if self.cycle >= max_cycles {
                return Err(SimError::Timeout { max_cycles });
            }
            self.step()?;
        }
        Ok(RunStats {
            cycles: self.cycle,
            exit_value: self.exit_value,
        })
    }

    /// Executes one clock cycle (combinational fixpoint + state commit).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`], except timeouts.
    pub fn step(&mut self) -> Result<(), SimError> {
        if let Some(vm) = self.vm.as_mut() {
            return vm.step();
        }
        self.settle_sweep()?;
        let progressed = self.commit_sweep()?;
        self.cycle += 1;
        if !progressed && !self.exited {
            return Err(SimError::Deadlock { cycle: self.cycle });
        }
        Ok(())
    }

    /// Sweep settle: every register commit may change any unit's view, so
    /// each cycle starts with all units queued and all channels rederived;
    /// after that, only changes propagate.
    fn settle_sweep(&mut self) -> Result<(), SimError> {
        let g = self.g;
        for (uid, _) in g.units() {
            self.mark_dirty(uid);
        }
        for (cid, _) in g.channels() {
            if self.eval_channel(cid) {
                let (s, d) = self.idx.ends[cid.index()];
                self.mark_dirty(s);
                self.mark_dirty(d);
            }
        }
        let limit = fixpoint_limit(g);
        let mut evals = 0usize;
        while let Some(u) = self.unit_queue.pop() {
            self.dirty_unit[u.index()] = false;
            evals += 1;
            if evals > limit {
                return Err(SimError::NoFixpoint);
            }
            self.touched.clear();
            if !self.eval_unit(u) {
                continue;
            }
            let touched = std::mem::take(&mut self.touched);
            for &cid in &touched {
                // Endpoints are re-queued even without a derived-signal
                // change: the raw src-side signal may feed transfer logic
                // of the counterpart.
                self.eval_channel(cid);
                let (s, d) = self.idx.ends[cid.index()];
                self.mark_dirty(s);
                self.mark_dirty(d);
            }
            self.touched = touched;
        }
        Ok(())
    }

    /// Sweep commit: visits every channel and every unit, ascending.
    fn commit_sweep(&mut self) -> Result<bool, SimError> {
        let g = self.g;
        let mut progressed = false;
        for (cid, _) in g.channels() {
            progressed |= self.commit_channel(cid);
        }
        for (uid, _) in g.units() {
            progressed |= self.commit_unit(uid)?;
        }
        Ok(progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::OpKind;

    #[test]
    fn reset_states_are_consistent_for_every_kind() {
        let kinds = [
            UnitKind::Entry,
            UnitKind::Argument { index: 3 },
            UnitKind::Exit,
            UnitKind::Sink,
            UnitKind::Source,
            UnitKind::Constant { value: 7 },
            UnitKind::Fork { outputs: 3 },
            UnitKind::LazyFork { outputs: 2 },
            UnitKind::Join { inputs: 2 },
            UnitKind::Branch,
            UnitKind::Merge { inputs: 2 },
            UnitKind::ControlMerge { inputs: 2 },
            UnitKind::Mux { inputs: 2 },
            UnitKind::Operator(OpKind::Add),
            UnitKind::Operator(OpKind::Mul),
        ];
        for k in kinds {
            assert!(
                state_consistent(&k, &reset_state(&k)),
                "reset state for {k} rejected"
            );
        }
    }

    #[test]
    fn zero_latency_operator_with_pipe_state_is_inconsistent() {
        // The exact corruption eval.rs/commit.rs used to panic on
        // ("nonempty pipe" / unreachable!): a combinational operator
        // carrying pipeline registers.
        let kind = UnitKind::Operator(OpKind::Add);
        assert!(!state_consistent(&kind, &UnitState::Pipe(vec![(false, 0)])));
        // ... and the dual: a pipelined operator with the wrong depth.
        let mul = UnitKind::Operator(OpKind::Mul);
        assert!(!state_consistent(&mul, &UnitState::Pipe(Vec::new())));
        assert!(!state_consistent(&mul, &UnitState::None));
        assert!(state_consistent(
            &mul,
            &UnitState::Pipe(vec![(false, 0); OpKind::Mul.latency() as usize])
        ));
    }

    #[test]
    fn mismatched_shapes_are_inconsistent() {
        assert!(!state_consistent(
            &UnitKind::Fork { outputs: 3 },
            &UnitState::ForkDone(vec![false; 2])
        ));
        assert!(!state_consistent(&UnitKind::Entry, &UnitState::None));
        assert!(!state_consistent(
            &UnitKind::Branch,
            &UnitState::Fired(false)
        ));
    }
}
