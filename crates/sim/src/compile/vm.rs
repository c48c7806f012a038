//! The bytecode VM: executes a [`Program`] with SoA state and dense dirty
//! bitmasks.
//!
//! Every evaluation/commit function below mirrors the interpreted
//! semantics in [`crate::eval`] and [`crate::commit`] statement for
//! statement — the full-sweep interpreter is the specification, this VM
//! is the fast path. Scheduling differs (bitmask scan instead of a LIFO
//! worklist; a change-driven commit instead of a visit of every channel
//! and unit) but both reach the same unique handshake fixpoint and commit
//! the same next state, so all observables (run results, counters, the
//! per-cycle handshake view, memory images, error variants and their
//! precedence) are bit-identical.
//!
//! Each unit has one evaluation body, its `eval_unit` arm, and one wake
//! set, `dirty`. A unit wakes when an input's valid or data, an output's
//! ready or its own state moves, and `settle` drains the set in ascending
//! unit order until it is clean. Re-running a whole body for a ready
//! change costs only its datapath: an output write whose inputs did not
//! change is a no-op and marks nothing.
//!
//! Two structural differences make the VM's clock edge cheaper than the
//! interpreter's:
//!
//! - **Lazy counters.** The interpreter increments a channel's
//!   transfer/stall counter every cycle it holds a token. The VM instead
//!   records which handshake *pattern* (idle / stalled / transferring)
//!   each channel entered and at which cycle, and folds the elapsed span
//!   into the counters only when the pattern changes; accessors add the
//!   still-open span. A channel streaming or backpressured for a thousand
//!   cycles costs two pattern transitions instead of a thousand
//!   increments. Progress detection (for [`SimError::Deadlock`]) falls
//!   out of a running count of channels currently in the transfer
//!   pattern.
//! - **Change-driven commit.** Only channels whose signals moved during
//!   settle (or whose buffer registers changed at the previous edge) and
//!   only units evaluated during settle (plus the always-commit set:
//!   entries, exits and memory ports) are visited at the clock edge. A
//!   unit or channel whose inputs and state are unchanged commits to the
//!   same state — a no-op the interpreter pays for every cycle. The fire
//!   mask prunes the visited units further: every evaluation of a stateful
//!   unit records whether its commit can act at all (for pipes and memory
//!   ports, simply their enable). Bitmask scans keep the visit order
//!   ascending, so memory effects and error precedence still match the
//!   full-sweep oracle exactly.

use super::program::{
    Instr, Op, Program, ALU_ADD, ALU_AND, ALU_EQ, ALU_GE, ALU_GT, ALU_LE, ALU_LT, ALU_MUL, ALU_NE,
    ALU_NOT, ALU_OR, ALU_SELECT, ALU_SHL, ALU_SHR, ALU_SUB, ALU_XOR, ARG_NONE, SPEC_FULL,
    SPEC_NONE, SPEC_OPAQUE, SPEC_TRANSPARENT,
};
use crate::types::{to_signed, RunStats, SimError};
use dataflow::{ChannelId, MemoryId, UnitId};
use std::sync::Arc;

/// Lazy-counter handshake patterns: no token offered, ...
const PAT_IDLE: u8 = 0;
/// ... token offered but not accepted (`valid && !ready`), ...
const PAT_STALL: u8 = 1;
/// ... token offered and accepted (`valid && ready`).
const PAT_XFER: u8 = 2;

/// The complete per-channel state — handshake signals, buffer registers,
/// effective spec, endpoint units and the lazy-counter pattern — packed
/// into 56 bytes so every channel operation in the hot loop (signal
/// propagation, derivation, clock-edge commit) touches a single cache
/// line instead of ten scattered arrays. `spec`, `src_unit` and
/// `dst_unit` are copied out of the program (and the trial overlay) at
/// construction; the rest is run state.
#[derive(Debug, Clone, Copy, Default)]
// 56 bytes of fields padded to one cache line: channel accesses are
// random-order, so one-line alignment avoids straddles and turns the
// per-access index multiply into a shift.
#[repr(align(64))]
struct Chan {
    d_src: u64,
    d_dst: u64,
    oehb_data: u64,
    tehb_saved: u64,
    /// Cycle at which `cnt_pat` was entered (lazy counters).
    cnt_since: u64,
    src_unit: u32,
    dst_unit: u32,
    v_src: bool,
    r_src: bool,
    v_dst: bool,
    r_dst: bool,
    spec: u8,
    oehb_vld: bool,
    tehb_full: bool,
    /// The handshake pattern (`PAT_*`) this channel has held since
    /// `cnt_since`; counters fold the span in only on transitions.
    cnt_pat: u8,
}

/// An executing (or finished) instance of a compiled program.
///
/// Construction never fails: all validation happened in
/// [`Program::compile`]. The program itself stays immutable and shared;
/// per-run state (signals, buffer registers, unit state pools, memories,
/// counters) lives here.
#[derive(Debug)]
pub struct CompiledSim {
    prog: Arc<Program>,
    args: Vec<u64>,
    /// Per-channel state (signals, buffer registers, effective spec,
    /// endpoints, counter pattern), one cache line per channel.
    ch: Vec<Chan>,
    // Unit sequential-state pools (offsets preassigned by the compiler).
    sb: Vec<bool>,
    sw: Vec<u64>,
    /// Flat memory pool (all memories back to back; see
    /// [`Program::mem_init`]).
    mems: Vec<u64>,
    transfers: Vec<u64>,
    stalls: Vec<u64>,
    /// Units awaiting (re-)evaluation because an input's valid/data, an
    /// output's ready or their own state changed, one bit per unit.
    /// Persists across cycles: commit-time unit-state changes seed the
    /// next settle.
    dirty: Vec<u64>,
    /// Channels whose buffer registers changed at the last commit, one
    /// bit per channel; they seed the next settle.
    seed: Vec<u64>,
    /// Channels to visit at the next clock-edge commit: everything whose
    /// raw or derived signals moved during settle, plus channels whose
    /// buffer registers changed at the previous commit. Lazy counters
    /// make steady channels free, so liveness alone lists nothing.
    ch_commit: Vec<u64>,
    /// Units evaluated during the current settle, one bit per unit; the
    /// commit loop ORs in the program's always-commit mask and drains it.
    evaled: Vec<u64>,
    /// Fire mask, one bit per unit: clear only if the unit's clock-edge
    /// commit cannot *act* (change state, touch memory, raise, or report
    /// progress) on the currently settled signals and current state.
    /// Every evaluation of a stateful unit refreshes its bit; stateless
    /// units never set theirs. The commit scan ANDs this in, so idle
    /// commits are never visited at all.
    fire: Vec<u64>,
    /// Channels currently in [`PAT_XFER`]; nonzero means tokens are
    /// moving even in cycles where no register changes state.
    num_xfer: usize,
    /// 1 after a mid-commit abort whose channel phase already counted the
    /// aborted cycle: the interpreter runs the full channel phase before
    /// a unit commit can fail, without advancing the cycle counter, and
    /// the lazy accessors must report the same totals.
    cnt_bias: u64,
    cycle: u64,
    exited: bool,
    exit_value: Option<u64>,
}

#[inline]
fn words(n: usize) -> usize {
    n.div_ceil(64)
}

/// Unchecked read of a port-table entry as a channel/unit index.
/// Safety: `Program::compile` sized and filled `ports`, and every `k`
/// passed here is `instr.ins/outs + j` with `j` below the instruction's
/// port count.
#[inline(always)]
fn pt(p: &Program, k: usize) -> usize {
    debug_assert!(k < p.ports.len());
    (unsafe { *p.ports.get_unchecked(k) }) as usize
}

/// Input-channel id of port `k`: ports 0 and 1 come straight off the
/// instruction's own cache line, the rest from [`Program::ports`]. With
/// a constant `k` the branch folds away.
#[inline(always)]
pub(super) fn cin(p: &Program, i: &Instr, k: usize) -> usize {
    match k {
        0 => i.c_in0 as usize,
        1 => i.c_in1 as usize,
        _ => pt(p, i.ins as usize + k),
    }
}

/// Output-channel id of port `k`, mirrored like [`cin`].
#[inline(always)]
pub(super) fn cout(p: &Program, i: &Instr, k: usize) -> usize {
    if k == 0 {
        i.c_out0 as usize
    } else {
        pt(p, i.outs as usize + k)
    }
}

/// Binary/unary datapath on preloaded operands (everything except
/// `ALU_SELECT`, which reads a third input) — the pure core shared by
/// the generic [`CompiledSim::alu`] and the specialized `Comb1`/`Comb2`
/// arms.
#[inline(always)]
fn alu_ab(i: &Instr, a: u64, b: u64) -> u64 {
    let m = i.mask;
    let w = i.width;
    match i.alu {
        ALU_ADD => a.wrapping_add(b) & m,
        ALU_SUB => a.wrapping_sub(b) & m,
        ALU_MUL => a.wrapping_mul(b) & m,
        ALU_SHL => (a << i.imm) & m,
        ALU_SHR => (a & m) >> i.imm,
        ALU_AND => a & b & m,
        ALU_OR => (a | b) & m,
        ALU_XOR => (a ^ b) & m,
        ALU_NOT => !a & m,
        ALU_EQ => (a == b) as u64,
        ALU_NE => (a != b) as u64,
        ALU_LT => (to_signed(a, w) < to_signed(b, w)) as u64,
        ALU_LE => (to_signed(a, w) <= to_signed(b, w)) as u64,
        ALU_GT => (to_signed(a, w) > to_signed(b, w)) as u64,
        ALU_GE => (to_signed(a, w) >= to_signed(b, w)) as u64,
        _ => 0,
    }
}

impl CompiledSim {
    /// Fresh state over `prog` with the graph's own buffer annotations.
    pub fn new(prog: Arc<Program>) -> Self {
        let spec = prog.base_spec.clone();
        Self::with_spec(prog, spec)
    }

    /// Fresh state over `prog` with FULL buffers additionally placed on
    /// `extra` — the slack-matching trial overlay, applied without
    /// cloning or re-flattening the graph.
    pub fn with_buffers(prog: Arc<Program>, extra: &[ChannelId]) -> Self {
        let mut spec = prog.base_spec.clone();
        for &c in extra {
            spec[c.index()] = SPEC_FULL;
        }
        Self::with_spec(prog, spec)
    }

    fn with_spec(prog: Arc<Program>, spec: Vec<u8>) -> Self {
        let nc = prog.num_channels();
        let nu = prog.num_units();
        let mut ch = vec![Chan::default(); nc];
        for (c, slot) in ch.iter_mut().enumerate() {
            slot.spec = spec[c];
            slot.src_unit = prog.src_unit[c];
            slot.dst_unit = prog.dst_unit[c];
        }
        CompiledSim {
            args: vec![0; 256],
            ch,
            sb: vec![false; prog.num_sb],
            sw: vec![0; prog.num_sw],
            mems: prog.mem_init.clone(),
            transfers: vec![0; nc],
            stalls: vec![0; nc],
            dirty: vec![0; words(nu)],
            seed: vec![0; words(nc)],
            ch_commit: vec![0; words(nc)],
            evaled: vec![0; words(nu)],
            fire: vec![0; words(nu)],
            num_xfer: 0,
            cnt_bias: 0,
            cycle: 0,
            exited: false,
            exit_value: None,
            prog,
        }
    }

    /// Sets the value of kernel argument `index` (before running).
    pub fn set_arg(&mut self, index: u8, value: u64) {
        self.args[index as usize] = value;
    }

    /// Reads back a memory after (or during) simulation.
    pub fn memory(&self, id: MemoryId) -> &[u64] {
        let lo = self.prog.mem_off[id.index()] as usize;
        let hi = self.prog.mem_off[id.index() + 1] as usize;
        &self.mems[lo..hi]
    }

    /// Number of tokens transferred over a channel so far (producer side).
    pub fn transfers(&self, ch: ChannelId) -> u64 {
        let c = ch.index();
        let mut n = self.transfers[c];
        if self.ch[c].cnt_pat == PAT_XFER {
            n += self.cycle + self.cnt_bias - self.ch[c].cnt_since;
        }
        n
    }

    /// Cycles in which a token was offered on `ch` but not accepted.
    pub fn stalls(&self, ch: ChannelId) -> u64 {
        let c = ch.index();
        let mut n = self.stalls[c];
        if self.ch[c].cnt_pat == PAT_STALL {
            n += self.cycle + self.cnt_bias - self.ch[c].cnt_since;
        }
        n
    }

    /// Elapsed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// `true` once the exit token has been consumed.
    pub fn exited(&self) -> bool {
        self.exited
    }

    /// Debug view of a channel's handshake state as of the last settle:
    /// `(valid_src, ready_src, valid_dst, ready_dst)`.
    pub fn channel_state(&self, ch: ChannelId) -> (bool, bool, bool, bool) {
        let c = ch.index();
        (
            self.ch[c].v_src,
            self.ch[c].r_src,
            self.ch[c].v_dst,
            self.ch[c].r_dst,
        )
    }

    /// The data payload currently presented by the producer of `ch`.
    pub fn channel_data(&self, ch: ChannelId) -> u64 {
        self.ch[ch.index()].d_src
    }

    /// Runs until the exit fires; same contract and boundary semantics as
    /// [`crate::Simulator::run`] — a circuit that completes in exactly
    /// `max_cycles` cycles completes (the budget check precedes each
    /// step, so the final step still executes).
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::Simulator::run`].
    pub fn run(&mut self, max_cycles: u64) -> Result<RunStats, SimError> {
        // One program borrow for the whole run: cloning the `Arc` per
        // cycle (as the public `step` must) costs two atomic ops a cycle.
        let prog = Arc::clone(&self.prog);
        while !self.exited {
            if self.cycle >= max_cycles {
                return Err(SimError::Timeout { max_cycles });
            }
            self.step_with(&prog)?;
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
    /// Same conditions as [`crate::Simulator::step`].
    pub fn step(&mut self) -> Result<(), SimError> {
        let prog = Arc::clone(&self.prog);
        self.step_with(&prog)
    }

    fn step_with(&mut self, prog: &Program) -> Result<(), SimError> {
        self.settle(prog)?;
        let progressed = self.commit(prog)?;
        self.cycle += 1;
        if !progressed && !self.exited {
            return Err(SimError::Deadlock { cycle: self.cycle });
        }
        Ok(())
    }

    #[inline(always)]
    fn mark_unit(&mut self, u: usize) {
        debug_assert!(u >> 6 < self.dirty.len());
        unsafe { *self.dirty.get_unchecked_mut(u >> 6) |= 1u64 << (u & 63) };
    }

    #[inline(always)]
    fn set_fire(&mut self, u: usize, f: bool) {
        debug_assert!(u >> 6 < self.fire.len());
        let w = unsafe { self.fire.get_unchecked_mut(u >> 6) };
        let m = 1u64 << (u & 63);
        if f {
            *w |= m;
        } else {
            *w &= !m;
        }
    }

    #[inline(always)]
    fn mark_seed(&mut self, c: usize) {
        debug_assert!(c >> 6 < self.seed.len());
        unsafe { *self.seed.get_unchecked_mut(c >> 6) |= 1u64 << (c & 63) };
    }

    #[inline(always)]
    fn mark_commit(&mut self, c: usize) {
        debug_assert!(c >> 6 < self.ch_commit.len());
        unsafe { *self.ch_commit.get_unchecked_mut(c >> 6) |= 1u64 << (c & 63) };
    }

    // Unchecked-index accessors for the hot loop. Safety: every index fed
    // to these comes from tables `Program::compile` validated (`ports`
    // entries are in-range channel ids, `sb`/`sw` offsets were
    // preassigned against the pool sizes, endpoint units exist) or from
    // bitmask scans over words sized for exactly `num_units()` /
    // `num_channels()` bits, whose set bits never exceed those counts.
    // Every debug/test build re-checks the invariant via `debug_assert!`.

    #[inline(always)]
    fn chan(&self, c: usize) -> &Chan {
        debug_assert!(c < self.ch.len());
        unsafe { self.ch.get_unchecked(c) }
    }

    #[inline(always)]
    fn chan_mut(&mut self, c: usize) -> &mut Chan {
        debug_assert!(c < self.ch.len());
        unsafe { self.ch.get_unchecked_mut(c) }
    }

    #[inline(always)]
    fn sbit(&self, k: usize) -> bool {
        debug_assert!(k < self.sb.len());
        unsafe { *self.sb.get_unchecked(k) }
    }

    #[inline(always)]
    fn sbit_set(&mut self, k: usize, v: bool) {
        debug_assert!(k < self.sb.len());
        unsafe { *self.sb.get_unchecked_mut(k) = v };
    }

    #[inline(always)]
    fn sword(&self, k: usize) -> u64 {
        debug_assert!(k < self.sw.len());
        unsafe { *self.sw.get_unchecked(k) }
    }

    #[inline(always)]
    fn sword_set(&mut self, k: usize, v: u64) {
        debug_assert!(k < self.sw.len());
        unsafe { *self.sw.get_unchecked_mut(k) = v };
    }

    /// Producer-side signal write, with the channel derivation fused in:
    /// instead of queueing the channel for a generic re-derivation, each
    /// buffer-spec kind updates exactly the dst-side signals that depend
    /// on `valid_src`/`data_src` and marks exactly the endpoint that
    /// reads them. Opaque registers isolate the consumer completely, so
    /// those channels only join the commit list.
    #[inline(always)]
    fn set_out(&mut self, c: usize, valid: bool, data: u64) {
        let vchg = self.chan(c).v_src != valid;
        if vchg || self.chan(c).d_src != data {
            self.chan_mut(c).v_src = valid;
            self.chan_mut(c).d_src = data;
            match self.chan(c).spec {
                SPEC_NONE => {
                    // A wire's commit is pure pattern bookkeeping, and the
                    // pattern reads only `v_src`/`r_src` — a data-only move
                    // (a steady stream) needs no commit visit.
                    if vchg {
                        self.mark_commit(c);
                    }
                    self.chan_mut(c).v_dst = valid;
                    self.chan_mut(c).d_dst = data;
                    self.mark_unit(self.chan(c).dst_unit as usize);
                }
                SPEC_TRANSPARENT => {
                    self.mark_commit(c);
                    let tf = self.chan(c).tehb_full;
                    let vd = valid || tf;
                    let dd = if tf { self.chan(c).tehb_saved } else { data };
                    if vd != self.chan(c).v_dst || dd != self.chan(c).d_dst {
                        self.chan_mut(c).v_dst = vd;
                        self.chan_mut(c).d_dst = dd;
                        self.mark_unit(self.chan(c).dst_unit as usize);
                    }
                }
                // OPAQUE / FULL: every dst-side signal (and `ready_src`)
                // comes from the registers, not the raw producer side —
                // but the registers clock on `v_src`/`d_src`.
                _ => {
                    self.mark_commit(c);
                }
            }
        }
    }

    /// Consumer-side ready write, fused like [`CompiledSim::set_out`]:
    /// only passthrough (`ready_src = ready_dst`) and opaque
    /// (`ready_src = !full || ready_dst`) channels propagate it back to
    /// the producer; a TEHB in the path makes `ready_src = !tehb_full`,
    /// independent of the consumer.
    #[inline(always)]
    fn set_ready(&mut self, c: usize, ready: bool) {
        if self.chan(c).r_dst != ready {
            self.chan_mut(c).r_dst = ready;
            self.mark_commit(c);
            match self.chan(c).spec {
                SPEC_NONE => {
                    self.chan_mut(c).r_src = ready;
                    self.mark_unit(self.chan(c).src_unit as usize);
                }
                SPEC_OPAQUE => {
                    let rs = !self.chan(c).oehb_vld || ready;
                    if rs != self.chan(c).r_src {
                        self.chan_mut(c).r_src = rs;
                        self.mark_unit(self.chan(c).src_unit as usize);
                    }
                }
                _ => {}
            }
        }
    }

    /// Derives a channel's signals and marks its endpoint units dirty if
    /// anything downstream-visible changed — the consumer for a
    /// valid/data move, the producer for a `ready_src` move. Any derived
    /// change also puts the channel on the commit list — `ready_src` feeds
    /// the handshake pattern the lazy counters track.
    #[inline]
    fn eval_channel_and_mark(&mut self, c: usize) {
        let ch = *self.chan(c);
        let (vd, dd, rs) = match ch.spec {
            SPEC_NONE => (ch.v_src, ch.d_src, ch.r_dst),
            SPEC_TRANSPARENT => (
                ch.v_src || ch.tehb_full,
                if ch.tehb_full {
                    ch.tehb_saved
                } else {
                    ch.d_src
                },
                !ch.tehb_full,
            ),
            SPEC_OPAQUE => (ch.oehb_vld, ch.oehb_data, !ch.oehb_vld || ch.r_dst),
            _ => (ch.oehb_vld, ch.oehb_data, !ch.tehb_full),
        };
        let dst_chg = vd != ch.v_dst || dd != ch.d_dst;
        let rs_chg = rs != ch.r_src;
        if !dst_chg && !rs_chg {
            return;
        }
        let m = self.chan_mut(c);
        m.v_dst = vd;
        m.d_dst = dd;
        m.r_src = rs;
        if dst_chg {
            self.mark_unit(ch.dst_unit as usize);
        }
        if rs_chg {
            self.mark_unit(ch.src_unit as usize);
        }
        self.mark_commit(c);
    }

    /// Combinational fixpoint: drains the dirty bitmask (seeded on cycle 0
    /// by everything, afterwards by last commit's state changes) until a
    /// full pass finds no set bit, with the same evaluation budget as the
    /// interpreter.
    fn settle(&mut self, p: &Program) -> Result<(), SimError> {
        let nu = p.num_units();
        let nc = p.num_channels();
        if self.cycle == 0 {
            for w in self.dirty.iter_mut() {
                *w = u64::MAX;
            }
            if !nu.is_multiple_of(64) {
                if let Some(last) = self.dirty.last_mut() {
                    *last = (1u64 << (nu % 64)) - 1;
                }
            }
            // The first clock edge visits every channel, like the
            // interpreter's first commit.
            for w in self.ch_commit.iter_mut() {
                *w = u64::MAX;
            }
            if !nc.is_multiple_of(64) {
                if let Some(last) = self.ch_commit.last_mut() {
                    *last = (1u64 << (nc % 64)) - 1;
                }
            }
            for c in 0..nc {
                self.eval_channel_and_mark(c);
            }
        } else {
            for wi in 0..self.seed.len() {
                // In-bounds: the loop is bounded by the vec's own length,
                // but the checks don't hoist past the `&mut self` calls.
                let mut bits = unsafe { *self.seed.get_unchecked(wi) };
                unsafe { *self.seed.get_unchecked_mut(wi) = 0 };
                while bits != 0 {
                    let c = (wi << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.eval_channel_and_mark(c);
                }
            }
        }
        let limit = p.fixpoint_limit;
        let mut evals = 0usize;
        let nw = self.dirty.len();
        // Drain the dirty words ascending, which follows valid/data
        // downstream, and repeat while evaluations have re-dirtied words
        // already drained (a ready moving upstream, a back edge). The
        // schedule only affects how fast the unique fixpoint is reached,
        // never which one.
        loop {
            for wi in 0..nw {
                // Drain the word in snapshots: take every pending bit at
                // once, batch the `evaled` bookkeeping, and walk the
                // snapshot from a register. Evaluations may re-dirty bits
                // in this same word (including lower ones); the re-read
                // catches them.
                // In-bounds: `wi` is bounded by the vecs' own lengths; the
                // checked forms would re-test on every iteration because
                // `eval_unit` takes `&mut self`.
                loop {
                    let bits = unsafe { *self.dirty.get_unchecked(wi) };
                    if bits == 0 {
                        break;
                    }
                    unsafe { *self.dirty.get_unchecked_mut(wi) = 0 };
                    unsafe { *self.evaled.get_unchecked_mut(wi) |= bits };
                    evals += bits.count_ones() as usize;
                    if evals > limit {
                        return Err(SimError::NoFixpoint);
                    }
                    let mut rem = bits;
                    while rem != 0 {
                        let b = rem.trailing_zeros() as usize;
                        rem &= rem - 1;
                        self.eval_unit(p, (wi << 6) + b);
                    }
                }
            }
            if self.dirty.iter().all(|&w| w == 0) {
                break;
            }
        }
        Ok(())
    }

    /// Datapath function — the preresolved mirror of the interpreted
    /// `apply_op` (identical masking and signedness).
    #[inline]
    fn alu(&self, p: &Program, i: &Instr) -> u64 {
        let a = self.chan(cin(p, i, 0)).d_dst;
        if i.alu == ALU_SELECT {
            let b = self.chan(cin(p, i, 1)).d_dst;
            let y = self.chan(cin(p, i, 2)).d_dst;
            return (if a & 1 != 0 { b } else { y }) & i.mask;
        }
        let b = if i.nin >= 2 {
            self.chan(cin(p, i, 1)).d_dst
        } else {
            0
        };
        alu_ab(i, a, b)
    }

    /// Combinational function of one lowered unit; `set_out`/`set_ready`
    /// propagate raw-signal changes and queue commit work. Channel
    /// indices are hoisted out of `ports` once per body, and the
    /// "all-other-inputs valid" products are derived from an invalid
    /// count instead of a quadratic rescan.
    fn eval_unit(&mut self, p: &Program, u: usize) {
        debug_assert!(u < p.instrs.len());
        let i = unsafe { p.instrs.get_unchecked(u) };
        match i.op {
            Op::Entry => {
                let fired = self.sbit(i.sb as usize);
                let data = if i.imm == ARG_NONE {
                    0
                } else {
                    self.args[i.imm as usize] & i.mask
                };
                let co = cout(p, i, 0);
                self.set_out(co, !fired, data);
                // Commit acts iff `!fired && v_src && r_src`, and the
                // `set_out` above pinned `v_src` to `!fired`.
                let rs = self.chan(co).r_src;
                self.set_fire(u, !fired && rs);
            }
            Op::Exit => {
                let ci = cin(p, i, 0);
                self.set_ready(ci, true);
                let vd = self.chan(ci).v_dst;
                self.set_fire(u, vd);
            }
            Op::Sink => {
                self.set_ready(cin(p, i, 0), true);
            }
            Op::Source => {
                self.set_out(cout(p, i, 0), true, 0);
            }
            Op::Const => {
                let ci = cin(p, i, 0);
                let co = cout(p, i, 0);
                let v = self.chan(ci).v_dst;
                let r = self.chan(co).r_src;
                self.set_out(co, v, i.imm);
                self.set_ready(ci, r);
            }
            // Straight-line two-output case of the generic `Fork` arm
            // below; the commit arm stays shared.
            Op::Fork2 => {
                let ci = i.c_in0 as usize;
                let co0 = i.c_out0 as usize;
                let co1 = pt(p, i.outs as usize + 1);
                let vin = self.chan(ci).v_dst;
                let din = self.chan(ci).d_dst;
                let sb0 = i.sb as usize;
                let d0 = self.sbit(sb0);
                let d1 = self.sbit(sb0 + 1);
                let r0 = self.chan(co0).r_src;
                let r1 = self.chan(co1).r_src;
                self.set_ready(ci, (d0 || r0) && (d1 || r1));
                self.set_out(co0, vin && !d0, din);
                self.set_out(co1, vin && !d1, din);
                // Without an input token every done flag keeps its value.
                self.set_fire(u, vin);
            }
            Op::Fork => {
                let n = i.nout as usize;
                let cin = cin(p, i, 0);
                let vin = self.chan(cin).v_dst;
                let din = self.chan(cin).d_dst;
                let sb0 = i.sb as usize;
                let mut all = true;
                for k in 0..n {
                    all &= self.sbit(sb0 + k) || self.chan(cout(p, i, k)).r_src;
                }
                self.set_ready(cin, all);
                for k in 0..n {
                    let done = self.sbit(sb0 + k);
                    self.set_out(cout(p, i, k), vin && !done, din);
                }
                // Without an input token every done flag keeps its value.
                self.set_fire(u, vin);
            }
            Op::LazyFork => {
                let n = i.nout as usize;
                let cin = cin(p, i, 0);
                let vin = self.chan(cin).v_dst;
                let din = self.chan(cin).d_dst;
                let mut nmiss = 0usize;
                let mut miss = usize::MAX;
                for k in 0..n {
                    if !self.chan(cout(p, i, k)).r_src {
                        nmiss += 1;
                        miss = k;
                    }
                }
                self.set_ready(cin, nmiss == 0);
                for k in 0..n {
                    let others = nmiss == 0 || (nmiss == 1 && miss == k);
                    self.set_out(cout(p, i, k), vin && others, din);
                }
            }
            // Straight-line two-input case of the generic `Join` arm.
            Op::Join2 => {
                let c0 = i.c_in0 as usize;
                let c1 = i.c_in1 as usize;
                let co = i.c_out0 as usize;
                let v0 = self.chan(c0).v_dst;
                let v1 = self.chan(c1).v_dst;
                let rout = self.chan(co).r_src;
                self.set_out(co, v0 && v1, 0);
                self.set_ready(c0, rout && v1);
                self.set_ready(c1, rout && v0);
            }
            Op::Join => {
                let n = i.nin as usize;
                let mut ninv = 0usize;
                let mut inv = usize::MAX;
                for k in 0..n {
                    if !self.chan(cin(p, i, k)).v_dst {
                        ninv += 1;
                        inv = k;
                    }
                }
                let co = cout(p, i, 0);
                let rout = self.chan(co).r_src;
                self.set_out(co, ninv == 0, 0);
                for k in 0..n {
                    let others = ninv == 0 || (ninv == 1 && inv == k);
                    self.set_ready(cin(p, i, k), rout && others);
                }
            }
            Op::Branch => {
                let cd = cin(p, i, 0);
                let cc = cin(p, i, 1);
                let ct = cout(p, i, 0);
                let cf = cout(p, i, 1);
                let vd = self.chan(cd).v_dst;
                let dd = self.chan(cd).d_dst;
                let vc = self.chan(cc).v_dst;
                let cond = self.chan(cc).d_dst & 1 != 0;
                let rt = self.chan(ct).r_src;
                let rf = self.chan(cf).r_src;
                self.set_out(ct, vd && vc && cond, dd);
                self.set_out(cf, vd && vc && !cond, dd);
                let sel_ready = if cond { rt } else { rf };
                self.set_ready(cd, vc && sel_ready);
                self.set_ready(cc, vd && sel_ready);
            }
            // Straight-line two-input case of the generic `Merge` arm:
            // input 1 (the back edge) outranks input 0.
            Op::Merge2 => {
                let c0 = i.c_in0 as usize;
                let c1 = i.c_in1 as usize;
                let co = i.c_out0 as usize;
                let v0 = self.chan(c0).v_dst;
                let v1 = self.chan(c1).v_dst;
                let r0 = self.chan(co).r_src;
                let dout = if v1 {
                    self.chan(c1).d_dst
                } else if v0 {
                    self.chan(c0).d_dst
                } else {
                    0
                };
                self.set_out(co, v0 || v1, dout);
                self.set_ready(c0, !v1 && v0 && r0);
                self.set_ready(c1, v1 && r0);
            }
            Op::Merge => {
                let n = i.nin as usize;
                // Highest-index priority, exactly like the interpreted
                // `eval_merge` (the back edge must outrank the entry).
                let mut grant = usize::MAX;
                for k in (0..n).rev() {
                    if self.chan(cin(p, i, k)).v_dst {
                        grant = k;
                        break;
                    }
                }
                let any = grant != usize::MAX;
                let dout = if any {
                    self.chan(cin(p, i, grant)).d_dst
                } else {
                    0
                };
                let co = cout(p, i, 0);
                let r0 = self.chan(co).r_src;
                self.set_out(co, any, dout);
                for k in 0..n {
                    self.set_ready(cin(p, i, k), grant == k && r0);
                }
            }
            Op::CMerge => {
                // The `Merge` grant over every input, except that a
                // latched grant outranks it until both outputs (the done
                // flags are a fixed pair) have fired.
                let n = i.nin as usize;
                let sb0 = i.sb as usize;
                let done0 = self.sbit(sb0);
                let done1 = self.sbit(sb0 + 1);
                let raw = self.sword(i.sw as usize);
                let mut grant = usize::MAX;
                if raw != 0 {
                    grant = (raw - 1) as usize;
                } else {
                    for k in (0..n).rev() {
                        if self.chan(cin(p, i, k)).v_dst {
                            grant = k;
                            break;
                        }
                    }
                }
                let any = grant != usize::MAX;
                let (g, dout) = if any {
                    (grant, self.chan(cin(p, i, grant)).d_dst)
                } else {
                    (0, 0)
                };
                let c0 = i.c_out0 as usize;
                let c1 = cout(p, i, 1);
                let r0 = self.chan(c0).r_src;
                let r1 = self.chan(c1).r_src;
                self.set_out(c0, any && !done0, dout);
                self.set_out(c1, any && !done1, g as u64);
                let fire_ready = (done0 || r0) && (done1 || r1);
                for k in 0..n {
                    self.set_ready(cin(p, i, k), any && g == k && fire_ready);
                }
                // Idle (no grant, no done flag, no latch) commits are
                // no-ops; anything pending may move state.
                self.set_fire(u, any || done0 || done1);
            }
            // Straight-line two-way case of the generic `Mux` arm.
            Op::Mux2 => {
                let cs = i.c_in0 as usize;
                let ca = i.c_in1 as usize;
                let cb = pt(p, i.ins as usize + 2);
                let co = i.c_out0 as usize;
                let vs = self.chan(cs).v_dst;
                let sel = self.chan(cs).d_dst as usize;
                let rout = self.chan(co).r_src;
                let hit0 = vs && sel == 0;
                let hit1 = vs && sel == 1;
                let (vout, dout) = if hit0 && self.chan(ca).v_dst {
                    (true, self.chan(ca).d_dst)
                } else if hit1 && self.chan(cb).v_dst {
                    (true, self.chan(cb).d_dst)
                } else {
                    (false, 0)
                };
                self.set_ready(ca, hit0 && rout);
                self.set_ready(cb, hit1 && rout);
                self.set_out(co, vout, dout);
                self.set_ready(cs, vout && rout);
            }
            Op::Mux => {
                let n = i.nin as usize - 1;
                let cs = cin(p, i, 0);
                let vs = self.chan(cs).v_dst;
                let sel = self.chan(cs).d_dst as usize;
                let co = cout(p, i, 0);
                let rout = self.chan(co).r_src;
                let mut vout = false;
                let mut dout = 0;
                for k in 0..n {
                    let c = cin(p, i, k + 1);
                    let hit = vs && sel == k;
                    if hit && self.chan(c).v_dst {
                        vout = true;
                        dout = self.chan(c).d_dst;
                    }
                    self.set_ready(c, hit && rout);
                }
                self.set_out(co, vout, dout);
                self.set_ready(cs, vout && rout);
            }
            // Straight-line unary case of the generic `Comb` arm below:
            // the single input's ready collapses to `rout`.
            Op::Comb1 => {
                let c0 = i.c_in0 as usize;
                let co = i.c_out0 as usize;
                let v = self.chan(c0).v_dst;
                let a = self.chan(c0).d_dst;
                let rout = self.chan(co).r_src;
                self.set_out(co, v, alu_ab(i, a, 0));
                self.set_ready(c0, rout);
            }
            // Straight-line binary case: each input's ready is the
            // other's valid gated by `rout` (the `ninv`/`inv` form of
            // the generic arm, unrolled).
            Op::Comb2 => {
                let c0 = i.c_in0 as usize;
                let c1 = i.c_in1 as usize;
                let co = i.c_out0 as usize;
                let v0 = self.chan(c0).v_dst;
                let a = self.chan(c0).d_dst;
                let v1 = self.chan(c1).v_dst;
                let b = self.chan(c1).d_dst;
                let rout = self.chan(co).r_src;
                self.set_out(co, v0 && v1, alu_ab(i, a, b));
                self.set_ready(c0, rout && v1);
                self.set_ready(c1, rout && v0);
            }
            Op::Comb => {
                let n = i.nin as usize;
                let mut ninv = 0usize;
                let mut inv = usize::MAX;
                for k in 0..n {
                    if !self.chan(cin(p, i, k)).v_dst {
                        ninv += 1;
                        inv = k;
                    }
                }
                let co = cout(p, i, 0);
                let rout = self.chan(co).r_src;
                let result = self.alu(p, i);
                self.set_out(co, ninv == 0, result);
                for k in 0..n {
                    let others = ninv == 0 || (ninv == 1 && inv == k);
                    self.set_ready(cin(p, i, k), rout && others);
                }
            }
            Op::Pipe => {
                let n = i.nin as usize;
                let last = i.lat as usize - 1;
                let last_v = self.sbit(i.sb as usize + last);
                let last_d = self.sword(i.sw as usize + last);
                let co = cout(p, i, 0);
                let rout = self.chan(co).r_src;
                let en = rout || !last_v;
                self.set_out(co, last_v, last_d);
                let mut ninv = 0usize;
                let mut inv = usize::MAX;
                for k in 0..n {
                    if !self.chan(cin(p, i, k)).v_dst {
                        ninv += 1;
                        inv = k;
                    }
                }
                for k in 0..n {
                    let others = ninv == 0 || (ninv == 1 && inv == k);
                    self.set_ready(cin(p, i, k), en && others);
                }
                // The enable, as for the memory ports: a commit acts only
                // when enabled, and an enabled one with nothing to move
                // rewrites the values it holds.
                self.set_fire(u, en);
            }
            Op::Load => {
                let v = self.sbit(i.sb as usize);
                let data = self.sword(i.sw as usize);
                let co = cout(p, i, 0);
                let ci = cin(p, i, 0);
                let rout = self.chan(co).r_src;
                let en = rout || !v;
                self.set_out(co, v, data);
                self.set_ready(ci, en);
                // No firing input and no latched token: the commit can
                // neither act nor raise.
                let vin = self.chan(ci).v_dst;
                self.set_fire(u, en && (vin || v));
            }
            Op::Store => {
                let ca = cin(p, i, 0);
                let cd = cin(p, i, 1);
                let co = cout(p, i, 0);
                let v = self.sbit(i.sb as usize);
                let va = self.chan(ca).v_dst;
                let vd = self.chan(cd).v_dst;
                let rout = self.chan(co).r_src;
                let en = rout || !v;
                self.set_out(co, v, 0);
                self.set_ready(ca, en && vd);
                self.set_ready(cd, en && va);
                self.set_fire(u, en && ((va && vd) || v));
            }
        }
    }

    /// Clock-edge commit: the changed channels then the evaluated units
    /// (plus the always-commit set), both ascending — the same relative
    /// visit order as the full-sweep oracle over the entities that can
    /// act, so memory effects and error precedence match it exactly.
    /// Entities skipped here have unchanged inputs and state since their
    /// last visit, which makes their commit a no-op (the interpreter
    /// executes those no-ops; the counters they would touch accrue lazily
    /// through `cnt_pat`/`cnt_since`). State changes mark their
    /// channel/unit for the next settle *and* the next commit.
    fn commit(&mut self, p: &Program) -> Result<bool, SimError> {
        let mut progressed = false;
        for wi in 0..self.ch_commit.len() {
            // Zero the word before draining: a channel whose buffer state
            // changes re-marks only itself, queueing it for the *next*
            // edge without being revisited on this one. In-bounds: `wi`
            // is bounded by the vec's own length.
            let mut bits = unsafe { *self.ch_commit.get_unchecked(wi) };
            unsafe { *self.ch_commit.get_unchecked_mut(wi) = 0 };
            while bits != 0 {
                let c = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                progressed |= self.commit_channel(c);
            }
        }
        // Channels still in the transfer pattern moved a token this cycle
        // even if nothing changed state (the interpreter counts those
        // transfers one cycle at a time).
        progressed |= self.num_xfer > 0;
        for wi in 0..self.evaled.len() {
            // In-bounds: `evaled` and `always_mask` are both sized
            // `words(num_units())` by construction.
            debug_assert!(wi < p.always_mask.len());
            let mut bits = unsafe {
                (*self.evaled.get_unchecked(wi) | *p.always_mask.get_unchecked(wi))
                    & *self.fire.get_unchecked(wi)
            };
            unsafe { *self.evaled.get_unchecked_mut(wi) = 0 };
            while bits != 0 {
                let u = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                match self.commit_unit(p, u) {
                    Ok(pr) => progressed |= pr,
                    Err(e) => {
                        // The channel phase above already counted this
                        // cycle; `self.cycle` will not advance. Bias the
                        // lazy accessors so totals match the
                        // interpreter's counters at the abort point.
                        self.cnt_bias = 1;
                        return Err(e);
                    }
                }
            }
        }
        Ok(progressed)
    }

    /// Commits one channel: folds the lazy counters on a handshake
    /// pattern transition and clocks the buffer registers. Returns `true`
    /// if this channel made progress (a buffer load or state change —
    /// steady transfers are covered by `num_xfer`).
    #[inline]
    fn commit_channel(&mut self, c: usize) -> bool {
        let vs = self.chan(c).v_src;
        let pat = if !vs {
            PAT_IDLE
        } else if self.chan(c).r_src {
            PAT_XFER
        } else {
            PAT_STALL
        };
        if pat != self.chan(c).cnt_pat {
            let span = self.cycle - self.chan(c).cnt_since;
            match self.chan(c).cnt_pat {
                PAT_STALL => self.stalls[c] += span,
                PAT_XFER => {
                    self.transfers[c] += span;
                    self.num_xfer -= 1;
                }
                _ => {}
            }
            if pat == PAT_XFER {
                self.num_xfer += 1;
            }
            self.chan_mut(c).cnt_pat = pat;
            self.chan_mut(c).cnt_since = self.cycle;
        }
        let mut progressed = false;
        {
            let sp = self.chan(c).spec;
            if sp != SPEC_NONE {
                // Compute every next-state from the *current* state before
                // mutating anything: the TEHB and OEHB registers clock
                // simultaneously in hardware.
                let tf = self.chan(c).tehb_full;
                let ts = self.chan(c).tehb_saved;
                let of = self.chan(c).oehb_vld;
                let od = self.chan(c).oehb_data;
                let (v1, d1) = if sp & SPEC_TRANSPARENT != 0 {
                    (vs || tf, if tf { ts } else { self.chan(c).d_src })
                } else {
                    (vs, self.chan(c).d_src)
                };
                let ready1 = if sp & SPEC_OPAQUE != 0 {
                    !of || self.chan(c).r_dst
                } else {
                    self.chan(c).r_dst
                };
                let mut ntf = tf;
                let mut nts = ts;
                let mut nof = of;
                let mut nod = od;
                if sp & SPEC_TRANSPARENT != 0 {
                    ntf = v1 && !ready1;
                    if !tf {
                        nts = self.chan(c).d_src;
                    }
                }
                if sp & SPEC_OPAQUE != 0 {
                    let en = ready1 && v1;
                    if en {
                        nod = d1;
                        progressed = true;
                    }
                    nof = en || (of && !self.chan(c).r_dst);
                }
                if ntf != tf || nof != of {
                    progressed = true;
                }
                if ntf != tf || nts != ts || nof != of || nod != od {
                    self.chan_mut(c).tehb_full = ntf;
                    self.chan_mut(c).tehb_saved = nts;
                    self.chan_mut(c).oehb_vld = nof;
                    self.chan_mut(c).oehb_data = nod;
                    self.mark_seed(c);
                    self.mark_commit(c);
                }
            }
        }
        progressed
    }

    /// Commits one unit's sequential state. Returns `true` on progress.
    ///
    /// # Errors
    ///
    /// [`SimError::AddrOutOfBounds`] from a firing memory port.
    fn commit_unit(&mut self, p: &Program, u: usize) -> Result<bool, SimError> {
        let mut progressed = false;
        {
            let i = &p.instrs[u];
            match i.op {
                Op::Entry => {
                    let c = cout(p, i, 0);
                    if !self.sbit(i.sb as usize) && self.chan(c).v_src && self.chan(c).r_src {
                        self.sbit_set(i.sb as usize, true);
                        progressed = true;
                        self.mark_unit(u);
                    }
                }
                Op::Exit => {
                    let c = cin(p, i, 0);
                    if self.chan(c).v_dst && !self.exited {
                        self.exited = true;
                        self.exit_value = if i.width > 0 {
                            Some(self.chan(c).d_dst)
                        } else {
                            None
                        };
                        progressed = true;
                    }
                }
                Op::Fork | Op::Fork2 => {
                    let n = i.nout as usize;
                    let sb0 = i.sb as usize;
                    let vin = self.chan(cin(p, i, 0)).v_dst;
                    let mut all = true;
                    for k in 0..n {
                        all &= self.sbit(sb0 + k) || self.chan(cout(p, i, k)).r_src;
                    }
                    let fire_all = vin && all;
                    let mut changed = false;
                    for k in 0..n {
                        let done = self.sbit(sb0 + k);
                        let transfer = vin && !done && self.chan(cout(p, i, k)).r_src;
                        let next = (done || transfer) && !fire_all;
                        if next != done {
                            changed = true;
                            self.sbit_set(sb0 + k, next);
                        }
                    }
                    if changed {
                        progressed = true;
                        self.mark_unit(u);
                    }
                }
                Op::CMerge => {
                    let n = i.nin as usize;
                    let sb0 = i.sb as usize;
                    let dones = [self.sbit(sb0), self.sbit(sb0 + 1)];
                    let raw = self.sword(i.sw as usize);
                    let latched = if raw == 0 {
                        None
                    } else {
                        Some((raw - 1) as usize)
                    };
                    let comb_grant = (0..n).rev().find(|&k| self.chan(cin(p, i, k)).v_dst);
                    let grant = latched.or(comb_grant);
                    let any = grant
                        .map(|g| self.chan(cin(p, i, g)).v_dst || latched.is_some())
                        .unwrap_or(false);
                    let mut all = true;
                    for (k, &done) in dones.iter().enumerate() {
                        all &= done || self.chan(cout(p, i, k)).r_src;
                    }
                    let fire_all = any && all;
                    let mut new_dones = [false; 2];
                    for (k, &done) in dones.iter().enumerate() {
                        let transfer = any && !done && self.chan(cout(p, i, k)).r_src;
                        new_dones[k] = (done || transfer) && !fire_all;
                    }
                    let new_grant = if fire_all {
                        None
                    } else if any {
                        grant
                    } else {
                        None
                    };
                    let new_raw = new_grant.map(|g| g as u64 + 1).unwrap_or(0);
                    if new_dones != dones || new_raw != raw {
                        self.sbit_set(sb0, new_dones[0]);
                        self.sbit_set(sb0 + 1, new_dones[1]);
                        self.sword_set(i.sw as usize, new_raw);
                        progressed = true;
                        self.mark_unit(u);
                    }
                }
                Op::Pipe => {
                    let n = i.nin as usize;
                    let lat = i.lat as usize;
                    let sb0 = i.sb as usize;
                    let sw0 = i.sw as usize;
                    let mut all = true;
                    for k in 0..n {
                        all &= self.chan(cin(p, i, k)).v_dst;
                    }
                    let rout = self.chan(cout(p, i, 0)).r_src;
                    let result = self.alu(p, i);
                    let last_v = self.sbit(sb0 + lat - 1);
                    let en = rout || !last_v;
                    if en {
                        let mut changed = false;
                        for k in (1..lat).rev() {
                            if self.sbit(sb0 + k) != self.sbit(sb0 + k - 1)
                                || self.sword(sw0 + k) != self.sword(sw0 + k - 1)
                            {
                                changed = true;
                            }
                            self.sbit_set(sb0 + k, self.sb[sb0 + k - 1]);
                            self.sword_set(sw0 + k, self.sw[sw0 + k - 1]);
                        }
                        if self.sbit(sb0) != all || self.sword(sw0) != result {
                            changed = true;
                        }
                        self.sbit_set(sb0, all);
                        self.sword_set(sw0, result);
                        let mut anyv = all;
                        for k in 0..lat {
                            anyv |= self.sbit(sb0 + k);
                        }
                        if anyv {
                            progressed = true;
                        }
                        if changed {
                            self.mark_unit(u);
                        }
                    }
                }
                Op::Load => {
                    let cin = cin(p, i, 0);
                    let vin = self.chan(cin).v_dst;
                    let addr = self.chan(cin).d_dst;
                    let rout = self.chan(cout(p, i, 0)).r_src;
                    let v = self.sbit(i.sb as usize);
                    let en = rout || !v;
                    if en {
                        let value = if vin {
                            if addr >= i.mem_size as u64 {
                                return Err(SimError::AddrOutOfBounds {
                                    unit: UnitId::from_raw(u as u32),
                                    addr,
                                    size: i.mem_size as usize,
                                });
                            }
                            self.mems[i.mem_base as usize + addr as usize]
                        } else {
                            0
                        };
                        if v != vin || self.sword(i.sw as usize) != value {
                            self.sbit_set(i.sb as usize, vin);
                            self.sword_set(i.sw as usize, value);
                            progressed = true;
                            self.mark_unit(u);
                        }
                    }
                }
                Op::Store => {
                    let ca = cin(p, i, 0);
                    let cd = cin(p, i, 1);
                    let va = self.chan(ca).v_dst;
                    let vd = self.chan(cd).v_dst;
                    let addr = self.chan(ca).d_dst;
                    let data = self.chan(cd).d_dst;
                    let rout = self.chan(cout(p, i, 0)).r_src;
                    let v = self.sbit(i.sb as usize);
                    let en = rout || !v;
                    let take = va && vd && en;
                    if take {
                        if addr >= i.mem_size as u64 {
                            return Err(SimError::AddrOutOfBounds {
                                unit: UnitId::from_raw(u as u32),
                                addr,
                                size: i.mem_size as usize,
                            });
                        }
                        self.mems[i.mem_base as usize + addr as usize] = data;
                    }
                    if en {
                        if v != take {
                            self.sbit_set(i.sb as usize, take);
                            progressed = true;
                            self.mark_unit(u);
                        } else if take {
                            progressed = true;
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(progressed)
    }
}
