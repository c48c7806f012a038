//! Multi-lane execution: up to [`MAX_LANES`] buffer overlays of one
//! [`Program`] stepped in lock step by one decode loop.
//!
//! Slack matching simulates a round of trials that differ from each other
//! in one or two overlay buffers. Run one at a time, each trial pays the
//! VM's dispatch and branching for every unit it evaluates; run as lanes,
//! the trials stay nearly synchronized, so one dispatch serves them all.
//!
//! **Layout.** Bit `l` of a `u64` mask is lane `l`:
//! - every channel's valid/ready signals, its buffer kind (one TEHB mask,
//!   one OEHB mask), its buffer registers' flags and its lazy-counter
//!   pattern are masks ([`LaneChan`]);
//! - every unit flag of the state-bool pool (fork done flags, pipeline
//!   valids, memory-port valids, fired entries) is a mask;
//! - data words (channel payloads, TEHB/OEHB registers, the state-word
//!   pool), memories, lazy-counter spans and transfer/stall totals are
//!   kept per lane.
//!
//! A channel that carries no buffer in any lane keeps one payload array,
//! read by its consumer too; only channels with a buffer in some lane
//! carry separate consumer-side words and registers.
//!
//! **Scheduling.** Dirty sets, the commit list and the cycle counter are
//! shared: a unit is evaluated, and a channel or unit committed, for every
//! lane when any live lane needs it. That reaches each lane's own result
//! because an evaluation or commit whose inputs and state did not change
//! is a no-op: a lane evaluated without need rewrites the values it
//! already holds, so it marks nothing and settles at its unique fixpoint,
//! and a lane committed without need keeps its state (a fire bit of zero
//! proves its unit commit idle, and a steady pipeline's progress is
//! already counted by its transferring input). Every lane's memory effects
//! still happen in ascending unit order, as in [`CompiledSim`].
//!
//! **Exits.** Each lane completes, times out at the shared cap or
//! deadlocks on its own, and its result, cycle and counters are taken at
//! that cycle; afterwards it is dead: its words may still be rewritten,
//! but no change in it schedules anything. A lane the common path does not
//! mirror — a settle that exceeds [`Program::fixpoint_limit`] (every live
//! lane then), or a memory fault — is re-run alone on
//! [`CompiledSim::with_buffers`], so its outcome, cycle and counters are
//! exactly the single-lane ones. `tests/sim_equivalence.rs` pins every
//! lane against that engine.

use super::program::{
    Instr, Op, Program, ALU_ADD, ALU_AND, ALU_EQ, ALU_GE, ALU_GT, ALU_LE, ALU_LT, ALU_MUL, ALU_NE,
    ALU_NOT, ALU_OR, ALU_SELECT, ALU_SHL, ALU_SHR, ALU_SUB, ALU_XOR, ARG_NONE, SPEC_OPAQUE,
    SPEC_TRANSPARENT,
};
use super::vm::{cin, cout, CompiledSim};
use crate::types::{to_signed, RunStats, SimError};
use dataflow::ChannelId;
use std::sync::Arc;

/// Most lanes one [`CompiledLanes`] carries: one bit of a `u64` each.
pub const MAX_LANES: usize = 64;

/// One lane's finished run: everything [`CompiledSim::run`] and the
/// accessors of the stopped [`CompiledSim`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneRun {
    /// The run's result, as [`CompiledSim::run`] returns it.
    pub result: Result<RunStats, SimError>,
    /// Elapsed cycles when the lane stopped ([`CompiledSim::cycle`]).
    pub cycle: u64,
    /// Stall count of every channel, by channel index
    /// ([`CompiledSim::stalls`]).
    pub stalls: Vec<u64>,
    /// Transfer count of every channel, by channel index
    /// ([`CompiledSim::transfers`]).
    pub transfers: Vec<u64>,
}

/// One channel's masks (bit `l` = lane `l`) and the offsets of its
/// per-lane words in [`CompiledLanes::dat`].
#[derive(Debug, Clone, Copy, Default)]
struct LaneChan {
    v_src: u64,
    r_src: u64,
    v_dst: u64,
    r_dst: u64,
    /// Lanes whose buffer has a transparent (TEHB) slot.
    t: u64,
    /// Lanes whose buffer has an opaque (OEHB) slot.
    o: u64,
    /// TEHB full.
    tf: u64,
    /// OEHB valid.
    ov: u64,
    /// Lanes in the transfer pattern.
    xfer: u64,
    /// Lanes in the stall pattern.
    stall: u64,
    /// Lanes whose registers changed at the last clock edge.
    seed: u64,
    /// Producer-side payloads; for a channel with a buffer in some lane,
    /// consumer-side payloads, TEHB words and OEHB words follow, `n`
    /// words each.
    ds: u32,
    /// Consumer-side payloads (`== ds` when no lane buffers the channel).
    dd: u32,
    src_unit: u32,
    dst_unit: u32,
}

/// Per-lane words of `n` lanes, copied out of the shared pool.
type Words = [u64; MAX_LANES];

/// Up to [`MAX_LANES`] runs of one compiled [`Program`], each with its own
/// buffer overlay, stepped in lock step by one decode loop.
///
/// Valid/ready signals and flags are `u64` lane masks, payloads, unit
/// state, memories and counters are per lane, and units are evaluated and
/// committed once for every lane that needs it. Each lane's [`LaneRun`]
/// equals what [`CompiledSim::with_buffers`] and [`CompiledSim::run`]
/// report for that overlay: a lane whose settle exceeds the evaluation
/// budget or whose memory port faults is re-run alone on that engine.
#[derive(Debug)]
pub struct CompiledLanes {
    prog: Arc<Program>,
    overlays: Vec<Vec<ChannelId>>,
    args: Vec<u64>,
    n: usize,
    /// The low `n` bits.
    all: u64,
    /// Lanes still running on the common path.
    live: u64,
    /// Lanes to re-run alone after the common path.
    rerun: u64,
    ch: Vec<LaneChan>,
    /// Per-lane channel words (see [`LaneChan::ds`]).
    dat: Vec<u64>,
    /// Per channel and lane (index `c * n + l`), the lazy stall and
    /// transfer counters: the cycles at which each pattern span ended,
    /// minus those at which it began (wrapping), so a transition costs
    /// one add and an open span adds the current cycle.
    stalls: Vec<u64>,
    transfers: Vec<u64>,
    /// State-bool pool, one mask per slot.
    sb: Vec<u64>,
    /// State-word pool, `n` words per slot.
    sw: Vec<u64>,
    /// Each lane's copy of the flat memory pool, `mem_len` words apiece.
    mems: Vec<u64>,
    mem_len: usize,
    exited: u64,
    exit_value: Vec<Option<u64>>,
    /// Shared schedule, one bit per unit or channel: full wakes, ready-only
    /// wakes (see [`CompiledLanes::settle`]), register seeds, the commit
    /// list and the units evaluated this cycle.
    dirty: Vec<u64>,
    dirty_r: Vec<u64>,
    seed: Vec<u64>,
    ch_commit: Vec<u64>,
    evaled: Vec<u64>,
    /// Per unit, the lanes whose commit would act.
    fire: Vec<u64>,
    /// Per unit, the lanes whose data inputs or state moved since its last
    /// full evaluation: only their payloads are recomputed.
    dl: Vec<u64>,
    /// Scratch masks for per-port reads.
    tmp: Vec<u64>,
    cycle: u64,
    runs: Vec<Option<LaneRun>>,
}

#[inline]
fn bits_of(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if m == 0 {
            None
        } else {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            Some(l)
        }
    })
}

/// Mask of the lanes `l < n` where `f(l)` holds.
#[inline(always)]
fn lane_mask(n: usize, mut f: impl FnMut(usize) -> bool) -> u64 {
    let mut m = 0u64;
    for l in 0..n {
        m |= (f(l) as u64) << l;
    }
    m
}

/// Lanes where all inputs but `k` are valid, from `m1` (at least one
/// input invalid) and `m2` (at least two): none invalid, or only `k`.
#[inline(always)]
fn others(all: u64, m1: u64, m2: u64, inv_k: u64) -> u64 {
    (all & !m1) | (inv_k & !m2)
}

/// Sets bit `k` of a unit or channel bitmask. Safety: callers pass unit
/// and channel indices of the program the set was sized for.
#[inline(always)]
fn mark(set: &mut [u64], k: usize) {
    debug_assert!(k >> 6 < set.len());
    unsafe { *set.get_unchecked_mut(k >> 6) |= 1u64 << (k & 63) };
}

impl CompiledLanes {
    // Unchecked accessors for the hot loop. Safety: every channel index
    // comes from tables `Program::compile` validated (`ports` entries,
    // endpoint units) or from bitmask scans over words sized for exactly
    // `num_channels()` bits, and every payload offset was laid out in
    // `with_buffers` with its `n` words inside `dat`. Every debug/test
    // build re-checks the invariant via `debug_assert!`.

    #[inline(always)]
    fn chan(&self, c: usize) -> &LaneChan {
        debug_assert!(c < self.ch.len());
        unsafe { self.ch.get_unchecked(c) }
    }

    #[inline(always)]
    fn chan_mut(&mut self, c: usize) -> &mut LaneChan {
        debug_assert!(c < self.ch.len());
        unsafe { self.ch.get_unchecked_mut(c) }
    }

    /// Fresh state over `prog`: lane `l` runs the graph's own buffers plus
    /// FULL buffers on `lanes[l]`, as [`CompiledSim::with_buffers`] does.
    ///
    /// # Panics
    ///
    /// If `lanes` holds more than [`MAX_LANES`] overlays.
    pub fn with_buffers(prog: Arc<Program>, lanes: &[Vec<ChannelId>]) -> Self {
        let n = lanes.len();
        assert!(n <= MAX_LANES, "{n} lanes exceed the {MAX_LANES}-lane mask");
        let all = if n == 0 { 0 } else { u64::MAX >> (64 - n) };
        let nc = prog.num_channels();
        let nu = prog.num_units();
        let mut ch = vec![LaneChan::default(); nc];
        for (c, slot) in ch.iter_mut().enumerate() {
            let spec = prog.base_spec[c];
            slot.t = if spec & SPEC_TRANSPARENT != 0 { all } else { 0 };
            slot.o = if spec & SPEC_OPAQUE != 0 { all } else { 0 };
            slot.src_unit = prog.src_unit[c];
            slot.dst_unit = prog.dst_unit[c];
        }
        for (l, extra) in lanes.iter().enumerate() {
            for &c in extra {
                ch[c.index()].t |= 1 << l;
                ch[c.index()].o |= 1 << l;
            }
        }
        let mut words = 0usize;
        for slot in ch.iter_mut() {
            slot.ds = words as u32;
            if slot.t | slot.o == 0 {
                slot.dd = slot.ds;
                words += n;
            } else {
                slot.dd = (words + n) as u32;
                words += 4 * n;
            }
        }
        let mem_len = prog.mem_init.len();
        let mut mems = Vec::with_capacity(n * mem_len);
        for _ in 0..n {
            mems.extend_from_slice(&prog.mem_init);
        }
        CompiledLanes {
            overlays: lanes.to_vec(),
            args: vec![0; 256],
            n,
            all,
            live: all,
            rerun: 0,
            ch,
            dat: vec![0; words],
            stalls: vec![0; nc * n],
            transfers: vec![0; nc * n],
            sb: vec![0; prog.num_sb],
            sw: vec![0; prog.num_sw * n],
            mems,
            mem_len,
            exited: 0,
            exit_value: vec![None; n],
            dirty: vec![0; nu.div_ceil(64)],
            dirty_r: vec![0; nu.div_ceil(64)],
            seed: vec![0; nc.div_ceil(64)],
            ch_commit: vec![0; nc.div_ceil(64)],
            evaled: vec![0; nu.div_ceil(64)],
            fire: vec![0; nu],
            dl: vec![0; nu],
            tmp: Vec::new(),
            cycle: 0,
            runs: vec![None; n],
            prog,
        }
    }

    /// Sets kernel argument `index` of every lane (before running).
    pub fn set_arg(&mut self, index: u8, value: u64) {
        self.args[index as usize] = value;
    }

    /// Runs every lane until it exits, fails, or reaches `max_cycles`
    /// (the budget [`CompiledSim::run`] takes), and returns the lanes'
    /// runs in lane order.
    pub fn run(mut self, max_cycles: u64) -> Vec<LaneRun> {
        let prog = Arc::clone(&self.prog);
        while self.live != 0 {
            if self.cycle >= max_cycles {
                for l in bits_of(self.live) {
                    self.finish(l, Err(SimError::Timeout { max_cycles }));
                }
                break;
            }
            self.step(&prog);
        }
        for l in bits_of(self.rerun) {
            let mut vm = CompiledSim::with_buffers(Arc::clone(&prog), &self.overlays[l]);
            for (k, &a) in self.args.iter().enumerate() {
                vm.set_arg(k as u8, a);
            }
            let result = vm.run(max_cycles);
            let ids = (0..prog.num_channels()).map(|c| ChannelId::from_raw(c as u32));
            self.runs[l] = Some(LaneRun {
                result,
                cycle: vm.cycle(),
                stalls: ids.clone().map(|c| vm.stalls(c)).collect(),
                transfers: ids.map(|c| vm.transfers(c)).collect(),
            });
        }
        self.runs
            .into_iter()
            .map(|r| r.expect("every lane finishes or is re-run"))
            .collect()
    }

    /// Records lane `l`'s run as of the current cycle and retires it.
    fn finish(&mut self, l: usize, result: Result<RunStats, SimError>) {
        let n = self.n;
        let bit = 1u64 << l;
        let open = |on: u64| if on & bit != 0 { self.cycle } else { 0 };
        let mut stalls = Vec::with_capacity(self.ch.len());
        let mut transfers = Vec::with_capacity(self.ch.len());
        for (c, ch) in self.ch.iter().enumerate() {
            let k = c * n + l;
            stalls.push(self.stalls[k].wrapping_add(open(ch.stall)));
            transfers.push(self.transfers[k].wrapping_add(open(ch.xfer)));
        }
        self.runs[l] = Some(LaneRun {
            result,
            cycle: self.cycle,
            stalls,
            transfers,
        });
        self.live &= !bit;
    }

    /// Sends lane `l` to the single-lane re-run, if it is still live.
    fn defer(&mut self, l: usize) {
        let bit = 1u64 << l;
        if self.live & bit != 0 {
            self.live &= !bit;
            self.rerun |= bit;
        }
    }

    fn step(&mut self, p: &Program) {
        if !self.settle(p) {
            // The shared settle cannot tell which lane fails to settle.
            self.rerun |= self.live;
            self.live = 0;
            return;
        }
        let progress = self.commit(p);
        self.cycle += 1;
        let cycles = self.cycle;
        for l in bits_of(self.exited & self.live) {
            let exit_value = self.exit_value[l];
            self.finish(l, Ok(RunStats { cycles, exit_value }));
        }
        let mut stuck = self.live & !progress;
        if stuck != 0 {
            // A lane with a channel in the transfer pattern moved a token
            // even if no register changed.
            stuck &= !self.ch.iter().fold(0, |m, ch| m | ch.xfer);
        }
        for l in bits_of(stuck) {
            self.finish(l, Err(SimError::Deadlock { cycle: cycles }));
        }
    }

    #[inline(always)]
    fn words(&self, off: u32) -> &[u64] {
        let off = off as usize;
        debug_assert!(off + self.n <= self.dat.len());
        unsafe { self.dat.get_unchecked(off..off + self.n) }
    }

    /// Wakes unit `u` for a full evaluation of `lanes`; a wake by dead
    /// lanes alone schedules nothing.
    #[inline(always)]
    fn wake(&mut self, u: usize, lanes: u64) {
        debug_assert!(u < self.dl.len());
        unsafe { *self.dl.get_unchecked_mut(u) |= lanes };
        if lanes & self.live != 0 {
            mark(&mut self.dirty, u);
        }
    }

    /// Producer-side write: the mirror of the single-lane `set_out`, every
    /// lane's valid at once and the payloads `data(l)` of the lanes in
    /// `lanes` (every other lane's payload is unchanged). Wire lanes pass
    /// the write through, TEHB-only lanes derive their consumer side, OEHB
    /// lanes only join the commit list.
    #[inline]
    fn set_out_by(&mut self, c: usize, valid: u64, lanes: u64, data: impl Fn(usize) -> u64) {
        let live = self.live;
        let ch = *self.chan(c);
        let ds = ch.ds as usize;
        debug_assert!(ds + self.n <= self.dat.len());
        let mut dchg = 0u64;
        for l in bits_of(lanes) {
            let d = data(l);
            // In bounds: `l < n` and the channel owns `n` words at `ds`.
            let cur = unsafe { self.dat.get_unchecked_mut(ds + l) };
            dchg |= ((*cur != d) as u64) << l;
            *cur = d;
        }
        let vchg = ch.v_src ^ valid;
        let chg = (vchg | dchg) & live;
        if chg == 0 {
            return;
        }
        let buf = ch.t | ch.o;
        // A wire's commit reads only the valid/ready pattern.
        if vchg & live != 0 || chg & buf != 0 {
            mark(&mut self.ch_commit, c);
        }
        self.chan_mut(c).v_src = valid;
        if buf == 0 {
            self.chan_mut(c).v_dst = valid;
            self.wake(ch.dst_unit as usize, chg);
            return;
        }
        let wire = !buf;
        let tn = ch.t & !ch.o;
        let vd = (ch.v_dst & ch.o) | (wire & valid) | (tn & (valid | ch.tf));
        let dd = ch.dd as usize;
        let ts = dd + self.n;
        let mut ddchg = 0u64;
        for l in bits_of((wire | tn) & dchg) {
            let new = if ch.tf & (1 << l) != 0 {
                self.dat[ts + l]
            } else {
                data(l)
            };
            ddchg |= ((new != self.dat[dd + l]) as u64) << l;
            self.dat[dd + l] = new;
        }
        self.chan_mut(c).v_dst = vd;
        self.wake(ch.dst_unit as usize, ((vd ^ ch.v_dst) | ddchg) & live);
    }

    fn set_out(&mut self, c: usize, valid: u64, lanes: u64, data: &Words) {
        self.set_out_by(c, valid, lanes, |l| data[l & (MAX_LANES - 1)]);
    }

    fn set_out_splat(&mut self, c: usize, valid: u64, lanes: u64, value: u64) {
        self.set_out_by(c, valid, lanes, |_| value);
    }

    /// Channel `c`'s consumer-side payloads, copied: a unit reads its
    /// inputs before it writes an output that may feed one back.
    fn copied(&self, c: usize) -> Words {
        let mut w: Words = [0; MAX_LANES];
        w[..self.n].copy_from_slice(self.words(self.chan(c).dd));
        w
    }

    /// Consumer-side ready write: the mirror of the single-lane
    /// `set_ready`. Wire lanes pass it back, OEHB-only lanes pass
    /// `!full || ready`, lanes with a TEHB keep `!tehb_full`.
    fn set_ready(&mut self, c: usize, ready: u64) {
        let live = self.live;
        let ch = self.chan_mut(c);
        if (ch.r_dst ^ ready) & live == 0 {
            return;
        }
        ch.r_dst = ready;
        let wire = !(ch.t | ch.o);
        let on = ch.o & !ch.t;
        let rs = (ch.r_src & ch.t) | (wire & ready) | (on & (!ch.ov | ready));
        let rchg = (rs ^ ch.r_src) & live;
        ch.r_src = rs;
        let src = ch.src_unit as usize;
        mark(&mut self.ch_commit, c);
        if rchg != 0 {
            mark(&mut self.dirty_r, src);
        }
    }

    /// Derives channel `c`'s consumer side and `ready_src` from its
    /// producer side and registers: the mirror of `eval_channel_and_mark`.
    fn derive(&mut self, c: usize) {
        let n = self.n;
        let live = self.live;
        let ch = *self.chan(c);
        let buf = ch.t | ch.o;
        let wire = !buf;
        let tn = ch.t & !ch.o;
        let on = ch.o & !ch.t;
        let vd = (wire & ch.v_src) | (tn & (ch.v_src | ch.tf)) | (ch.o & ch.ov);
        let rs = (wire & ch.r_dst) | (ch.t & !ch.tf) | (on & (!ch.ov | ch.r_dst));
        let mut ddchg = 0u64;
        if buf != 0 {
            let (ds, dd) = (ch.ds as usize, ch.dd as usize);
            let (ts, od) = (dd + n, dd + 2 * n);
            // Only a lane whose registers moved can derive a new payload:
            // producer-side moves already reached the consumer side.
            self.chan_mut(c).seed = 0;
            for l in bits_of(ch.seed & self.all) {
                let bit = 1u64 << l;
                let new = if ch.o & bit != 0 {
                    self.dat[od + l]
                } else if ch.tf & bit != 0 {
                    self.dat[ts + l]
                } else {
                    self.dat[ds + l]
                };
                ddchg |= ((new != self.dat[dd + l]) as u64) << l;
                self.dat[dd + l] = new;
            }
        }
        let dst_chg = ((vd ^ ch.v_dst) | ddchg) & live;
        let rs_chg = (rs ^ ch.r_src) & live;
        if dst_chg | rs_chg == 0 {
            return;
        }
        self.chan_mut(c).v_dst = vd;
        self.chan_mut(c).r_src = rs;
        if dst_chg != 0 {
            self.wake(ch.dst_unit as usize, dst_chg);
        }
        if rs_chg != 0 {
            mark(&mut self.dirty_r, ch.src_unit as usize);
        }
        mark(&mut self.ch_commit, c);
    }

    /// The shared combinational fixpoint over the union of the lanes'
    /// wakes, in two phases repeated until both wake sets are clean: full
    /// evaluations ascending (valid and data move downstream), then
    /// ready-only bodies descending (ready moves upstream). A lane
    /// evaluation writes every output for up to 64 lanes, so skipping that
    /// half on a ready wake pays here; [`CompiledSim`] runs one body in one
    /// ascending pass. `false` when the union exceeds the program's
    /// evaluation budget.
    fn settle(&mut self, p: &Program) -> bool {
        let nu = p.num_units();
        let nc = p.num_channels();
        if self.cycle == 0 {
            for u in 0..nu {
                self.wake(u, self.all);
            }
            for c in 0..nc {
                mark(&mut self.ch_commit, c);
                self.chan_mut(c).seed = self.all;
                self.derive(c);
            }
        } else {
            for wi in 0..self.seed.len() {
                let bits = std::mem::take(&mut self.seed[wi]);
                for b in bits_of(bits) {
                    self.derive((wi << 6) + b);
                }
            }
        }
        let limit = p.fixpoint_limit;
        let mut evals = 0usize;
        let nw = self.dirty.len();
        loop {
            for wi in 0..nw {
                loop {
                    let bits = std::mem::take(&mut self.dirty[wi]);
                    if bits == 0 {
                        break;
                    }
                    self.dirty_r[wi] &= !bits;
                    self.evaled[wi] |= bits;
                    evals += bits.count_ones() as usize;
                    if evals > limit {
                        return false;
                    }
                    for b in bits_of(bits) {
                        self.eval_unit(p, (wi << 6) + b, true);
                    }
                }
            }
            for wi in (0..nw).rev() {
                loop {
                    let bits = self.dirty_r[wi] & !self.dirty[wi];
                    if bits == 0 {
                        break;
                    }
                    self.dirty_r[wi] &= !bits;
                    self.evaled[wi] |= bits;
                    evals += bits.count_ones() as usize;
                    if evals > limit {
                        return false;
                    }
                    let mut rem = bits;
                    while rem != 0 {
                        let b = 63 - rem.leading_zeros() as usize;
                        rem &= !(1u64 << b);
                        self.eval_unit(p, (wi << 6) + b, false);
                    }
                }
            }
            if self.dirty.iter().chain(&self.dirty_r).all(|&w| w == 0) {
                return true;
            }
        }
    }

    /// Reads the `v_dst` masks of `i`'s inputs into `self.tmp` and returns
    /// the lanes where all are valid, at least one is invalid, and at
    /// least two are.
    fn input_valids(&mut self, p: &Program, i: &Instr) -> (u64, u64, u64) {
        let all = self.all;
        let (mut m1, mut m2) = (0u64, 0u64);
        self.tmp.clear();
        for k in 0..i.nin as usize {
            let v = self.chan(cin(p, i, k)).v_dst;
            self.tmp.push(v);
            let inv = !v & all;
            m2 |= m1 & inv;
            m1 |= inv;
        }
        (all & !m1, m1, m2)
    }

    /// Per-lane datapath of every lane: the mirror of the single-lane
    /// `alu`, one loop per function so each vectorizes.
    fn alu(&self, p: &Program, i: &Instr, out: &mut Words) {
        let n = self.n;
        let a = self.words(self.chan(cin(p, i, 0)).dd);
        let zeros: Words = [0; MAX_LANES];
        let b = if i.nin >= 2 {
            self.words(self.chan(cin(p, i, 1)).dd)
        } else {
            &zeros[..n]
        };
        let out = &mut out[..n];
        let (m, w, k) = (i.mask, i.width, i.imm);
        let s = |v: u64| to_signed(v, w);
        macro_rules! each {
            (|$a:ident, $b:ident| $e:expr) => {
                for ((o, &$a), &$b) in out.iter_mut().zip(a).zip(b) {
                    *o = $e;
                }
            };
        }
        match i.alu {
            ALU_ADD => each!(|a, b| a.wrapping_add(b) & m),
            ALU_SUB => each!(|a, b| a.wrapping_sub(b) & m),
            ALU_MUL => each!(|a, b| a.wrapping_mul(b) & m),
            ALU_SHL => each!(|a, _b| (a << k) & m),
            ALU_SHR => each!(|a, _b| (a & m) >> k),
            ALU_AND => each!(|a, b| a & b & m),
            ALU_OR => each!(|a, b| (a | b) & m),
            ALU_XOR => each!(|a, b| (a ^ b) & m),
            ALU_NOT => each!(|a, _b| !a & m),
            ALU_EQ => each!(|a, b| (a == b) as u64),
            ALU_NE => each!(|a, b| (a != b) as u64),
            ALU_LT => each!(|a, b| (s(a) < s(b)) as u64),
            ALU_LE => each!(|a, b| (s(a) <= s(b)) as u64),
            ALU_GT => each!(|a, b| (s(a) > s(b)) as u64),
            ALU_GE => each!(|a, b| (s(a) >= s(b)) as u64),
            ALU_SELECT => {
                let y = self.words(self.chan(cin(p, i, 2)).dd);
                for (((o, &a), &b), &y) in out.iter_mut().zip(a).zip(b).zip(y) {
                    *o = (if a & 1 != 0 { b } else { y }) & m;
                }
            }
            _ => out.fill(0),
        }
    }

    /// One unit's combinational function for every lane. `full == false`
    /// is the ready-only body: the unit woke because only an output's
    /// ready moved, so its outputs (all but a lazy fork's) cannot change
    /// and only its input readies and fire bits are recomputed. Valid,
    /// ready and fire masks are recomputed for every lane, payloads only
    /// for the unit's dirty lanes: every other lane would rewrite the
    /// payloads it holds. Each arm mirrors the single-lane arm's reads and
    /// writes in the same order.
    fn eval_unit(&mut self, p: &Program, u: usize, full: bool) {
        let i = &p.instrs[u];
        let n = self.n;
        let all = self.all;
        let dl = if full {
            std::mem::take(&mut self.dl[u]) & all
        } else {
            0
        };
        match i.op {
            Op::Entry => {
                let fired = self.sb[i.sb as usize];
                let co = cout(p, i, 0);
                if full {
                    let data = if i.imm == ARG_NONE {
                        0
                    } else {
                        self.args[i.imm as usize] & i.mask
                    };
                    self.set_out_splat(co, !fired & all, dl, data);
                }
                self.fire[u] = !fired & self.chan(co).r_src & all;
            }
            Op::Exit => {
                let ci = cin(p, i, 0);
                self.set_ready(ci, all);
                self.fire[u] = self.chan(ci).v_dst;
            }
            Op::Sink => self.set_ready(cin(p, i, 0), all),
            Op::Source => {
                if full {
                    self.set_out_splat(cout(p, i, 0), all, dl, 0);
                }
            }
            Op::Const => {
                let ci = cin(p, i, 0);
                let co = cout(p, i, 0);
                let v = self.chan(ci).v_dst;
                let r = self.chan(co).r_src;
                if full {
                    self.set_out_splat(co, v, dl, i.imm);
                }
                self.set_ready(ci, r);
            }
            Op::Fork | Op::Fork2 => {
                let ci = cin(p, i, 0);
                let vin = self.chan(ci).v_dst;
                let sb0 = i.sb as usize;
                let mut ready = all;
                for k in 0..i.nout as usize {
                    ready &= self.sb[sb0 + k] | self.chan(cout(p, i, k)).r_src;
                }
                self.set_ready(ci, ready);
                if full {
                    let din = self.copied(ci);
                    for k in 0..i.nout as usize {
                        self.set_out(cout(p, i, k), vin & !self.sb[sb0 + k], dl, &din);
                    }
                    self.fire[u] = vin;
                }
            }
            Op::LazyFork => {
                let ci = cin(p, i, 0);
                let vin = self.chan(ci).v_dst;
                let din = self.copied(ci);
                let (mut m1, mut m2) = (0u64, 0u64);
                let mut miss = std::mem::take(&mut self.tmp);
                miss.clear();
                for k in 0..i.nout as usize {
                    let inv = !self.chan(cout(p, i, k)).r_src & all;
                    miss.push(inv);
                    m2 |= m1 & inv;
                    m1 |= inv;
                }
                self.set_ready(ci, all & !m1);
                for (k, &inv) in miss.iter().enumerate() {
                    let v = vin & others(all, m1, m2, inv);
                    self.set_out(cout(p, i, k), v, dl, &din);
                }
                self.tmp = miss;
            }
            Op::Join | Op::Join2 => {
                let (allv, m1, m2) = self.input_valids(p, i);
                let co = cout(p, i, 0);
                let rout = self.chan(co).r_src;
                if full {
                    self.set_out_splat(co, allv, dl, 0);
                }
                for k in 0..i.nin as usize {
                    let inv = !self.tmp[k] & all;
                    self.set_ready(cin(p, i, k), rout & others(all, m1, m2, inv));
                }
            }
            Op::Branch => {
                let cd = cin(p, i, 0);
                let cc = cin(p, i, 1);
                let ct = cout(p, i, 0);
                let cf = cout(p, i, 1);
                let vd = self.chan(cd).v_dst;
                let vc = self.chan(cc).v_dst;
                let conds = self.words(self.chan(cc).dd);
                let cond = lane_mask(n, |l| conds[l] & 1 != 0);
                let rt = self.chan(ct).r_src;
                let rf = self.chan(cf).r_src;
                if full {
                    let din = self.copied(cd);
                    self.set_out(ct, vd & vc & cond, dl, &din);
                    self.set_out(cf, vd & vc & !cond & all, dl, &din);
                }
                let sel_ready = (cond & rt) | (!cond & rf);
                self.set_ready(cd, vc & sel_ready);
                self.set_ready(cc, vd & sel_ready);
            }
            Op::Merge | Op::Merge2 => {
                // Highest-index priority: the back edge outranks the entry.
                self.input_valids(p, i);
                let mut grant = std::mem::take(&mut self.tmp);
                let mut taken = 0u64;
                for g in grant.iter_mut().rev() {
                    let v = *g;
                    *g = v & !taken;
                    taken |= v;
                }
                let co = cout(p, i, 0);
                let r0 = self.chan(co).r_src;
                if full {
                    let mut w: Words = [0; MAX_LANES];
                    for (k, &g) in grant.iter().enumerate() {
                        let d = self.chan(cin(p, i, k)).dd as usize;
                        for l in bits_of(g & dl) {
                            w[l] = self.dat[d + l];
                        }
                    }
                    self.set_out(co, taken, dl, &w);
                }
                for (k, &g) in grant.iter().enumerate() {
                    self.set_ready(cin(p, i, k), g & r0);
                }
                self.tmp = grant;
            }
            Op::CMerge => {
                // The `Merge` grant, except in the lanes with a latched
                // grant, which outranks it.
                let sb0 = i.sb as usize;
                let done0 = self.sb[sb0];
                let done1 = self.sb[sb0 + 1];
                self.input_valids(p, i);
                let mut grant = std::mem::take(&mut self.tmp);
                let raw = &self.sw[i.sw as usize * n..i.sw as usize * n + n];
                let latched = lane_mask(n, |l| raw[l] != 0);
                let mut taken = latched;
                for g in grant.iter_mut().rev() {
                    let v = *g;
                    *g = v & !taken;
                    taken |= v;
                }
                for l in bits_of(latched) {
                    grant[(raw[l] - 1) as usize] |= 1 << l;
                }
                let any = taken;
                let c0 = i.c_out0 as usize;
                let c1 = cout(p, i, 1);
                let r0 = self.chan(c0).r_src;
                let r1 = self.chan(c1).r_src;
                if full {
                    // Each lane's granted input (0 where none is) and its
                    // payload.
                    let mut g: Words = [0; MAX_LANES];
                    let mut w: Words = [0; MAX_LANES];
                    for (k, &gk) in grant.iter().enumerate() {
                        let d = self.chan(cin(p, i, k)).dd as usize;
                        for l in bits_of(gk & dl) {
                            g[l] = k as u64;
                            w[l] = self.dat[d + l];
                        }
                    }
                    self.set_out(c0, any & !done0, dl, &w);
                    self.set_out(c1, any & !done1, dl, &g);
                }
                let fire_ready = (done0 | r0) & (done1 | r1);
                for (k, &gk) in grant.iter().enumerate() {
                    self.set_ready(cin(p, i, k), gk & fire_ready);
                }
                self.fire[u] = (any | done0 | done1) & all;
                self.tmp = grant;
            }
            Op::Mux | Op::Mux2 => {
                let nd = i.nin as usize - 1;
                let cs = cin(p, i, 0);
                let vs = self.chan(cs).v_dst;
                let co = cout(p, i, 0);
                let rout = self.chan(co).r_src;
                let mut hit = std::mem::take(&mut self.tmp);
                hit.clear();
                hit.resize(nd, 0);
                let sel = self.words(self.chan(cs).dd);
                for l in bits_of(vs & all) {
                    if sel[l] < nd as u64 {
                        hit[sel[l] as usize] |= 1 << l;
                    }
                }
                let mut vout = 0u64;
                let mut w: Words = [0; MAX_LANES];
                for (k, &h) in hit.iter().enumerate() {
                    let c = cin(p, i, k + 1);
                    let hv = h & self.chan(c).v_dst;
                    vout |= hv;
                    let d = self.chan(c).dd as usize;
                    for l in bits_of(hv & dl) {
                        w[l] = self.dat[d + l];
                    }
                    self.set_ready(c, h & rout);
                }
                if full {
                    self.set_out(co, vout, dl, &w);
                }
                self.set_ready(cs, vout & rout);
                self.tmp = hit;
            }
            Op::Comb | Op::Comb1 | Op::Comb2 => {
                let (allv, m1, m2) = self.input_valids(p, i);
                let co = cout(p, i, 0);
                let rout = self.chan(co).r_src;
                if full {
                    let mut w: Words = [0; MAX_LANES];
                    self.alu(p, i, &mut w);
                    self.set_out(co, allv, dl, &w);
                }
                for k in 0..i.nin as usize {
                    let inv = !self.tmp[k] & all;
                    self.set_ready(cin(p, i, k), rout & others(all, m1, m2, inv));
                }
            }
            Op::Pipe => {
                let last = i.lat as usize - 1;
                let last_v = self.sb[i.sb as usize + last];
                let co = cout(p, i, 0);
                let rout = self.chan(co).r_src;
                let en = (rout | !last_v) & all;
                if full {
                    let at = (i.sw as usize + last) * n;
                    let mut w: Words = [0; MAX_LANES];
                    w[..n].copy_from_slice(&self.sw[at..at + n]);
                    self.set_out(co, last_v, dl, &w);
                }
                let (_, m1, m2) = self.input_valids(p, i);
                for k in 0..i.nin as usize {
                    let inv = !self.tmp[k] & all;
                    self.set_ready(cin(p, i, k), en & others(all, m1, m2, inv));
                }
                // The enable, as in the single-lane engine: a commit acts
                // only when enabled.
                self.fire[u] = en;
            }
            Op::Load => {
                let v = self.sb[i.sb as usize];
                let co = cout(p, i, 0);
                let ci = cin(p, i, 0);
                let rout = self.chan(co).r_src;
                let en = (rout | !v) & all;
                if full {
                    let at = i.sw as usize * n;
                    let mut w: Words = [0; MAX_LANES];
                    w[..n].copy_from_slice(&self.sw[at..at + n]);
                    self.set_out(co, v, dl, &w);
                }
                self.set_ready(ci, en);
                self.fire[u] = en & (self.chan(ci).v_dst | v);
            }
            Op::Store => {
                let ca = cin(p, i, 0);
                let cd = cin(p, i, 1);
                let co = cout(p, i, 0);
                let v = self.sb[i.sb as usize];
                let va = self.chan(ca).v_dst;
                let vd = self.chan(cd).v_dst;
                let rout = self.chan(co).r_src;
                let en = (rout | !v) & all;
                if full {
                    self.set_out_splat(co, v, dl, 0);
                }
                self.set_ready(ca, en & vd);
                self.set_ready(cd, en & va);
                self.fire[u] = en & ((va & vd) | v);
            }
        }
    }

    /// The shared clock edge: changed channels, then evaluated and
    /// always-commit units, ascending, as in [`CompiledSim`]. Returns the
    /// lanes that made progress.
    fn commit(&mut self, p: &Program) -> u64 {
        let mut progress = 0u64;
        for wi in 0..self.ch_commit.len() {
            let bits = std::mem::take(&mut self.ch_commit[wi]);
            for b in bits_of(bits) {
                progress |= self.commit_channel((wi << 6) + b);
            }
        }
        for wi in 0..self.evaled.len() {
            let bits = std::mem::take(&mut self.evaled[wi]) | p.always_mask[wi];
            for b in bits_of(bits) {
                let u = (wi << 6) + b;
                if self.fire[u] & self.live != 0 {
                    progress |= self.commit_unit(p, u);
                }
            }
        }
        progress
    }

    /// One channel's clock edge for every lane: lazy-counter folds on
    /// pattern transitions, then the buffer registers. Returns the lanes
    /// whose registers loaded or changed.
    fn commit_channel(&mut self, c: usize) -> u64 {
        let n = self.n;
        let all = self.all;
        let ch = *self.chan(c);
        let xfer = ch.v_src & ch.r_src & all;
        let stall = ch.v_src & !ch.r_src & all;
        let base = c * n;
        let cyc = self.cycle;
        // Span starts subtract the cycle, span ends add it.
        let span = |count: &mut [u64], from: u64, to: u64| {
            for l in bits_of(to & !from) {
                count[base + l] = count[base + l].wrapping_sub(cyc);
            }
            for l in bits_of(from & !to) {
                count[base + l] = count[base + l].wrapping_add(cyc);
            }
        };
        span(&mut self.stalls, ch.stall, stall);
        span(&mut self.transfers, ch.xfer, xfer);
        self.chan_mut(c).xfer = xfer;
        self.chan_mut(c).stall = stall;
        let (t, o) = (ch.t, ch.o);
        if t | o == 0 {
            return 0;
        }
        // Every next state from the current one: the TEHB and OEHB clock
        // together.
        let (vs, rd, tf, ov) = (ch.v_src, ch.r_dst, ch.tf, ch.ov);
        let v1 = vs | (t & tf);
        let ready1 = rd | (o & !ov);
        let ntf = t & v1 & !ready1;
        let en = o & ready1 & v1;
        let nof = o & (en | (ov & !rd));
        let (ds, dd) = (ch.ds as usize, ch.dd as usize);
        let (ts, od) = (dd + n, dd + 2 * n);
        let mut dchg = 0u64;
        // An OEHB loads the TEHB's word when that is full, else the input.
        for l in bits_of(en) {
            let d1 = if tf & (1 << l) != 0 {
                self.dat[ts + l]
            } else {
                self.dat[ds + l]
            };
            dchg |= ((d1 != self.dat[od + l]) as u64) << l;
            self.dat[od + l] = d1;
        }
        // A TEHB captures its input as it fills. The single-lane engine
        // tracks the input while the TEHB is empty; the word is only read
        // while it is full.
        for l in bits_of(ntf & !tf) {
            self.dat[ts + l] = self.dat[ds + l];
        }
        let flags = (ntf ^ tf) | (nof ^ ov);
        self.chan_mut(c).tf = ntf;
        self.chan_mut(c).ov = nof;
        self.chan_mut(c).seed |= flags | dchg;
        if (flags | dchg) & self.live != 0 {
            mark(&mut self.seed, c);
            mark(&mut self.ch_commit, c);
        }
        en | flags
    }

    /// One unit's clock edge for every lane: the mirror of the single-lane
    /// `commit_unit`. Returns the lanes that made progress; a lane whose
    /// memory port faults goes to the single-lane re-run.
    fn commit_unit(&mut self, p: &Program, u: usize) -> u64 {
        let i = &p.instrs[u];
        let n = self.n;
        let all = self.all;
        let (progress, changed) = match i.op {
            Op::Entry => {
                let c = cout(p, i, 0);
                let sb = i.sb as usize;
                let act = !self.sb[sb] & self.chan(c).v_src & self.chan(c).r_src & all;
                self.sb[sb] |= act;
                (act, act)
            }
            Op::Exit => {
                let c = cin(p, i, 0);
                let act = self.chan(c).v_dst & !self.exited & all;
                self.exited |= act;
                let d = self.chan(c).dd as usize;
                for l in bits_of(act) {
                    self.exit_value[l] = (i.width > 0).then(|| self.dat[d + l]);
                }
                (act, 0)
            }
            Op::Fork | Op::Fork2 => {
                let sb0 = i.sb as usize;
                let vin = self.chan(cin(p, i, 0)).v_dst;
                let mut ready = all;
                for k in 0..i.nout as usize {
                    ready &= self.sb[sb0 + k] | self.chan(cout(p, i, k)).r_src;
                }
                let fire_all = vin & ready;
                let mut changed = 0u64;
                for k in 0..i.nout as usize {
                    let done = self.sb[sb0 + k];
                    let transfer = vin & !done & self.chan(cout(p, i, k)).r_src;
                    let next = (done | transfer) & !fire_all;
                    changed |= next ^ done;
                    self.sb[sb0 + k] = next;
                }
                (changed, changed)
            }
            Op::CMerge => self.commit_cmerge(p, i),
            Op::Pipe => {
                let lat = i.lat as usize;
                let sb0 = i.sb as usize;
                let sw0 = i.sw as usize * n;
                let (allv, _, _) = self.input_valids(p, i);
                let rout = self.chan(cout(p, i, 0)).r_src;
                let en = (rout | !self.sb[sb0 + lat - 1]) & all;
                if en == 0 {
                    return 0;
                }
                let mut result: Words = [0; MAX_LANES];
                self.alu(p, i, &mut result);
                let mut changed = 0u64;
                for k in (1..lat).rev() {
                    let (hi, lo) = (self.sb[sb0 + k], self.sb[sb0 + k - 1]);
                    changed |= (hi ^ lo) & en;
                    self.sb[sb0 + k] = (hi & !en) | (lo & en);
                    let (whi, wlo) = (sw0 + k * n, sw0 + (k - 1) * n);
                    for l in bits_of(en) {
                        let lo = self.sw[wlo + l];
                        changed |= ((self.sw[whi + l] != lo) as u64) << l;
                        self.sw[whi + l] = lo;
                    }
                }
                let head = self.sb[sb0];
                changed |= (head ^ allv) & en;
                self.sb[sb0] = (head & !en) | (allv & en);
                for l in bits_of(en) {
                    changed |= ((self.sw[sw0 + l] != result[l]) as u64) << l;
                    self.sw[sw0 + l] = result[l];
                }
                let mut anyv = allv;
                for k in 0..lat {
                    anyv |= self.sb[sb0 + k];
                }
                (en & anyv, changed)
            }
            Op::Load => {
                let ci = cin(p, i, 0);
                let vin = self.chan(ci).v_dst;
                let rout = self.chan(cout(p, i, 0)).r_src;
                let sb = i.sb as usize;
                let v = self.sb[sb];
                let en = (rout | !v) & all;
                let (a, sw) = (self.chan(ci).dd as usize, i.sw as usize * n);
                let mut changed = 0u64;
                for l in bits_of(en) {
                    let bit = 1u64 << l;
                    let value = if vin & bit != 0 {
                        let addr = self.dat[a + l];
                        if addr >= i.mem_size as u64 {
                            self.defer(l);
                            continue;
                        }
                        self.mems[l * self.mem_len + i.mem_base as usize + addr as usize]
                    } else {
                        0
                    };
                    if (v ^ vin) & bit != 0 || self.sw[sw + l] != value {
                        self.sb[sb] = (self.sb[sb] & !bit) | (vin & bit);
                        self.sw[sw + l] = value;
                        changed |= bit;
                    }
                }
                (changed, changed)
            }
            Op::Store => {
                let ca = cin(p, i, 0);
                let cd = cin(p, i, 1);
                let va = self.chan(ca).v_dst;
                let vd = self.chan(cd).v_dst;
                let rout = self.chan(cout(p, i, 0)).r_src;
                let sb = i.sb as usize;
                let v = self.sb[sb];
                let en = (rout | !v) & all;
                let take = va & vd & en;
                let (a, d) = (self.chan(ca).dd as usize, self.chan(cd).dd as usize);
                for l in bits_of(take) {
                    let addr = self.dat[a + l];
                    if addr >= i.mem_size as u64 {
                        self.defer(l);
                        continue;
                    }
                    self.mems[l * self.mem_len + i.mem_base as usize + addr as usize] =
                        self.dat[d + l];
                }
                self.sb[sb] = (v & !en) | take;
                (en & (v | take), en & (v ^ take))
            }
            _ => (0, 0),
        };
        self.wake(u, changed);
        progress
    }

    /// The control merge's clock edge, lane by lane: the single-lane
    /// arm's latched-grant bookkeeping, which reads every input.
    fn commit_cmerge(&mut self, p: &Program, i: &Instr) -> (u64, u64) {
        let n = self.n;
        let sb0 = i.sb as usize;
        let sw = i.sw as usize * n;
        let r = [
            self.chan(cout(p, i, 0)).r_src,
            self.chan(cout(p, i, 1)).r_src,
        ];
        self.input_valids(p, i);
        let mut changed = 0u64;
        for l in 0..n {
            let bit = 1u64 << l;
            let on = |m: u64| m & bit != 0;
            let dones = [on(self.sb[sb0]), on(self.sb[sb0 + 1])];
            let raw = self.sw[sw + l];
            let latched = (raw != 0).then(|| (raw - 1) as usize);
            let comb_grant = (0..self.tmp.len()).rev().find(|&k| on(self.tmp[k]));
            let grant = latched.or(comb_grant);
            let any = grant
                .map(|g| on(self.chan(cin(p, i, g)).v_dst) || latched.is_some())
                .unwrap_or(false);
            let ready = (dones[0] || on(r[0])) && (dones[1] || on(r[1]));
            let fire_all = any && ready;
            let mut new_dones = [false; 2];
            for k in 0..2 {
                let transfer = any && !dones[k] && on(r[k]);
                new_dones[k] = (dones[k] || transfer) && !fire_all;
            }
            let new_raw = match grant {
                Some(g) if any && !fire_all => g as u64 + 1,
                _ => 0,
            };
            if new_dones != dones || new_raw != raw {
                for (k, &d) in new_dones.iter().enumerate() {
                    self.sb[sb0 + k] = (self.sb[sb0 + k] & !bit) | ((d as u64) << l);
                }
                self.sw[sw + l] = new_raw;
                changed |= bit;
            }
        }
        (changed, changed)
    }
}
