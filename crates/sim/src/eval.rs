//! Combinational evaluation of the full-sweep interpreter: the per-unit
//! handshake functions and the per-channel buffer-stage derivation.
//!
//! Everything here is a pure function of the signal vector and the
//! committed sequential state; the scheduler in [`crate::engine`] decides
//! *which* units and channels get (re-)evaluated, and the compiled engine
//! schedules its own mirror of these functions, so bit-identity between
//! the engines reduces to both reaching the same unique fixpoint.

use crate::engine::Simulator;
use crate::state::UnitState;
use crate::types::{mask, to_signed};
use dataflow::{ChannelId, OpKind, UnitId, UnitKind};

impl Simulator<'_> {
    /// Re-derives a channel's dst-side (and ready_src) signals from the
    /// src-side signals and buffer state. Returns `true` if anything
    /// changed.
    pub(crate) fn eval_channel(&mut self, cid: ChannelId) -> bool {
        let spec = self.idx.spec[cid.index()];
        let s = self.sig[cid.index()];
        let st = self.chan[cid.index()];
        let mut n = s;

        // TEHB stage (upstream): presents v1/d1 to the OEHB or consumer;
        // the ready *into* the TEHB is derived during commit.
        let (v1, d1);
        if spec.transparent {
            n.ready_src = !st.tehb_full;
            v1 = s.valid_src || st.tehb_full;
            d1 = if st.tehb_full {
                st.tehb_saved
            } else {
                s.data_src
            };
        } else {
            v1 = s.valid_src;
            d1 = s.data_src;
        }

        if spec.opaque {
            n.valid_dst = st.oehb_vld;
            n.data_dst = st.oehb_data;
            // ready presented upstream of the OEHB:
            let ready1 = !st.oehb_vld || s.ready_dst;
            if !spec.transparent {
                n.ready_src = ready1;
            }
        } else {
            n.valid_dst = v1;
            n.data_dst = d1;
            if !spec.transparent {
                n.ready_src = s.ready_dst;
            }
        }
        let changed = n != s;
        self.sig[cid.index()] = n;
        changed
    }

    /// Ready signal seen *inside* the channel by the TEHB (i.e. the ready
    /// of the stage downstream of the TEHB).
    pub(crate) fn tehb_downstream_ready(&self, cid: ChannelId) -> bool {
        let spec = self.idx.spec[cid.index()];
        let s = self.sig[cid.index()];
        let st = self.chan[cid.index()];
        if spec.opaque {
            !st.oehb_vld || s.ready_dst
        } else {
            s.ready_dst
        }
    }

    /// TEHB-stage outputs (v1, d1) of a channel.
    pub(crate) fn tehb_out(&self, cid: ChannelId) -> (bool, u64) {
        let spec = self.idx.spec[cid.index()];
        let s = self.sig[cid.index()];
        let st = self.chan[cid.index()];
        if spec.transparent {
            (
                s.valid_src || st.tehb_full,
                if st.tehb_full {
                    st.tehb_saved
                } else {
                    s.data_src
                },
            )
        } else {
            (s.valid_src, s.data_src)
        }
    }

    pub(crate) fn in_ch(&self, uid: UnitId, p: usize) -> ChannelId {
        self.idx.input(uid, p)
    }

    pub(crate) fn out_ch(&self, uid: UnitId, p: usize) -> ChannelId {
        self.idx.output(uid, p)
    }

    pub(crate) fn ivalid(&self, uid: UnitId, p: usize) -> bool {
        self.sig[self.in_ch(uid, p).index()].valid_dst
    }

    pub(crate) fn idata(&self, uid: UnitId, p: usize) -> u64 {
        self.sig[self.in_ch(uid, p).index()].data_dst
    }

    pub(crate) fn oready(&self, uid: UnitId, p: usize) -> bool {
        self.sig[self.out_ch(uid, p).index()].ready_src
    }

    fn set_out(&mut self, uid: UnitId, p: usize, valid: bool, data: u64) -> bool {
        let cid = self.out_ch(uid, p);
        let s = &mut self.sig[cid.index()];
        let changed = s.valid_src != valid || s.data_src != data;
        s.valid_src = valid;
        s.data_src = data;
        if changed {
            self.touched.push(cid);
        }
        changed
    }

    fn set_ready(&mut self, uid: UnitId, p: usize, ready: bool) -> bool {
        let cid = self.in_ch(uid, p);
        let s = &mut self.sig[cid.index()];
        let changed = s.ready_dst != ready;
        s.ready_dst = ready;
        if changed {
            self.touched.push(cid);
        }
        changed
    }

    /// Combinational function of one unit. Returns `true` on signal change.
    pub(crate) fn eval_unit(&mut self, uid: UnitId) -> bool {
        let kind = self.idx.kind[uid.index()];
        let w = self.idx.width[uid.index()];
        let mut changed = false;
        match kind {
            UnitKind::Entry | UnitKind::Argument { .. } => {
                let fired = matches!(self.unit[uid.index()], UnitState::Fired(true));
                let data = match kind {
                    UnitKind::Argument { index } => self.args[index as usize] & mask(w),
                    _ => 0,
                };
                changed |= self.set_out(uid, 0, !fired, data);
            }
            UnitKind::Exit | UnitKind::Sink => {
                changed |= self.set_ready(uid, 0, true);
            }
            UnitKind::Source => {
                changed |= self.set_out(uid, 0, true, 0);
            }
            UnitKind::Constant { value } => {
                let v = self.ivalid(uid, 0);
                let r = self.oready(uid, 0);
                changed |= self.set_out(uid, 0, v, value & mask(w));
                changed |= self.set_ready(uid, 0, r);
            }
            UnitKind::Fork { outputs } => {
                let n = outputs as usize;
                let vin = self.ivalid(uid, 0);
                let din = self.idata(uid, 0);
                // Construction validated the state shape (SimError::BadUnit),
                // so the non-ForkDone arm is dead; skipping the eval beats
                // panicking mid-cycle if it ever resurfaces.
                let state = std::mem::replace(&mut self.unit[uid.index()], UnitState::None);
                if let UnitState::ForkDone(dones) = &state {
                    let mut all = true;
                    for (i, &done) in dones.iter().enumerate() {
                        all &= done || self.oready(uid, i);
                    }
                    changed |= self.set_ready(uid, 0, all);
                    for (i, &done) in dones.iter().enumerate().take(n) {
                        changed |= self.set_out(uid, i, vin && !done, din);
                    }
                }
                self.unit[uid.index()] = state;
            }
            UnitKind::LazyFork { outputs } => {
                let n = outputs as usize;
                let vin = self.ivalid(uid, 0);
                let din = self.idata(uid, 0);
                let mut readys = std::mem::take(&mut self.scratch);
                readys.clear();
                readys.extend((0..n).map(|i| self.oready(uid, i)));
                changed |= self.set_ready(uid, 0, readys.iter().all(|&r| r));
                for i in 0..n {
                    let others = readys
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .all(|(_, &r)| r);
                    changed |= self.set_out(uid, i, vin && others, din);
                }
                self.scratch = readys;
            }
            UnitKind::Join { inputs } => {
                let n = inputs as usize;
                let mut valids = std::mem::take(&mut self.scratch);
                valids.clear();
                valids.extend((0..n).map(|i| self.ivalid(uid, i)));
                let all = valids.iter().all(|&v| v);
                let rout = self.oready(uid, 0);
                changed |= self.set_out(uid, 0, all, 0);
                for i in 0..n {
                    let others = valids
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .all(|(_, &v)| v);
                    changed |= self.set_ready(uid, i, rout && others);
                }
                self.scratch = valids;
            }
            UnitKind::Branch => {
                let vd = self.ivalid(uid, 0);
                let dd = self.idata(uid, 0);
                let vc = self.ivalid(uid, 1);
                let cond = self.idata(uid, 1) & 1 != 0;
                let rt = self.oready(uid, 0);
                let rf = self.oready(uid, 1);
                changed |= self.set_out(uid, 0, vd && vc && cond, dd);
                changed |= self.set_out(uid, 1, vd && vc && !cond, dd);
                let sel_ready = if cond { rt } else { rf };
                changed |= self.set_ready(uid, 0, vc && sel_ready);
                changed |= self.set_ready(uid, 1, vd && sel_ready);
            }
            UnitKind::Merge { inputs } => {
                changed |= self.eval_merge(uid, inputs as usize, false);
            }
            UnitKind::ControlMerge { inputs } => {
                changed |= self.eval_merge(uid, inputs as usize, true);
            }
            UnitKind::Mux { inputs } => {
                let n = inputs as usize;
                let vs = self.ivalid(uid, 0);
                let sel = self.idata(uid, 0) as usize;
                let rout = self.oready(uid, 0);
                let mut vout = false;
                let mut dout = 0;
                for i in 0..n {
                    let hit = vs && sel == i;
                    let vi = self.ivalid(uid, i + 1);
                    if hit && vi {
                        vout = true;
                        dout = self.idata(uid, i + 1);
                    }
                    changed |= self.set_ready(uid, i + 1, hit && rout);
                }
                changed |= self.set_out(uid, 0, vout, dout);
                changed |= self.set_ready(uid, 0, vout && rout);
            }
            UnitKind::Operator(op) => {
                changed |= self.eval_operator(uid, op, w);
            }
            UnitKind::Load { .. } => {
                // Construction guarantees a MemPort state (SimError::BadUnit);
                // an empty port is the harmless fallback.
                let (v, data) = match self.unit[uid.index()] {
                    UnitState::MemPort { v, data } => (v, data),
                    _ => (false, 0),
                };
                let rout = self.oready(uid, 0);
                let en = rout || !v;
                changed |= self.set_out(uid, 0, v, data);
                changed |= self.set_ready(uid, 0, en);
            }
            UnitKind::Store { .. } => {
                let (v, _) = match self.unit[uid.index()] {
                    UnitState::MemPort { v, data } => (v, data),
                    _ => (false, 0),
                };
                let va = self.ivalid(uid, 0);
                let vd = self.ivalid(uid, 1);
                let rout = self.oready(uid, 0);
                let en = rout || !v;
                changed |= self.set_out(uid, 0, v, 0);
                changed |= self.set_ready(uid, 0, en && vd);
                changed |= self.set_ready(uid, 1, en && va);
            }
        }
        changed
    }

    fn eval_merge(&mut self, uid: UnitId, n: usize, with_index: bool) -> bool {
        let mut changed = false;
        let mut valids = std::mem::take(&mut self.scratch);
        valids.clear();
        valids.extend((0..n).map(|i| self.ivalid(uid, i)));
        // Highest-index priority: at a loop header the back edge (input 1)
        // must outrank a freshly arriving entry token (input 0), or a
        // legally buffered circuit can process iterations out of order and
        // deadlock. For exclusive-input merges the priority never fires.
        let comb_grant = valids.iter().rposition(|&v| v);
        if with_index {
            // The grant latches for the lifetime of the in-flight token so
            // a later arrival on another input cannot corrupt the pair of
            // outputs (they may fire in different cycles).
            let (dones, latched) = match &self.unit[uid.index()] {
                UnitState::CmergeState { dones, grant } => (*dones, *grant),
                // Dead by construction validation (SimError::BadUnit).
                _ => ([false; 2], None),
            };
            let grant = latched.map(|g| g as usize).or(comb_grant);
            let any = grant
                .map(|g| valids[g] || latched.is_some())
                .unwrap_or(false);
            let dout = grant.map(|i| self.idata(uid, i)).unwrap_or(0);
            let r0 = self.oready(uid, 0);
            let r1 = self.oready(uid, 1);
            changed |= self.set_out(uid, 0, any && !dones[0], dout);
            changed |= self.set_out(uid, 1, any && !dones[1], grant.unwrap_or(0) as u64);
            let fire_ready = (dones[0] || r0) && (dones[1] || r1);
            for (i, _) in valids.iter().enumerate() {
                let granted = any && grant == Some(i);
                changed |= self.set_ready(uid, i, granted && fire_ready);
            }
        } else {
            let grant = comb_grant;
            let any = grant.is_some();
            let dout = grant.map(|i| self.idata(uid, i)).unwrap_or(0);
            let r0 = self.oready(uid, 0);
            changed |= self.set_out(uid, 0, any, dout);
            for (i, _) in valids.iter().enumerate() {
                let granted = grant == Some(i);
                changed |= self.set_ready(uid, i, granted && r0);
            }
        }
        self.scratch = valids;
        changed
    }

    fn eval_operator(&mut self, uid: UnitId, op: OpKind, w: u16) -> bool {
        let mut changed = false;
        let arity = op.arity();
        let mut valids = std::mem::take(&mut self.scratch);
        valids.clear();
        valids.extend((0..arity).map(|i| self.ivalid(uid, i)));
        let all = valids.iter().all(|&v| v);
        let rout = self.oready(uid, 0);
        if op.latency() == 0 {
            let result = self.apply_op(uid, op, w);
            changed |= self.set_out(uid, 0, all, result);
            for i in 0..arity {
                let others = valids
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .all(|(_, &v)| v);
                changed |= self.set_ready(uid, i, rout && others);
            }
        } else {
            // A latency>0 operator always carries a nonempty Pipe state —
            // enforced at construction (SimError::BadUnit) rather than by
            // panicking here in the middle of a settle.
            let (last_v, last_d) = match &self.unit[uid.index()] {
                UnitState::Pipe(stages) => stages.last().copied().unwrap_or((false, 0)),
                _ => (false, 0),
            };
            let en = rout || !last_v;
            changed |= self.set_out(uid, 0, last_v, last_d);
            for i in 0..arity {
                let others = valids
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .all(|(_, &v)| v);
                changed |= self.set_ready(uid, i, en && others);
            }
        }
        self.scratch = valids;
        changed
    }

    pub(crate) fn apply_op(&self, uid: UnitId, op: OpKind, w: u16) -> u64 {
        let m = mask(w);
        let a = self.idata(uid, 0);
        let b = if op.arity() >= 2 {
            self.idata(uid, 1)
        } else {
            0
        };
        let sa = to_signed(a, w);
        let sb = to_signed(b, w);
        match op {
            OpKind::Add => a.wrapping_add(b) & m,
            OpKind::Sub => a.wrapping_sub(b) & m,
            OpKind::Mul => a.wrapping_mul(b) & m,
            OpKind::ShlConst(k) => (a << k) & m,
            OpKind::ShrConst(k) => (a & m) >> k,
            OpKind::And => a & b & m,
            OpKind::Or => (a | b) & m,
            OpKind::Xor => (a ^ b) & m,
            OpKind::Not => !a & m,
            OpKind::Eq => (a == b) as u64,
            OpKind::Ne => (a != b) as u64,
            OpKind::Lt => (sa < sb) as u64,
            OpKind::Le => (sa <= sb) as u64,
            OpKind::Gt => (sa > sb) as u64,
            OpKind::Ge => (sa >= sb) as u64,
            OpKind::Select => {
                let cond = a & 1 != 0;
                let x = self.idata(uid, 1);
                let y = self.idata(uid, 2);
                (if cond { x } else { y }) & m
            }
        }
    }
}
