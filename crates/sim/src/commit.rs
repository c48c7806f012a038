//! Clock-edge state commit: channel buffer registers, transfer/stall
//! counters, and per-unit sequential state.
//!
//! Each primitive returns whether the circuit progressed (a token moved
//! or a register changed); a cycle in which nothing progressed before the
//! exit fired is a [`SimError::Deadlock`].

use crate::engine::Simulator;
use crate::state::UnitState;
use crate::types::SimError;
use dataflow::{ChannelId, UnitId, UnitKind};

impl Simulator<'_> {
    /// Commits one channel: transfer/stall counters plus the TEHB/OEHB
    /// registers. Returns whether it progressed.
    pub(crate) fn commit_channel(&mut self, cid: ChannelId) -> bool {
        let spec = self.idx.spec[cid.index()];
        let s = self.sig[cid.index()];
        let mut progressed = false;
        if s.valid_src && s.ready_src {
            self.transfers[cid.index()] += 1;
            progressed = true;
        } else if s.valid_src {
            self.stalls[cid.index()] += 1;
        }
        if spec.transparent || spec.opaque {
            // Compute every next-state from the *current* state before
            // mutating anything: the TEHB and OEHB registers clock
            // simultaneously in hardware.
            let (v1, d1) = self.tehb_out(cid);
            let ready1 = self.tehb_downstream_ready(cid);
            let st = self.chan[cid.index()];
            let mut next = st;
            if spec.transparent {
                next.tehb_full = v1 && !ready1;
                if !st.tehb_full {
                    next.tehb_saved = s.data_src;
                }
            }
            if spec.opaque {
                let en = ready1 && v1;
                if en {
                    next.oehb_data = d1;
                }
                next.oehb_vld = en || (st.oehb_vld && !s.ready_dst);
                if en {
                    progressed = true;
                }
            }
            if next.tehb_full != st.tehb_full || next.oehb_vld != st.oehb_vld {
                progressed = true;
            }
            self.chan[cid.index()] = next;
        }
        progressed
    }

    /// Commits one unit's sequential state (and, for memory ports, the
    /// memory itself). Returns whether it progressed.
    pub(crate) fn commit_unit(&mut self, uid: UnitId) -> Result<bool, SimError> {
        let kind = self.idx.kind[uid.index()];
        let w = self.idx.width[uid.index()];
        let mut progressed = false;
        match kind {
            UnitKind::Entry | UnitKind::Argument { .. } => {
                let cid = self.out_ch(uid, 0);
                let s = self.sig[cid.index()];
                if let UnitState::Fired(fired) = &mut self.unit[uid.index()] {
                    if !*fired && s.valid_src && s.ready_src {
                        *fired = true;
                        progressed = true;
                    }
                }
            }
            UnitKind::Exit => {
                let cid = self.in_ch(uid, 0);
                let s = self.sig[cid.index()];
                if s.valid_dst && !self.exited {
                    self.exited = true;
                    self.exit_value = if w > 0 { Some(s.data_dst) } else { None };
                    progressed = true;
                }
            }
            UnitKind::Fork { .. } => {
                let vin = self.ivalid(uid, 0);
                // Construction validated the state shape (SimError::BadUnit);
                // a mismatch skips the commit instead of panicking.
                let state = std::mem::replace(&mut self.unit[uid.index()], UnitState::None);
                if let UnitState::ForkDone(mut dones) = state {
                    let mut all = true;
                    for (i, &done) in dones.iter().enumerate() {
                        all &= done || self.oready(uid, i);
                    }
                    let fire_all = vin && all;
                    for (i, slot) in dones.iter_mut().enumerate() {
                        let done = *slot;
                        let transfer = vin && !done && self.oready(uid, i);
                        let next = (done || transfer) && !fire_all;
                        progressed |= next != done;
                        *slot = next;
                    }
                    self.unit[uid.index()] = UnitState::ForkDone(dones);
                } else {
                    self.unit[uid.index()] = state;
                }
            }
            UnitKind::ControlMerge { inputs } => {
                let n = inputs as usize;
                let mut valids = std::mem::take(&mut self.scratch);
                valids.clear();
                valids.extend((0..n).map(|i| self.ivalid(uid, i)));
                let (dones, latched) = match &self.unit[uid.index()] {
                    UnitState::CmergeState { dones, grant } => (*dones, *grant),
                    // Dead by construction validation (SimError::BadUnit).
                    _ => ([false; 2], None),
                };
                let comb_grant = valids.iter().rposition(|&v| v);
                let grant = latched.map(|g| g as usize).or(comb_grant);
                let any = grant
                    .map(|g| valids[g] || latched.is_some())
                    .unwrap_or(false);
                let mut all = true;
                for (i, &done) in dones.iter().enumerate() {
                    all &= done || self.oready(uid, i);
                }
                let fire_all = any && all;
                let mut new_dones = [false; 2];
                for (i, &done) in dones.iter().enumerate() {
                    let transfer = any && !done && self.oready(uid, i);
                    new_dones[i] = (done || transfer) && !fire_all;
                }
                let new_grant = if fire_all {
                    None
                } else if any {
                    grant.map(|g| g as u8)
                } else {
                    None
                };
                let new_state = UnitState::CmergeState {
                    dones: new_dones,
                    grant: new_grant,
                };
                progressed = self.unit[uid.index()] != new_state;
                self.unit[uid.index()] = new_state;
                self.scratch = valids;
            }
            UnitKind::Operator(op) if op.latency() > 0 => {
                let arity = op.arity();
                let all = (0..arity).all(|i| self.ivalid(uid, i));
                let rout = self.oready(uid, 0);
                let result = self.apply_op(uid, op, w);
                // A latency>0 operator always carries a nonempty Pipe state —
                // enforced at construction (SimError::BadUnit); any mismatch
                // skips the commit instead of panicking at the clock edge.
                if let UnitState::Pipe(stages) = &mut self.unit[uid.index()] {
                    let Some(&(last_v, _)) = stages.last() else {
                        return Ok(progressed);
                    };
                    let en = rout || !last_v;
                    if en {
                        for k in (1..stages.len()).rev() {
                            stages[k] = stages[k - 1];
                        }
                        stages[0] = (all, result);
                        if all || stages.iter().any(|(v, _)| *v) {
                            progressed = true;
                        }
                    }
                }
            }
            UnitKind::Load { mem } => {
                let vin = self.ivalid(uid, 0);
                let addr = self.idata(uid, 0);
                let rout = self.oready(uid, 0);
                if let UnitState::MemPort { v, .. } = self.unit[uid.index()] {
                    let en = rout || !v;
                    if en {
                        let value = if vin {
                            let memv = &self.mems[mem.index()];
                            let idx = addr as usize;
                            if idx >= memv.len() {
                                return Err(SimError::AddrOutOfBounds {
                                    unit: uid,
                                    addr,
                                    size: memv.len(),
                                });
                            }
                            memv[idx]
                        } else {
                            0
                        };
                        let new = UnitState::MemPort {
                            v: vin,
                            data: value,
                        };
                        progressed = self.unit[uid.index()] != new;
                        self.unit[uid.index()] = new;
                    }
                }
            }
            UnitKind::Store { mem } => {
                let va = self.ivalid(uid, 0);
                let vd = self.ivalid(uid, 1);
                let addr = self.idata(uid, 0);
                let data = self.idata(uid, 1);
                let rout = self.oready(uid, 0);
                if let UnitState::MemPort { v, .. } = self.unit[uid.index()] {
                    let en = rout || !v;
                    let take = va && vd && en;
                    if take {
                        let memv = &mut self.mems[mem.index()];
                        let idx = addr as usize;
                        if idx >= memv.len() {
                            return Err(SimError::AddrOutOfBounds {
                                unit: uid,
                                addr,
                                size: memv.len(),
                            });
                        }
                        memv[idx] = data;
                    }
                    if en {
                        let new = UnitState::MemPort { v: take, data: 0 };
                        progressed = take || self.unit[uid.index()] != new;
                        self.unit[uid.index()] = new;
                    }
                }
            }
            _ => {}
        }
        Ok(progressed)
    }
}
