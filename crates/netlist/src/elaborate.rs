//! Elaboration of a dataflow graph into a gate-level netlist.
//!
//! Every dataflow unit is expanded into its handshake control logic and
//! datapath, tagged with the unit's id as provenance. Channels become nets;
//! buffers annotated on channels become TEHB/OEHB register stages owned by
//! the channel. The result is what ODIN-II + Yosys would hand to ABC in the
//! paper's flow.
//!
//! ## Handshake conventions
//!
//! Channel signals seen by the producer carry the `_src` suffix, signals
//! seen by the consumer `_dst`. Data and `valid` travel forward
//! (src → dst), `ready` travels backward (dst → src). An opaque buffer
//! (OEHB) registers data/valid; a transparent buffer (TEHB) registers
//! `ready`. A [`BufferSpec::FULL`] pair therefore cuts every combinational
//! path through the channel.
//!
//! ## Macro resources
//!
//! Multipliers (DSP blocks) and memories (BRAM) do not consume LUT fabric:
//! their data outputs appear as [`GateKind::Input`] startpoints and their
//! data inputs become *keeps* (timing endpoints), mirroring how a
//! technology mapper treats hard-block boundaries.
//!
//! [`BufferSpec::FULL`]: dataflow::BufferSpec
//! [`GateKind::Input`]: crate::GateKind::Input

use crate::datapath as dp;
use crate::gate::{GateId, Origin};
use crate::netgraph::Netlist;
use dataflow::{Graph, OpKind, UnitId, UnitKind};

/// A malformed graph reaching elaboration: a unit port with no channel.
///
/// [`Graph::validate`] rejects these graphs up front; elaboration reports
/// the same defect as a structured error instead of panicking, so flows
/// fed an unvalidated graph (hand-built, or deserialized from outside)
/// fail with a diagnosis rather than a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElaborateError {
    /// Input port `port` of `unit` has no incoming channel.
    DanglingInput {
        /// The unit with the unconnected port.
        unit: UnitId,
        /// The dangling input port index.
        port: usize,
    },
    /// Output port `port` of `unit` has no outgoing channel.
    DanglingOutput {
        /// The unit with the unconnected port.
        unit: UnitId,
        /// The dangling output port index.
        port: usize,
    },
}

impl std::fmt::Display for ElaborateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElaborateError::DanglingInput { unit, port } => {
                write!(f, "input port {port} of unit {unit} has no channel")
            }
            ElaborateError::DanglingOutput { unit, port } => {
                write!(f, "output port {port} of unit {unit} has no channel")
            }
        }
    }
}

impl std::error::Error for ElaborateError {}

/// The nets of one channel after elaboration.
///
/// All handles are alias gates; after [`Netlist::optimize`] call
/// [`Netlist::resolve`] to reach the canonical driver.
#[derive(Debug, Clone)]
pub(crate) struct ChannelNets {
    /// Data bits driven by the producer (pre-buffer).
    pub data_src: Vec<GateId>,
    /// `valid` driven by the producer (pre-buffer).
    pub valid_src: GateId,
    /// `ready` driven by the consumer (post-buffer).
    pub ready_dst: GateId,
    /// Data bits observed by the consumer (post-buffer).
    pub data_dst: Vec<GateId>,
    /// `valid` observed by the consumer (post-buffer).
    pub valid_dst: GateId,
    /// `ready` observed by the producer (pre-buffer).
    pub ready_src: GateId,
}

/// Result of [`elaborate`]: the netlist.
#[derive(Debug)]
pub struct Elaboration {
    /// The elaborated netlist.
    pub netlist: Netlist,
}

/// Elaborates `g` (with its current buffer annotations) into gates.
///
/// The graph should be [validated](Graph::validate) first.
///
/// # Errors
///
/// [`ElaborateError`] if a unit port has no channel — the defect
/// [`Graph::validate`] would have reported up front.
pub fn elaborate(g: &Graph) -> Result<Elaboration, ElaborateError> {
    let mut e = Elaborator::new(g);
    e.build_channels();
    for (uid, _) in g.units() {
        e.elaborate_unit(uid)?;
    }
    Ok(Elaboration { netlist: e.nl })
}

pub(crate) struct Elaborator<'g> {
    g: &'g Graph,
    pub(crate) nl: Netlist,
    pub(crate) channels: Vec<ChannelNets>,
}

impl<'g> Elaborator<'g> {
    pub(crate) fn new(g: &'g Graph) -> Self {
        Elaborator {
            g,
            nl: Netlist::new(),
            channels: Vec::new(),
        }
    }

    /// Creates aliases and buffer stages for every channel.
    pub(crate) fn build_channels(&mut self) {
        for (cid, ch) in self.g.channels() {
            let w = ch.width() as usize;
            let src_o = Origin::Unit(ch.src().unit);
            let dst_o = Origin::Unit(ch.dst().unit);
            let buf_o = Origin::Channel(cid);
            let data_src: Vec<GateId> = (0..w).map(|_| self.nl.forward_alias(src_o)).collect();
            let valid_src = self.nl.forward_alias(src_o);
            let ready_dst = self.nl.forward_alias(dst_o);

            // Forward pass: src -> [TEHB] -> [OEHB] -> dst for data/valid;
            // ready is threaded in the opposite direction.
            let spec = ch.buffer();
            // OEHB (closest to dst). Its downstream ready is ready_dst.
            // Compute the stage outputs lazily depending on the spec.
            let (data_dst, valid_dst, ready_after_oehb) = if spec.opaque {
                // Placeholders for the TEHB stage outputs (bound below).
                let d1: Vec<GateId> = (0..w).map(|_| self.nl.forward_alias(buf_o)).collect();
                let v1 = self.nl.forward_alias(buf_o);
                let vld = {
                    let zero = self.nl.constant(false);
                    self.nl.reg(zero, buf_o)
                };
                let not_vld = self.nl.not(vld, buf_o);
                let ready1 = self.nl.or(not_vld, ready_dst, buf_o);
                let en = self.nl.and(ready1, v1, buf_o);
                let mut dreg = Vec::with_capacity(w);
                for &d in &d1 {
                    // Clock-enabled data register: the enable rides the CE
                    // pin, so the buffer datapath costs no LUTs.
                    let r = self.nl.reg_en(en, d, buf_o);
                    dreg.push(r);
                }
                let not_rdst = self.nl.not(ready_dst, buf_o);
                let hold = self.nl.and(vld, not_rdst, buf_o);
                let vld_next = self.nl.or(en, hold, buf_o);
                self.nl.gate_mut(vld).fanin = vec![vld_next];
                // Stage inputs d1/v1 come from the TEHB below (or directly
                // from src if there is no TEHB).
                let tehb_in =
                    self.tehb_stage(&data_src, valid_src, ready1, spec.transparent, buf_o);
                for (alias, real) in d1.iter().zip(&tehb_in.0) {
                    self.nl.bind_alias(*alias, *real);
                }
                self.nl.bind_alias(v1, tehb_in.1);
                (dreg, vld, tehb_in.2)
            } else {
                let tehb_in =
                    self.tehb_stage(&data_src, valid_src, ready_dst, spec.transparent, buf_o);
                (tehb_in.0, tehb_in.1, tehb_in.2)
            };

            self.channels.push(ChannelNets {
                data_src,
                valid_src,
                ready_dst,
                data_dst,
                valid_dst,
                ready_src: ready_after_oehb,
            });
        }
    }

    /// Optionally inserts a TEHB between `d0/v0` and a stage whose ready is
    /// `ready_down`; returns `(data, valid, ready_up)` as seen downstream /
    /// upstream.
    fn tehb_stage(
        &mut self,
        d0: &[GateId],
        v0: GateId,
        ready_down: GateId,
        present: bool,
        o: Origin,
    ) -> (Vec<GateId>, GateId, GateId) {
        if !present {
            return (d0.to_vec(), v0, ready_down);
        }
        let full = {
            let zero = self.nl.constant(false);
            self.nl.reg(zero, o)
        };
        let ready_up = self.nl.not(full, o);
        let v1 = self.nl.or(v0, full, o);
        let mut d1 = Vec::with_capacity(d0.len());
        for &d in d0 {
            // Capture while empty (CE = !full): free on the FF's CE pin.
            let saved = self.nl.reg_en(ready_up, d, o);
            d1.push(self.nl.mux(full, saved, d, o));
        }
        let not_rdown = self.nl.not(ready_down, o);
        let full_next = self.nl.and(v1, not_rdown, o);
        self.nl.gate_mut(full).fanin = vec![full_next];
        (d1, v1, ready_up)
    }

    /// Consumer-side nets of input port `p` of `uid`.
    fn input_nets(
        &self,
        uid: UnitId,
        p: usize,
    ) -> Result<(Vec<GateId>, GateId, GateId), ElaborateError> {
        let ch = self
            .g
            .input_channel(uid, p)
            .ok_or(ElaborateError::DanglingInput { unit: uid, port: p })?;
        let nets = &self.channels[ch.index()];
        Ok((nets.data_dst.clone(), nets.valid_dst, nets.ready_dst))
    }

    /// Producer-side nets of output port `p` of `uid`.
    fn output_nets(
        &self,
        uid: UnitId,
        p: usize,
    ) -> Result<(Vec<GateId>, GateId, GateId), ElaborateError> {
        let ch = self
            .g
            .output_channel(uid, p)
            .ok_or(ElaborateError::DanglingOutput { unit: uid, port: p })?;
        let nets = &self.channels[ch.index()];
        Ok((nets.data_src.clone(), nets.valid_src, nets.ready_src))
    }

    fn bind_data(&mut self, aliases: &[GateId], values: &[GateId]) {
        assert_eq!(aliases.len(), values.len(), "data width mismatch");
        for (a, v) in aliases.iter().zip(values) {
            self.nl.bind_alias(*a, *v);
        }
    }

    fn zero_reg(&mut self, o: Origin) -> GateId {
        let zero = self.nl.constant(false);
        self.nl.reg(zero, o)
    }

    pub(crate) fn elaborate_unit(&mut self, uid: UnitId) -> Result<(), ElaborateError> {
        let unit = self.g.unit(uid).clone();
        let o = Origin::Unit(uid);
        match *unit.kind() {
            UnitKind::Entry | UnitKind::Argument { .. } => {
                let (data_out, valid_out, ready) = self.output_nets(uid, 0)?;
                let fired = self.zero_reg(o);
                let not_fired = self.nl.not(fired, o);
                self.nl.bind_alias(valid_out, not_fired);
                let transfer = self.nl.and(not_fired, ready, o);
                let fired_next = self.nl.or(fired, transfer, o);
                self.nl.gate_mut(fired).fanin = vec![fired_next];
                if !data_out.is_empty() {
                    let bits: Vec<GateId> = (0..data_out.len()).map(|_| self.nl.input(o)).collect();
                    self.bind_data(&data_out, &bits);
                }
            }
            UnitKind::Exit => {
                let (data_in, valid_in, ready) = self.input_nets(uid, 0)?;
                let one = self.nl.constant(true);
                self.nl.bind_alias(ready, one);
                self.nl
                    .add_keep(valid_in, format!("{}:exit_valid", unit.name()));
                for (i, &d) in data_in.iter().enumerate() {
                    self.nl
                        .add_keep(d, format!("{}:exit_data{}", unit.name(), i));
                }
            }
            UnitKind::Sink => {
                let (_, _, ready) = self.input_nets(uid, 0)?;
                let one = self.nl.constant(true);
                self.nl.bind_alias(ready, one);
            }
            UnitKind::Source => {
                let (_, valid_out, _) = self.output_nets(uid, 0)?;
                let one = self.nl.constant(true);
                self.nl.bind_alias(valid_out, one);
            }
            UnitKind::Constant { value } => {
                let (_, valid_in, ready_in) = self.input_nets(uid, 0)?;
                let (data_out, valid_out, ready_out) = self.output_nets(uid, 0)?;
                self.nl.bind_alias(valid_out, valid_in);
                self.nl.bind_alias(ready_in, ready_out);
                let bits = dp::const_word(&mut self.nl, value, data_out.len());
                self.bind_data(&data_out, &bits);
            }
            UnitKind::Fork { outputs } => self.eager_fork(uid, outputs as usize, o)?,
            UnitKind::LazyFork { outputs } => self.lazy_fork(uid, outputs as usize, o)?,
            UnitKind::Join { inputs } => {
                let ins: Vec<_> = (0..inputs as usize)
                    .map(|p| self.input_nets(uid, p))
                    .collect::<Result<_, _>>()?;
                let (_, valid_out, ready_out) = self.output_nets(uid, 0)?;
                let valids: Vec<GateId> = ins.iter().map(|(_, v, _)| *v).collect();
                let all = self.nl.and_tree(&valids, o);
                self.nl.bind_alias(valid_out, all);
                for (i, (_, _, ready_in)) in ins.iter().enumerate() {
                    let others: Vec<GateId> = valids
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, v)| *v)
                        .collect();
                    let others_valid = self.nl.and_tree(&others, o);
                    let r = self.nl.and(ready_out, others_valid, o);
                    self.nl.bind_alias(*ready_in, r);
                }
            }
            UnitKind::Branch => self.branch(uid, o)?,
            UnitKind::Merge { inputs } => {
                self.merge_like(uid, inputs as usize, false, o)?;
            }
            UnitKind::ControlMerge { inputs } => {
                self.merge_like(uid, inputs as usize, true, o)?;
            }
            UnitKind::Mux { inputs } => self.mux_unit(uid, inputs as usize, o)?,
            UnitKind::Operator(op) => self.operator(uid, op, o)?,
            UnitKind::Load { .. } => self.load(uid, unit.name(), o)?,
            UnitKind::Store { .. } => self.store(uid, unit.name(), o)?,
        }
        Ok(())
    }

    fn eager_fork(&mut self, uid: UnitId, n: usize, o: Origin) -> Result<(), ElaborateError> {
        let (data_in, valid_in, ready_in) = self.input_nets(uid, 0)?;
        let outs: Vec<_> = (0..n)
            .map(|p| self.output_nets(uid, p))
            .collect::<Result<_, _>>()?;
        let mut dones = Vec::with_capacity(n);
        let mut sat = Vec::with_capacity(n);
        for (_, _, ready_i) in &outs {
            let done = self.zero_reg(o);
            sat.push(self.nl.or(done, *ready_i, o));
            dones.push(done);
        }
        let all = self.nl.and_tree(&sat, o);
        self.nl.bind_alias(ready_in, all);
        let fire_all = self.nl.and(valid_in, all, o);
        let not_fire_all = self.nl.not(fire_all, o);
        for (i, (data_i, valid_i, ready_i)) in outs.iter().enumerate() {
            let not_done = self.nl.not(dones[i], o);
            let v = self.nl.and(valid_in, not_done, o);
            self.nl.bind_alias(*valid_i, v);
            let transfer = self.nl.and(v, *ready_i, o);
            let acc = self.nl.or(dones[i], transfer, o);
            let next = self.nl.and(acc, not_fire_all, o);
            self.nl.gate_mut(dones[i]).fanin = vec![next];
            self.bind_data(data_i, &data_in);
        }
        Ok(())
    }

    fn lazy_fork(&mut self, uid: UnitId, n: usize, o: Origin) -> Result<(), ElaborateError> {
        let (data_in, valid_in, ready_in) = self.input_nets(uid, 0)?;
        let outs: Vec<_> = (0..n)
            .map(|p| self.output_nets(uid, p))
            .collect::<Result<_, _>>()?;
        let readys: Vec<GateId> = outs.iter().map(|(_, _, r)| *r).collect();
        let all = self.nl.and_tree(&readys, o);
        self.nl.bind_alias(ready_in, all);
        for (i, (data_i, valid_i, _)) in outs.iter().enumerate() {
            let others: Vec<GateId> = readys
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, r)| *r)
                .collect();
            let others_ready = self.nl.and_tree(&others, o);
            let v = self.nl.and(valid_in, others_ready, o);
            self.nl.bind_alias(*valid_i, v);
            self.bind_data(data_i, &data_in);
        }
        Ok(())
    }

    fn branch(&mut self, uid: UnitId, o: Origin) -> Result<(), ElaborateError> {
        let (data_in, valid_d, ready_d) = self.input_nets(uid, 0)?;
        let (cond_in, valid_c, ready_c) = self.input_nets(uid, 1)?;
        let cond = cond_in[0];
        let (data_t, valid_t, ready_t) = self.output_nets(uid, 0)?;
        let (data_f, valid_f, ready_f) = self.output_nets(uid, 1)?;
        let both = self.nl.and(valid_d, valid_c, o);
        let vt = self.nl.and(both, cond, o);
        let ncond = self.nl.not(cond, o);
        let vf = self.nl.and(both, ncond, o);
        self.nl.bind_alias(valid_t, vt);
        self.nl.bind_alias(valid_f, vf);
        let sel_ready = self.nl.mux(cond, ready_t, ready_f, o);
        let rd = self.nl.and(valid_c, sel_ready, o);
        let rc = self.nl.and(valid_d, sel_ready, o);
        self.nl.bind_alias(ready_d, rd);
        self.nl.bind_alias(ready_c, rc);
        self.bind_data(&data_t, &data_in);
        self.bind_data(&data_f, &data_in);
        Ok(())
    }

    /// Merge and control-merge share the priority-grant structure.
    fn merge_like(
        &mut self,
        uid: UnitId,
        n: usize,
        with_index: bool,
        o: Origin,
    ) -> Result<(), ElaborateError> {
        let ins: Vec<_> = (0..n)
            .map(|p| self.input_nets(uid, p))
            .collect::<Result<_, _>>()?;
        let (data_out, valid_out, ready_out0) = self.output_nets(uid, 0)?;
        let valids: Vec<GateId> = ins.iter().map(|(_, v, _)| *v).collect();
        // Priority grants (highest index wins: loop back edges outrank
        // entry tokens so buffered circuits keep iteration order).
        let mut grants_rev = Vec::with_capacity(n);
        let mut seen = valids[n - 1];
        grants_rev.push(valids[n - 1]);
        for &v in valids.iter().rev().skip(1) {
            let not_seen = self.nl.not(seen, o);
            grants_rev.push(self.nl.and(v, not_seen, o));
            seen = self.nl.or(seen, v, o);
        }
        grants_rev.reverse();
        let grants = grants_rev;
        let any_comb = seen;
        // Consumption requires both outputs fired (cmerge carries fork-style
        // done flags so its two outputs deliver atomically per token), and
        // the grant is latched for the token's lifetime so a later arrival
        // on another input cannot corrupt the in-flight pair.
        let (fire_ready, eff_grants, any) = if with_index {
            let (index_out, valid_out1, ready_out1) = self.output_nets(uid, 1)?;
            let locked = self.zero_reg(o);
            let not_locked = self.nl.not(locked, o);
            // One latched-select bit per grant (one-hot; n is always 2 in
            // practice, but keep the construction general).
            let mut sel_regs = Vec::with_capacity(n);
            let mut eff_grants = Vec::with_capacity(n);
            for &gc in grants.iter() {
                let sel = self.zero_reg(o);
                let fresh = self.nl.and(not_locked, gc, o);
                let held = self.nl.and(locked, sel, o);
                eff_grants.push(self.nl.or(fresh, held, o));
                sel_regs.push(sel);
            }
            let any = self.nl.or(locked, any_comb, o);
            // Index encoder over the effective grants.
            let idx_w = index_out.len();
            for (b, idx_alias) in index_out.iter().enumerate().take(idx_w) {
                let contributors: Vec<GateId> = eff_grants
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (i >> b) & 1 == 1)
                    .map(|(_, g)| *g)
                    .collect();
                let bit = self.nl.or_tree(&contributors, o);
                self.nl.bind_alias(*idx_alias, bit);
            }
            let done0 = self.zero_reg(o);
            let done1 = self.zero_reg(o);
            let nd0 = self.nl.not(done0, o);
            let nd1 = self.nl.not(done1, o);
            let v0 = self.nl.and(any, nd0, o);
            let v1 = self.nl.and(any, nd1, o);
            self.nl.bind_alias(valid_out, v0);
            self.nl.bind_alias(valid_out1, v1);
            let t0 = self.nl.or(done0, ready_out0, o);
            let t1 = self.nl.or(done1, ready_out1, o);
            let all = self.nl.and(t0, t1, o);
            let fire_all = self.nl.and(any, all, o);
            let not_fire = self.nl.not(fire_all, o);
            for (done, (v, r)) in [(done0, (v0, ready_out0)), (done1, (v1, ready_out1))] {
                let transfer = self.nl.and(v, r, o);
                let acc = self.nl.or(done, transfer, o);
                let next = self.nl.and(acc, not_fire, o);
                self.nl.gate_mut(done).fanin = vec![next];
            }
            // Lock while a token is in flight; release at completion.
            let lock_next = self.nl.and(any, not_fire, o);
            self.nl.gate_mut(locked).fanin = vec![lock_next];
            for (sel, &eg) in sel_regs.iter().zip(&eff_grants) {
                let hold = self.nl.and(eg, not_fire, o);
                self.nl.gate_mut(*sel).fanin = vec![hold];
            }
            (all, eff_grants, any)
        } else {
            self.nl.bind_alias(valid_out, any_comb);
            (ready_out0, grants.clone(), any_comb)
        };
        let _ = any;
        for (i, (_, _, ready_in)) in ins.iter().enumerate() {
            let r = self.nl.and(eff_grants[i], fire_ready, o);
            self.nl.bind_alias(*ready_in, r);
        }
        // Priority data mux matching the grant order (highest index wins).
        if !data_out.is_empty() {
            let w = data_out.len();
            let mut acc = ins[0].0.clone();
            for i in 1..n {
                acc = dp::word_mux(&mut self.nl, valids[i], &ins[i].0, &acc, o);
            }
            assert_eq!(acc.len(), w);
            self.bind_data(&data_out, &acc);
        }
        Ok(())
    }

    fn mux_unit(&mut self, uid: UnitId, n: usize, o: Origin) -> Result<(), ElaborateError> {
        let (sel_in, valid_sel, ready_sel) = self.input_nets(uid, 0)?;
        let ins: Vec<_> = (1..=n)
            .map(|p| self.input_nets(uid, p))
            .collect::<Result<_, _>>()?;
        let (data_out, valid_out, ready_out) = self.output_nets(uid, 0)?;
        let mut hits = Vec::with_capacity(n);
        let mut seleqs = Vec::with_capacity(n);
        for (i, (_, v, _)) in ins.iter().enumerate() {
            let eq_i = dp::sel_equals_const(&mut self.nl, &sel_in, i, o);
            hits.push(self.nl.and(eq_i, *v, o));
            seleqs.push(eq_i);
        }
        let any_hit = self.nl.or_tree(&hits, o);
        let vout = self.nl.and(valid_sel, any_hit, o);
        self.nl.bind_alias(valid_out, vout);
        let rs = self.nl.and(vout, ready_out, o);
        self.nl.bind_alias(ready_sel, rs);
        for (i, (_, _, ready_in)) in ins.iter().enumerate() {
            let gate = self.nl.and(seleqs[i], valid_sel, o);
            let r = self.nl.and(gate, ready_out, o);
            self.nl.bind_alias(*ready_in, r);
        }
        if !data_out.is_empty() {
            let mut acc = dp::const_word(&mut self.nl, 0, data_out.len());
            for (i, (data_i, _, _)) in ins.iter().enumerate() {
                acc = dp::word_mux(&mut self.nl, seleqs[i], data_i, &acc, o);
            }
            self.bind_data(&data_out, &acc);
        }
        Ok(())
    }

    /// Join-style control for an operator's inputs: returns
    /// (`valid_all`, per-input other-valids) and binds nothing.
    fn join_control(&mut self, valids: &[GateId], o: Origin) -> (GateId, Vec<GateId>) {
        let all = self.nl.and_tree(valids, o);
        let others: Vec<GateId> = (0..valids.len())
            .map(|i| {
                let rest: Vec<GateId> = valids
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, v)| *v)
                    .collect();
                self.nl.and_tree(&rest, o)
            })
            .collect();
        (all, others)
    }

    fn operator(&mut self, uid: UnitId, op: OpKind, o: Origin) -> Result<(), ElaborateError> {
        let arity = op.arity();
        let ins: Vec<_> = (0..arity)
            .map(|p| self.input_nets(uid, p))
            .collect::<Result<_, _>>()?;
        let (data_out, valid_out, ready_out) = self.output_nets(uid, 0)?;
        let valids: Vec<GateId> = ins.iter().map(|(_, v, _)| *v).collect();
        let (valid_all, others) = self.join_control(&valids, o);

        if op.latency() == 0 {
            self.nl.bind_alias(valid_out, valid_all);
            for (i, (_, _, ready_in)) in ins.iter().enumerate() {
                let r = self.nl.and(ready_out, others[i], o);
                self.nl.bind_alias(*ready_in, r);
            }
            let result = self.comb_datapath(op, &ins, data_out.len(), o);
            self.bind_data(&data_out, &result);
        } else {
            // Pipelined operator backed by a hard macro (DSP): L valid
            // stages with a single enable; data inputs terminate at the
            // macro boundary, data outputs originate from it.
            let stages = op.latency() as usize;
            let mut vregs = Vec::with_capacity(stages);
            for _ in 0..stages {
                vregs.push(self.zero_reg(o));
            }
            let last = vregs[stages - 1];
            let not_last = self.nl.not(last, o);
            let en = self.nl.or(ready_out, not_last, o);
            let mut prev = self.nl.and(valid_all, en, o);
            for (k, &vr) in vregs.iter().enumerate() {
                let held = self.nl.not(en, o);
                let keep = self.nl.and(vr, held, o);
                let next = if k == 0 {
                    self.nl.or(prev, keep, o)
                } else {
                    let shifted = self.nl.and(prev, en, o);
                    self.nl.or(shifted, keep, o)
                };
                self.nl.gate_mut(vr).fanin = vec![next];
                prev = vr;
            }
            self.nl.bind_alias(valid_out, last);
            for (i, (_, _, ready_in)) in ins.iter().enumerate() {
                let r = self.nl.and(en, others[i], o);
                self.nl.bind_alias(*ready_in, r);
            }
            // Macro boundary: inputs are endpoints, outputs startpoints.
            let uname = self.g.unit(uid).name().to_string();
            for (pi, (data_i, _, _)) in ins.iter().enumerate() {
                for (bi, &d) in data_i.iter().enumerate() {
                    self.nl.add_keep(d, format!("{uname}:dsp_in{pi}_{bi}"));
                }
            }
            let bits: Vec<GateId> = (0..data_out.len()).map(|_| self.nl.input(o)).collect();
            self.bind_data(&data_out, &bits);
        }
        Ok(())
    }

    fn comb_datapath(
        &mut self,
        op: OpKind,
        ins: &[(Vec<GateId>, GateId, GateId)],
        out_width: usize,
        o: Origin,
    ) -> Vec<GateId> {
        let a = &ins[0].0;
        let nl = &mut self.nl;
        let result: Vec<GateId> = match op {
            OpKind::Add => dp::add(nl, a, &ins[1].0, o),
            OpKind::Sub => dp::sub(nl, a, &ins[1].0, o),
            OpKind::And => dp::word_and(nl, a, &ins[1].0, o),
            OpKind::Or => dp::word_or(nl, a, &ins[1].0, o),
            OpKind::Xor => dp::word_xor(nl, a, &ins[1].0, o),
            OpKind::Not => dp::word_not(nl, a, o),
            OpKind::ShlConst(k) => dp::shl_const(nl, a, k as usize, o),
            OpKind::ShrConst(k) => dp::shr_const(nl, a, k as usize, o),
            OpKind::Eq => vec![dp::eq(nl, a, &ins[1].0, o)],
            OpKind::Ne => {
                let e = dp::eq(nl, a, &ins[1].0, o);
                vec![nl.not(e, o)]
            }
            OpKind::Lt => vec![dp::lt_signed(nl, a, &ins[1].0, o)],
            OpKind::Ge => {
                let lt = dp::lt_signed(nl, a, &ins[1].0, o);
                vec![nl.not(lt, o)]
            }
            OpKind::Gt => vec![dp::lt_signed(nl, &ins[1].0.clone(), a, o)],
            OpKind::Le => {
                let gt = dp::lt_signed(nl, &ins[1].0.clone(), a, o);
                vec![nl.not(gt, o)]
            }
            OpKind::Select => {
                let cond = ins[0].0[0];
                dp::word_mux(nl, cond, &ins[1].0, &ins[2].0, o)
            }
            OpKind::Mul => unreachable!("multipliers are pipelined"),
        };
        assert_eq!(result.len(), out_width, "datapath width mismatch for {op}");
        result
    }

    fn load(&mut self, uid: UnitId, name: &str, o: Origin) -> Result<(), ElaborateError> {
        let (addr_in, valid_in, ready_in) = self.input_nets(uid, 0)?;
        let (data_out, valid_out, ready_out) = self.output_nets(uid, 0)?;
        let v = self.zero_reg(o);
        let not_v = self.nl.not(v, o);
        let en = self.nl.or(ready_out, not_v, o);
        let take = self.nl.and(valid_in, en, o);
        let not_en = self.nl.not(en, o);
        let hold = self.nl.and(v, not_en, o);
        let v_next = self.nl.or(take, hold, o);
        self.nl.gate_mut(v).fanin = vec![v_next];
        self.nl.bind_alias(valid_out, v);
        self.nl.bind_alias(ready_in, en);
        for (bi, &a) in addr_in.iter().enumerate() {
            self.nl.add_keep(a, format!("{name}:bram_addr{bi}"));
        }
        let bits: Vec<GateId> = (0..data_out.len()).map(|_| self.nl.input(o)).collect();
        self.bind_data(&data_out, &bits);
        Ok(())
    }

    fn store(&mut self, uid: UnitId, name: &str, o: Origin) -> Result<(), ElaborateError> {
        let (addr_in, valid_a, ready_a) = self.input_nets(uid, 0)?;
        let (data_in, valid_d, ready_d) = self.input_nets(uid, 1)?;
        let (_, valid_out, ready_out) = self.output_nets(uid, 0)?;
        let both = self.nl.and(valid_a, valid_d, o);
        let v = self.zero_reg(o);
        let not_v = self.nl.not(v, o);
        let en = self.nl.or(ready_out, not_v, o);
        let take = self.nl.and(both, en, o);
        let not_en = self.nl.not(en, o);
        let hold = self.nl.and(v, not_en, o);
        let v_next = self.nl.or(take, hold, o);
        self.nl.gate_mut(v).fanin = vec![v_next];
        self.nl.bind_alias(valid_out, v);
        let ra = self.nl.and(en, valid_d, o);
        let rd = self.nl.and(en, valid_a, o);
        self.nl.bind_alias(ready_a, ra);
        self.nl.bind_alias(ready_d, rd);
        self.nl.add_keep(take, format!("{name}:bram_we"));
        for (bi, &a) in addr_in.iter().enumerate() {
            self.nl.add_keep(a, format!("{name}:bram_addr{bi}"));
        }
        for (bi, &d) in data_in.iter().enumerate() {
            self.nl.add_keep(d, format!("{name}:bram_din{bi}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::{BufferSpec, Graph, PortRef, UnitKind};

    /// entry -> fork -> (shl, pass) -> add -> exit  (Figure 2 skeleton).
    fn figure2_graph() -> Graph {
        let mut g = Graph::new("fig2");
        let bb = g.add_basic_block("bb0");
        let a = g
            .add_unit(UnitKind::Argument { index: 0 }, "a", bb, 8)
            .unwrap();
        let f = g.add_unit(UnitKind::fork(2), "fork", bb, 8).unwrap();
        let s = g
            .add_unit(UnitKind::Operator(OpKind::ShlConst(1)), "shl", bb, 8)
            .unwrap();
        let add = g
            .add_unit(UnitKind::Operator(OpKind::Add), "add", bb, 8)
            .unwrap();
        let x = g.add_unit(UnitKind::Exit, "exit", bb, 8).unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(f, 0)).unwrap();
        g.connect(PortRef::new(f, 0), PortRef::new(s, 0)).unwrap();
        g.connect(PortRef::new(s, 0), PortRef::new(add, 0)).unwrap();
        g.connect(PortRef::new(f, 1), PortRef::new(add, 1)).unwrap();
        g.connect(PortRef::new(add, 0), PortRef::new(x, 0)).unwrap();
        g.validate().unwrap();
        g
    }

    #[test]
    fn elaborates_without_combinational_cycles() {
        let g = figure2_graph();
        let mut e = elaborate(&g).unwrap();
        e.netlist.optimize();
        assert!(e.netlist.topo_logic().is_ok());
        assert!(e.netlist.num_live_logic() > 0);
    }

    #[test]
    fn buffers_add_registers() {
        let mut g = figure2_graph();
        let base = {
            let e = elaborate(&g).unwrap();
            let mut nl = e.netlist;
            nl.optimize();
            nl.num_live_regs()
        };
        let ch = g.output_channel(g.unit_by_name("shl").unwrap(), 0).unwrap();
        g.set_buffer(ch, BufferSpec::FULL);
        let e = elaborate(&g).unwrap();
        let mut nl = e.netlist;
        nl.optimize();
        // Full buffer on an 8-bit channel: OEHB (8 data + 1 vld) +
        // TEHB (8 saved + 1 full) = 18 extra registers.
        assert_eq!(nl.num_live_regs(), base + 18);
    }

    #[test]
    fn argument_data_becomes_primary_inputs() {
        let g = figure2_graph();
        let e = elaborate(&g).unwrap();
        let n_inputs = e
            .netlist
            .gates()
            .filter(|(_, gt)| gt.kind() == crate::GateKind::Input)
            .count();
        assert_eq!(n_inputs, 8); // the 8-bit argument
    }

    #[test]
    fn exit_keeps_make_datapath_live() {
        let g = figure2_graph();
        let mut e = elaborate(&g).unwrap();
        e.netlist.optimize();
        // The adder datapath must survive optimization (it feeds the exit).
        let live_logic = e.netlist.num_live_logic();
        assert!(live_logic >= 8, "adder logic missing: {live_logic}");
    }

    #[test]
    fn cross_unit_sharing_occurs() {
        // Two forks feeding one join: the join's AND of valids duplicates
        // logic that strash can merge with fork-side AND structures only if
        // shapes align; at minimum, optimization must shrink the netlist.
        let g = figure2_graph();
        let e = elaborate(&g).unwrap();
        let mut nl = e.netlist;
        let before = nl.num_live_gates();
        let stats = nl.optimize();
        assert!(stats.live_after <= before);
        assert!(stats.rewrites > 0);
    }

    #[test]
    fn unconnected_use_reports_structured_error() {
        // Elaborating an unvalidated graph with dangling ports returns a
        // structured error naming the offending unit and port instead of
        // panicking.
        let mut g = Graph::new("bad");
        let bb = g.add_basic_block("bb0");
        let f = g.add_unit(UnitKind::fork(2), "f", bb, 4).unwrap();
        match elaborate(&g) {
            Err(ElaborateError::DanglingInput { unit, port }) => {
                assert_eq!(unit, f);
                assert_eq!(port, 0);
            }
            other => panic!("expected DanglingInput, got {other:?}"),
        }
    }
}
