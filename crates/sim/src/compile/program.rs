//! The compile pass: lowering a [`Graph`] into a flat bytecode [`Program`].

use crate::types::{fixpoint_limit, mask, SimError};
use dataflow::{Graph, OpKind, UnitKind};

/// Dense opcode of one lowered unit. The VM dispatches on this single
/// byte-sized tag; all kind payloads (`outputs`, `inputs`, latencies,
/// constants, memory ids) are preresolved into [`Instr`] fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Op {
    /// Entry / Argument: one-shot token latch (`imm` = argument slot, or
    /// `ARG_NONE` for a control entry).
    Entry,
    /// Exit: consuming a token terminates the run.
    Exit,
    /// Sink: always-ready token discard.
    Sink,
    /// Source: always-valid control token.
    Source,
    /// Constant generator (`imm` = pre-masked literal).
    Const,
    /// Eager fork with per-output done flags.
    Fork,
    /// Lazy fork: fires only when all successors are ready.
    LazyFork,
    /// Control join.
    Join,
    /// Conditional branch.
    Branch,
    /// Nondeterministic merge (highest-index priority).
    Merge,
    /// Control merge with latched grant and an index output.
    CMerge,
    /// Multiplexer (input 0 selects among inputs `1..nin`).
    Mux,
    /// Two-output eager fork (`Fork` specialized at lowering).
    Fork2,
    /// Two-input merge (`Merge` specialized at lowering).
    Merge2,
    /// Two-way multiplexer (`Mux` with one select and two data inputs,
    /// specialized at lowering).
    Mux2,
    /// Two-input control join (`Join` specialized at lowering).
    Join2,
    /// One-input combinational operator (`Comb` specialized at lowering:
    /// the unary ALU codes — not, shifts).
    Comb1,
    /// Two-input combinational operator (`Comb` specialized at lowering:
    /// the dominant add/sub/mul/compare class).
    Comb2,
    /// Zero-latency operator (`alu` selects the datapath function).
    Comb,
    /// Pipelined operator with `lat` register stages.
    Pipe,
    /// Memory load port.
    Load,
    /// Memory store port.
    Store,
}

/// `imm` sentinel for [`Op::Entry`] units that are not arguments.
pub(crate) const ARG_NONE: u64 = u64::MAX;

/// Datapath function codes for [`Op::Comb`] / [`Op::Pipe`]; shift amounts
/// live in `imm` so the ALU never decodes an [`OpKind`] payload.
pub(crate) const ALU_ADD: u8 = 0;
pub(crate) const ALU_SUB: u8 = 1;
pub(crate) const ALU_MUL: u8 = 2;
pub(crate) const ALU_SHL: u8 = 3;
pub(crate) const ALU_SHR: u8 = 4;
pub(crate) const ALU_AND: u8 = 5;
pub(crate) const ALU_OR: u8 = 6;
pub(crate) const ALU_XOR: u8 = 7;
pub(crate) const ALU_NOT: u8 = 8;
pub(crate) const ALU_EQ: u8 = 9;
pub(crate) const ALU_NE: u8 = 10;
pub(crate) const ALU_LT: u8 = 11;
pub(crate) const ALU_LE: u8 = 12;
pub(crate) const ALU_GT: u8 = 13;
pub(crate) const ALU_GE: u8 = 14;
pub(crate) const ALU_SELECT: u8 = 15;

fn alu_code(op: OpKind) -> (u8, u64) {
    match op {
        OpKind::Add => (ALU_ADD, 0),
        OpKind::Sub => (ALU_SUB, 0),
        OpKind::Mul => (ALU_MUL, 0),
        OpKind::ShlConst(k) => (ALU_SHL, k as u64),
        OpKind::ShrConst(k) => (ALU_SHR, k as u64),
        OpKind::And => (ALU_AND, 0),
        OpKind::Or => (ALU_OR, 0),
        OpKind::Xor => (ALU_XOR, 0),
        OpKind::Not => (ALU_NOT, 0),
        OpKind::Eq => (ALU_EQ, 0),
        OpKind::Ne => (ALU_NE, 0),
        OpKind::Lt => (ALU_LT, 0),
        OpKind::Le => (ALU_LE, 0),
        OpKind::Gt => (ALU_GT, 0),
        OpKind::Ge => (ALU_GE, 0),
        OpKind::Select => (ALU_SELECT, 0),
    }
}

/// One lowered unit: opcode plus preresolved operand/state offsets.
///
/// `ins`/`outs` index [`Program::ports`] (the unit's input and output
/// channel indices, contiguous); `sb`/`sw` index the VM's shared
/// state-bool / state-word pools (fork done flags, pipeline stages,
/// memory-port registers, latched grants).
#[derive(Debug, Clone, Copy)]
// Padded to one cache line for the same reason as the VM's `Chan`:
// instruction fetches are random-order during sparse settles.
#[repr(align(64))]
pub(crate) struct Instr {
    pub op: Op,
    /// ALU function for `Comb`/`Pipe`.
    pub alu: u8,
    /// Unit data width (masking + signed comparisons + exit payload).
    pub width: u16,
    /// Number of input ports.
    pub nin: u16,
    /// Number of output ports.
    pub nout: u16,
    /// Pipeline depth for `Pipe`.
    pub lat: u16,
    /// Offset of the input channel indices in [`Program::ports`].
    pub ins: u32,
    /// Offset of the output channel indices in [`Program::ports`].
    pub outs: u32,
    /// First two input channel ids, mirrored out of [`Program::ports`]
    /// into this (already loaded) cache line; `0` when the port does
    /// not exist. Ports beyond the second fall back to `ports`.
    pub c_in0: u32,
    pub c_in1: u32,
    /// First output channel id, mirrored like `c_in0`.
    pub c_out0: u32,
    /// Offset into the state-bool pool.
    pub sb: u32,
    /// Offset into the state-word pool.
    pub sw: u32,
    /// Offset of this port's memory in the VM's flat memory pool
    /// (`Load`/`Store`).
    pub mem_base: u32,
    /// Size in words of this port's memory (`Load`/`Store`).
    pub mem_size: u32,
    /// Constant value / argument slot / shift amount.
    pub imm: u64,
    /// Pre-computed `mask(width)`.
    pub mask: u64,
}

/// Buffer-spec codes, bit 0 = transparent (TEHB), bit 1 = opaque (OEHB).
pub(crate) const SPEC_NONE: u8 = 0;
pub(crate) const SPEC_TRANSPARENT: u8 = 1;
pub(crate) const SPEC_OPAQUE: u8 = 2;
pub(crate) const SPEC_FULL: u8 = 3;

/// An immutable compiled dataflow program.
///
/// Produced once per graph by [`Program::compile`]; executed (and
/// re-executed, with per-trial buffer overlays) by any number of
/// [`super::CompiledSim`] instances, typically behind an
/// [`std::sync::Arc`] shared across slack-trial threads.
#[derive(Debug)]
pub struct Program {
    pub(crate) instrs: Vec<Instr>,
    /// Channel-index pool referenced by [`Instr::ins`]/[`Instr::outs`].
    pub(crate) ports: Vec<u32>,
    /// Per-channel source unit index.
    pub(crate) src_unit: Vec<u32>,
    /// Per-channel destination unit index.
    pub(crate) dst_unit: Vec<u32>,
    /// Per-channel buffer-spec code as annotated on the graph.
    pub(crate) base_spec: Vec<u8>,
    /// Initial memory images, resized to full capacity and laid out
    /// back-to-back in one flat pool (per-trial state reset is a single
    /// memcpy; ports carry their base offset in [`Instr::mem_base`]).
    pub(crate) mem_init: Vec<u64>,
    /// Start offset of each memory in the flat pool, plus a final
    /// end-of-pool sentinel.
    pub(crate) mem_off: Vec<u32>,
    /// Size of the VM's state-bool pool.
    pub(crate) num_sb: usize,
    /// Size of the VM's state-word pool.
    pub(crate) num_sw: usize,
    /// Units the VM commits every cycle regardless of settle activity,
    /// one bit per unit: entries (token-issue latches), exits (completion
    /// observers) and memory ports (a load must observe stores committed
    /// in the same cycle even when none of its own signals changed).
    pub(crate) always_mask: Vec<u64>,
    /// Per-settle evaluation cap, the interpreter's own budget
    /// (`types::fixpoint_limit`), so `NoFixpoint` stays engine-invariant.
    pub(crate) fixpoint_limit: usize,
}

impl Program {
    /// Lowers `g` into bytecode.
    ///
    /// # Errors
    ///
    /// [`SimError::UnconnectedPort`] if the graph has a dangling port
    /// (it skipped [`Graph::validate`]), [`SimError::BadUnit`] if a unit's
    /// lowered state shape is inconsistent with its kind.
    pub fn compile(g: &Graph) -> Result<Program, SimError> {
        let mut instrs = Vec::with_capacity(g.num_units());
        let mut ports = Vec::new();
        let mut num_sb = 0usize;
        let mut num_sw = 0usize;
        let mut always_mask = vec![0u64; g.num_units().div_ceil(64)];
        let mut mem_off = Vec::new();
        let mut mem_init: Vec<u64> = Vec::new();
        for (_, m) in g.memories() {
            let base = mem_init.len();
            mem_off.push(base as u32);
            mem_init.extend_from_slice(m.init());
            mem_init.resize(base + m.size(), 0);
        }
        mem_off.push(mem_init.len() as u32);
        for (uid, u) in g.units() {
            let kind = *u.kind();
            let width = u.width();
            let nin = kind.num_inputs();
            let nout = kind.num_outputs();
            let ins = ports.len() as u32;
            for p in 0..nin {
                let c = g.input_channel(uid, p).ok_or(SimError::UnconnectedPort {
                    unit: uid,
                    port: p,
                    output: false,
                })?;
                ports.push(c.index() as u32);
            }
            let outs = ports.len() as u32;
            for p in 0..nout {
                let c = g.output_channel(uid, p).ok_or(SimError::UnconnectedPort {
                    unit: uid,
                    port: p,
                    output: true,
                })?;
                ports.push(c.index() as u32);
            }
            let mut i = Instr {
                op: Op::Sink,
                alu: 0,
                width,
                nin: nin as u16,
                nout: nout as u16,
                lat: 0,
                ins,
                outs,
                c_in0: if nin >= 1 { ports[ins as usize] } else { 0 },
                c_in1: if nin >= 2 { ports[ins as usize + 1] } else { 0 },
                c_out0: if nout >= 1 { ports[outs as usize] } else { 0 },
                sb: num_sb as u32,
                sw: num_sw as u32,
                mem_base: 0,
                mem_size: 0,
                imm: 0,
                mask: mask(width),
            };
            match kind {
                UnitKind::Entry => {
                    i.op = Op::Entry;
                    i.imm = ARG_NONE;
                    num_sb += 1;
                }
                UnitKind::Argument { index } => {
                    i.op = Op::Entry;
                    i.imm = index as u64;
                    num_sb += 1;
                }
                UnitKind::Exit => i.op = Op::Exit,
                UnitKind::Sink => i.op = Op::Sink,
                UnitKind::Source => i.op = Op::Source,
                UnitKind::Constant { value } => {
                    i.op = Op::Const;
                    i.imm = value & i.mask;
                }
                UnitKind::Fork { .. } => {
                    i.op = if nout == 2 { Op::Fork2 } else { Op::Fork };
                    num_sb += nout;
                }
                UnitKind::LazyFork { .. } => i.op = Op::LazyFork,
                UnitKind::Join { .. } => {
                    i.op = if nin == 2 { Op::Join2 } else { Op::Join };
                }
                UnitKind::Branch => i.op = Op::Branch,
                UnitKind::Merge { .. } => {
                    i.op = if nin == 2 { Op::Merge2 } else { Op::Merge };
                }
                UnitKind::ControlMerge { .. } => {
                    i.op = Op::CMerge;
                    num_sb += 2; // done flags
                    num_sw += 1; // latched grant (0 = none, g + 1 otherwise)
                }
                UnitKind::Mux { .. } => {
                    i.op = if nin == 3 { Op::Mux2 } else { Op::Mux };
                }
                UnitKind::Operator(op) => {
                    let (alu, imm) = alu_code(op);
                    i.alu = alu;
                    i.imm = imm;
                    let lat = op.latency() as usize;
                    if lat == 0 {
                        i.op = match nin {
                            1 => Op::Comb1,
                            2 => Op::Comb2,
                            _ => Op::Comb,
                        };
                    } else {
                        i.op = Op::Pipe;
                        i.lat = lat as u16;
                        num_sb += lat; // per-stage valid
                        num_sw += lat; // per-stage value
                    }
                }
                UnitKind::Load { mem } => {
                    i.op = Op::Load;
                    i.mem_base = mem_off[mem.index()];
                    i.mem_size = mem_off[mem.index() + 1] - mem_off[mem.index()];
                    num_sb += 1;
                    num_sw += 1;
                }
                UnitKind::Store { mem } => {
                    i.op = Op::Store;
                    i.mem_base = mem_off[mem.index()];
                    i.mem_size = mem_off[mem.index() + 1] - mem_off[mem.index()];
                    num_sb += 1;
                }
            }
            if matches!(i.op, Op::Pipe) && i.lat == 0 {
                return Err(SimError::BadUnit {
                    unit: uid,
                    reason: format!("pipelined operator {kind} lowered with zero stages"),
                });
            }
            if matches!(i.op, Op::Entry | Op::Exit | Op::Load | Op::Store) {
                let u = instrs.len();
                always_mask[u >> 6] |= 1u64 << (u & 63);
            }
            instrs.push(i);
        }

        let mut src_unit = Vec::with_capacity(g.num_channels());
        let mut dst_unit = Vec::with_capacity(g.num_channels());
        let mut base_spec = Vec::with_capacity(g.num_channels());
        for (_, ch) in g.channels() {
            src_unit.push(ch.src().unit.index() as u32);
            dst_unit.push(ch.dst().unit.index() as u32);
            let b = ch.buffer();
            base_spec.push((b.transparent as u8) | ((b.opaque as u8) << 1));
        }
        Ok(Program {
            instrs,
            ports,
            src_unit,
            dst_unit,
            base_spec,
            mem_init,
            mem_off,
            num_sb,
            num_sw,
            always_mask,
            fixpoint_limit: fixpoint_limit(g),
        })
    }

    /// Number of lowered units.
    pub fn num_units(&self) -> usize {
        self.instrs.len()
    }

    /// Number of channels in the source graph.
    pub fn num_channels(&self) -> usize {
        self.src_unit.len()
    }
}
