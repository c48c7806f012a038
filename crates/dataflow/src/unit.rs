//! Dataflow units: the handshake components of an elastic circuit.

use crate::ids::MemoryId;
use crate::BasicBlockId;
use std::fmt;

/// Arithmetic / logic operation performed by an [`UnitKind::Operator`] unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Two's-complement addition.
    Add,
    /// Two's-complement subtraction.
    Sub,
    /// Multiplication (pipelined, multi-cycle).
    Mul,
    /// Left shift by a constant amount.
    ShlConst(u8),
    /// Logical right shift by a constant amount.
    ShrConst(u8),
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT (unary).
    Not,
    /// Equality comparison; 1-bit result.
    Eq,
    /// Inequality comparison; 1-bit result.
    Ne,
    /// Signed less-than; 1-bit result.
    Lt,
    /// Signed less-or-equal; 1-bit result.
    Le,
    /// Signed greater-than; 1-bit result.
    Gt,
    /// Signed greater-or-equal; 1-bit result.
    Ge,
    /// Ternary select: `out = cond ? a : b` (inputs: cond, a, b).
    Select,
}

impl OpKind {
    /// Number of data inputs the operator consumes.
    pub fn arity(self) -> usize {
        match self {
            OpKind::Not | OpKind::ShlConst(_) | OpKind::ShrConst(_) => 1,
            OpKind::Select => 3,
            _ => 2,
        }
    }

    /// `true` if the result is a single-bit comparison flag.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            OpKind::Eq | OpKind::Ne | OpKind::Lt | OpKind::Le | OpKind::Gt | OpKind::Ge
        )
    }

    /// Sequential latency in clock cycles (0 = purely combinational).
    ///
    /// Multi-cycle operators are fully pipelined (initiation interval 1),
    /// matching the characterized unit library used by Dynamatic.
    pub fn latency(self) -> u32 {
        match self {
            OpKind::Mul => 4,
            _ => 0,
        }
    }

    /// Short lowercase mnemonic (used in generated names and DOT labels).
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::ShlConst(_) => "shl",
            OpKind::ShrConst(_) => "shr",
            OpKind::And => "and",
            OpKind::Or => "or",
            OpKind::Xor => "xor",
            OpKind::Not => "not",
            OpKind::Eq => "eq",
            OpKind::Ne => "ne",
            OpKind::Lt => "lt",
            OpKind::Le => "le",
            OpKind::Gt => "gt",
            OpKind::Ge => "ge",
            OpKind::Select => "select",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::ShlConst(n) => write!(f, "shl{n}"),
            OpKind::ShrConst(n) => write!(f, "shr{n}"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

/// The kind of a dataflow unit, following the Dynamatic component library.
///
/// Every kind determines a fixed port signature (see
/// [`UnitKind::num_inputs`] and [`UnitKind::num_outputs`]).
/// Data widths are per-unit (see [`Unit::width`]); width 0 denotes a pure
/// control token that carries no payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitKind {
    /// Eager fork: replicates each input token to all `outputs` successors,
    /// allowing successors to consume at different times.
    Fork {
        /// Number of replicated outputs (≥ 2).
        outputs: u8,
    },
    /// Lazy fork: replicates tokens only when *all* successors are ready.
    LazyFork {
        /// Number of replicated outputs (≥ 2).
        outputs: u8,
    },
    /// Control join: waits for a token on every input, then emits one
    /// control token.
    Join {
        /// Number of synchronized inputs (≥ 2).
        inputs: u8,
    },
    /// Conditional branch: steers the data token (input 0) to the `true`
    /// output (0) or `false` output (1) according to the 1-bit condition
    /// token (input 1).
    Branch,
    /// Nondeterministic merge: forwards whichever input token arrives.
    Merge {
        /// Number of merged inputs (≥ 2).
        inputs: u8,
    },
    /// Multiplexer: input 0 is the select token, inputs `1..=inputs` are the
    /// data inputs; forwards the selected data token.
    Mux {
        /// Number of data inputs (≥ 2).
        inputs: u8,
    },
    /// Control merge: like [`UnitKind::Merge`] but additionally emits the
    /// index of the input that fired on output 1.
    ControlMerge {
        /// Number of merged inputs (≥ 2).
        inputs: u8,
    },
    /// Constant generator: emits the constant when triggered by the control
    /// token on input 0.
    Constant {
        /// The literal value (truncated to the unit width).
        value: u64,
    },
    /// Infinite token source (always-valid control token).
    Source,
    /// Token sink (always ready, discards tokens).
    Sink,
    /// Circuit start: emits exactly one control token at time 0.
    Entry,
    /// Kernel scalar argument: emits exactly one data token at time 0.
    Argument {
        /// Position of the argument in the kernel signature.
        index: u8,
    },
    /// Circuit end: consuming a token here terminates execution.
    Exit,
    /// Arithmetic / logic operator.
    Operator(OpKind),
    /// Memory load: address in (port 0), data out (port 0).
    Load {
        /// The memory this port accesses.
        mem: MemoryId,
    },
    /// Memory store: address (port 0) and data (port 1) in, done token out.
    Store {
        /// The memory this port accesses.
        mem: MemoryId,
    },
}

/// Direction of a unit port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Token consumer side.
    Input,
    /// Token producer side.
    Output,
}

/// Signature of one port of a unit: direction and bit width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortSpec {
    /// Whether the port consumes or produces tokens.
    pub dir: PortDir,
    /// Payload width in bits (0 = control-only token).
    pub width: u16,
}

impl UnitKind {
    /// Convenience constructor for an eager fork with `outputs` successors.
    pub fn fork(outputs: u8) -> Self {
        UnitKind::Fork { outputs }
    }

    /// Convenience constructor for a join over `inputs` predecessors.
    pub fn join(inputs: u8) -> Self {
        UnitKind::Join { inputs }
    }

    /// Convenience constructor for a mux over `inputs` data inputs.
    pub fn mux(inputs: u8) -> Self {
        UnitKind::Mux { inputs }
    }

    /// Number of input ports.
    pub fn num_inputs(&self) -> usize {
        match *self {
            UnitKind::Fork { .. } | UnitKind::LazyFork { .. } => 1,
            UnitKind::Join { inputs }
            | UnitKind::Merge { inputs }
            | UnitKind::ControlMerge { inputs } => inputs as usize,
            UnitKind::Mux { inputs } => inputs as usize + 1,
            UnitKind::Branch => 2,
            UnitKind::Constant { .. } => 1,
            UnitKind::Source | UnitKind::Entry | UnitKind::Argument { .. } => 0,
            UnitKind::Sink | UnitKind::Exit => 1,
            UnitKind::Operator(op) => op.arity(),
            UnitKind::Load { .. } => 1,
            UnitKind::Store { .. } => 2,
        }
    }

    /// Number of output ports.
    pub fn num_outputs(&self) -> usize {
        match *self {
            UnitKind::Fork { outputs } | UnitKind::LazyFork { outputs } => outputs as usize,
            UnitKind::Branch => 2,
            UnitKind::ControlMerge { .. } => 2,
            UnitKind::Sink | UnitKind::Exit => 0,
            _ => 1,
        }
    }

    /// Sequential latency of the unit in clock cycles.
    pub fn latency(&self) -> u32 {
        match *self {
            UnitKind::Operator(op) => op.latency(),
            UnitKind::Load { .. } => 1,
            UnitKind::Store { .. } => 1,
            _ => 0,
        }
    }

    /// Short lowercase mnemonic used when generating names and labels.
    pub fn mnemonic(&self) -> &'static str {
        match *self {
            UnitKind::Fork { .. } => "fork",
            UnitKind::LazyFork { .. } => "lfork",
            UnitKind::Join { .. } => "join",
            UnitKind::Branch => "branch",
            UnitKind::Merge { .. } => "merge",
            UnitKind::Mux { .. } => "mux",
            UnitKind::ControlMerge { .. } => "cmerge",
            UnitKind::Constant { .. } => "const",
            UnitKind::Source => "source",
            UnitKind::Sink => "sink",
            UnitKind::Entry => "entry",
            UnitKind::Argument { .. } => "arg",
            UnitKind::Exit => "exit",
            UnitKind::Operator(op) => op.mnemonic(),
            UnitKind::Load { .. } => "load",
            UnitKind::Store { .. } => "store",
        }
    }
}

impl fmt::Display for UnitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            UnitKind::Operator(op) => write!(f, "{op}"),
            UnitKind::Constant { value } => write!(f, "const({value})"),
            _ => f.write_str(self.mnemonic()),
        }
    }
}

/// Width of the select / index token of a mux or control merge with `n`
/// data inputs.
pub(crate) fn select_width(n: usize) -> u16 {
    let mut w = 0u16;
    let mut cap = 1usize;
    while cap < n {
        cap *= 2;
        w += 1;
    }
    w.max(1)
}

/// A dataflow unit instance inside a [`Graph`](crate::Graph).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    pub(crate) kind: UnitKind,
    pub(crate) name: String,
    pub(crate) bb: BasicBlockId,
    pub(crate) width: u16,
}

impl Unit {
    /// The kind of this unit.
    pub fn kind(&self) -> &UnitKind {
        &self.kind
    }

    /// The unit's unique (per graph) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The basic block this unit belongs to.
    pub fn bb(&self) -> BasicBlockId {
        self.bb
    }

    /// The unit's primary data width in bits (0 = control token).
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Sequential latency of the unit in clock cycles.
    pub fn latency(&self) -> u32 {
        self.kind.latency()
    }

    /// Port signature of input port `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for this unit kind.
    pub fn input_spec(&self, idx: usize) -> PortSpec {
        assert!(
            idx < self.kind.num_inputs(),
            "input port {idx} out of range for {}",
            self.kind
        );
        let width = match self.kind {
            UnitKind::Branch => {
                if idx == 0 {
                    self.width
                } else {
                    1
                }
            }
            UnitKind::Mux { inputs } => {
                if idx == 0 {
                    select_width(inputs as usize)
                } else {
                    self.width
                }
            }
            UnitKind::Join { .. } => 0,
            UnitKind::Constant { .. } => 0,
            UnitKind::Operator(op) => match op {
                OpKind::Select if idx == 0 => 1,
                _ => self.width,
            },
            UnitKind::Load { .. } => self.width,
            UnitKind::Store { .. } => self.width,
            _ => self.width,
        };
        PortSpec {
            dir: PortDir::Input,
            width,
        }
    }

    /// Port signature of output port `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for this unit kind.
    pub fn output_spec(&self, idx: usize) -> PortSpec {
        assert!(
            idx < self.kind.num_outputs(),
            "output port {idx} out of range for {}",
            self.kind
        );
        let width = match self.kind {
            UnitKind::Join { .. } => 0,
            UnitKind::ControlMerge { inputs } => {
                if idx == 0 {
                    self.width
                } else {
                    select_width(inputs as usize)
                }
            }
            UnitKind::Source | UnitKind::Entry => 0,
            UnitKind::Operator(op) if op.is_comparison() => 1,
            UnitKind::Store { .. } => 0,
            _ => self.width,
        };
        PortSpec {
            dir: PortDir::Output,
            width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(kind: UnitKind, width: u16) -> Unit {
        Unit {
            kind,
            name: "t".into(),
            bb: BasicBlockId::from_raw(0),
            width,
        }
    }

    #[test]
    fn fork_signature() {
        let u = unit(UnitKind::fork(3), 16);
        assert_eq!(u.kind().num_inputs(), 1);
        assert_eq!(u.kind().num_outputs(), 3);
        assert_eq!(u.input_spec(0).width, 16);
        assert_eq!(u.output_spec(2).width, 16);
    }

    #[test]
    fn branch_condition_is_one_bit() {
        let u = unit(UnitKind::Branch, 32);
        assert_eq!(u.input_spec(0).width, 32);
        assert_eq!(u.input_spec(1).width, 1);
        assert_eq!(u.output_spec(0).width, 32);
        assert_eq!(u.output_spec(1).width, 32);
    }

    #[test]
    fn mux_select_width_grows_with_inputs() {
        assert_eq!(select_width(2), 1);
        assert_eq!(select_width(3), 2);
        assert_eq!(select_width(4), 2);
        assert_eq!(select_width(5), 3);
        let u = unit(UnitKind::mux(4), 8);
        assert_eq!(u.input_spec(0).width, 2);
        assert_eq!(u.input_spec(1).width, 8);
        assert_eq!(u.kind().num_inputs(), 5);
    }

    #[test]
    fn comparison_result_is_one_bit() {
        let u = unit(UnitKind::Operator(OpKind::Lt), 16);
        assert_eq!(u.output_spec(0).width, 1);
        assert_eq!(u.input_spec(1).width, 16);
    }

    #[test]
    fn join_ports_are_control_only() {
        let u = unit(UnitKind::join(3), 0);
        assert_eq!(u.input_spec(2).width, 0);
        assert_eq!(u.output_spec(0).width, 0);
    }

    #[test]
    fn store_emits_control_done_token() {
        let u = unit(
            UnitKind::Store {
                mem: MemoryId::from_raw(0),
            },
            16,
        );
        assert_eq!(u.kind().num_inputs(), 2);
        assert_eq!(u.output_spec(0).width, 0);
        assert_eq!(u.latency(), 1);
    }

    #[test]
    fn multiplier_is_pipelined() {
        assert_eq!(OpKind::Mul.latency(), 4);
        assert_eq!(OpKind::Add.latency(), 0);
    }

    #[test]
    fn select_operator_signature() {
        let u = unit(UnitKind::Operator(OpKind::Select), 8);
        assert_eq!(u.kind().num_inputs(), 3);
        assert_eq!(u.input_spec(0).width, 1);
        assert_eq!(u.input_spec(1).width, 8);
    }

    #[test]
    fn display_formats() {
        assert_eq!(UnitKind::fork(2).to_string(), "fork");
        assert_eq!(UnitKind::Constant { value: 5 }.to_string(), "const(5)");
        assert_eq!(UnitKind::Operator(OpKind::ShlConst(3)).to_string(), "shl3");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_port_panics() {
        let u = unit(UnitKind::Branch, 8);
        let _ = u.input_spec(2);
    }
}
