//! A line-oriented text export of dataflow graphs (`.dfg`).
//!
//! Dynamatic exchanges circuits as annotated DOT files; this crate's
//! equivalent is a minimal, diff-friendly text form that writes every
//! graph feature (units, channels, buffers, basic blocks, memories). It is
//! an export format only (`frequenz dfg`); nothing reads it back:
//!
//! ```text
//! dfg gsum
//! bb entry
//! bb loop1
//! mem a 128 16 init 3,1,4,1,5
//! unit entry entry bb0 w0
//! unit fork1 fork2 bb0 w16
//! unit ld load[m0] bb1 w16
//! chan u0.0 -> u1.0
//! chan u1.0 -> u2.0 buf OB+TB
//! end
//! ```
//!
//! Unit kinds use the mnemonic plus a bracketed/numeric parameter where
//! needed (`fork2`, `join3`, `mux2`, `cmerge2`, `const[42]`, `shl[3]`,
//! `load[m0]`, `arg[0]`).

use crate::{Graph, OpKind, UnitKind};
use std::fmt::Write as _;

fn kind_token(kind: &UnitKind) -> String {
    match *kind {
        UnitKind::Fork { outputs } => format!("fork{outputs}"),
        UnitKind::LazyFork { outputs } => format!("lfork{outputs}"),
        UnitKind::Join { inputs } => format!("join{inputs}"),
        UnitKind::Merge { inputs } => format!("merge{inputs}"),
        UnitKind::Mux { inputs } => format!("mux{inputs}"),
        UnitKind::ControlMerge { inputs } => format!("cmerge{inputs}"),
        UnitKind::Constant { value } => format!("const[{value}]"),
        UnitKind::Argument { index } => format!("arg[{index}]"),
        UnitKind::Operator(OpKind::ShlConst(k)) => format!("shl[{k}]"),
        UnitKind::Operator(OpKind::ShrConst(k)) => format!("shr[{k}]"),
        UnitKind::Operator(op) => op.mnemonic().to_string(),
        UnitKind::Load { mem } => format!("load[m{}]", mem.index()),
        UnitKind::Store { mem } => format!("store[m{}]", mem.index()),
        UnitKind::Branch => "branch".into(),
        UnitKind::Source => "source".into(),
        UnitKind::Sink => "sink".into(),
        UnitKind::Entry => "entry".into(),
        UnitKind::Exit => "exit".into(),
    }
}

impl Graph {
    /// Serializes the graph to the `.dfg` text format.
    pub fn to_dfg_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "dfg {}", self.name());
        for (_, bb) in self.basic_blocks() {
            let _ = writeln!(out, "bb {}", bb.name());
        }
        for (_, m) in self.memories() {
            let init: Vec<String> = m.init().iter().map(u64::to_string).collect();
            let _ = write!(out, "mem {} {} {}", m.name(), m.size(), m.width());
            if init.is_empty() {
                let _ = writeln!(out);
            } else {
                let _ = writeln!(out, " init {}", init.join(","));
            }
        }
        for (_, u) in self.units() {
            let _ = writeln!(
                out,
                "unit {} {} bb{} w{}",
                u.name(),
                kind_token(u.kind()),
                u.bb().index(),
                u.width()
            );
        }
        for (_, c) in self.channels() {
            let _ = write!(out, "chan {} -> {}", c.src(), c.dst());
            if !c.buffer().is_none() {
                let _ = write!(out, " buf {}", c.buffer());
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "end");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferSpec, PortRef};

    fn sample() -> Graph {
        let mut g = Graph::new("sample");
        let bb = g.add_basic_block("entry");
        let mem = g.add_memory("a", 8, 16, vec![1, 2, 3]);
        let arg = g
            .add_unit(UnitKind::Argument { index: 0 }, "x", bb, 16)
            .unwrap();
        let ld = g.add_unit(UnitKind::Load { mem }, "ld", bb, 16).unwrap();
        let add = g
            .add_unit(UnitKind::Operator(OpKind::Add), "add", bb, 16)
            .unwrap();
        let f = g.add_unit(UnitKind::fork(2), "f", bb, 16).unwrap();
        let x = g.add_unit(UnitKind::Exit, "out", bb, 16).unwrap();
        let sk = g.add_unit(UnitKind::Sink, "sk", bb, 16).unwrap();
        g.connect(PortRef::new(arg, 0), PortRef::new(ld, 0))
            .unwrap();
        g.connect(PortRef::new(ld, 0), PortRef::new(add, 0))
            .unwrap();
        let ch = g.connect(PortRef::new(add, 0), PortRef::new(f, 0)).unwrap();
        g.connect(PortRef::new(f, 0), PortRef::new(x, 0)).unwrap();
        let back = g.connect(PortRef::new(f, 1), PortRef::new(sk, 0)).unwrap();
        // Need add's second input: rewire from the fork is impossible (it
        // is taken); use another argument.
        let y = g
            .add_unit(UnitKind::Argument { index: 1 }, "y", bb, 16)
            .unwrap();
        g.connect(PortRef::new(y, 0), PortRef::new(add, 1)).unwrap();
        g.set_buffer(ch, BufferSpec::FULL);
        g.set_buffer(back, BufferSpec::TRANSPARENT);
        g
    }

    /// The sample graph's text, line by line: the basic block, the memory
    /// with its init values, the units in id order (kind token, block,
    /// width) and the channels in id order, the buffered ones with their
    /// spec.
    #[test]
    fn writes_sample_graph() {
        let expected = "\
dfg sample
bb entry
mem a 8 16 init 1,2,3
unit x arg[0] bb0 w16
unit ld load[m0] bb0 w16
unit add add bb0 w16
unit f fork2 bb0 w16
unit out exit bb0 w16
unit sk sink bb0 w16
unit y arg[1] bb0 w16
chan u0.0 -> u1.0
chan u1.0 -> u2.0
chan u2.0 -> u3.0 buf OB+TB
chan u3.0 -> u4.0
chan u3.1 -> u5.0 buf TB
chan u6.0 -> u2.1
end
";
        assert_eq!(sample().to_dfg_text(), expected);
    }
}
