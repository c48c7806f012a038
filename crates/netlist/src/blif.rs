//! BLIF (Berkeley Logic Interchange Format) export.
//!
//! The paper's flow moves circuits between tools as BLIF (ODIN-II emits
//! it, ABC consumes it). Here every stage runs in-process, so BLIF is an
//! export format only (`frequenz blif`): gates become `.names` cover
//! lines, flip-flops become `.latch` entries (clock-enabled registers are
//! expanded to a latch plus a recirculation `.names` mux, the standard
//! BLIF encoding), and keeps become `.outputs`.

use crate::gate::{GateId, GateKind};
use crate::netgraph::Netlist;
use std::io::{self, Write};

fn sig(id: GateId) -> String {
    format!("n{}", id.index())
}

/// Writes the live portion of `nl` as a BLIF model named `model`.
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_blif<W: Write>(nl: &Netlist, model: &str, mut w: W) -> io::Result<()> {
    let live = nl.live_mask();
    writeln!(w, ".model {model}")?;
    let inputs: Vec<String> = nl
        .gates()
        .filter(|(id, g)| live[id.index()] && g.kind() == GateKind::Input)
        .map(|(id, _)| sig(id))
        .collect();
    writeln!(w, ".inputs {}", inputs.join(" "))?;
    let outputs: Vec<String> = nl.keeps().iter().map(|(g, _)| sig(*g)).collect();
    writeln!(w, ".outputs {}", outputs.join(" "))?;
    for (id, g) in nl.gates() {
        if !live[id.index()] {
            continue;
        }
        let f = |i: usize| sig(g.fanin()[i]);
        match g.kind() {
            GateKind::Const(v) => {
                writeln!(w, ".names {}", sig(id))?;
                if v {
                    writeln!(w, "1")?;
                }
            }
            GateKind::Input => {}
            GateKind::Alias => {
                writeln!(w, ".names {} {}", f(0), sig(id))?;
                writeln!(w, "1 1")?;
            }
            GateKind::Not => {
                writeln!(w, ".names {} {}", f(0), sig(id))?;
                writeln!(w, "0 1")?;
            }
            GateKind::And => {
                writeln!(w, ".names {} {} {}", f(0), f(1), sig(id))?;
                writeln!(w, "11 1")?;
            }
            GateKind::Or => {
                writeln!(w, ".names {} {} {}", f(0), f(1), sig(id))?;
                writeln!(w, "1- 1")?;
                writeln!(w, "-1 1")?;
            }
            GateKind::Xor => {
                writeln!(w, ".names {} {} {}", f(0), f(1), sig(id))?;
                writeln!(w, "10 1")?;
                writeln!(w, "01 1")?;
            }
            GateKind::Mux => {
                writeln!(w, ".names {} {} {} {}", f(0), f(1), f(2), sig(id))?;
                writeln!(w, "11- 1")?;
                writeln!(w, "0-1 1")?;
            }
            GateKind::Reg => {
                writeln!(w, ".latch {} {} re clk 0", f(0), sig(id))?;
            }
            GateKind::RegEn => {
                // Expand CE into a recirculation mux: d' = en ? d : q.
                let d_name = format!("{}_d", sig(id));
                writeln!(w, ".names {} {} {} {}", f(0), f(1), sig(id), d_name)?;
                writeln!(w, "11- 1")?;
                writeln!(w, "0-1 1")?;
                writeln!(w, ".latch {d_name} {} re clk 0", sig(id))?;
            }
        }
    }
    writeln!(w, ".end")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Origin;

    /// One live gate of every kind the writer emits, plus one dead gate it
    /// must skip. Each cover below is the on-set of its gate: constant 1
    /// is one empty row and constant 0 none; `mux` is `[sel, a, b]`,
    /// `sel ? a : b`; `reg_en` is `[en, d]`, expanded to `en ? d : q`.
    #[test]
    fn writes_every_gate_kind() {
        let o = Origin::External;
        let mut nl = Netlist::new();
        let a = nl.input(o); // n0
        let b = nl.input(o); // n1
        let one = nl.constant(true); // n2
        let zero = nl.constant(false); // n3
        let al = nl.alias(a, o); // n4
        let nb = nl.not(b, o); // n5
        let and = nl.and(al, one, o); // n6
        let or = nl.or(nb, zero, o); // n7
        let xor = nl.xor(and, or, o); // n8
        let mux = nl.mux(a, xor, b, o); // n9
        let reg = nl.reg(mux, o); // n10
        let reg_en = nl.reg_en(b, reg, o); // n11
        let _dead = nl.and(a, b, o); // n12
        nl.add_keep(reg_en, "q");
        let mut out = Vec::new();
        write_blif(&nl, "t", &mut out).expect("writes to memory");
        let expected = "\
.model t
.inputs n0 n1
.outputs n11
.names n2
1
.names n3
.names n0 n4
1 1
.names n1 n5
0 1
.names n4 n2 n6
11 1
.names n5 n3 n7
1- 1
-1 1
.names n6 n7 n8
10 1
01 1
.names n0 n8 n1 n9
11- 1
0-1 1
.latch n9 n10 re clk 0
.names n1 n10 n11 n11_d
11- 1
0-1 1
.latch n11_d n11 re clk 0
.end
";
        assert_eq!(String::from_utf8(out).expect("BLIF is ASCII"), expected);
    }
}
