//! A structured mini-HLS builder for elastic dataflow circuits.
//!
//! [`KernelBuilder`] lowers structured loops, arithmetic and memory
//! accesses into the same elastic-circuit shapes Dynamatic produces from
//! C code:
//!
//! * values are SSA-like handles ([`Val`]); every *use* registers a
//!   consumer and the builder materializes eager forks (multi-use) and
//!   sinks (no use) when the kernel is finished — exactly the fork
//!   insertion pass of an elastic HLS flow;
//! * loops become the canonical Dynamatic ring: a control ring headed by a
//!   control merge whose index token drives the data muxes (in-order token
//!   delivery), a branch per live value steered by the loop condition, and
//!   per-iteration constants triggered by the control token;
//! * stores emit *done* tokens that [`KernelBuilder::seq`] joins back into
//!   the control ring, serializing memory effects across iterations.
//!
//! Back edges are tracked so the buffer-placement flow can seed them with
//! full buffers (the starting point of the paper's Figure 4).

use dataflow::collections::HashMap;
use dataflow::{
    BasicBlockId, ChannelId, Graph, GraphError, MemoryId, OpKind, PortRef, UnitId, UnitKind,
};

/// A dataflow value handle (one token stream).
///
/// `Val` is `Copy`; every use as an operand registers one consumer, and
/// the builder inserts forks/sinks automatically at
/// [`KernelBuilder::finish_with_value`] /
/// [`KernelBuilder::finish_with_ctrl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Val(usize);

#[derive(Debug)]
struct Net {
    src: PortRef,
    width: u16,
    consumers: Vec<Consumer>,
}

#[derive(Debug)]
struct Consumer {
    port: PortRef,
    back_edge: bool,
}

/// The product of a [`KernelBuilder`]: a validated graph plus the loop
/// back-edge channels that must carry the initial buffers.
#[derive(Debug, Clone)]
pub struct BuiltKernel {
    /// The elastic circuit.
    pub graph: Graph,
    /// Channels closing loop rings (one per ring).
    pub back_edges: Vec<ChannelId>,
}

/// An open loop produced by [`KernelBuilder::loop_start`]; closed by
/// [`KernelBuilder::loop_end`].
#[derive(Debug)]
pub struct LoopCtx {
    /// Body-side induction variable.
    i_body: Val,
    /// Exit-side induction value.
    i_exit: Val,
    /// Body-side named values (carried + invariant).
    body_vals: HashMap<String, Val>,
    /// Exit-side named values.
    exit_vals: HashMap<String, Val>,
    invariants: Vec<String>,
    /// Mux units awaiting their back-edge connection, by name ("" = i).
    mux_of: HashMap<String, UnitId>,
    cmerge: UnitId,
    saved_exit_ctrl: Val,
    bb: BasicBlockId,
    outer_bb: BasicBlockId,
}

impl LoopCtx {
    /// The induction variable, as seen inside the loop body.
    pub fn i(&self) -> Val {
        self.i_body
    }

    /// A carried or invariant value, as seen inside the loop body.
    ///
    /// # Panics
    ///
    /// Panics if `name` was not declared at [`KernelBuilder::loop_start`].
    pub fn var(&self, name: &str) -> Val {
        self.body_vals[name]
    }
}

/// An open `while` loop; see [`KernelBuilder::while_start`].
#[derive(Debug)]
pub struct WhileCtx {
    header_vals: HashMap<String, Val>,
    body_vals: HashMap<String, Val>,
    exit_vals: HashMap<String, Val>,
    invariants: Vec<String>,
    mux_of: HashMap<String, UnitId>,
    cmerge: UnitId,
    header_ctrl: Val,
    saved_exit_ctrl: Option<Val>,
    outer_bb: BasicBlockId,
}

impl WhileCtx {
    /// A tracked value: header-side before [`KernelBuilder::while_cond`],
    /// body-side after (including `extra` steered values).
    ///
    /// # Panics
    ///
    /// Panics if `name` is unknown.
    pub fn var(&self, name: &str) -> Val {
        if self.saved_exit_ctrl.is_some() || !self.body_vals.is_empty() {
            self.body_vals[name]
        } else {
            self.header_vals[name]
        }
    }
}

/// Values flowing out of a closed loop.
#[derive(Debug)]
pub struct LoopExit {
    /// Final value of the induction variable (first value failing the
    /// bound check).
    pub i_final: Val,
    finals: HashMap<String, Val>,
}

impl LoopExit {
    /// The post-loop value of a carried or invariant variable.
    ///
    /// # Panics
    ///
    /// Panics if `name` was not declared on the loop.
    pub fn var(&self, name: &str) -> Val {
        self.finals[name]
    }
}

/// Builder for one dataflow kernel. See the module documentation for the
/// lowering conventions.
#[derive(Debug)]
pub struct KernelBuilder {
    g: Graph,
    width: u16,
    nets: Vec<Net>,
    ctrl: Val,
    bb: BasicBlockId,
    counter: usize,
}

impl KernelBuilder {
    /// Starts a kernel named `name` with datapath width `width`.
    pub fn new(name: &str, width: u16) -> Self {
        let mut g = Graph::new(name);
        let bb = g.add_basic_block("entry");
        let entry = g
            .add_unit(UnitKind::Entry, "entry", bb, 0)
            .expect("fresh graph");
        let mut b = KernelBuilder {
            g,
            width,
            nets: Vec::new(),
            ctrl: Val(0),
            bb,
            counter: 0,
        };
        let ctrl = b.net(PortRef::new(entry, 0), 0);
        b.ctrl = ctrl;
        b
    }

    /// The kernel datapath width.
    pub fn width(&self) -> u16 {
        self.width
    }

    fn net(&mut self, src: PortRef, width: u16) -> Val {
        let v = Val(self.nets.len());
        self.nets.push(Net {
            src,
            width,
            consumers: Vec::new(),
        });
        v
    }

    fn fresh_name(&mut self, kind: &str) -> String {
        self.counter += 1;
        format!("{kind}{}", self.counter)
    }

    fn unit(&mut self, kind: UnitKind, label: &str, width: u16) -> UnitId {
        let name = self.fresh_name(label);
        self.g
            .add_unit(kind, name, self.bb, width)
            .expect("builder-generated units are well-formed")
    }

    fn consume(&mut self, v: Val, unit: UnitId, port: usize) {
        self.nets[v.0].consumers.push(Consumer {
            port: PortRef::new(unit, port),
            back_edge: false,
        });
    }

    fn consume_back(&mut self, v: Val, unit: UnitId, port: usize) {
        self.nets[v.0].consumers.push(Consumer {
            port: PortRef::new(unit, port),
            back_edge: true,
        });
    }

    /// Declares a scalar kernel argument.
    pub fn arg(&mut self, index: u8) -> Val {
        let u = self.unit(UnitKind::Argument { index }, "arg", self.width);
        self.net(PortRef::new(u, 0), self.width)
    }

    /// Registers a memory (array).
    pub fn memory(&mut self, name: &str, size: usize, init: Vec<u64>) -> MemoryId {
        self.g.add_memory(name, size, self.width, init)
    }

    /// A constant, triggered once per arrival of the *current control
    /// token* — create constants inside the loop body they are used in.
    pub fn constant(&mut self, value: u64) -> Val {
        let u = self.unit(UnitKind::Constant { value }, "const", self.width);
        let ctrl = self.ctrl;
        self.consume(ctrl, u, 0);
        self.net(PortRef::new(u, 0), self.width)
    }

    fn binary(&mut self, op: OpKind, a: Val, b: Val) -> Val {
        let u = self.unit(UnitKind::Operator(op), op.mnemonic(), self.width);
        self.consume(a, u, 0);
        self.consume(b, u, 1);
        let w = if op.is_comparison() { 1 } else { self.width };
        self.net(PortRef::new(u, 0), w)
    }

    /// `a + b`.
    pub fn add(&mut self, a: Val, b: Val) -> Val {
        self.binary(OpKind::Add, a, b)
    }

    /// `a - b`.
    pub fn sub(&mut self, a: Val, b: Val) -> Val {
        self.binary(OpKind::Sub, a, b)
    }

    /// `a * b` (pipelined multiplier).
    pub fn mul(&mut self, a: Val, b: Val) -> Val {
        self.binary(OpKind::Mul, a, b)
    }

    /// `a << k` (constant shift).
    pub fn shl(&mut self, a: Val, k: u8) -> Val {
        let u = self.unit(UnitKind::Operator(OpKind::ShlConst(k)), "shl", self.width);
        self.consume(a, u, 0);
        self.net(PortRef::new(u, 0), self.width)
    }

    /// `a >> k` (constant logical shift).
    pub fn shr(&mut self, a: Val, k: u8) -> Val {
        let u = self.unit(UnitKind::Operator(OpKind::ShrConst(k)), "shr", self.width);
        self.consume(a, u, 0);
        self.net(PortRef::new(u, 0), self.width)
    }

    /// Signed `a < b` (1-bit result).
    pub fn lt(&mut self, a: Val, b: Val) -> Val {
        self.binary(OpKind::Lt, a, b)
    }

    /// Bitwise AND of two 1-bit condition values.
    pub fn band(&mut self, a: Val, b: Val) -> Val {
        let u = self.unit(UnitKind::Operator(OpKind::And), "and", 1);
        self.consume(a, u, 0);
        self.consume(b, u, 1);
        self.net(PortRef::new(u, 0), 1)
    }

    /// Signed `a > b` (1-bit result).
    pub fn gt(&mut self, a: Val, b: Val) -> Val {
        self.binary(OpKind::Gt, a, b)
    }

    /// Signed `a >= b` (1-bit result).
    pub fn ge(&mut self, a: Val, b: Val) -> Val {
        self.binary(OpKind::Ge, a, b)
    }

    /// `cond ? a : b`.
    pub fn select(&mut self, cond: Val, a: Val, b: Val) -> Val {
        let u = self.unit(UnitKind::Operator(OpKind::Select), "select", self.width);
        self.consume(cond, u, 0);
        self.consume(a, u, 1);
        self.consume(b, u, 2);
        self.net(PortRef::new(u, 0), self.width)
    }

    /// `mem[addr]` (1-cycle BRAM load).
    pub fn load(&mut self, mem: MemoryId, addr: Val) -> Val {
        let u = self.unit(UnitKind::Load { mem }, "load", self.width);
        self.consume(addr, u, 0);
        self.net(PortRef::new(u, 0), self.width)
    }

    /// `mem[addr] = data`; returns the *done* control token. Pass it to
    /// [`KernelBuilder::seq`] to serialize against later iterations.
    pub fn store(&mut self, mem: MemoryId, addr: Val, data: Val) -> Val {
        let u = self.unit(UnitKind::Store { mem }, "store", self.width);
        self.consume(addr, u, 0);
        self.consume(data, u, 1);
        self.net(PortRef::new(u, 0), 0)
    }

    /// Joins a done token into the control flow: everything control-
    /// dependent downstream (constants, loop back edges, the exit) waits
    /// for it.
    pub fn seq(&mut self, done: Val) {
        let u = self.unit(UnitKind::join(2), "seqjoin", 0);
        let ctrl = self.ctrl;
        self.consume(ctrl, u, 0);
        self.consume(done, u, 1);
        self.ctrl = self.net(PortRef::new(u, 0), 0);
    }

    /// Opens a counted loop `for (i = lo; i < hi; ++i)`.
    ///
    /// `carried` values are loop-carried (a new value must be supplied to
    /// [`KernelBuilder::loop_end`]); `invariant` values circulate
    /// unchanged. Both are read inside the body via [`LoopCtx::var`]. The
    /// bound `hi` is threaded as an internal invariant automatically.
    pub fn loop_start(
        &mut self,
        lo: Val,
        hi: Val,
        carried: &[(&str, Val)],
        invariant: &[(&str, Val)],
    ) -> LoopCtx {
        let name = self.fresh_name("loop");
        let bb = self.g.add_basic_block(name);
        let outer_bb = std::mem::replace(&mut self.bb, bb);
        let w = self.width;

        // Control ring head: cmerge(outer ctrl, back ctrl).
        let cmerge = self.unit(UnitKind::ControlMerge { inputs: 2 }, "cmerge", 0);
        let outer_ctrl = self.ctrl;
        self.consume(outer_ctrl, cmerge, 0);
        let iter_ctrl = self.net(PortRef::new(cmerge, 0), 0);
        let index = self.net(PortRef::new(cmerge, 1), 1);

        // Data rings: mux(index; init, back).
        let mut mux_of = HashMap::default();
        let mut ring = |b: &mut Self, name: &str, init: Val, width: u16| -> Val {
            let mux = b.unit(UnitKind::mux(2), "mux", width);
            b.consume(index, mux, 0);
            b.consume(init, mux, 1);
            mux_of.insert(name.to_string(), mux);
            b.net(PortRef::new(mux, 0), width)
        };
        let i_cur = ring(self, "", lo, w);
        let hi_cur = ring(self, "\u{1}hi", hi, w);
        let mut cur_vals: HashMap<String, Val> = HashMap::default();
        let mut invariants = Vec::new();
        for (name, init) in carried {
            cur_vals.insert(name.to_string(), ring(self, name, *init, w));
        }
        for (name, init) in invariant {
            cur_vals.insert(name.to_string(), ring(self, name, *init, w));
            invariants.push(name.to_string());
        }

        // Loop condition and steering.
        let cond = self.lt(i_cur, hi_cur);
        let steer = |b: &mut Self, v: Val, width: u16| -> (Val, Val) {
            let br = b.unit(UnitKind::Branch, "br", width);
            b.consume(v, br, 0);
            b.consume(cond, br, 1);
            (
                b.net(PortRef::new(br, 0), width), // true: stay in loop
                b.net(PortRef::new(br, 1), width), // false: exit
            )
        };
        let (i_body, i_exit) = steer(self, i_cur, w);
        let (hi_body, _hi_out) = steer(self, hi_cur, w);
        let mut body_vals = HashMap::default();
        let mut exit_vals = HashMap::default();
        for (name, v) in &cur_vals {
            let (b_side, e_side) = steer(self, *v, w);
            body_vals.insert(name.clone(), b_side);
            exit_vals.insert(name.clone(), e_side);
        }
        body_vals.insert("\u{1}hi".to_string(), hi_body);
        invariants.push("\u{1}hi".to_string());
        let br_c = self.unit(UnitKind::Branch, "brc", 0);
        self.consume(iter_ctrl, br_c, 0);
        self.consume(cond, br_c, 1);
        let body_ctrl = self.net(PortRef::new(br_c, 0), 0);
        let exit_ctrl = self.net(PortRef::new(br_c, 1), 0);

        self.ctrl = body_ctrl;
        LoopCtx {
            i_body,
            i_exit,
            body_vals,
            exit_vals,
            invariants,
            mux_of,
            cmerge,
            saved_exit_ctrl: exit_ctrl,
            bb,
            outer_bb,
        }
    }

    /// Closes a loop: supplies the next value of every carried variable,
    /// wires all back edges (including `i + 1` and the control ring), and
    /// restores the post-loop control token.
    ///
    /// # Panics
    ///
    /// Panics if a carried variable declared at
    /// [`KernelBuilder::loop_start`] is missing from `nexts`.
    pub fn loop_end(&mut self, lp: LoopCtx, nexts: &[(&str, Val)]) -> LoopExit {
        let LoopCtx {
            i_body,
            i_exit,
            body_vals,
            exit_vals,
            invariants,
            mux_of,
            cmerge,
            saved_exit_ctrl,
            bb,
            outer_bb,
        } = lp;
        self.bb = bb;
        // i + 1 -> back into the induction mux.
        let one = self.constant(1);
        let i_next = self.add(i_body, one);
        self.consume_back(i_next, mux_of[""], 2);
        // hi and other invariants circulate unchanged.
        for name in &invariants {
            let v = body_vals[name];
            self.consume_back(v, mux_of[name.as_str()], 2);
        }
        // Carried variables take their supplied next value.
        let supplied: HashMap<&str, Val> = nexts.iter().map(|(n, v)| (*n, *v)).collect();
        for (name, mux) in &mux_of {
            if name.is_empty() || invariants.contains(name) {
                continue;
            }
            let v = *supplied
                .get(name.as_str())
                .unwrap_or_else(|| panic!("loop_end missing next value for {name:?}"));
            self.consume_back(v, *mux, 2);
        }
        // Control ring back edge (sequenced behind any seq() joins).
        let ctrl = self.ctrl;
        self.consume_back(ctrl, cmerge, 1);
        self.ctrl = saved_exit_ctrl;
        self.bb = outer_bb;
        LoopExit {
            i_final: i_exit,
            finals: exit_vals,
        }
    }

    /// Opens a general `while` loop over the named `carried` and
    /// `invariant` values (no implicit induction variable).
    ///
    /// Protocol: read header values with [`WhileCtx::var`], compute the
    /// continuation condition from them, call
    /// [`KernelBuilder::while_cond`], emit the body, and close with
    /// [`KernelBuilder::while_end`].
    pub fn while_start(&mut self, carried: &[(&str, Val)], invariant: &[(&str, Val)]) -> WhileCtx {
        let name = self.fresh_name("while");
        let bb = self.g.add_basic_block(name);
        let outer_bb = std::mem::replace(&mut self.bb, bb);
        let w = self.width;
        let cmerge = self.unit(UnitKind::ControlMerge { inputs: 2 }, "cmerge", 0);
        let outer_ctrl = self.ctrl;
        self.consume(outer_ctrl, cmerge, 0);
        let iter_ctrl = self.net(PortRef::new(cmerge, 0), 0);
        let index = self.net(PortRef::new(cmerge, 1), 1);
        let mut mux_of = HashMap::default();
        let mut header_vals = HashMap::default();
        let mut invariants = Vec::new();
        for (name, init) in carried.iter().chain(invariant) {
            let mux = self.unit(UnitKind::mux(2), "mux", w);
            self.consume(index, mux, 0);
            self.consume(*init, mux, 1);
            mux_of.insert(name.to_string(), mux);
            header_vals.insert(name.to_string(), self.net(PortRef::new(mux, 0), w));
        }
        for (name, _) in invariant {
            invariants.push(name.to_string());
        }
        // The header control token is available for header-phase constants.
        self.ctrl = iter_ctrl;
        WhileCtx {
            header_vals,
            body_vals: HashMap::default(),
            exit_vals: HashMap::default(),
            invariants,
            mux_of,
            cmerge,
            header_ctrl: iter_ctrl,
            saved_exit_ctrl: None,
            outer_bb,
        }
    }

    /// Supplies the while condition (computed from header values) and
    /// steers every tracked value into body/exit sides. `extra` values
    /// computed during the header phase (e.g. a load feeding the
    /// condition) are steered too so they can be reused in the body.
    pub fn while_cond(&mut self, wl: &mut WhileCtx, cond: Val, extra: &[(&str, Val)]) {
        let w = self.width;
        let names: Vec<String> = wl.header_vals.keys().cloned().collect();
        for name in names {
            let v = wl.header_vals[&name];
            let br = self.unit(UnitKind::Branch, "br", w);
            self.consume(v, br, 0);
            self.consume(cond, br, 1);
            wl.body_vals
                .insert(name.clone(), self.net(PortRef::new(br, 0), w));
            wl.exit_vals
                .insert(name.clone(), self.net(PortRef::new(br, 1), w));
        }
        for (name, v) in extra {
            let width = self.nets[v.0].width;
            let br = self.unit(UnitKind::Branch, "br", width);
            self.consume(*v, br, 0);
            self.consume(cond, br, 1);
            wl.body_vals
                .insert(name.to_string(), self.net(PortRef::new(br, 0), width));
            // The exit side of extras is discarded (auto-sunk).
            let _ = self.net(PortRef::new(br, 1), width);
        }
        let br_c = self.unit(UnitKind::Branch, "brc", 0);
        let hdr_ctrl = wl.header_ctrl;
        self.consume(hdr_ctrl, br_c, 0);
        self.consume(cond, br_c, 1);
        let body_ctrl = self.net(PortRef::new(br_c, 0), 0);
        let exit_ctrl = self.net(PortRef::new(br_c, 1), 0);
        wl.saved_exit_ctrl = Some(exit_ctrl);
        self.ctrl = body_ctrl;
    }

    /// Closes a while loop, wiring the back edges.
    ///
    /// # Panics
    ///
    /// Panics if [`KernelBuilder::while_cond`] was not called, or a
    /// carried value is missing from `nexts`.
    pub fn while_end(&mut self, wl: WhileCtx, nexts: &[(&str, Val)]) -> LoopExit {
        let WhileCtx {
            body_vals,
            exit_vals,
            invariants,
            mux_of,
            cmerge,
            saved_exit_ctrl,
            outer_bb,
            ..
        } = wl;
        assert!(
            saved_exit_ctrl.is_some(),
            "while_cond must run before while_end"
        );
        for name in &invariants {
            let v = body_vals[name.as_str()];
            self.consume_back(v, mux_of[name.as_str()], 2);
        }
        let supplied: HashMap<&str, Val> = nexts.iter().map(|(n, v)| (*n, *v)).collect();
        for (name, mux) in &mux_of {
            if invariants.contains(name) {
                continue;
            }
            let v = *supplied
                .get(name.as_str())
                .unwrap_or_else(|| panic!("while_end missing next value for {name:?}"));
            self.consume_back(v, *mux, 2);
        }
        let ctrl = self.ctrl;
        self.consume_back(ctrl, cmerge, 1);
        self.ctrl = saved_exit_ctrl.expect("checked above");
        self.bb = outer_bb;
        LoopExit {
            i_final: self.ctrl, // while loops have no induction variable
            finals: exit_vals,
        }
    }

    /// Finishes the kernel with a data result: materializes forks/sinks,
    /// connects the exit, and validates.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from materialization (which indicates a
    /// builder-usage bug such as width mismatches).
    pub fn finish_with_value(mut self, ret: Val) -> Result<BuiltKernel, GraphError> {
        let w = self.nets[ret.0].width;
        let exit = self.unit(UnitKind::Exit, "exit", w);
        self.consume(ret, exit, 0);
        self.materialize()
    }

    /// Finishes a kernel whose result lives in memory: the exit consumes
    /// the final control token (which [`KernelBuilder::seq`] ordering
    /// guarantees arrives after every store).
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from materialization.
    pub fn finish_with_ctrl(mut self) -> Result<BuiltKernel, GraphError> {
        let exit = self.unit(UnitKind::Exit, "exit", 0);
        let ctrl = self.ctrl;
        self.consume(ctrl, exit, 0);
        self.materialize()
    }

    fn materialize(mut self) -> Result<BuiltKernel, GraphError> {
        let mut back_edges = Vec::new();
        for n in 0..self.nets.len() {
            let src = self.nets[n].src;
            let width = self.nets[n].width;
            let consumers = std::mem::take(&mut self.nets[n].consumers);
            match consumers.len() {
                0 => {
                    let name = self.fresh_name("sink");
                    let sink = self.g.add_unit(UnitKind::Sink, name, self.bb, width)?;
                    self.g.connect(src, PortRef::new(sink, 0))?;
                }
                1 => {
                    let ch = self.g.connect(src, consumers[0].port)?;
                    if consumers[0].back_edge {
                        back_edges.push(ch);
                    }
                }
                n_use => {
                    let name = self.fresh_name("fork");
                    let fork = self.g.add_unit(
                        UnitKind::Fork {
                            outputs: n_use as u8,
                        },
                        name,
                        self.bb,
                        width,
                    )?;
                    self.g.connect(src, PortRef::new(fork, 0))?;
                    for (k, c) in consumers.iter().enumerate() {
                        let ch = self.g.connect(PortRef::new(fork, k), c.port)?;
                        if c.back_edge {
                            back_edges.push(ch);
                        }
                    }
                }
            }
        }
        self.g.validate()?;
        Ok(BuiltKernel {
            graph: self.g,
            back_edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_kernel_builds() {
        let mut k = KernelBuilder::new("t", 16);
        let a = k.arg(0);
        let b = k.arg(1);
        let s = k.add(a, b);
        let built = k.finish_with_value(s).unwrap();
        assert!(built.back_edges.is_empty());
        built.graph.validate().unwrap();
    }

    #[test]
    fn multi_use_inserts_fork() {
        let mut k = KernelBuilder::new("t", 16);
        let a = k.arg(0);
        let s = k.add(a, a); // two uses of a
        let built = k.finish_with_value(s).unwrap();
        let g = &built.graph;
        let has_fork = g
            .units()
            .any(|(_, u)| matches!(u.kind(), UnitKind::Fork { outputs: 2 }));
        assert!(has_fork, "expected an auto-inserted fork:\n{}", g.to_dot());
    }

    #[test]
    fn unused_value_gets_sunk() {
        let mut k = KernelBuilder::new("t", 16);
        let a = k.arg(0);
        let b = k.arg(1);
        let _dead = k.sub(a, b);
        let s = k.add(a, b);
        let built = k.finish_with_value(s).unwrap();
        let sinks = built
            .graph
            .units()
            .filter(|(_, u)| matches!(u.kind(), UnitKind::Sink))
            .count();
        // The dead subtraction plus the unused entry control token.
        assert_eq!(sinks, 2);
    }

    #[test]
    fn while_loop_builds_and_runs_via_outer_harness() {
        // while (j >= 1) { j -= 1 }  starting from j = arg-ish constant 5;
        // returns the final j (= 0).
        let mut k = KernelBuilder::new("wl", 16);
        let j0 = k.constant(5);
        let mut wl = k.while_start(&[("j", j0)], &[]);
        let one = k.constant(1);
        let jh = wl.var("j");
        let cond = k.ge(jh, one);
        k.while_cond(&mut wl, cond, &[]);
        let oneb = k.constant(1);
        let jn = k.sub(wl.var("j"), oneb);
        let we = k.while_end(wl, &[("j", jn)]);
        let built = k.finish_with_value(we.var("j")).unwrap();
        assert_eq!(built.back_edges.len(), 2); // ctrl ring + j ring
        built.graph.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "missing next value")]
    fn loop_end_requires_all_carried() {
        let mut k = KernelBuilder::new("t", 16);
        let lo = k.constant(0);
        let hi = k.constant(4);
        let s0 = k.constant(0);
        let lp = k.loop_start(lo, hi, &[("s", s0)], &[]);
        let _ = lp.var("s");
        let _ = k.loop_end(lp, &[]); // forgot "s"
    }

    #[test]
    fn nested_loops_share_no_rings() {
        let mut k = KernelBuilder::new("nest", 16);
        let lo = k.constant(0);
        let hi = k.constant(2);
        let outer = k.loop_start(lo, hi, &[], &[]);
        let ilo = k.constant(0);
        let ihi = k.constant(2);
        let inner = k.loop_start(ilo, ihi, &[], &[("oi", outer.i())]);
        let _ = inner.var("oi");
        let _ = k.loop_end(inner, &[]);
        let _ = k.loop_end(outer, &[]);
        let built = k.finish_with_ctrl().unwrap();
        // outer: ctrl + i + hi = 3 rings; inner: ctrl + i + hi + oi = 4.
        assert_eq!(built.back_edges.len(), 7);
        let cycles = dataflow::enumerate_simple_cycles(&built.graph, 10_000);
        for &be in &built.back_edges {
            assert!(cycles.iter().any(|c| c.contains(&be)));
        }
    }

    #[test]
    fn loop_produces_back_edges() {
        // s = 0; for i in 0..n { s += i }
        let mut k = KernelBuilder::new("t", 16);
        let n = k.arg(0);
        let zero = k.constant(0);
        let zero2 = k.constant(0);
        let lp = k.loop_start(zero, n, &[("s", zero2)], &[]);
        let s2 = k.add(lp.var("s"), lp.i());
        let done = k.loop_end(lp, &[("s", s2)]);
        let built = k.finish_with_value(done.var("s")).unwrap();
        // Rings: ctrl + i + hi + s = 4 back edges.
        assert_eq!(built.back_edges.len(), 4);
        for &ch in &built.back_edges {
            let c = built.graph.channel(ch);
            assert_eq!(c.buffer(), dataflow::BufferSpec::NONE);
        }
    }
}
