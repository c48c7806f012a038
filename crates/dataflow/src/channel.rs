//! Channels: point-to-point handshake connections between unit ports.

use crate::ids::UnitId;
use std::fmt;

/// A reference to one port of one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortRef {
    /// The unit owning the port.
    pub unit: UnitId,
    /// The port index within the unit's inputs or outputs (the direction is
    /// implied by the position: channel sources are outputs, destinations
    /// are inputs).
    pub port: usize,
}

impl PortRef {
    /// Creates a port reference.
    pub fn new(unit: UnitId, port: usize) -> Self {
        Self { unit, port }
    }
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.unit, self.port)
    }
}

/// Buffering placed on a channel.
///
/// Following Dynamatic's buffer library, a channel can carry an *opaque*
/// buffer (a full elastic buffer: breaks the data and valid combinational
/// paths, adds one cycle of latency and one storage slot) and/or a
/// *transparent* buffer (breaks the ready path, adds a slot without
/// latency). The paper's optimizer decides opaque placement; transparent
/// slots accompany opaque ones to restore full throughput (capacity 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct BufferSpec {
    /// Breaks data/valid; +1 cycle latency; +1 slot.
    pub opaque: bool,
    /// Breaks ready; +1 slot, no latency.
    pub transparent: bool,
}

impl BufferSpec {
    /// No buffering (the default).
    pub const NONE: BufferSpec = BufferSpec {
        opaque: false,
        transparent: false,
    };

    /// A full throughput-preserving buffer: opaque + transparent pair
    /// (capacity 2, latency 1) — what the optimizer places.
    pub const FULL: BufferSpec = BufferSpec {
        opaque: true,
        transparent: true,
    };

    /// An opaque-only buffer (capacity 1, latency 1).
    pub const OPAQUE: BufferSpec = BufferSpec {
        opaque: true,
        transparent: false,
    };

    /// A transparent-only buffer (capacity 1, latency 0).
    pub const TRANSPARENT: BufferSpec = BufferSpec {
        opaque: false,
        transparent: true,
    };

    /// `true` if no buffer is present.
    pub fn is_none(&self) -> bool {
        !self.opaque && !self.transparent
    }

    /// Total token storage capacity added to the channel.
    pub fn slots(&self) -> u32 {
        self.opaque as u32 + self.transparent as u32
    }

    /// Sequential latency added to the channel (cycles).
    pub fn latency(&self) -> u32 {
        self.opaque as u32
    }
}

impl fmt::Display for BufferSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.opaque, self.transparent) {
            (false, false) => f.write_str("-"),
            (true, false) => f.write_str("OB"),
            (false, true) => f.write_str("TB"),
            (true, true) => f.write_str("OB+TB"),
        }
    }
}

/// A handshake channel between a producer port and a consumer port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    pub(crate) src: PortRef,
    pub(crate) dst: PortRef,
    pub(crate) width: u16,
    pub(crate) buffer: BufferSpec,
}

impl Channel {
    /// Producer port (an output of `src.unit`).
    pub fn src(&self) -> PortRef {
        self.src
    }

    /// Consumer port (an input of `dst.unit`).
    pub fn dst(&self) -> PortRef {
        self.dst
    }

    /// Payload width in bits (0 = control-only token).
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Buffering currently placed on this channel.
    pub fn buffer(&self) -> BufferSpec {
        self.buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_spec_costs() {
        assert_eq!(BufferSpec::NONE.slots(), 0);
        assert_eq!(BufferSpec::FULL.slots(), 2);
        assert_eq!(BufferSpec::FULL.latency(), 1);
        assert_eq!(BufferSpec::TRANSPARENT.latency(), 0);
    }

    #[test]
    fn buffer_spec_display() {
        assert_eq!(BufferSpec::NONE.to_string(), "-");
        assert_eq!(BufferSpec::FULL.to_string(), "OB+TB");
        assert_eq!(BufferSpec::OPAQUE.to_string(), "OB");
    }

    #[test]
    fn port_ref_display() {
        let p = PortRef::new(crate::UnitId::from_raw(4), 1);
        assert_eq!(p.to_string(), "u4.1");
    }
}
