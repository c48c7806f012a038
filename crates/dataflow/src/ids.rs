//! Typed identifiers for graph entities.
//!
//! Each id is a newtype over a dense index into the owning [`Graph`]'s
//! storage, providing static distinction between units, channels, basic
//! blocks and memories (C-NEWTYPE).
//!
//! [`Graph`]: crate::Graph

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Creates an id from a raw index.
            ///
            /// Ids are normally minted by the owning [`Graph`](crate::Graph);
            /// constructing one manually is useful for tables keyed by id.
            pub fn from_raw(index: u32) -> Self {
                Self(index)
            }

            /// Returns the raw dense index of this id.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a dataflow unit within a [`Graph`](crate::Graph).
    UnitId,
    "u"
);
define_id!(
    /// Identifier of a channel (a point-to-point handshake connection).
    ChannelId,
    "c"
);
define_id!(
    /// Identifier of a basic block of the source program.
    BasicBlockId,
    "bb"
);
define_id!(
    /// Identifier of a memory (array) accessed by load/store units.
    MemoryId,
    "m"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(UnitId::from_raw(3).to_string(), "u3");
        assert_eq!(ChannelId::from_raw(0).to_string(), "c0");
        assert_eq!(BasicBlockId::from_raw(7).to_string(), "bb7");
        assert_eq!(MemoryId::from_raw(1).to_string(), "m1");
    }

    #[test]
    fn round_trips_raw_index() {
        let id = UnitId::from_raw(42);
        assert_eq!(id.index(), 42);
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(UnitId::from_raw(1) < UnitId::from_raw(2));
    }
}
