//! Memories (arrays) accessed by load/store units.

/// A word-addressed memory accessed by [`UnitKind::Load`] and
/// [`UnitKind::Store`] units.
///
/// The simulator instantiates one array per memory; the netlist backend
/// models each access port as a 1-cycle synchronous BRAM port.
///
/// [`UnitKind::Load`]: crate::UnitKind::Load
/// [`UnitKind::Store`]: crate::UnitKind::Store
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    pub(crate) name: String,
    pub(crate) size: usize,
    pub(crate) width: u16,
    pub(crate) init: Vec<u64>,
}

impl Memory {
    /// The memory's name (e.g. the C array identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of addressable words.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Word width in bits.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Initial contents (missing trailing words are zero).
    pub fn init(&self) -> &[u64] {
        &self.init
    }
}
