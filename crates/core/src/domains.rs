//! Timing domains and their interaction points (Section IV-D).
//!
//! A dataflow circuit's signals split into *timing domains*: the datapath,
//! the forward `valid` network, and the backward `ready` network. Within
//! one domain, combinational paths follow (or exactly oppose) the DFG's
//! directed channels, so LUT edges are easy to map (Section IV-A). The
//! domains *interact* only inside specific units — a branch mixes a data
//! value (the condition) into both handshake directions, a mux routes its
//! select token into the data domain, a control merge converts arrival
//! order (valid domain) into an index value (data domain).
//!
//! The paper leans on the model of Rizzi et al. [FPL'22] for "a list of
//! all DFG nodes where domains interact"; this module derives the same
//! list structurally from the unit kinds ([`is_interaction_unit`]), and
//! the LUT→DFG mapper uses it to resolve LUT edges that no directed path
//! explains (Figure 3).

use dataflow::{OpKind, UnitKind};

/// `true` if `kind`'s logic mixes timing domains — condition bits steering
/// handshakes, select tokens steering data, arrival order becoming data.
pub fn is_interaction_unit(kind: &UnitKind) -> bool {
    matches!(
        kind,
        UnitKind::Branch
            | UnitKind::Mux { .. }
            | UnitKind::ControlMerge { .. }
            | UnitKind::Merge { .. }
            | UnitKind::Operator(OpKind::Select)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branches_and_muxes_interact() {
        assert!(is_interaction_unit(&UnitKind::Branch));
        assert!(is_interaction_unit(&UnitKind::mux(2)));
        assert!(is_interaction_unit(&UnitKind::ControlMerge { inputs: 2 }));
        assert!(is_interaction_unit(&UnitKind::Operator(OpKind::Select)));
        assert!(!is_interaction_unit(&UnitKind::fork(2)));
        assert!(!is_interaction_unit(&UnitKind::join(2)));
        assert!(!is_interaction_unit(&UnitKind::Operator(OpKind::Add)));
    }
}
