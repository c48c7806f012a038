//! Mapping-aware frequency regulation for dataflow circuits.
//!
//! This crate implements the contribution of *"An Iterative Method for
//! Mapping-Aware Frequency Regulation in Dataflow Circuits"* (Rizzi,
//! Guerrieri, Josipović — DAC 2023):
//!
//! 1. [`synth`] — one "synthesis run": elaborate the dataflow graph to
//!    gates, optimize, and map to K-LUTs (the ABC stage of Figure 4);
//! 2. [`lutdfg`] — the LUT-edge → DFG-path mapping of Section IV-A
//!    (one-to-one, one-to-many resolved to the path with fewest units,
//!    one-to-none resolved through timing-domain interaction points or an
//!    artificial edge — Section IV-D);
//! 3. [`timing`] — the mapping-aware timing model of Section IV-B: real
//!    delay nodes (one per LUT) and *fake* zero-delay nodes placed along
//!    the mapped DFG paths, with channel-labeled (breakable) edges;
//! 4. [`penalty`] — the logic-sharing penalty of Section IV-C (Eq. 2);
//! 5. [`cfdfc`] — choice-free dataflow circuit extraction with simulated
//!    execution frequencies (the profiling Dynamatic performs on C code);
//! 6. [`place`] — the buffer-placement MILP (Eq. 1 / Eq. 3) with
//!    marked-graph throughput constraints and lazily generated
//!    critical-path covering cuts;
//! 7. [`iterate`] — the iterative flow of Figure 4 and Section V;
//! 8. [`baseline`] — the mapping-agnostic state-of-the-art baseline
//!    (pre-characterized isolated-unit delays, single MILP run);
//! 9. [`report`] — post-"place & route" measurement: LUTs, FFs, logic
//!    levels, clock period (with the fanout-based routing model), cycle
//!    counts and execution time — the columns of Table I.
//!
//! Cross-cutting infrastructure: [`synth::SynthCache`] memoizes synthesis
//! runs on structural graph fingerprints (iterations, slack probes and
//! measurements repeat graphs constantly), and [`trace::FlowTrace`]
//! reports where each flow run's wall clock went.

pub mod baseline;
pub mod cfdfc;
pub mod domains;
pub mod iterate;
pub mod lutdfg;
pub mod penalty;
pub mod place;
pub mod report;
pub mod slack;
pub mod synth;
pub mod timing;
pub mod trace;

pub use baseline::{
    baseline_timing_graph, characterize_units, characterize_units_jobs, optimize_baseline,
    optimize_baseline_with_cache,
};
pub use cfdfc::{extract_cfdfcs, extract_cfdfcs_traced, Cfdfc};
pub use domains::is_interaction_unit;
pub use iterate::{
    apply_buffers, optimize_iterative, optimize_iterative_with_cache, FlowError, FlowOptions,
    FlowResult, IterationRecord,
};
pub use lutdfg::{
    map_lut_edges, map_lut_edges_cached, ClassifyCache, EdgeTarget, LutDfgMap, MappedEdge,
};
pub use penalty::compute_penalties;
pub use place::{
    build_placement_model, place_buffers, place_buffers_warm, Objective, PlaceError,
    PlacementProblem, PlacementResult,
};
pub use report::{
    clock_period_ns, measure, measure_traced, utilization, CircuitReport, MeasureError,
};
pub use sim::{SimEngine, SimOptions};
pub use slack::{slack_match_traced, SlackOptions};
pub use synth::{synthesize, SynthCache, SynthDelta, SynthHandle, SynthOptions, Synthesis};
pub use timing::{CriticalPath, TimingEdge, TimingGraph, TimingNode, TimingNodeId};
pub use trace::{FlowTrace, SimStats};
