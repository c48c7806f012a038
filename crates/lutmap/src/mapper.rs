//! Phase 2 of FlowMap: LUT generation from the labeled cuts, plus the
//! public mapping entry point.
//!
//! LUT discovery (assigning [`LutId`]s by walking the needed frontier) is
//! inherently serial and kept so — it fixes the id order every downstream
//! consumer sees. The per-LUT *packing* work (cone cover + majority
//! origin), which dominates the phase, is a pure function of the root and
//! its cut, so it fans out over scoped threads and commits in [`LutId`]
//! order: the network is bit-identical at any job count.

use crate::flowmap::{compute_labels_seeded, CombView, Labeling, MapSeed, MapStats};
use crate::network::{Lut, LutId, LutInput, LutNetwork};
use dataflow::collections::{HashMap, HashSet};
use dataflow::UnitId;
use netlist::{GateId, GateKind, Netlist, NetlistMatching, Origin};
use std::fmt;

/// Minimum LUT count before packing is fanned out over threads.
const PACK_PAR_MIN: usize = 64;

/// Options for [`map_netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapOptions {
    /// LUT input count; the paper uses `if -K 6` (K = 6). Must be ≥ 3
    /// (the widest primitive gate is a 3-input mux).
    pub k: usize,
    /// Which min cut realizes each label, at identical (optimal) depth.
    /// `true` takes the sink-side min cut, the one nearest the root: the
    /// smallest cone a LUT of that label can cover. `false` takes the
    /// source-side min cut, the max-volume one: the LUT swallows as many
    /// gates as its label allows. Despite the field's name, `true` (the
    /// default, behind every Table I LUT count) is not the max-volume cut.
    pub area_recovery: bool,
    /// Worker threads for LUT packing (labeling is serial). Results are
    /// bit-identical at any value; `0` is treated as `1`.
    pub jobs: usize,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            k: 6,
            area_recovery: true,
            jobs: crate::default_jobs(),
        }
    }
}

/// Errors from technology mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapError {
    /// The netlist has a combinational cycle (a dataflow cycle without an
    /// opaque buffer); the offending gates are listed.
    CombinationalCycle(Vec<GateId>),
    /// `k` was smaller than the widest primitive gate (3).
    KTooSmall(usize),
    /// A mapping root had no FlowMap label/cut — the labeling does not
    /// cover the netlist (malformed input rather than a mapper bug, so it
    /// is reported instead of panicking).
    MissingLabel(GateId),
    /// Gate-level elaboration of the dataflow graph failed before mapping
    /// could start (e.g. a dangling port on an unvalidated graph).
    Elaborate(netlist::ElaborateError),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::CombinationalCycle(gs) => {
                write!(f, "combinational cycle through {} gates", gs.len())
            }
            MapError::KTooSmall(k) => write!(f, "K = {k} is below the minimum of 3"),
            MapError::MissingLabel(g) => write!(f, "no FlowMap label for mapped gate {g}"),
            MapError::Elaborate(e) => write!(f, "elaboration failed: {e}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<netlist::ElaborateError> for MapError {
    fn from(e: netlist::ElaborateError) -> Self {
        MapError::Elaborate(e)
    }
}

/// Maps the live combinational logic of `nl` onto K-input LUTs.
///
/// The netlist should be [optimized](Netlist::optimize) first; aliases are
/// resolved transparently but unoptimized redundancy inflates area.
///
/// # Errors
///
/// Returns [`MapError::CombinationalCycle`] if the live logic is cyclic and
/// [`MapError::KTooSmall`] for `k < 3`.
pub fn map_netlist(nl: &Netlist, opts: &MapOptions) -> Result<LutNetwork, MapError> {
    map_netlist_with_seed(nl, opts, None).map(|(net, _, _)| net)
}

/// [`map_netlist`] with optional reuse of a previous mapping's labels.
///
/// When `seed` is given, FlowMap labels and cuts are copied from the seed
/// for every gate the [`NetlistMatching`] pairs, skipping the per-gate
/// max-flow computation; unmatched gates are labeled from scratch. The
/// resulting [`LutNetwork`] is **bit-identical** to what an unseeded run
/// produces (see [`netlist::match_netlists`] for why), only faster.
///
/// Also returns the run's own labels as a [`MapSeed`] for the next
/// iteration, and the reuse counters.
///
/// # Errors
///
/// Same as [`map_netlist`].
pub fn map_netlist_with_seed(
    nl: &Netlist,
    opts: &MapOptions,
    seed: Option<(&MapSeed, &NetlistMatching)>,
) -> Result<(LutNetwork, MapSeed, MapStats), MapError> {
    if opts.k < 3 {
        return Err(MapError::KTooSmall(opts.k));
    }
    let view = CombView::build(nl).map_err(MapError::CombinationalCycle)?;
    let (labeling, mut stats) = compute_labels_seeded(&view, opts.k, opts.area_recovery, seed);
    let net = lut_cover(nl, &view, &labeling, opts.k, opts.jobs)?;
    stats.luts_packed = net.num_luts();
    Ok((net, MapSeed::from_labeling(&view, labeling), stats))
}

/// Generates the LUT cover from a labeling. Shared by the dense mapper and
/// the reference mapper so both produce networks through identical code.
pub(crate) fn lut_cover(
    nl: &Netlist,
    view: &CombView,
    labeling: &Labeling,
    k: usize,
    jobs: usize,
) -> Result<LutNetwork, MapError> {
    // Mapping roots: logic gates observed by registers, keeps, or — for
    // robustness — any non-logic live gate (e.g. a register D pin).
    let live = nl.live_mask();
    let mut needed: Vec<GateId> = Vec::new();
    let mut seen: HashSet<GateId> = HashSet::default();
    let push_root = |g: GateId, needed: &mut Vec<GateId>, seen: &mut HashSet<GateId>| {
        let g = nl.resolve(g);
        if view.is_logic(g) && seen.insert(g) {
            needed.push(g);
        }
    };
    for (id, gate) in nl.gates() {
        if !live[id.index()] {
            continue;
        }
        match gate.kind() {
            GateKind::Reg => push_root(gate.fanin()[0], &mut needed, &mut seen),
            GateKind::RegEn => {
                push_root(gate.fanin()[0], &mut needed, &mut seen);
                push_root(gate.fanin()[1], &mut needed, &mut seen);
            }
            _ => {}
        }
    }
    for (g, _) in nl.keeps() {
        push_root(*g, &mut needed, &mut seen);
    }

    // LUT discovery: walk the needed frontier, assigning ids in visit
    // order (this order is what every downstream consumer keys on, so it
    // stays serial and identical to the original single-pass loop).
    let mut roots: Vec<(GateId, u32)> = Vec::new();
    let mut lut_of_gate: HashMap<GateId, LutId> = HashMap::default();
    let mut frontier = needed;
    while let Some(root) = frontier.pop() {
        if lut_of_gate.contains_key(&root) {
            continue;
        }
        let d = view.dense_of(root).ok_or(MapError::MissingLabel(root))?;
        if labeling.label_of(d) == 0 {
            return Err(MapError::MissingLabel(root));
        }
        let id = LutId::from_raw(roots.len() as u32);
        lut_of_gate.insert(root, id);
        roots.push((root, d));
        for &c in labeling.cut_of(d) {
            if view.is_logic(c) && !lut_of_gate.contains_key(&c) && seen.insert(c) {
                frontier.push(c);
            }
        }
    }

    // Packing: per-LUT cover + origin, independent per root, committed in
    // LutId order.
    let packed = pack_luts(nl, view, labeling, &roots, jobs);
    let mut luts: Vec<Lut> = roots
        .iter()
        .zip(packed)
        .map(|(&(root, _), (gates, origin))| Lut {
            root,
            inputs: Vec::new(), // filled below once all LUTs exist
            gates,
            origin,
            level: 0,
        })
        .collect();

    // Wire LUT inputs now that every needed root has an id.
    for (lut, &(_, d)) in luts.iter_mut().zip(&roots) {
        let inputs: Vec<LutInput> = labeling
            .cut_of(d)
            .iter()
            .map(|&c| match lut_of_gate.get(&c) {
                Some(&l) => LutInput::Lut(l),
                None => LutInput::Start(c),
            })
            .collect();
        lut.inputs = inputs;
    }

    // Levels: LUT DAG is acyclic; compute by memoized DFS.
    let mut levels: Vec<Option<u32>> = vec![None; luts.len()];
    for i in 0..luts.len() {
        let _ = compute_level(&luts, i, &mut levels);
    }
    for (i, lut) in luts.iter_mut().enumerate() {
        lut.level = levels[i].expect("level computed");
    }

    Ok(LutNetwork { luts, k })
}

/// Packs every discovered LUT: cover DFS + majority origin. Fans out over
/// scoped threads when the cover is large enough to pay for them; each
/// worker owns one [`PackScratch`], and chunk results are concatenated in
/// root order, so output never depends on scheduling.
fn pack_luts(
    nl: &Netlist,
    view: &CombView,
    labeling: &Labeling,
    roots: &[(GateId, u32)],
    jobs: usize,
) -> Vec<(Vec<GateId>, Origin)> {
    let jobs = jobs.max(1);
    if jobs <= 1 || roots.len() < PACK_PAR_MIN {
        let mut scratch = PackScratch::new(view.num_gates());
        return roots
            .iter()
            .map(|&(root, d)| pack_one(nl, view, root, labeling.cut_of(d), &mut scratch))
            .collect();
    }
    let chunk_len = roots.len().div_ceil(jobs);
    let chunks: Vec<&[(GateId, u32)]> = roots.chunks(chunk_len).collect();
    let outs: Vec<Vec<(Vec<GateId>, Origin)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let chunk: &[(GateId, u32)] = chunk;
                scope.spawn(move || {
                    let mut scratch = PackScratch::new(view.num_gates());
                    chunk
                        .iter()
                        .map(|&(root, d)| {
                            pack_one(nl, view, root, labeling.cut_of(d), &mut scratch)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    outs.into_iter().flatten().collect()
}

fn pack_one(
    nl: &Netlist,
    view: &CombView,
    root: GateId,
    cut: &[GateId],
    scratch: &mut PackScratch,
) -> (Vec<GateId>, Origin) {
    let covered = covered_gates(view, root, cut, scratch);
    let origin = majority_origin(nl, &covered);
    (covered, origin)
}

/// Epoch-stamped scratch for the cover DFS (no per-LUT set allocation).
struct PackScratch {
    /// `cut_stamp[g] == epoch` marks cut membership.
    cut_stamp: Vec<u32>,
    /// `seen_stamp[g] == epoch` marks visited cone nodes.
    seen_stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<GateId>,
}

impl PackScratch {
    fn new(num_gates: usize) -> Self {
        PackScratch {
            cut_stamp: vec![0; num_gates],
            seen_stamp: vec![0; num_gates],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.cut_stamp.iter_mut().for_each(|s| *s = 0);
            self.seen_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

fn compute_level(luts: &[Lut], i: usize, levels: &mut Vec<Option<u32>>) -> u32 {
    if let Some(l) = levels[i] {
        return l;
    }
    // Mark to catch accidental cycles (they cannot occur in a valid cover).
    levels[i] = Some(u32::MAX);
    let mut max_in = 0;
    for input in &luts[i].inputs {
        if let LutInput::Lut(src) = input {
            let l = compute_level(luts, src.index(), levels);
            assert_ne!(l, u32::MAX, "cyclic LUT cover");
            max_in = max_in.max(l);
        }
    }
    let l = max_in + 1;
    levels[i] = Some(l);
    l
}

/// Gates covered by the LUT rooted at `root` with boundary `cut`:
/// everything reachable backwards from `root` without crossing the cut.
fn covered_gates(
    view: &CombView,
    root: GateId,
    cut: &[GateId],
    scratch: &mut PackScratch,
) -> Vec<GateId> {
    let epoch = scratch.next_epoch();
    for &c in cut {
        scratch.cut_stamp[c.index()] = epoch;
    }
    let mut covered = Vec::new();
    scratch.stack.clear();
    scratch.stack.push(root);
    scratch.seen_stamp[root.index()] = epoch;
    while let Some(u) = scratch.stack.pop() {
        covered.push(u);
        // Covered nodes are logic by construction (only logic fanins are
        // pushed, and the root is a mapping root).
        if let Some(du) = view.dense_of(u) {
            for &f in view.fanins_of(du) {
                if scratch.cut_stamp[f.index()] != epoch
                    && view.is_logic(f)
                    && scratch.seen_stamp[f.index()] != epoch
                {
                    scratch.seen_stamp[f.index()] = epoch;
                    scratch.stack.push(f);
                }
            }
        }
    }
    covered
}

/// The paper's LUT labeling rule: "the operation that contributes most to
/// computing the LUT output value". Unit origins outrank channel-buffer
/// origins, which outrank external glue; ties break on gate count, then on
/// the lowest id for determinism.
fn majority_origin(nl: &Netlist, covered: &[GateId]) -> Origin {
    let mut unit_counts: HashMap<UnitId, usize> = HashMap::default();
    let mut chan_counts: HashMap<dataflow::ChannelId, usize> = HashMap::default();
    for &g in covered {
        match nl.gate(g).origin() {
            Origin::Unit(u) => *unit_counts.entry(u).or_default() += 1,
            Origin::Channel(c) => *chan_counts.entry(c).or_default() += 1,
            Origin::External => {}
        }
    }
    if let Some((&u, _)) = unit_counts
        .iter()
        .max_by_key(|(u, &n)| (n, std::cmp::Reverse(u.index())))
    {
        return Origin::Unit(u);
    }
    if let Some((&c, _)) = chan_counts
        .iter()
        .max_by_key(|(c, &n)| (n, std::cmp::Reverse(c.index())))
    {
        return Origin::Channel(c);
    }
    Origin::External
}

#[cfg(test)]
mod tests {
    use super::*;

    const O: Origin = Origin::External;

    fn opts(k: usize, area_recovery: bool) -> MapOptions {
        MapOptions {
            k,
            area_recovery,
            jobs: 1,
        }
    }

    #[test]
    fn maps_wide_and_into_two_levels() {
        let mut nl = Netlist::new();
        let inputs: Vec<GateId> = (0..8).map(|_| nl.input(O)).collect();
        let root = nl.and_tree(&inputs, O);
        nl.add_keep(root, "out");
        let net = map_netlist(&nl, &MapOptions::default()).unwrap();
        assert_eq!(net.depth(), 2); // depth-optimal (FlowMap guarantee)
        assert!(net.num_luts() <= 3); // area is heuristic, not optimal
                                      // Every LUT is K-feasible.
        for (_, lut) in net.luts() {
            assert!(lut.inputs().len() <= 6);
        }
    }

    #[test]
    fn area_recovery_reduces_lut_count() {
        // The 8-input AND tree: the sink-side cuts (`area_recovery: true`)
        // must do no worse here than the source-side, max-volume cuts, at
        // identical (optimal) depth.
        let mk = |area| {
            let mut nl = Netlist::new();
            let inputs: Vec<GateId> = (0..8).map(|_| nl.input(O)).collect();
            let root = nl.and_tree(&inputs, O);
            nl.add_keep(root, "out");
            map_netlist(&nl, &opts(6, area)).unwrap()
        };
        let basic = mk(false);
        let recovered = mk(true);
        assert_eq!(basic.depth(), recovered.depth(), "depth is invariant");
        assert!(
            recovered.num_luts() <= basic.num_luts(),
            "recovery {} > basic {}",
            recovered.num_luts(),
            basic.num_luts()
        );
        // (The globally optimal 2-LUT cover needs an asymmetric cut that
        // min-cut-based recovery cannot produce; 3 is FlowMap's answer.)
    }

    #[test]
    fn registers_break_levels() {
        let mut nl = Netlist::new();
        let inputs: Vec<GateId> = (0..8).map(|_| nl.input(O)).collect();
        let half1 = nl.and_tree(&inputs[..4], O);
        let r = nl.reg(half1, O);
        let upper = nl.and_tree(&inputs[4..], O);
        let root = nl.and(r, upper, O);
        nl.add_keep(root, "out");
        let net = map_netlist(&nl, &MapOptions::default()).unwrap();
        // Each side fits one LUT; the register resets the level count.
        assert_eq!(net.depth(), 1);
    }

    #[test]
    fn rejects_tiny_k() {
        let nl = Netlist::new();
        assert_eq!(
            map_netlist(&nl, &opts(2, true)).unwrap_err(),
            MapError::KTooSmall(2)
        );
    }

    #[test]
    fn reports_combinational_cycles() {
        let mut nl = Netlist::new();
        let a = nl.input(O);
        let al = nl.forward_alias(O);
        let g = nl.and(al, a, O);
        nl.bind_alias(al, g); // g -> alias -> g
        nl.add_keep(g, "out");
        assert!(matches!(
            map_netlist(&nl, &MapOptions::default()),
            Err(MapError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn origin_majority_prefers_units() {
        let mut nl = Netlist::new();
        let u = Origin::Unit(UnitId::from_raw(7));
        let a = nl.input(O);
        let b = nl.input(O);
        let g1 = nl.and(a, b, u);
        let g2 = nl.or(g1, a, O);
        nl.add_keep(g2, "out");
        let net = map_netlist(&nl, &MapOptions::default()).unwrap();
        assert_eq!(net.num_luts(), 1);
        let (_, lut) = net.luts().next().unwrap();
        assert_eq!(lut.origin(), u);
    }

    #[test]
    fn lut_edges_connect_levels() {
        let mut nl = Netlist::new();
        let inputs: Vec<GateId> = (0..12).map(|_| nl.input(O)).collect();
        let root = nl.and_tree(&inputs, O);
        nl.add_keep(root, "out");
        let net = map_netlist(&nl, &MapOptions::default()).unwrap();
        let edges = net.lut_edges();
        assert!(!edges.is_empty());
        for (src, dst) in edges {
            assert!(net.lut(src).level() < net.lut(dst).level());
        }
    }

    #[test]
    fn seeded_mapping_is_bit_identical_and_reuses_labels() {
        // Two structurally overlapping netlists: `cur` adds a register
        // stage on one branch (shifting all gate ids) but leaves a large
        // AND-tree cone untouched.
        let build = |extra: bool| {
            let mut nl = Netlist::new();
            if extra {
                let d = nl.input(Origin::Channel(dataflow::ChannelId::from_raw(5)));
                let r = nl.reg(d, Origin::Channel(dataflow::ChannelId::from_raw(5)));
                nl.add_keep(r, "buf");
            }
            let inputs: Vec<GateId> = (0..10).map(|_| nl.input(O)).collect();
            let tree = nl.and_tree(&inputs, O);
            let extra_or = nl.or(tree, inputs[0], O);
            nl.add_keep(extra_or, "out");
            nl.optimize();
            nl
        };
        let prev = build(false);
        let cur = build(true);
        let opts = MapOptions::default();
        let (_, prev_seed, _) = map_netlist_with_seed(&prev, &opts, None).unwrap();
        let matching = netlist::match_netlists(&prev, &cur);
        let (fresh, _, fresh_stats) = map_netlist_with_seed(&cur, &opts, None).unwrap();
        let (seeded, _, seeded_stats) =
            map_netlist_with_seed(&cur, &opts, Some((&prev_seed, &matching))).unwrap();
        assert!(seeded_stats.labels_reused > 0, "no labels reused");
        assert_eq!(
            seeded_stats.labels_reused + seeded_stats.labels_computed,
            fresh_stats.labels_computed
        );
        assert_eq!(seeded_stats.luts_packed, fresh_stats.luts_packed);
        // Bit-identical cover.
        assert!(fresh.bit_identical(&seeded));
    }

    #[test]
    fn covered_gates_partition_contains_all_live_logic() {
        let mut nl = Netlist::new();
        let inputs: Vec<GateId> = (0..6).map(|_| nl.input(O)).collect();
        let x = nl.and(inputs[0], inputs[1], O);
        let y = nl.or(inputs[2], inputs[3], O);
        let z = nl.xor(inputs[4], inputs[5], O);
        let m = nl.mux(x, y, z, O);
        let r = nl.reg(m, O);
        nl.add_keep(r, "out");
        let net = map_netlist(&nl, &MapOptions::default()).unwrap();
        let covered: HashSet<GateId> = net
            .luts()
            .flat_map(|(_, l)| l.gates().iter().copied())
            .collect();
        for g in [x, y, z, m] {
            assert!(covered.contains(&g), "{g} not covered");
        }
    }
}
