//! FlowMap labeling: depth-optimal K-feasible cut computation.
//!
//! For every logic gate `t` (in topological order) we compute its *label*
//! `l(t)` — the depth of `t` in a depth-optimal K-LUT mapping — and a
//! K-feasible cut realizing that label. The classic FlowMap theorem states
//! `l(t) ∈ {p, p+1}` with `p` the maximum fanin label, decided by a
//! max-flow ≤ K test on the fanin cone with all label-`p` nodes collapsed
//! into the sink (Cong & Ding, 1994).
//!
//! # Dense layout
//!
//! Labels and cuts live in flat arrays indexed by a *dense* per-netlist
//! logic-gate index (assigned in topological order); cuts share one pooled
//! arena addressed by `(offset, len)` spans. Gates are labeled serially in
//! that order.
//!
//! # The max-flow test without a network
//!
//! Node capacities are 1, so each gate carries at most one unit of flow,
//! and where it goes (a fanout gate, the sink, or nowhere) is the whole
//! residual graph. [`LabelScratch`] keeps that state per gate, epoch-stamped,
//! and each augmenting path is searched backwards from the sink with the
//! neighbours derived on the fly from the view's fanins. A path search
//! thus starts next to the collapsed region at the top of the cone and
//! stops at the first startpoint it reaches, instead of sweeping the cone
//! from its bottom. The cut is read off the final, failing search, which
//! the theory makes independent of the paths taken; `crate::reference`
//! retains the original explicit-network labeler as the oracle that pins
//! every label and cut.

use netlist::{GateId, Netlist, NetlistMatching};

/// Sentinel for "no dense index" / "unmatched gate".
const NONE: u32 = u32::MAX;

/// The combinational DAG view of a netlist: live logic gates with resolved
/// (alias-free) fanins, stored as flat arrays indexed by a dense logic
/// index assigned in topological order.
#[derive(Debug)]
pub(crate) struct CombView {
    /// Logic gates in topological order; position = dense index.
    pub topo: Vec<GateId>,
    /// `GateId::index() → dense index` ([`NONE`] for non-logic gates).
    dense: Vec<u32>,
    /// Fanin arena: fanins of dense gate `d` are
    /// `fanin_pool[fanin_offs[d]..fanin_offs[d + 1]]`.
    fanin_offs: Vec<u32>,
    fanin_pool: Vec<GateId>,
    /// Total gate count of the source netlist (scratch sizing).
    num_gates: usize,
}

impl CombView {
    /// Extracts the view; fails on combinational cycles.
    pub fn build(nl: &Netlist) -> Result<Self, Vec<GateId>> {
        let order = nl.topo_logic()?;
        let num_gates = nl.num_gates();
        let mut dense = vec![NONE; num_gates];
        let mut topo = Vec::new();
        let mut fanin_offs = vec![0u32];
        let mut fanin_pool: Vec<GateId> = Vec::new();
        for id in order {
            let g = nl.gate(id);
            if !g.kind().is_logic() {
                continue; // skip aliases
            }
            // A gate may see the same net twice (e.g. AND(x, x) pre-opt);
            // keep adjacent duplicates out of cut computations by deduping
            // here (resolved fanins, like `Vec::dedup` on the old layout).
            let start = fanin_pool.len();
            for &f in g.fanin() {
                let r = nl.resolve(f);
                if fanin_pool.len() > start && fanin_pool[fanin_pool.len() - 1] == r {
                    continue;
                }
                fanin_pool.push(r);
            }
            dense[id.index()] = topo.len() as u32;
            topo.push(id);
            fanin_offs.push(fanin_pool.len() as u32);
        }

        Ok(CombView {
            topo,
            dense,
            fanin_offs,
            fanin_pool,
            num_gates,
        })
    }

    /// `true` if `g` is an internal (logic) node of the view.
    #[inline]
    pub fn is_logic(&self, g: GateId) -> bool {
        self.dense.get(g.index()).is_some_and(|&d| d != NONE)
    }

    /// The dense index of `g`, if `g` is a logic node of the view.
    #[inline]
    pub fn dense_of(&self, g: GateId) -> Option<u32> {
        match self.dense.get(g.index()) {
            Some(&d) if d != NONE => Some(d),
            _ => None,
        }
    }

    /// Resolved fanins of the dense gate `d`.
    #[inline]
    pub fn fanins_of(&self, d: u32) -> &[GateId] {
        &self.fanin_pool
            [self.fanin_offs[d as usize] as usize..self.fanin_offs[d as usize + 1] as usize]
    }

    /// Number of logic gates.
    #[inline]
    pub fn num_logic(&self) -> usize {
        self.topo.len()
    }

    /// Total gates of the source netlist (for scratch sizing).
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }
}

/// Result of the labeling phase: flat per-dense-gate labels plus a pooled
/// cut arena.
#[derive(Debug)]
pub(crate) struct Labeling {
    /// `label[dense]` for logic gates (always ≥ 1 once computed).
    label: Vec<u32>,
    /// `(offset, len)` into [`Labeling::cut_pool`] per dense gate.
    cut_span: Vec<(u32, u32)>,
    cut_pool: Vec<GateId>,
}

impl Labeling {
    fn with_capacity(n: usize) -> Self {
        Labeling {
            label: vec![0; n],
            cut_span: vec![(0, 0); n],
            // Most cuts are 2-6 gates; 4·n is a good first guess.
            cut_pool: Vec::with_capacity(4 * n),
        }
    }

    /// The label of the dense gate `d`.
    #[inline]
    pub fn label_of(&self, d: u32) -> u32 {
        self.label[d as usize]
    }

    /// The chosen K-feasible cut of the dense gate `d`.
    #[inline]
    pub fn cut_of(&self, d: u32) -> &[GateId] {
        let (s, n) = self.cut_span[d as usize];
        &self.cut_pool[s as usize..(s + n) as usize]
    }

    fn push(&mut self, d: u32, label: u32, cut: &[GateId]) {
        self.label[d as usize] = label;
        let start = self.cut_pool.len() as u32;
        self.cut_pool.extend_from_slice(cut);
        self.cut_span[d as usize] = (start, cut.len() as u32);
    }

    /// Densifies a `HashMap`-backed labeling (the reference labeler's
    /// output) so it can share the LUT-generation phase.
    pub fn from_maps(
        view: &CombView,
        label: &dataflow::collections::HashMap<GateId, u32>,
        cut: &dataflow::collections::HashMap<GateId, Vec<GateId>>,
    ) -> Self {
        let mut out = Labeling::with_capacity(view.num_logic());
        for (d, &g) in view.topo.iter().enumerate() {
            if let (Some(&l), Some(c)) = (label.get(&g), cut.get(&g)) {
                out.push(d as u32, l, c);
            }
        }
        out
    }
}

/// Labeling reuse statistics of one [`map_netlist_with_seed`](crate::map_netlist_with_seed) run.
///
/// Every field is a pure function of the input netlist/seed pair — the
/// counts are bit-identical at any job count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapStats {
    /// Labels (and cuts) copied from the seed through the matching.
    pub labels_reused: usize,
    /// Labels computed by the max-flow test from scratch.
    pub labels_computed: usize,
    /// LUTs packed by the cover phase (one packing task each).
    pub luts_packed: usize,
}

/// A previous run's labels and cuts, expressed in *that run's* gate ids,
/// stored densely by gate index (label `0` marks an unlabeled gate; real
/// labels are always ≥ 1).
///
/// Captured by [`map_netlist_with_seed`](crate::map_netlist_with_seed) and
/// consumed by a later run together with a
/// [`NetlistMatching`] that translates between the two id spaces.
#[derive(Debug)]
pub struct MapSeed {
    /// FlowMap label per `GateId::index()` of the producing netlist.
    label: Vec<u32>,
    /// `(offset, len)` into [`MapSeed::cut_pool`] per gate index.
    span: Vec<(u32, u32)>,
    cut_pool: Vec<GateId>,
}

impl MapSeed {
    /// Re-keys a [`Labeling`] from dense indices to the producing
    /// netlist's gate indices (the id space a later matching translates).
    pub(crate) fn from_labeling(view: &CombView, labeling: Labeling) -> Self {
        let mut label = vec![0u32; view.num_gates()];
        let mut span = vec![(0u32, 0u32); view.num_gates()];
        for (d, &g) in view.topo.iter().enumerate() {
            label[g.index()] = labeling.label[d];
            span[g.index()] = labeling.cut_span[d];
        }
        MapSeed {
            label,
            span,
            cut_pool: labeling.cut_pool,
        }
    }

    fn lookup_raw(&self, raw: u32) -> Option<(u32, &[GateId])> {
        match self.label.get(raw as usize) {
            Some(&l) if l > 0 => {
                let (s, n) = self.span[raw as usize];
                Some((l, &self.cut_pool[s as usize..(s + n) as usize]))
            }
            _ => None,
        }
    }

    /// The label and cut recorded for gate `g` of the producing netlist.
    pub fn lookup(&self, g: GateId) -> Option<(u32, &[GateId])> {
        self.lookup_raw(g.index() as u32)
    }

    /// Iterates over `(gate, label, cut)` for every labeled gate, in gate
    /// id order. Exposed so tests and benches can compare two labelings
    /// without reaching into the storage layout.
    pub fn entries(&self) -> impl Iterator<Item = (GateId, u32, &[GateId])> + '_ {
        self.label
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l > 0)
            .map(move |(i, &l)| {
                let (s, n) = self.span[i];
                (
                    GateId::from_raw(i as u32),
                    l,
                    &self.cut_pool[s as usize..(s + n) as usize],
                )
            })
    }

    /// Gate count of the producing netlist.
    fn num_gates(&self) -> usize {
        self.label.len()
    }
}

/// A [`NetlistMatching`] densified to flat gate-index arrays, so the seed
/// path of the labeler performs no hashing.
struct DenseSeed<'a> {
    seed: &'a MapSeed,
    /// Current gate index → raw previous gate id ([`NONE`] = unmatched).
    prev_of: Vec<u32>,
    /// Previous gate index → raw current gate id ([`NONE`] = unmatched).
    cur_of: Vec<u32>,
}

impl<'a> DenseSeed<'a> {
    fn build(seed: &'a MapSeed, m: &NetlistMatching, cur_gates: usize) -> Self {
        let (cur_of, prev_of) = m.dense_maps(seed.num_gates(), cur_gates);
        DenseSeed {
            seed,
            prev_of,
            cur_of,
        }
    }

    /// The seed label and cut matched to current gate `t`, if any.
    fn lookup(&self, t: GateId) -> Option<(u32, &'a [GateId])> {
        match self.prev_of.get(t.index()) {
            Some(&p) if p != NONE => self.seed.lookup_raw(p),
            _ => None,
        }
    }

    /// Translates a previous-run cut into current gate ids. Returns
    /// `false` (leaving `out` unusable) if any cut gate is unmatched — the
    /// caller then falls through to a fresh label computation. A matched
    /// root's whole cone is matched, so this cannot occur for well-formed
    /// matchings; falling through (instead of keeping a partial cut) makes
    /// the seed path safe against malformed ones in release builds too.
    fn translate(&self, cut: &[GateId], out: &mut Vec<GateId>) -> bool {
        out.clear();
        for &g in cut {
            match self.cur_of.get(g.index()) {
                Some(&c) if c != NONE => out.push(GateId::from_raw(c)),
                _ => return false,
            }
        }
        true
    }
}

/// Computes FlowMap labels and cuts for every logic gate.
///
/// With `sink_side` set, the K-feasible cut realizing each label is the
/// sink-side min cut: the gates whose out-side can still reach the sink in
/// the residual graph and whose in-side cannot. It is the min cut nearest
/// the root, so its LUT covers the fewest gates. Otherwise it is the
/// source-side min cut, read off the nodes the source reaches: the
/// max-volume cut, whose LUT swallows as many gates as the label allows.
/// Both realize the same, optimal label.
#[cfg(test)]
pub(crate) fn compute_labels(view: &CombView, k: usize, sink_side: bool) -> Labeling {
    compute_labels_seeded(view, k, sink_side, None).0
}

/// [`compute_labels`] with optional reuse of a previous run's results.
///
/// For every gate the matching pairs with a seed gate, the seed's label
/// and cut are copied (cut gate ids translated through the matching)
/// instead of re-running the max-flow test. This is **exact**, not
/// heuristic: a matched gate's entire fanin cone is matched
/// order-isomorphically (see [`netlist::match_netlists`]), labels and min
/// cuts are deterministic pure functions of the cone structure walked in
/// fanin order, so the copied values are bit-identical to what the fresh
/// computation would produce — including every label the fresh run would
/// have read while processing *unmatched* gates downstream.
pub(crate) fn compute_labels_seeded(
    view: &CombView,
    k: usize,
    sink_side: bool,
    seed: Option<(&MapSeed, &NetlistMatching)>,
) -> (Labeling, MapStats) {
    let mut labeling = Labeling::with_capacity(view.num_logic());
    let mut stats = MapStats::default();
    let dense_seed = seed.map(|(s, m)| DenseSeed::build(s, m, view.num_gates()));
    let fanouts = (!sink_side).then(|| Fanouts::build(view));
    let mut scratch = LabelScratch::new(view.num_gates());
    // Topological order: every fanin cone is labeled before its root.
    for d in 0..view.num_logic() as u32 {
        let (label, reused) = label_one_gate(
            view,
            &labeling.label,
            dense_seed.as_ref(),
            d,
            k,
            fanouts.as_ref(),
            &mut scratch,
        );
        if reused {
            stats.labels_reused += 1;
        } else {
            stats.labels_computed += 1;
        }
        labeling.push(d, label, &scratch.cut_out);
    }
    (labeling, stats)
}

/// The label of `f` as seen by the labeler: 0 for startpoints, the
/// committed label for logic gates earlier in topological order.
#[inline]
fn label_of(view: &CombView, labels: &[u32], f: GateId) -> u32 {
    match view.dense_of(f) {
        Some(fd) => labels[fd as usize],
        None => 0,
    }
}

/// Labels one gate; the chosen cut is left in `scratch.cut_out`. With
/// `source_side` set, the cut is the source-side min cut, else the
/// sink-side one (see [`compute_labels`]).
fn label_one_gate(
    view: &CombView,
    labels: &[u32],
    seed: Option<&DenseSeed<'_>>,
    d: u32,
    k: usize,
    source_side: Option<&Fanouts>,
    scratch: &mut LabelScratch,
) -> (u32, bool) {
    let t = view.topo[d as usize];
    if let Some(ds) = seed {
        if let Some((pl, pc)) = ds.lookup(t) {
            if ds.translate(pc, &mut scratch.cut_out) {
                return (pl, true);
            }
            // Unmatched cut gate under a matched root: fall through to a
            // fresh computation for this gate (see DenseSeed::translate).
        }
    }
    let fanins = view.fanins_of(d);
    let p = fanins
        .iter()
        .map(|&f| label_of(view, labels, f))
        .max()
        .unwrap_or(0);
    if p == 0 {
        // Directly fed by startpoints: depth 1, trivial cut.
        debug_assert!(fanins.len() <= k, "gate arity exceeds K");
        scratch.cut_out.clear();
        scratch.cut_out.extend_from_slice(fanins);
        return (1, false);
    }
    if min_cut_with_collapsed(view, labels, t, p, k, source_side, scratch) {
        (p, false)
    } else {
        scratch.cut_out.clear();
        scratch.cut_out.extend_from_slice(fanins);
        (p + 1, false)
    }
}

/// Flow state of a gate that carries no flow.
const NO_FLOW: u32 = u32::MAX;
/// Flow state of a gate whose unit of flow enters the sink (through a
/// collapsed fanout).
const TO_SINK: u32 = u32::MAX - 1;
/// Search successor of a sink predecessor's out-side: the sink itself.
const SINK: u32 = u32::MAX;

/// The in-side of gate `g` in the split-node flow network. Gate `g` is
/// split into an in-side `2g` and an out-side `2g + 1` joined by a
/// unit-capacity edge; every other edge has infinite capacity.
#[inline]
fn in_side(g: GateId) -> usize {
    2 * g.index()
}

/// The out-side of gate `g` (see [`in_side`]).
#[inline]
fn out_side(g: GateId) -> usize {
    2 * g.index() + 1
}

/// The gate a split node belongs to.
#[inline]
fn gate_of(node: usize) -> GateId {
    GateId::from_raw((node >> 1) as u32)
}

/// Fanouts of every gate within the view's logic, by gate index: the
/// forward adjacency the source-side cut search needs. Built only when a
/// caller asks for source-side cuts.
struct Fanouts {
    offs: Vec<u32>,
    pool: Vec<GateId>,
}

impl Fanouts {
    fn build(view: &CombView) -> Self {
        let n = view.num_gates();
        let mut offs = vec![0u32; n + 1];
        for d in 0..view.num_logic() as u32 {
            for f in view.fanins_of(d) {
                offs[f.index() + 1] += 1;
            }
        }
        for i in 0..n {
            offs[i + 1] += offs[i];
        }
        let mut cursor = offs[..n].to_vec();
        let mut pool = vec![GateId::from_raw(0); offs[n] as usize];
        for (d, &g) in view.topo.iter().enumerate() {
            for f in view.fanins_of(d as u32) {
                pool[cursor[f.index()] as usize] = g;
                cursor[f.index()] += 1;
            }
        }
        Fanouts { offs, pool }
    }

    fn of(&self, g: GateId) -> &[GateId] {
        &self.pool[self.offs[g.index()] as usize..self.offs[g.index() + 1] as usize]
    }
}

/// Reusable scratch for the max-flow label test, one per labeling run:
/// the per-gate flow state that stands for the residual graph (see the
/// module docs) and the search and walk marks, all epoch-stamped, so
/// nothing is cleared or reallocated per gate.
struct LabelScratch {
    /// Per gate: the epoch of the test that wrote the entry, and the flow
    /// state ([`NO_FLOW`], [`TO_SINK`], or the fanout gate's index).
    flow: Vec<(u32, u32)>,
    /// Per split node: the epoch of the last search that reached it.
    seen: Vec<u32>,
    /// Per split node: the node it was reached from, one step nearer the
    /// sink (the backward search) — valid where `seen` is current.
    succ: Vec<u32>,
    /// Per gate: the epoch of the last collapsed-region or cone walk that
    /// visited it.
    stamp: Vec<u32>,
    epoch: u32,
    /// The epoch of the current test; flow entries of older tests read as
    /// [`NO_FLOW`].
    test: u32,
    /// The sink's predecessors: non-collapsed fanins of the collapsed
    /// region.
    sink_preds: Vec<GateId>,
    /// The cone in walk order (source-side cuts only).
    cone: Vec<GateId>,
    stack: Vec<u32>,
    /// The chosen cut of the most recent gate.
    cut_out: Vec<GateId>,
}

impl LabelScratch {
    fn new(num_gates: usize) -> Self {
        assert!(num_gates < 1 << 31, "split-node ids must fit in u32");
        LabelScratch {
            flow: vec![(0, NO_FLOW); num_gates],
            seen: vec![0; 2 * num_gates],
            succ: vec![0; 2 * num_gates],
            stamp: vec![0; num_gates],
            epoch: 0,
            test: 0,
            sink_preds: Vec::new(),
            cone: Vec::new(),
            stack: Vec::new(),
            cut_out: Vec::new(),
        }
    }

    /// Starts one max-flow test. A test draws at most `k + 5` epochs (its
    /// own, the collapsed-region walk's, `k + 1` searches, the cone walk's
    /// and the source-side search's), so the counter is reset here, never
    /// in the middle of a test.
    fn begin_test(&mut self, k: usize) {
        if ((u32::MAX - self.epoch) as usize) < k.saturating_add(5) {
            self.flow.iter_mut().for_each(|f| f.0 = 0);
            self.seen.iter_mut().for_each(|s| *s = 0);
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.test = self.next_epoch();
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    /// The flow state of gate `g` in the current test.
    #[inline]
    fn flow_of(&self, g: GateId) -> u32 {
        match self.flow[g.index()] {
            (e, to) if e == self.test => to,
            _ => NO_FLOW,
        }
    }

    /// Marks `node` reached in the search of `epoch`, `from` one step
    /// nearer the sink; `false` if it was reached already.
    #[inline]
    fn reach(&mut self, node: usize, from: u32, epoch: u32) -> bool {
        if self.seen[node] == epoch {
            return false;
        }
        self.seen[node] = epoch;
        self.succ[node] = from;
        true
    }

    /// Collects the sink's predecessors: walks down from `t` through the
    /// label-`p` logic gates (the collapsed region, which labels being
    /// monotone keeps connected) and lists each other fanin once.
    fn collect_sink_preds(&mut self, view: &CombView, labels: &[u32], t: GateId, p: u32) {
        let e = self.next_epoch();
        self.sink_preds.clear();
        self.stack.clear();
        self.stack.push(t.index() as u32);
        self.stamp[t.index()] = e;
        while let Some(c) = self.stack.pop() {
            let dc = view.dense[c as usize];
            for &f in view.fanins_of(dc) {
                if self.stamp[f.index()] == e {
                    continue;
                }
                self.stamp[f.index()] = e;
                match view.dense_of(f) {
                    Some(df) if labels[df as usize] == p => self.stack.push(f.index() as u32),
                    _ => self.sink_preds.push(f),
                }
            }
        }
    }

    /// One augmenting-path search, backwards from the sink over reversed
    /// residual edges:
    /// - the sink's predecessors are the out-sides of `sink_preds`;
    /// - an out-side's predecessor is its own in-side if the gate carries
    ///   no flow, else the in-side of the gate its flow enters (cancelling
    ///   that flow);
    /// - an in-side's predecessors are its fanins' out-sides and, if the
    ///   gate carries flow, its own out-side. The source feeds every
    ///   startpoint's in-side, so reaching one completes a path.
    ///
    /// On success one unit of flow is pushed along the path. On failure
    /// the search has reached exactly the nodes that can reach the sink.
    fn augment(&mut self, view: &CombView) -> bool {
        let e = self.next_epoch();
        self.stack.clear();
        let preds = std::mem::take(&mut self.sink_preds);
        for &f in &preds {
            if self.reach(out_side(f), SINK, e) {
                self.stack.push(out_side(f) as u32);
            }
        }
        self.sink_preds = preds;
        while let Some(v) = self.stack.pop() {
            let v = v as usize;
            let g = gate_of(v);
            let flow = self.flow_of(g);
            if v == out_side(g) {
                let w = match flow {
                    NO_FLOW => g,
                    TO_SINK => continue,
                    w => GateId::from_raw(w),
                };
                if self.reach(in_side(w), v as u32, e) {
                    if !view.is_logic(w) {
                        self.push_path(in_side(w));
                        return true;
                    }
                    self.stack.push(in_side(w) as u32);
                }
            } else {
                // Only logic gates' in-sides are stacked.
                for &f in view.fanins_of(view.dense[g.index()]) {
                    if self.reach(out_side(f), v as u32, e) {
                        self.stack.push(out_side(f) as u32);
                    }
                }
                if flow != NO_FLOW && self.reach(out_side(g), v as u32, e) {
                    self.stack.push(out_side(g) as u32);
                }
            }
        }
        false
    }

    /// Pushes one unit of flow from the startpoint in-side `start` to the
    /// sink along the search's successor links. Each out-side on the path
    /// takes its flow state from the step that leaves it: into another
    /// gate's in-side (that gate), into the sink, or back into its own
    /// in-side (the gate's flow is cancelled).
    fn push_path(&mut self, start: usize) {
        let mut v = start;
        loop {
            let next = self.succ[v];
            let g = gate_of(v);
            if v == out_side(g) {
                let to = if next == SINK {
                    TO_SINK
                } else if gate_of(next as usize) == g {
                    NO_FLOW
                } else {
                    next >> 1
                };
                self.flow[g.index()] = (self.test, to);
            }
            if next == SINK {
                return;
            }
            v = next as usize;
        }
    }

    /// The sink-side cut of the current (maximum) flow, read off the final
    /// search, which failed: every gate whose out-side that search reached
    /// and whose in-side it did not. The cut has `total` gates (the flow
    /// value), so the cone walk that orders them stops at the last one.
    fn sink_side_cut(&mut self, view: &CombView, t: GateId, total: usize) {
        let last = self.epoch;
        let walk = self.next_epoch();
        let LabelScratch {
            seen,
            stamp,
            stack,
            cut_out,
            ..
        } = self;
        walk_cone(view, t, stamp, walk, stack, |u| {
            if seen[out_side(u)] == last && seen[in_side(u)] != last {
                cut_out.push(u);
            }
            cut_out.len() < total
        });
    }

    /// The source-side cut of the current (maximum) flow: a forward
    /// residual search from the cone's startpoints, then every gate whose
    /// in-side it reached and whose out-side it did not, in cone walk
    /// order. The search stays inside `t`'s cone and out of the collapsed
    /// region.
    fn source_side_cut(
        &mut self,
        view: &CombView,
        fanouts: &Fanouts,
        t: GateId,
        collapsed: impl Fn(GateId) -> bool,
    ) {
        let walk = self.next_epoch();
        let LabelScratch {
            stamp, stack, cone, ..
        } = self;
        cone.clear();
        walk_cone(view, t, stamp, walk, stack, |u| {
            cone.push(u);
            true
        });
        let e = self.next_epoch();
        self.stack.clear();
        let cone = std::mem::take(&mut self.cone);
        for &u in &cone {
            if !view.is_logic(u) && self.reach(in_side(u), 0, e) {
                self.stack.push(in_side(u) as u32);
            }
        }
        self.cone = cone;
        while let Some(v) = self.stack.pop() {
            let v = v as usize;
            let g = gate_of(v);
            let flow = self.flow_of(g);
            let next = |s: &mut Self, node: usize| {
                if s.reach(node, 0, e) {
                    s.stack.push(node as u32);
                }
            };
            if v == out_side(g) {
                for &w in fanouts.of(g) {
                    if self.stamp[w.index()] == walk && !collapsed(w) {
                        next(self, in_side(w));
                    }
                }
                if flow != NO_FLOW {
                    next(self, in_side(g));
                }
            } else {
                if flow == NO_FLOW {
                    next(self, out_side(g));
                }
                if let Some(d) = view.dense_of(g) {
                    for &f in view.fanins_of(d) {
                        if self.flow_of(f) == g.index() as u32 {
                            next(self, out_side(f));
                        }
                    }
                }
            }
        }
        let LabelScratch {
            seen,
            cone,
            cut_out,
            ..
        } = self;
        cut_out.extend(
            cone.iter()
                .filter(|u| seen[in_side(**u)] == e && seen[out_side(**u)] != e),
        );
    }
}

/// Walks `t`'s fanin cone depth first, calling `visit` on each gate in pop
/// order until it returns `false`. This is the order in which the
/// reference labeler numbers the cone's flow-network nodes, and so the
/// order in which it lists a cut.
fn walk_cone(
    view: &CombView,
    t: GateId,
    stamp: &mut [u32],
    epoch: u32,
    stack: &mut Vec<u32>,
    mut visit: impl FnMut(GateId) -> bool,
) {
    stack.clear();
    stack.push(t.index() as u32);
    stamp[t.index()] = epoch;
    while let Some(u) = stack.pop() {
        let u = GateId::from_raw(u);
        if !visit(u) {
            return;
        }
        if let Some(du) = view.dense_of(u) {
            for &f in view.fanins_of(du) {
                if stamp[f.index()] != epoch {
                    stamp[f.index()] = epoch;
                    stack.push(f.index() as u32);
                }
            }
        }
    }
}

/// Max-flow test: collapse `t` and all cone nodes labeled `p` into the
/// sink; if a node cut of size ≤ k exists between the startpoints and the
/// sink, leave it in `scratch.cut_out` (as netlist gates) and return
/// `true`.
///
/// Augmenting paths are searched from the sink (see
/// [`LabelScratch::augment`]), at most `k + 1` of them. Every maximum flow
/// leaves the same set of nodes that can reach the sink, and the same set
/// reachable from the source, so the sink-side cut read off the final,
/// failing search (and the source-side cut, when `source_side` carries the
/// fanouts it needs) equals the reference labeler's whichever paths were
/// taken. It is listed in the reference's order: the cone's depth-first
/// pop order.
fn min_cut_with_collapsed(
    view: &CombView,
    labels: &[u32],
    t: GateId,
    p: u32,
    k: usize,
    source_side: Option<&Fanouts>,
    scratch: &mut LabelScratch,
) -> bool {
    scratch.begin_test(k);
    scratch.collect_sink_preds(view, labels, t, p);
    let mut total = 0usize;
    while total <= k && scratch.augment(view) {
        total += 1;
    }
    if total > k {
        return false;
    }

    scratch.cut_out.clear();
    match source_side {
        None => scratch.sink_side_cut(view, t, total),
        Some(fanouts) => scratch.source_side_cut(view, fanouts, t, |u| {
            u == t || view.dense_of(u).is_some_and(|d| labels[d as usize] == p)
        }),
    }
    debug_assert!(scratch.cut_out.len() <= k, "min cut exceeded K");
    debug_assert!(!scratch.cut_out.is_empty(), "empty cut for {t}");
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{map_netlist_reference, LutInput, MapOptions};
    use netlist::Origin;

    const O: Origin = Origin::External;

    fn label_of_gate(view: &CombView, lab: &Labeling, g: GateId) -> u32 {
        lab.label_of(view.dense_of(g).expect("logic gate"))
    }

    fn cut_of_gate<'a>(view: &CombView, lab: &'a Labeling, g: GateId) -> &'a [GateId] {
        lab.cut_of(view.dense_of(g).expect("logic gate"))
    }

    #[test]
    fn chain_labels_grow_with_k_saturation() {
        // A chain of 2-input ANDs over 9 inputs: with K=2 every AND is its
        // own LUT (labels 1..8); with K=6, label stays low.
        let mut nl = Netlist::new();
        let inputs: Vec<GateId> = (0..9).map(|_| nl.input(O)).collect();
        let mut acc = inputs[0];
        let mut gates = Vec::new();
        for &i in &inputs[1..] {
            acc = nl.and(acc, i, O);
            gates.push(acc);
        }
        nl.add_keep(acc, "out");
        let view = CombView::build(&nl).unwrap();

        let lab2 = compute_labels(&view, 2, false);
        assert_eq!(label_of_gate(&view, &lab2, *gates.last().unwrap()), 8);

        let lab6 = compute_labels(&view, 6, false);
        assert_eq!(label_of_gate(&view, &lab6, *gates.last().unwrap()), 2);
    }

    #[test]
    fn balanced_tree_of_8_fits_two_levels_k6() {
        let mut nl = Netlist::new();
        let inputs: Vec<GateId> = (0..8).map(|_| nl.input(O)).collect();
        let root = nl.and_tree(&inputs, O);
        nl.add_keep(root, "out");
        let view = CombView::build(&nl).unwrap();
        let lab = compute_labels(&view, 6, true);
        assert_eq!(label_of_gate(&view, &lab, root), 2);
        assert!(cut_of_gate(&view, &lab, root).len() <= 6);
    }

    #[test]
    fn single_gate_has_label_one() {
        let mut nl = Netlist::new();
        let a = nl.input(O);
        let b = nl.input(O);
        let g = nl.and(a, b, O);
        nl.add_keep(g, "out");
        let view = CombView::build(&nl).unwrap();
        let lab = compute_labels(&view, 6, true);
        assert_eq!(label_of_gate(&view, &lab, g), 1);
        assert_eq!(cut_of_gate(&view, &lab, g), &[a, b]);
    }

    #[test]
    fn cuts_are_k_feasible() {
        let mut nl = Netlist::new();
        let inputs: Vec<GateId> = (0..16).map(|_| nl.input(O)).collect();
        let root = nl.and_tree(&inputs, O);
        nl.add_keep(root, "out");
        let view = CombView::build(&nl).unwrap();
        for k in [2usize, 3, 4, 6] {
            let lab = compute_labels(&view, k, k % 2 == 0);
            for d in 0..view.num_logic() as u32 {
                let cut = lab.cut_of(d);
                assert!(cut.len() <= k, "cut of {} exceeds K={}", cut.len(), k);
            }
        }
    }

    #[test]
    fn reconvergence_packs_into_one_lut() {
        // f = (a & b) | (a ^ b) depends on only 2 inputs: one 6-LUT.
        let mut nl = Netlist::new();
        let a = nl.input(O);
        let b = nl.input(O);
        let g1 = nl.and(a, b, O);
        let g2 = nl.xor(a, b, O);
        let f = nl.or(g1, g2, O);
        nl.add_keep(f, "out");
        let view = CombView::build(&nl).unwrap();
        let lab = compute_labels(&view, 6, true);
        assert_eq!(
            label_of_gate(&view, &lab, f),
            1,
            "reconvergent cone must fuse"
        );
        let mut cut = cut_of_gate(&view, &lab, f).to_vec();
        cut.sort_unstable();
        assert_eq!(cut, vec![a, b]);
    }

    /// A cone whose maximum flow needs a cancellation. The sink feeders
    /// `a = !s1` and `b = s1 & s2` share `s1`, and only `b` has a second
    /// startpoint; `w`, a five-input AND (label 2 at K = 3 and 4), makes
    /// `a`, `b` and `w`'s two fanins the sink's predecessors when `t` is
    /// labeled. In one of the four fanin orders the search sends its first
    /// path for `b` through `s1`, and the path for `a` must then move `b`'s
    /// flow onto `s2`. Label and cut must equal the reference labeler's in
    /// both cut modes, whether the flow reaches K (label 2 at K = 4) or
    /// exceeds it (label 3 at K = 3).
    #[test]
    fn later_path_cancels_earlier_flow() {
        for (b_first, s2_first) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut nl = Netlist::new();
            let s1 = nl.input(O);
            let s2 = nl.input(O);
            let x: Vec<GateId> = (0..5).map(|_| nl.input(O)).collect();
            let a = nl.not(s1, O);
            let b = if s2_first {
                nl.and(s2, s1, O)
            } else {
                nl.and(s1, s2, O)
            };
            let w1 = nl.and(x[0], x[1], O);
            let w2a = nl.and(x[3], x[4], O);
            let w2 = nl.and(x[2], w2a, O);
            let w = nl.and(w1, w2, O);
            let t = if b_first {
                nl.mux(b, a, w, O)
            } else {
                nl.mux(a, b, w, O)
            };
            nl.add_keep(t, "out");
            let view = CombView::build(&nl).unwrap();
            for (k, label) in [(3usize, 3u32), (4, 2)] {
                for area_recovery in [false, true] {
                    let case = format!(
                        "b_first={b_first} s2_first={s2_first} k={k} area_recovery={area_recovery}"
                    );
                    let opts = MapOptions {
                        k,
                        area_recovery,
                        jobs: 1,
                    };
                    let reference = map_netlist_reference(&nl, &opts).unwrap();
                    let (_, root) = reference.luts().find(|(_, l)| l.root() == t).unwrap();
                    let ref_cut: Vec<GateId> = root
                        .inputs()
                        .iter()
                        .map(|i| match *i {
                            LutInput::Lut(l) => reference.lut(l).root(),
                            LutInput::Start(g) => g,
                        })
                        .collect();
                    let lab = compute_labels(&view, k, area_recovery);
                    assert_eq!(root.level(), label, "{case}");
                    assert_eq!(label_of_gate(&view, &lab, t), label, "{case}");
                    assert_eq!(cut_of_gate(&view, &lab, t), &ref_cut[..], "{case}");
                    let dense = crate::map_netlist(&nl, &opts).unwrap();
                    assert!(dense.bit_identical(&reference), "{case}");
                }
            }
        }
    }
}
