//! One synthesis run: graph → optimized gates → K-LUT network.
//!
//! This is the "Logic Synthesizer" box of Figure 4: the equivalent of
//! feeding the circuit's BLIF through ABC's optimization and `if -K 6`.

use dataflow::collections::HashMap;
use dataflow::{fingerprint_graph, Fingerprint, Graph};
use lutmap::{map_netlist, map_netlist_with_seed, LutNetwork, MapError, MapOptions, MapSeed};
use netlist::{elaborate, match_netlists, Netlist, OptStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Options for one synthesis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthOptions {
    /// LUT input count (the paper's K = 6).
    pub k: usize,
    /// Worker threads for FlowMap's LUT packing (labeling is serial).
    /// Results are bit-identical at any value — jobs only trades
    /// wall clock, which is why it is *not* part of the synthesis cache
    /// key. Must be ≥ 1 ([`FlowOptions::validate`](crate::FlowOptions)
    /// rejects 0).
    pub jobs: usize,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            k: 6,
            jobs: lutmap::default_jobs(),
        }
    }
}

impl SynthOptions {
    /// Default options with the given K.
    pub fn with_k(k: usize) -> Self {
        SynthOptions {
            k,
            ..Self::default()
        }
    }

    fn map_options(&self) -> MapOptions {
        MapOptions {
            k: self.k,
            area_recovery: true,
            jobs: self.jobs.max(1),
        }
    }
}

/// The artifacts of one synthesis run.
#[derive(Debug)]
pub struct Synthesis {
    /// The optimized gate-level netlist.
    pub netlist: Netlist,
    /// The mapped LUT network.
    pub luts: LutNetwork,
    /// Logic-optimization statistics.
    pub opt_stats: OptStats,
}

impl Synthesis {
    /// Post-synthesis logic levels (the quantity the flow regulates).
    pub fn logic_levels(&self) -> u32 {
        self.luts.depth()
    }

    /// LUT count (the paper's area metric).
    pub fn lut_count(&self) -> usize {
        self.luts.num_luts()
    }

    /// Flip-flop count (buffers + unit state + pipeline registers).
    pub fn ff_count(&self) -> usize {
        self.netlist.num_live_regs()
    }
}

/// Synthesizes `g` (with its current buffer annotations) down to K-LUTs.
///
/// # Errors
///
/// [`MapError::CombinationalCycle`] if a dataflow cycle carries no opaque
/// buffer — callers must seed loop back edges first (Figure 4) — and
/// [`MapError::Elaborate`] if the graph has dangling ports.
pub fn synthesize(g: &Graph, k: usize) -> Result<Synthesis, MapError> {
    synthesize_opts(g, &SynthOptions::with_k(k))
}

/// [`synthesize`] with explicit [`SynthOptions`] (job count included).
///
/// # Errors
///
/// Same contract as [`synthesize`].
pub fn synthesize_opts(g: &Graph, opts: &SynthOptions) -> Result<Synthesis, MapError> {
    let mut nl = elaborate(g)?.netlist;
    let opt_stats = nl.optimize();
    let luts = map_netlist(&nl, &opts.map_options())?;
    Ok(Synthesis {
        netlist: nl,
        luts,
        opt_stats,
    })
}

/// One cached synthesis plus the by-products incremental re-synthesis
/// needs: the FlowMap labels/cuts ([`MapSeed`]) and the K it ran with.
#[derive(Debug)]
struct SynthEntry {
    synthesis: Arc<Synthesis>,
    seed: MapSeed,
    k: usize,
}

/// A shareable handle to one cached synthesis.
///
/// Beyond the [`Synthesis`] itself, the handle retains the run's FlowMap
/// labels, so it can serve as the *basis* of a later
/// [`SynthCache::synthesize_with_basis`] call: gates the new netlist
/// shares with this one skip the per-gate max-flow labeling.
#[derive(Debug, Clone)]
pub struct SynthHandle(Arc<SynthEntry>);

impl SynthHandle {
    /// The synthesis artifacts this handle refers to.
    pub fn synthesis(&self) -> &Arc<Synthesis> {
        &self.0.synthesis
    }
}

/// What one [`SynthCache::synthesize_with_basis`] call actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthDelta {
    /// Served from the cache — nothing was recomputed.
    pub cache_hit: bool,
    /// A basis was used: labels were reused across netlists.
    pub incremental: bool,
    /// FlowMap labels copied from the basis through the matching.
    pub labels_reused: usize,
    /// FlowMap labels computed by the max-flow test from scratch.
    pub labels_computed: usize,
    /// Live logic gates matched against the basis netlist.
    pub matched_gates: usize,
    /// Live logic gates with no basis counterpart.
    pub unmatched_gates: usize,
    /// LUT packing tasks executed (one per emitted LUT) — a deterministic
    /// task count, identical at every job count.
    pub luts_packed: usize,
}

fn synthesize_entry(
    g: &Graph,
    opts: &SynthOptions,
    basis: Option<&SynthEntry>,
) -> Result<(SynthEntry, SynthDelta), MapError> {
    let mut nl = elaborate(g)?.netlist;
    let opt_stats = nl.optimize();
    let map_opts = opts.map_options();
    let mut delta = SynthDelta::default();
    let (luts, seed, stats) = match basis {
        Some(b) => {
            let m = match_netlists(&b.synthesis.netlist, &nl);
            delta.incremental = true;
            delta.matched_gates = m.matched_logic;
            delta.unmatched_gates = m.unmatched_logic;
            map_netlist_with_seed(&nl, &map_opts, Some((&b.seed, &m)))?
        }
        None => map_netlist_with_seed(&nl, &map_opts, None)?,
    };
    delta.labels_reused = stats.labels_reused;
    delta.labels_computed = stats.labels_computed;
    delta.luts_packed = stats.luts_packed;
    Ok((
        SynthEntry {
            synthesis: Arc::new(Synthesis {
                netlist: nl,
                luts,
                opt_stats,
            }),
            seed,
            k: opts.k,
        },
        delta,
    ))
}

/// A memoizing synthesis front end.
///
/// The iterative flow synthesizes structurally identical graphs over and
/// over: iteration *i+1* starts from the buffered graph iteration *i*
/// ended with, slack matching probes repeat candidate buffer sets, and
/// the final measurement re-synthesizes the flow's own output. The cache
/// keys runs on `(`[`Fingerprint`]`, K)` — the structural hash covers
/// buffer annotations, so distinct buffer configurations never collide —
/// and hands out [`Arc<Synthesis>`] so hits are free.
///
/// The cache is `&self` throughout and safe to share across threads; the
/// lock is *not* held while a miss synthesizes, so concurrent misses on
/// different graphs proceed in parallel (a rare duplicate miss on the
/// same key just wastes one synthesis run).
#[derive(Debug)]
pub struct SynthCache {
    entries: Mutex<HashMap<(Fingerprint, usize), Arc<SynthEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    incremental: bool,
}

impl Default for SynthCache {
    fn default() -> Self {
        SynthCache {
            entries: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            incremental: true,
        }
    }
}

impl SynthCache {
    /// Creates an empty cache with incremental re-synthesis enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache that ignores every basis and always synthesizes in
    /// full. The equivalence tests pit this against [`SynthCache::new`] to
    /// check that incremental reuse is bit-identical to full re-synthesis.
    pub fn forced_full() -> Self {
        SynthCache {
            incremental: false,
            ..Self::default()
        }
    }

    /// Synthesizes `g`, serving structurally identical repeats from memory.
    ///
    /// # Errors
    ///
    /// Same contract as [`synthesize`]; errors are not cached.
    pub fn synthesize(&self, g: &Graph, k: usize) -> Result<Arc<Synthesis>, MapError> {
        self.synthesize_with_basis(g, k, None)
            .map(|(h, _)| h.0.synthesis.clone())
    }

    /// [`SynthCache::synthesize`] with explicit [`SynthOptions`].
    ///
    /// # Errors
    ///
    /// Same contract as [`synthesize`]; errors are not cached.
    pub fn synthesize_opts(
        &self,
        g: &Graph,
        opts: &SynthOptions,
    ) -> Result<Arc<Synthesis>, MapError> {
        self.synthesize_with_basis_opts(g, opts, None)
            .map(|(h, _)| h.0.synthesis.clone())
    }

    /// Like [`SynthCache::synthesize`], but on a miss reuses per-gate
    /// FlowMap labels from `basis` wherever the new optimized netlist is
    /// structurally identical to the basis netlist. The result is
    /// bit-identical to a full synthesis; only the work differs. A basis
    /// computed with a different K is ignored (labels depend on K), as is
    /// every basis when the cache was built with
    /// [`SynthCache::forced_full`].
    ///
    /// # Errors
    ///
    /// Same contract as [`synthesize`]; errors are not cached.
    pub fn synthesize_with_basis(
        &self,
        g: &Graph,
        k: usize,
        basis: Option<&SynthHandle>,
    ) -> Result<(SynthHandle, SynthDelta), MapError> {
        self.synthesize_with_basis_opts(g, &SynthOptions::with_k(k), basis)
    }

    /// [`SynthCache::synthesize_with_basis`] with explicit
    /// [`SynthOptions`]. The cache key remains `(fingerprint, K)` — the
    /// job count cannot change any result, only how fast it is produced.
    ///
    /// # Errors
    ///
    /// Same contract as [`synthesize`]; errors are not cached.
    pub fn synthesize_with_basis_opts(
        &self,
        g: &Graph,
        opts: &SynthOptions,
        basis: Option<&SynthHandle>,
    ) -> Result<(SynthHandle, SynthDelta), MapError> {
        let key = (fingerprint_graph(g), opts.k);
        if let Some(hit) = self.entries.lock().unwrap().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((
                SynthHandle(hit),
                SynthDelta {
                    cache_hit: true,
                    ..SynthDelta::default()
                },
            ));
        }
        let basis = basis.filter(|b| self.incremental && b.0.k == opts.k);
        let (entry, delta) = synthesize_entry(g, opts, basis.map(|b| &*b.0))?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(entry);
        let shared = self
            .entries
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(entry)
            .clone();
        Ok((SynthHandle(shared), delta))
    }

    /// Requests served from memory so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that ran a real synthesis so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct cached syntheses currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls::kernels;

    #[test]
    fn synthesizes_seeded_kernel() {
        let k = kernels::gsum(8);
        let g = k.seeded_graph();
        let s = synthesize(&g, 6).unwrap();
        assert!(s.logic_levels() > 0);
        assert!(s.lut_count() > 10);
        assert!(s.ff_count() > 0);
        assert!(s.opt_stats.rewrites > 0);
    }

    #[test]
    fn unseeded_kernel_has_combinational_cycle() {
        let k = kernels::gsum(8);
        assert!(matches!(
            synthesize(k.graph(), 6),
            Err(MapError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn cache_serves_repeats_and_counts() {
        let k = kernels::gsum(8);
        let g = k.seeded_graph();
        let cache = SynthCache::new();
        let a = cache.synthesize(&g, 6).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let b = cache.synthesize(&g, 6).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&a, &b));
        // A different K is a different key.
        cache.synthesize(&g, 4).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_agrees_with_direct_synthesis() {
        let k = kernels::gsum(8);
        let g = k.seeded_graph();
        let cache = SynthCache::new();
        let cached = cache.synthesize(&g, 6).unwrap();
        let direct = synthesize(&g, 6).unwrap();
        assert_eq!(cached.logic_levels(), direct.logic_levels());
        assert_eq!(cached.lut_count(), direct.lut_count());
        assert_eq!(cached.ff_count(), direct.ff_count());
    }

    #[test]
    fn basis_reuse_is_bit_identical_to_full_synthesis() {
        use dataflow::BufferSpec;
        let kern = kernels::gsum(8);
        let g = kern.seeded_graph();
        // A second configuration: one more buffered channel.
        let mut g2 = g.clone();
        let extra = g2
            .channels()
            .find(|(_, c)| !c.buffer().opaque)
            .map(|(id, _)| id)
            .unwrap();
        g2.set_buffer(extra, BufferSpec::FULL);

        let cache = SynthCache::new();
        let (base, d0) = cache.synthesize_with_basis(&g, 6, None).unwrap();
        assert!(!d0.cache_hit && !d0.incremental);
        assert!(d0.labels_reused == 0 && d0.labels_computed > 0);
        let (incr, d1) = cache.synthesize_with_basis(&g2, 6, Some(&base)).unwrap();
        assert!(d1.incremental, "basis must be honoured");
        assert!(d1.labels_reused > 0, "overlapping cones must be reused");
        assert!(d1.matched_gates > 0);

        let full = SynthCache::forced_full();
        let (fref, d2) = full.synthesize_with_basis(&g2, 6, Some(&base)).unwrap();
        assert!(!d2.incremental, "forced-full must ignore the basis");
        let (a, b) = (incr.synthesis(), fref.synthesis());
        assert_eq!(a.logic_levels(), b.logic_levels());
        assert_eq!(a.lut_count(), b.lut_count());
        assert_eq!(a.ff_count(), b.ff_count());
        for ((_, la), (_, lb)) in a.luts.luts().zip(b.luts.luts()) {
            assert_eq!(la.root(), lb.root());
            assert_eq!(la.inputs(), lb.inputs());
            assert_eq!(la.gates(), lb.gates());
            assert_eq!(la.origin(), lb.origin());
            assert_eq!(la.level(), lb.level());
        }
    }

    #[test]
    fn basis_with_different_k_is_ignored() {
        let kern = kernels::gsum(8);
        let g = kern.seeded_graph();
        let cache = SynthCache::new();
        let (base, _) = cache.synthesize_with_basis(&g, 6, None).unwrap();
        let (_, d) = cache.synthesize_with_basis(&g, 4, Some(&base)).unwrap();
        assert!(!d.incremental, "K mismatch must fall back to full");
        assert_eq!(d.labels_reused, 0);
    }

    #[test]
    fn smaller_k_cannot_reduce_depth() {
        let k = kernels::gsum(8);
        let g = k.seeded_graph();
        let d6 = synthesize(&g, 6).unwrap().logic_levels();
        let d4 = synthesize(&g, 4).unwrap().logic_levels();
        assert!(d4 >= d6, "K=4 depth {d4} < K=6 depth {d6}");
    }
}
