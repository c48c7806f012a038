//! The parallel synthesis lane must be invisible: the dense-array FlowMap
//! mapper must produce bit-identical LUT networks (and mapping statistics)
//! at any job count, match the retained HashMap reference labeler gate for
//! gate, and seed reuse must never change a mapping — in both cut modes,
//! on random netlists and on the nine kernels' full-size netlists.
//! At the flow level, [`FlowOptions::jobs`] may only change wall clock:
//! buffers, levels, iteration history and every deterministic trace
//! counter must be identical at jobs 1, 2 and 8.

use frequenz::core::{
    optimize_baseline_with_cache, optimize_iterative_with_cache, FlowOptions, FlowTrace, SynthCache,
};
use frequenz::hls::kernels;
use frequenz::lutmap::{map_netlist, map_netlist_reference, map_netlist_with_seed, MapOptions};
use frequenz::netlist::{elaborate, match_netlists, GateId, Netlist, Origin};
use proptest::prelude::*;

/// One random gate recipe: an operator over earlier pool entries.
#[derive(Debug, Clone)]
enum R {
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
    Mux(usize, usize, usize),
}

fn recipe() -> impl Strategy<Value = R> {
    prop_oneof![
        any::<usize>().prop_map(R::Not),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| R::And(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| R::Or(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| R::Xor(a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(s, a, b)| R::Mux(s, a, b)),
    ]
}

/// Builds an optimized random netlist with the last three pool gates kept.
fn build(n_inputs: usize, rs: &[R]) -> Netlist {
    let o = Origin::External;
    let mut nl = Netlist::new();
    let mut pool: Vec<GateId> = (0..n_inputs).map(|_| nl.input(o)).collect();
    for r in rs {
        let pick = |i: usize| pool[i % pool.len()];
        let g = match *r {
            R::Not(a) => nl.not(pick(a), o),
            R::And(a, b) => nl.and(pick(a), pick(b), o),
            R::Or(a, b) => nl.or(pick(a), pick(b), o),
            R::Xor(a, b) => nl.xor(pick(a), pick(b), o),
            R::Mux(s, a, b) => nl.mux(pick(s), pick(a), pick(b), o),
        };
        pool.push(g);
    }
    for (i, &g) in pool.iter().rev().take(3).enumerate() {
        nl.add_keep(g, format!("out{i}"));
    }
    nl.optimize();
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Jobs sweep at the mapper level: identical LUT networks *and*
    /// identical mapping statistics (labels computed/reused, LUTs packed)
    /// at every job count, in both cut modes, against the reference oracle.
    #[test]
    fn mapper_is_bit_identical_across_jobs(
        n_inputs in 1usize..6,
        rs in prop::collection::vec(recipe(), 1..60),
        k in 4usize..7,
        area_recovery in any::<bool>(),
    ) {
        let nl = build(n_inputs, &rs);
        let reference = map_netlist_reference(
            &nl,
            &MapOptions { k, area_recovery, jobs: 1 },
        ).expect("acyclic");
        let mut stats1 = None;
        for jobs in [1usize, 2, 8] {
            let opts = MapOptions { k, area_recovery, jobs };
            let (net, _, stats) = map_netlist_with_seed(&nl, &opts, None).expect("acyclic");
            prop_assert!(
                net.bit_identical(&reference),
                "jobs={jobs}: dense mapper diverged from the reference"
            );
            match &stats1 {
                None => stats1 = Some(stats),
                Some(s1) => prop_assert_eq!(
                    &stats, s1,
                    "jobs={}: mapping statistics diverged", jobs
                ),
            }
        }
    }

    /// Seed reuse is a pure time optimization: a self-matched seeded remap
    /// returns the identical network and packs the same LUT count, at any
    /// job count and in both cut modes — and actually reuses labels.
    #[test]
    fn seed_reuse_is_invisible(
        n_inputs in 1usize..6,
        rs in prop::collection::vec(recipe(), 1..60),
        k in 4usize..7,
        area_recovery in any::<bool>(),
    ) {
        let nl = build(n_inputs, &rs);
        let opts = MapOptions { k, area_recovery, jobs: 1 };
        let (fresh, seed, fresh_stats) =
            map_netlist_with_seed(&nl, &opts, None).expect("acyclic");
        let matching = match_netlists(&nl, &nl);
        for jobs in [1usize, 2, 8] {
            let opts = MapOptions { k, area_recovery, jobs };
            let (seeded, _, stats) =
                map_netlist_with_seed(&nl, &opts, Some((&seed, &matching))).expect("acyclic");
            prop_assert!(
                seeded.bit_identical(&fresh),
                "jobs={jobs}: seeded remap diverged from the fresh mapping"
            );
            prop_assert_eq!(stats.luts_packed, fresh_stats.luts_packed);
            prop_assert_eq!(
                stats.labels_reused + stats.labels_computed,
                fresh_stats.labels_reused + fresh_stats.labels_computed,
                "total label decisions must not depend on seeding"
            );
            if fresh.num_luts() > 0 {
                prop_assert!(
                    stats.labels_reused > 0,
                    "self-matched seed reused nothing — the reuse path is dead"
                );
            }
        }
    }

    /// `map_netlist` (the plain entry point) agrees with the seeded entry
    /// point it wraps, at every job count.
    #[test]
    fn plain_entry_point_matches_seeded(
        n_inputs in 1usize..6,
        rs in prop::collection::vec(recipe(), 1..40),
        k in 4usize..7,
    ) {
        let nl = build(n_inputs, &rs);
        for jobs in [1usize, 2, 8] {
            let opts = MapOptions { k, area_recovery: true, jobs };
            let plain = map_netlist(&nl, &opts).expect("acyclic");
            let (seeded, _, _) = map_netlist_with_seed(&nl, &opts, None).expect("acyclic");
            prop_assert!(plain.bit_identical(&seeded));
        }
    }
}

/// The mapper on real netlists: each full-size kernel's seeded, optimized
/// netlist (2.2k–12.8k gates) mapped by the dense mapper at jobs 1/2/8 and
/// by a self-seeded remap must equal the reference labeler's network, in
/// both cut modes. Its cones run to hundreds of gates, so the max-flow
/// tests here cancel flow far more often than on the random netlists.
#[test]
fn mapper_matches_reference_on_kernel_netlists() {
    for k in kernels::all_kernels() {
        let mut nl = elaborate(&k.seeded_graph())
            .expect("kernel graphs elaborate")
            .netlist;
        nl.optimize();
        for area_recovery in [true, false] {
            let opts = |jobs| MapOptions {
                k: 6,
                area_recovery,
                jobs,
            };
            let reference = map_netlist_reference(&nl, &opts(1)).expect("acyclic");
            for jobs in [1usize, 2, 8] {
                let net = map_netlist(&nl, &opts(jobs)).expect("acyclic");
                assert!(
                    net.bit_identical(&reference),
                    "{}: area_recovery={area_recovery} jobs={jobs}: dense mapper diverged from the reference",
                    k.name
                );
            }
            let (_, seed, _) = map_netlist_with_seed(&nl, &opts(1), None).expect("acyclic");
            let matching = match_netlists(&nl, &nl);
            let (seeded, _, _) =
                map_netlist_with_seed(&nl, &opts(1), Some((&seed, &matching))).expect("acyclic");
            assert!(
                seeded.bit_identical(&reference),
                "{}: area_recovery={area_recovery}: self-seeded remap diverged from the reference",
                k.name
            );
        }
    }
}

/// Every synthesis a flow pays for is counted. On the nine full-size
/// kernels with default options, each flow's full plus incremental
/// syntheses equal its synthesis-cache misses, the slack pass's level
/// probes included.
#[test]
fn every_cache_miss_is_a_counted_synthesis() {
    let handles: Vec<_> = kernels::all_kernels()
        .into_iter()
        .map(|k| {
            std::thread::spawn(move || {
                let opts = FlowOptions {
                    jobs: 1,
                    ..FlowOptions::default()
                };
                let cache = SynthCache::new();
                let prev = optimize_baseline_with_cache(k.graph(), k.back_edges(), &opts, &cache)
                    .expect("baseline flow");
                let iter = optimize_iterative_with_cache(k.graph(), k.back_edges(), &opts, &cache)
                    .expect("iterative flow");
                for (flow, t) in [("prev", &prev.trace), ("iter", &iter.trace)] {
                    assert_eq!(
                        t.full_synths + t.incr_synths,
                        t.cache_misses,
                        "{}: {flow}: a synthesis went uncounted",
                        k.name
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("kernel thread");
    }
}

/// Reduced flow options (the `incremental_equivalence` discipline): small
/// budgets, no slack matching, a single CFDFC — jobs invariance is about
/// the synthesis lane, not the placer or the simulator.
fn test_opts(jobs: usize) -> FlowOptions {
    FlowOptions {
        max_iterations: 3,
        sim_budget: 10_000,
        max_cfdfcs: 1,
        max_cut_rounds: 4,
        slack_matching: false,
        jobs,
        ..FlowOptions::default()
    }
}

/// The deterministic (jobs-invariant) synthesis counters of a trace.
fn counters(t: &FlowTrace) -> [u64; 10] {
    [
        t.cache_hits,
        t.cache_misses,
        t.labels_reused,
        t.labels_computed,
        t.incr_synths,
        t.full_synths,
        t.dirty_bbs,
        t.clean_bbs,
        t.par_unit_tasks,
        t.par_pack_tasks,
    ]
}

/// Both flows on every (reduced) kernel: jobs 2 and 8 must reproduce the
/// jobs=1 outcome bit for bit — buffers, levels, iteration history, and
/// every deterministic trace counter.
#[test]
fn flow_outcome_is_jobs_invariant() {
    let handles: Vec<_> = kernels::all_kernels_small()
        .into_iter()
        .map(|k| {
            std::thread::spawn(move || {
                let iter1 = optimize_iterative_with_cache(
                    k.graph(),
                    k.back_edges(),
                    &test_opts(1),
                    &SynthCache::new(),
                )
                .expect("iterative flow");
                let prev1 = optimize_baseline_with_cache(
                    k.graph(),
                    k.back_edges(),
                    &test_opts(1),
                    &SynthCache::new(),
                )
                .expect("baseline flow");
                for jobs in [2usize, 8] {
                    let iterj = optimize_iterative_with_cache(
                        k.graph(),
                        k.back_edges(),
                        &test_opts(jobs),
                        &SynthCache::new(),
                    )
                    .expect("iterative flow");
                    assert_eq!(iterj.buffers, iter1.buffers, "{}: jobs={jobs}", k.name);
                    assert_eq!(iterj.achieved_levels, iter1.achieved_levels, "{}", k.name);
                    assert_eq!(iterj.iterations, iter1.iterations, "{}", k.name);
                    assert_eq!(
                        counters(&iterj.trace),
                        counters(&iter1.trace),
                        "{}: iterative trace counters diverged at jobs={jobs}",
                        k.name
                    );
                    let prevj = optimize_baseline_with_cache(
                        k.graph(),
                        k.back_edges(),
                        &test_opts(jobs),
                        &SynthCache::new(),
                    )
                    .expect("baseline flow");
                    assert_eq!(prevj.buffers, prev1.buffers, "{}: jobs={jobs}", k.name);
                    assert_eq!(prevj.achieved_levels, prev1.achieved_levels, "{}", k.name);
                    assert_eq!(
                        counters(&prevj.trace),
                        counters(&prev1.trace),
                        "{}: baseline trace counters diverged at jobs={jobs}",
                        k.name
                    );
                    assert!(
                        prevj.trace.par_unit_tasks > 0,
                        "{}: baseline characterized no units",
                        k.name
                    );
                }
                k.name
            })
        })
        .collect();
    for h in handles {
        h.join().expect("kernel thread");
    }
}
