//! Tier-1 regression: the parallel comparison runner must be an invisible
//! optimization — the rows it produces are identical (and identically
//! ordered) whether kernels are compared on one thread or four. The job
//! count is `FlowOptions::jobs`, so the sweep also covers each flow's
//! synthesis and slack pools.

use frequenz_bench::{compare_kernels, KernelComparison};
use frequenz_core::FlowOptions;
use hls::Kernel;

fn small_kernels() -> Vec<Kernel> {
    // Deliberately tiny: this runs under the tier-1 `cargo test` (dev
    // profile) and covers both flows twice per kernel.
    vec![
        hls::kernels::gsum(8),
        hls::kernels::gsumif(8),
        hls::kernels::mvt(3),
    ]
}

/// Everything about a row except wall-clock (which legitimately varies).
fn row_content(c: &KernelComparison) -> impl PartialEq + std::fmt::Debug + use<> {
    (
        c.name,
        c.prev.clone(),
        c.iter.clone(),
        c.iter_iterations,
        c.iter_converged,
        c.cache_hits,
        c.cache_misses,
    )
}

#[test]
fn parallel_and_sequential_rows_are_identical() {
    let kernels = small_kernels();
    let with_jobs = |jobs| FlowOptions {
        jobs,
        ..FlowOptions::default()
    };
    let seq = compare_kernels(&kernels, &with_jobs(1)).expect("sequential run succeeds");
    let par = compare_kernels(&kernels, &with_jobs(4)).expect("parallel run succeeds");
    assert_eq!(seq.len(), kernels.len());
    assert_eq!(par.len(), kernels.len());
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(
            s.name, kernels[i].name,
            "row order must follow kernel order"
        );
        assert_eq!(
            row_content(s),
            row_content(p),
            "row {} ({}) differs between --jobs 1 and --jobs 4",
            i,
            s.name
        );
    }
    // The per-kernel synthesis cache must earn its keep on every kernel.
    for row in &par {
        assert!(
            row.cache_hits > 0,
            "{}: no synthesis-cache hits recorded",
            row.name
        );
    }
}
