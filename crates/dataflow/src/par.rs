//! The workspace's one worker pool: independent items fanned out over
//! scoped threads, results returned **in item order**.
//!
//! Every parallel stage of the flows — the bench's kernel runner, the
//! baseline's per-unit characterization, the slack-matching trials and
//! FlowMap's LUT packing — maps a pure function over a list of items and
//! then folds the results on one thread. Item order, not scheduling,
//! fixes what the fold sees, so those stages are bit-identical at any
//! job count. (The MILP's branch-and-bound wave keeps a pool of its own:
//! `frequenz-milp` depends on no other crate.)

use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker-thread count: `min(cores, 4)`, where `cores` follows the
/// process's CPU mask. It sizes LUT packing, the slack-matching trial pool
/// and the placement MILP's branch-and-bound pool. Results are
/// bit-identical at any job count, so this only trades wall clock.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Runs `f` over `items` on up to `jobs` scoped threads, returning the
/// results in item order.
///
/// Items are claimed one at a time from a shared cursor, so long and
/// short items mix freely. `jobs <= 1` (or a single item) is a plain
/// sequential map on the calling thread, and no more threads start than
/// there are items. A panic in `f` is resumed on the calling thread once
/// the workers are joined.
pub fn map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.min(items.len());
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    // The cursor only hands out indices; results travel back through the
    // join, which synchronizes, so `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break out };
                        out.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    // Each index was claimed exactly once, so sorting restores item order.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_item_order_at_any_job_count() {
        let items: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * 3).collect();
        for jobs in [0, 1, 2, 8] {
            assert_eq!(map(&items, jobs, |&x| x * 3), expected, "jobs={jobs}");
        }
    }

    #[test]
    fn map_handles_empty_input_and_more_jobs_than_items() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, 4, |&x| x).is_empty());
        assert_eq!(map(&[7u32], 64, |&x| x + 1), vec![8]);
        assert_eq!(map(&[1u32, 2, 3], 64, |&x| x * 10), vec![10, 20, 30]);
    }
}
