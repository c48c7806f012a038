//! The three workloads: which kernels one pass runs, with which options,
//! and in which order for a given seed.

use frequenz_core::FlowOptions;
use hls::kernels;
use hls::Kernel;
use std::fmt;
use std::str::FromStr;

/// A benchmark workload. One pass runs every kernel once, each with a
/// fresh synthesis cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table I: the nine kernels at evaluation size, Prev and Iter flows.
    Table1,
    /// The nine kernels, Iter flow only, with a four-level clock target.
    TightClock,
    /// Three loop kernels at 8x the Table I trip count, both flows.
    LongTrip,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [Workload::Table1, Workload::TightClock, Workload::LongTrip];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::TightClock => "tight_clock",
            Workload::LongTrip => "long_trip",
        }
    }

    /// Builds the workload's kernels: dataflow graphs plus software
    /// reference outputs. This is the benchmark's set-up work.
    pub fn kernels(self) -> Vec<Kernel> {
        match self {
            Workload::Table1 | Workload::TightClock => kernels::all_kernels(),
            // The other six kernels only build for n <= 8. These sizes keep
            // every profiling run inside the 400k-cycle budget.
            Workload::LongTrip => vec![
                kernels::insertion_sort(256),
                kernels::gsum(1024),
                kernels::gsumif(1024),
            ],
        }
    }

    /// Flow options: the defaults on one worker thread, with the tighter
    /// level target on `tight_clock`.
    pub fn options(self) -> FlowOptions {
        let base = FlowOptions {
            jobs: 1,
            ..FlowOptions::default()
        };
        match self {
            Workload::TightClock => FlowOptions {
                target_levels: 4,
                ..base
            },
            Workload::Table1 | Workload::LongTrip => base,
        }
    }

    /// Whether a pass runs the baseline ("Prev") flow besides Iter.
    pub fn runs_prev(self) -> bool {
        self != Workload::TightClock
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {s:?} (known: {})", names.join(", "))
            })
    }
}

/// The order a pass visits `n` kernels in: a Fisher-Yates shuffle driven
/// by a SplitMix64 stream of `seed`. The same seed gives the same order.
pub fn kernel_order(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(w.name().parse::<Workload>(), Ok(w));
        }
        assert!("Table1".parse::<Workload>().is_err());
    }

    #[test]
    fn order_is_a_seeded_permutation() {
        for seed in 0..20 {
            let a = kernel_order(9, seed);
            assert_eq!(a, kernel_order(9, seed));
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        }
        assert_ne!(kernel_order(9, 1), kernel_order(9, 2));
        assert!(kernel_order(0, 3).is_empty());
    }
}
