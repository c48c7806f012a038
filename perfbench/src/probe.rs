//! A speed probe on the flows' own CPU.
//!
//! The shared host this benchmark was built on slows each of its CPUs by
//! up to 2x for seconds to minutes at a time and reports none of it as
//! steal time. Host seconds therefore measure the host as much as the
//! program. The slowdown is not seen from the other CPU, and it spares
//! latency-bound code (a chain of dependent multiplies barely slows), so
//! the probe runs throughput-bound code on the flows' own CPU: every
//! [`PERIOD`] it wakes, times one product of two [`DIM`] x [`DIM`]
//! matrices, and sleeps again. Over repeated kernel runs in one process,
//! the log of the mean sample time followed the log of the runs' host
//! seconds with a correlation of 0.91 to 0.99 and a slope of 0.7 to 1.0,
//! on both a placement-and-simulation kernel and a synthesis-bound one.
//!
//! The untraced passes report spans in reference seconds: host seconds
//! times [`REF_SAMPLE_S`] over the mean sample time during the span. That
//! is the time the span would take with the host at the speed the probe
//! was calibrated at.

use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Rows and columns of the probe's matrices (12.5 KiB each, so the
/// product stays in the L1 cache).
pub const DIM: usize = 40;

/// Sleep between samples. A sample takes about 30 us, so the probe takes
/// under 2% of the CPU.
pub const PERIOD: Duration = Duration::from_millis(2);

/// The median sample time on the reference host, a 2-vCPU KVM guest of an
/// Intel Xeon (family 6, model 207) at 2.1 GHz, while the flows run.
pub const REF_SAMPLE_S: f64 = 30e-6;

/// Why the totals' lock cannot be poisoned.
const NO_PANIC: &str = "nothing panics while holding the probe's totals";

/// Running totals of the probe's samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Samples taken.
    pub samples: u64,
    /// Their summed host seconds.
    pub seconds: f64,
}

impl Totals {
    /// Mean host seconds of the samples taken since `earlier`, or `None`
    /// when none was.
    pub fn mean_since(self, earlier: Totals) -> Option<f64> {
        let n = self.samples.checked_sub(earlier.samples)?;
        (n > 0).then(|| (self.seconds - earlier.seconds) / n as f64)
    }
}

/// Reference seconds of a span of `host_s` host seconds during which the
/// probe's samples took `mean_sample_s` each on average.
pub fn to_reference(host_s: f64, mean_sample_s: f64) -> f64 {
    host_s * REF_SAMPLE_S / mean_sample_s
}

/// The probe thread and the totals it publishes.
#[derive(Debug)]
pub struct SpeedProbe {
    totals: Arc<Mutex<Totals>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl SpeedProbe {
    /// Starts the probe thread, which inherits the caller's CPU affinity,
    /// and waits for its first sample, so that every reading has one.
    ///
    /// # Errors
    ///
    /// The OS error when the thread cannot be spawned.
    pub fn start() -> io::Result<SpeedProbe> {
        let totals = Arc::new(Mutex::new(Totals::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = std::thread::Builder::new()
            .name("speed-probe".into())
            .spawn({
                let totals = Arc::clone(&totals);
                let stop = Arc::clone(&stop);
                move || sample(&totals, &stop)
            })?;
        let probe = SpeedProbe {
            totals,
            stop,
            thread: Some(thread),
        };
        while probe.totals().samples == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(probe)
    }

    /// The totals so far.
    pub fn totals(&self) -> Totals {
        *self.totals.lock().expect(NO_PANIC)
    }

    /// The mean sample time since the probe started.
    pub fn mean(&self) -> f64 {
        self.totals()
            .mean_since(Totals::default())
            .expect("`start` waits for the first sample")
    }
}

impl Drop for SpeedProbe {
    /// Stops the probe thread and waits until it has ended.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            if thread.join().is_err() {
                eprintln!("perfbench: the speed probe thread panicked");
            }
        }
    }
}

/// The probe loop: multiply a fixed matrix by itself, timing the
/// product; publish the time; sleep.
fn sample(totals: &Mutex<Totals>, stop: &AtomicBool) {
    let a: Vec<f64> = (0..DIM * DIM).map(|i| 0.5 + (i % 7) as f64 / 8.0).collect();
    let mut c = vec![0.0; DIM * DIM];
    while !stop.load(Ordering::Relaxed) {
        let t = Instant::now();
        square(black_box(&a), &mut c);
        black_box(&c);
        let seconds = t.elapsed().as_secs_f64();
        {
            let mut totals = totals.lock().expect(NO_PANIC);
            totals.samples += 1;
            totals.seconds += seconds;
        }
        std::thread::sleep(PERIOD);
    }
}

/// `c = a * a` for row-major [`DIM`] x [`DIM`] matrices. The slices are
/// distinct arguments, so the compiler knows they do not overlap and
/// vectorizes the inner loop.
#[inline(never)]
fn square(a: &[f64], c: &mut [f64]) {
    c.fill(0.0);
    for i in 0..DIM {
        for k in 0..DIM {
            let aik = a[i * DIM + k];
            for j in 0..DIM {
                c[i * DIM + j] += aik * a[k * DIM + j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_over_spans() {
        let a = Totals {
            samples: 2,
            seconds: 0.5,
        };
        let b = Totals {
            samples: 6,
            seconds: 1.5,
        };
        assert_eq!(b.mean_since(a), Some(0.25));
        assert_eq!(b.mean_since(b), None);
        assert_eq!(a.mean_since(b), None);
        assert_eq!(to_reference(2.0, REF_SAMPLE_S), 2.0);
        assert_eq!(to_reference(2.0, 2.0 * REF_SAMPLE_S), 1.0);
    }

    #[test]
    fn probe_samples_and_stops() {
        let probe = SpeedProbe::start().expect("a thread can be spawned");
        assert!(probe.totals().samples >= 1);
        assert!(probe.mean() > 0.0);
        drop(probe);
    }
}
