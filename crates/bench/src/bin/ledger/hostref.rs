//! The host-speed reference: three fixed bursts of kernel-path work that a
//! thread of their own times every few milliseconds *while the load runs*.
//!
//! The box this bench runs on is a 2-vCPU microVM on a shared host whose
//! speed moves in phases that last from seconds to minutes (README,
//! *Calibration*). Tight loops do not see those phases — an ALU chain
//! repeats within 0.3 %, a DRAM pointer chase within 2 % — but code with a
//! large instruction footprint does: the server's CPU per statement and a
//! plain `stat("/")` move together (r = 0.85–0.96 over rounds minutes apart).
//! So every slice of the measured window carries its own *speed factor*,
//! derived from the time these bursts took relative to a fixed nominal, and
//! time-derived metrics are reported at nominal host speed: a duration is
//! divided by the factor, a rate multiplied by it.
//!
//! The bursts are system calls on purpose: the kernel's code is the one
//! large, cold, branchy body of code that this repository cannot change.

use crate::stats::thread_cpu_seconds;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Burst kinds, timed in rotation.
const KERNELS: usize = 3;

/// What each burst takes on this box in a calm hour (lower quartile, ns).
/// Only a scale: it makes a factor of 1.0 mean "the host at its usual best",
/// so corrected numbers read like measured ones.
const NOMINAL_NS: [f64; KERNELS] = [20_000.0, 22_800.0, 26_000.0];

/// How much of the bursts' slow-down the server shares: a duration is taken
/// to stretch by (burst time ÷ nominal) to this power. Kernel paths feel a
/// slow phase of the host more than the server's mix of code does: over 112
/// runs spread over two and a half hours, with the bursts between 0.83 and
/// 1.64 times their nominal, the server's CPU per statement followed them to
/// the power 1.01 (`tpcw_ordering`), 0.58 (`point_lookup`) and 0.64
/// (`heavy_light`), 0.67 pooled; rounds minutes apart fit 1.0–1.2 (0.6 on
/// `point_lookup`). One exponent for all workloads, between the two: a
/// correction fitted per workload would be a tuned model, not a measurement.
const SENSITIVITY: f64 = 0.75;

/// The sampler sleeps this long between bursts: ≈ 240 a second at ≈ 25 µs
/// each, under 1 % of one core.
const BURST_EVERY: Duration = Duration::from_millis(4);

/// One timed burst.
#[derive(Clone, Copy)]
pub struct RefSample {
    /// When it started, µs after load start.
    pub at_us: u32,
    pub kernel: u8,
    pub ns: u32,
}

/// What the bursts work on.
struct HostRef {
    pair: (UnixStream, UnixStream),
    probe: PathBuf,
}

impl HostRef {
    /// `probe_dir` takes a 4 KiB file the file burst reads back.
    fn new(probe_dir: &Path) -> Result<HostRef, String> {
        std::fs::create_dir_all(probe_dir).map_err(|e| format!("{}: {e}", probe_dir.display()))?;
        // Samplers of one process (tests run in parallel) must not share it.
        static NEXT_PROBE: AtomicU64 = AtomicU64::new(0);
        let probe = probe_dir.join(format!(
            "host_ref_probe_{}_{}",
            std::process::id(),
            NEXT_PROBE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&probe, [0x5a_u8; 4096]).map_err(|e| format!("{}: {e}", probe.display()))?;
        Ok(HostRef {
            pair: UnixStream::pair().map_err(|e| format!("socket pair: {e}"))?,
            probe,
        })
    }

    fn burst(&mut self, kernel: usize) -> std::io::Result<()> {
        match kernel {
            // Path walk and inode read.
            0 => {
                for _ in 0..40 {
                    std::hint::black_box(std::fs::metadata("/")?.len());
                }
            }
            // Socket send and receive, the calls the server's reactor lives on.
            1 => {
                let mut buf = [0u8; 64];
                for _ in 0..20 {
                    self.pair.0.write_all(&buf)?;
                    self.pair.1.read_exact(&mut buf)?;
                }
            }
            // open + read + close of a cached file.
            _ => {
                let mut buf = [0u8; 4096];
                for _ in 0..6 {
                    std::fs::File::open(&self.probe)?.read_exact(&mut buf)?;
                }
                std::hint::black_box(buf[0]);
            }
        }
        Ok(())
    }
}

impl Drop for HostRef {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.probe);
    }
}

/// The sampler thread's whole life: sleep until `from`, then time one burst
/// (the kinds in rotation) every [`BURST_EVERY`] until `done`, which is told
/// the time and the bursts timed so far, says so. Returns the log, stamped in µs after `start`, and the CPU seconds the
/// thread used, so that they can be taken off the server's.
pub fn sample(
    probe_dir: &Path,
    start: Instant,
    from: Instant,
    done: impl Fn(Instant, usize) -> bool,
) -> Result<(Vec<RefSample>, f64), String> {
    let mut host = HostRef::new(probe_dir)?;
    let mut samples = Vec::with_capacity(64 * 1024);
    std::thread::sleep(from.saturating_duration_since(Instant::now()));
    let mut kernel = 0;
    loop {
        let started = Instant::now();
        if done(started, samples.len()) {
            break;
        }
        host.burst(kernel)
            .map_err(|e| format!("host reference burst {kernel}: {e}"))?;
        samples.push(RefSample {
            at_us: (started - start).as_micros() as u32,
            kernel: kernel as u8,
            ns: u32::try_from(started.elapsed().as_nanos()).unwrap_or(u32::MAX),
        });
        kernel = (kernel + 1) % KERNELS;
        std::thread::sleep(BURST_EVERY);
    }
    Ok((samples, thread_cpu_seconds()?))
}

/// Fewest bursts of one kind a slice must hold for its factor to count.
const MIN_SAMPLES: usize = 8;

/// Bursts after which any interval has a factor.
pub const ENOUGH_BURSTS: usize = KERNELS * MIN_SAMPLES;

/// The host's speed factor over `[from_us, to_us)`: per kind the lower
/// quartile of the burst times (a burst that was preempted half-way takes
/// longer, never shorter) over its nominal, then the geometric mean of the
/// kinds to the power [`SENSITIVITY`]. Above 1 the host was slower than
/// nominal. `None` when the slice holds too few bursts to say.
pub fn speed_factor(samples: &[RefSample], from_us: u64, to_us: u64) -> Option<f64> {
    let mut by_kernel: [Vec<f64>; KERNELS] = Default::default();
    for sample in samples {
        if (from_us..to_us).contains(&u64::from(sample.at_us)) {
            by_kernel[sample.kernel as usize].push(f64::from(sample.ns));
        }
    }
    let mut log_sum = 0.0;
    for (times, nominal) in by_kernel.iter_mut().zip(NOMINAL_NS) {
        if times.len() < MIN_SAMPLES {
            return None;
        }
        times.sort_by(f64::total_cmp);
        log_sum += (times[times.len() / 4] / nominal).ln();
    }
    Some((SENSITIVITY * log_sum / KERNELS as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(kernel_ns: [u32; KERNELS], n: usize) -> Vec<RefSample> {
        (0..n * KERNELS)
            .map(|i| RefSample {
                at_us: 1_000 + i as u32,
                kernel: (i % KERNELS) as u8,
                ns: kernel_ns[i % KERNELS],
            })
            .collect()
    }

    #[test]
    fn factor_is_the_geometric_mean_of_the_lower_quartiles() {
        let nominal = NOMINAL_NS.map(|ns| ns as u32);
        let calm = log_of(nominal, 20);
        assert!((speed_factor(&calm, 0, 10_000).unwrap() - 1.0).abs() < 1e-9);
        // One kind of three twice as slow.
        let mut slow = nominal;
        slow[0] *= 2;
        let factor = speed_factor(&log_of(slow, 20), 0, 10_000).unwrap();
        assert!(
            (factor - 2f64.powf(SENSITIVITY / 3.0)).abs() < 1e-9,
            "{factor}"
        );
        // Preempted bursts (a minority, much longer) do not move it.
        let mut preempted = calm.clone();
        for sample in preempted.iter_mut().step_by(5) {
            sample.ns *= 40;
        }
        assert!((speed_factor(&preempted, 0, 10_000).unwrap() - 1.0).abs() < 1e-9);
        // Too few bursts of a kind, or none in the interval, give no factor.
        assert!(speed_factor(&calm[..3 * MIN_SAMPLES], 0, 10_000).is_some());
        assert!(speed_factor(&calm[..3 * MIN_SAMPLES - 1], 0, 10_000).is_none());
        assert!(speed_factor(&calm, 50_000, 60_000).is_none());
    }

    #[test]
    fn the_sampler_times_the_kinds_in_rotation_and_cleans_up() {
        let dir = crate::harness::scratch_dir().join("hostref_test");
        let start = Instant::now();
        let until = start + Duration::from_millis(60);
        let (samples, cpu_seconds) = sample(&dir, start, start, |now, _| now >= until).unwrap();
        assert!(samples.len() >= 6, "{} bursts in 60 ms", samples.len());
        for (i, sample) in samples.iter().enumerate() {
            assert_eq!(sample.kernel as usize, i % KERNELS);
            assert!(sample.ns > 0);
        }
        assert!(cpu_seconds >= 0.0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir(&dir);
    }
}
