//! What the box was doing while we measured: a fixed CPU calibration loop
//! before and after each window, hypervisor steal from `/proc/stat`, the
//! process's peak RSS, and the facts printed with every result.

use std::path::Path;
use std::time::Instant;

/// A run is marked disturbed when the calibration loop slowed by more
/// than this between the start and the end of its window …
pub const DISTURBED_CALIB_DRIFT: f64 = 0.10;
/// … or the hypervisor stole more than this share of CPU time.
pub const DISTURBED_STEAL_FRAC: f64 = 0.02;

/// Milliseconds the fixed integer loop takes right now (best of three:
/// it asks "how fast is a core when we get one", not "are we scheduled").
pub fn calib_cpu_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..4_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// `(steal, total)` jiffies summed over all CPUs, from the first line of
/// `/proc/stat`. `None` off Linux or if the line is not as expected.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn parse_proc_stat(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().next()?;
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let values: Vec<u64> = fields.filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let steal = *values.get(7)?;
    Some((steal, values.iter().take(8).sum()))
}

/// Share of CPU time stolen between two [`cpu_jiffies`] readings.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Environment readings around one measured window.
#[derive(Clone, Copy, Debug, Default)]
pub struct EnvWindow {
    /// Calibration loop before the window, ms.
    pub calib_before_ms: f64,
    /// Calibration loop after the window, ms.
    pub calib_after_ms: f64,
    /// Stolen share of CPU time during the window.
    pub steal_frac: f64,
}

impl EnvWindow {
    /// Whether the window's numbers should not be trusted.
    pub fn disturbed(&self) -> bool {
        let drift = (self.calib_after_ms - self.calib_before_ms).abs()
            / self.calib_before_ms.max(f64::MIN_POSITIVE);
        drift > DISTURBED_CALIB_DRIFT || self.steal_frac > DISTURBED_STEAL_FRAC
    }
}

/// Measure the environment around `window`.
pub fn around_window<T>(window: impl FnOnce() -> T) -> (T, EnvWindow) {
    let calib_before_ms = calib_cpu_ms();
    let jiffies_before = cpu_jiffies();
    let out = window();
    let steal = steal_frac(jiffies_before, cpu_jiffies());
    let calib_after_ms = calib_cpu_ms();
    (out, EnvWindow { calib_before_ms, calib_after_ms, steal_frac: steal })
}

/// Peak resident set of this process (`VmHWM`), MiB. 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|l| l.strip_prefix("VmHWM:")?.split_whitespace().next()?.parse().ok())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Commit the benchmark was built from, read from `.git` beside the
/// benchmark's directory; `unknown` in a checkout that is not a git
/// repository.
pub fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else { return "unknown".into() };
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&git.join(reference)).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_steal_is_the_eighth_field() {
        let text = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_proc_stat(text), Some((35, 1000)));
        assert_eq!(parse_proc_stat("intr 1 2 3"), None);
        assert_eq!(steal_frac(Some((35, 1000)), Some((45, 1500))), 0.02);
        assert_eq!(steal_frac(None, Some((45, 1500))), 0.0);
    }

    #[test]
    fn vm_hwm_is_parsed_in_kb() {
        let status = "Name:\tkg-perf\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn disturbed_on_drift_or_steal() {
        let calm = EnvWindow { calib_before_ms: 10.0, calib_after_ms: 10.5, steal_frac: 0.001 };
        assert!(!calm.disturbed());
        assert!(EnvWindow { calib_after_ms: 11.5, ..calm }.disturbed());
        assert!(EnvWindow { steal_frac: 0.05, ..calm }.disturbed());
    }
}
