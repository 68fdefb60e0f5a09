//! Process statistics read from `/proc/self` (Linux).

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100
/// on every Linux architecture the repository builds for).
const TICKS_PER_S: f64 = 100.0;

fn status_field(name: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) in MB, 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Resets the peak resident set size to the current one (Linux 4.0 and
/// later), so that [`peak_rss_mb`] reports the peak since this call.
/// Where the kernel refuses, the peak keeps counting from process start.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Threads of this process right now, 0 when unavailable.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// User plus system CPU seconds this process has used so far.
pub fn cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime and stime are fields 14 and 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}
