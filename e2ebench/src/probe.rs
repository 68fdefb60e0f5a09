//! Timing probes: where the pass-through shims record what they saw.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Durations of every call through one seam, in seconds.
#[derive(Debug, Default)]
pub struct Probe {
    samples: Mutex<Vec<f64>>,
}

impl Probe {
    pub fn record(&self, d: Duration) {
        self.samples.lock().expect("probe lock poisoned").push(d.as_secs_f64());
    }

    /// Runs `f`, recording how long it took.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed());
        out
    }

    pub fn samples(&self) -> Vec<f64> {
        self.samples.lock().expect("probe lock poisoned").clone()
    }

    pub fn count(&self) -> u64 {
        self.samples.lock().expect("probe lock poisoned").len() as u64
    }

    pub fn total_s(&self) -> f64 {
        // Folded from +0.0: an empty `sum` of floats is -0.0.
        self.samples.lock().expect("probe lock poisoned").iter().fold(0.0, |a, b| a + b)
    }

    /// The `q`-quantile of the recorded durations in seconds (0 when empty).
    pub fn quantile_s(&self, q: f64) -> f64 {
        quantile(&self.samples(), q)
    }
}

/// A statistic that only counts.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        // A statistic: publishes no other data, so Relaxed is enough.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn max(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Operations attempted and failed, as `error_rate` counts them: a
/// set-up, a session run and every client call is one operation, and
/// any `Err` it returns (wire, transport, `suggest_batch` timeout,
/// driver, store) is one failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: Counter,
    pub failed: Counter,
}

impl Ops {
    /// Counts `r` as one operation, failed when it is an `Err`.
    pub fn count<T, E: std::fmt::Display>(&self, what: &str, r: Result<T, E>) -> Result<T, String> {
        self.attempted.add(1);
        r.map_err(|e| {
            self.failed.add(1);
            format!("{what}: {e}")
        })
    }
}

/// Everything the traced run records, one field per seam.
#[derive(Debug, Default)]
pub struct Layers {
    /// `TrialRunner::evaluate_attempt`: one sample per simulated run.
    pub eval: Probe,
    /// Transactions the engine simulated in the measured windows.
    pub sim_txns: Counter,
    /// Evaluations whose configuration crashed the simulated DBMS.
    pub crashed: Counter,
    /// `TrialExecutor::run_batch`.
    pub batch: Probe,
    /// Every call into the constant-liar `BatchSuggest` wrapper.
    pub liar: Probe,
    /// `OptimizerFactory` calls (the liar's rebuilds).
    pub factory: Probe,
    /// `Optimizer::suggest`/`suggest_batch` of the wrapped optimizer.
    pub suggest: Probe,
    /// `observe`/`observe_batch`/`snapshot`/`restore` of the wrapped
    /// optimizer.
    pub observe: Probe,
    /// `SearchSpaceAdapter::decode`.
    pub decode: Probe,
    /// The session loop (`run_session_resumable`) as a whole.
    pub fold: Probe,
    /// The loop's per-trial checkpoint sink (record encoding + append).
    pub sink: Probe,
    /// `StoreBackend::append`.
    pub store_append: Probe,
    /// Every `StoreBackend` call.
    pub store_busy: Probe,
    pub store_bytes: Counter,
    pub store_syncs: Counter,
    pub manifest_commits: Counter,
    /// `Client::suggest_batch` and `Client::report`.
    pub client_suggest: Probe,
    pub client_report: Probe,
    /// The wire codec of one round, re-run from outside the client.
    pub codec: Probe,
    pub wire_bytes: Counter,
    pub threads_peak: Counter,
}

/// Linear-interpolated quantile (the `(n - 1) * q` rank), 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() - 1) as f64 * q;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a 64-bit: a stable digest of a history transcript.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
