//! Simulation primitives: the virtual clock, utilization-based resource
//! meters (CPU, disk), and a latency reservoir for percentile estimation.
//!
//! The engine simulates at transaction granularity: each transaction's
//! timeline is computed against shared [`ResourceMeter`]s. A meter tracks
//! busy-time in small time buckets; a request observes the trailing
//! utilization and pays a queueing delay that grows hyperbolically as the
//! resource saturates, which reproduces the first-order behaviour of an
//! M/M/c queue without simulating every I/O as a discrete event.

/// Virtual time in microseconds.
pub type Micros = u64;

/// One virtual second.
pub const SECOND: Micros = 1_000_000;

/// Slots in a [`ResourceMeter`]'s bucket ring: 4 trailing buckets of
/// utilization window plus the reservation horizon ahead of the clock.
const RING: usize = 16;

/// A multi-server resource (CPU cores, SSD channels) with utilization-based
/// queueing.
#[derive(Debug, Clone)]
pub struct ResourceMeter {
    /// Number of parallel servers.
    servers: f64,
    /// Bucket width in microseconds.
    bucket_us: Micros,
    /// Busy microseconds per bucket (may include reserved future load).
    /// Bucket `b` lives at slot `b % RING`; slots are recycled as the
    /// clock advances.
    ring: [f64; RING],
    /// Most recent bucket the meter has advanced to.
    current_bucket: u64,
    /// Exponent of the queueing-delay curve: higher values delay the onset
    /// of queueing (multi-server resources queue only near saturation).
    contention_exp: f64,
    /// Total busy microseconds ever added (for utilization metrics).
    total_busy: f64,
}

impl ResourceMeter {
    /// Creates a meter with the given parallelism. `contention_exp` should
    /// be ~2 for single-server devices and larger for multi-server pools.
    pub fn new(servers: f64, bucket_us: Micros, contention_exp: f64) -> Self {
        assert!(servers > 0.0);
        assert!(bucket_us > 0);
        ResourceMeter {
            servers,
            bucket_us,
            ring: [0.0; RING],
            current_bucket: 0,
            contention_exp,
            total_busy: 0.0,
        }
    }

    /// Moves the clock forward to `bucket` (never back).
    fn advance(&mut self, bucket: u64) {
        while self.current_bucket < bucket {
            self.current_bucket += 1;
            // The bucket that just became reachable as the farthest future
            // slot still holds data from one ring-length ago; clear it.
            // (Its previous occupant, bucket current-5, is already outside
            // the 4-bucket utilization window, so nothing live is lost.)
            let stale = (self.current_bucket as usize + RING - 5) % RING;
            self.ring[stale] = 0.0;
        }
    }

    fn slot_for(&self, bucket: u64) -> Option<usize> {
        if bucket <= self.current_bucket {
            let back = (self.current_bucket - bucket) as usize;
            if back > 3 {
                return None; // too old to matter
            }
        } else {
            let ahead = (bucket - self.current_bucket) as usize;
            if ahead >= RING - 4 {
                return None; // beyond the reservation horizon
            }
        }
        Some(bucket as usize % RING)
    }

    /// Trailing utilization over the (up to) 4 most recent buckets.
    pub fn utilization(&self, now: Micros) -> f64 {
        self.utilization_at(now / self.bucket_us)
    }

    fn utilization_at(&self, bucket: u64) -> f64 {
        let mut busy = 0.0;
        let mut counted = 0u32;
        for b in bucket.saturating_sub(3)..=bucket {
            if let Some(slot) = self.slot_for(b) {
                busy += self.ring[slot];
                counted += 1;
            }
        }
        if counted == 0 {
            return 0.0;
        }
        busy / (f64::from(counted) * self.bucket_us as f64 * self.servers)
    }

    /// Executes a foreground request of `service_us` at `now`; returns the
    /// total latency (service + queueing delay).
    ///
    /// Transactions are simulated at transaction granularity, so a request
    /// may arrive slightly "in the past" of the meter's clock (an earlier-
    /// starting transaction already advanced it); such requests are charged
    /// to the oldest bucket still in the window.
    pub fn request(&mut self, now: Micros, service_us: f64) -> f64 {
        debug_assert!(service_us >= 0.0);
        let bucket = now / self.bucket_us;
        self.advance(bucket);
        let rho = self.utilization_at(bucket).min(0.98);
        let queue_factor = rho.powf(self.contention_exp) / (1.0 - rho);
        let charged = bucket.max(self.current_bucket.saturating_sub(3));
        let slot = self.slot_for(charged).expect("clamped bucket is always in the window");
        self.ring[slot] += service_us;
        self.total_busy += service_us;
        service_us * (1.0 + queue_factor.min(40.0))
    }

    /// Reserves background load (daemon work) spread uniformly over
    /// `[start, start + duration_us)`. Background load raises utilization
    /// seen by foreground requests but has no latency of its own.
    pub fn add_background(&mut self, start: Micros, total_service_us: f64, duration_us: Micros) {
        let first = start / self.bucket_us;
        self.advance(first);
        let duration = duration_us.max(self.bucket_us);
        let last = (start + duration) / self.bucket_us;
        let n = (last - first + 1) as f64;
        let per_bucket = total_service_us / n;
        // Only buckets inside the meter's window are kept (`slot_for`):
        // at most 3 behind the clock, and short of the reservation
        // horizon ahead. The rest of a long reservation is dropped, so
        // visit only the buckets that land.
        let lo = first.max(self.current_bucket.saturating_sub(3));
        let hi = last.min(self.current_bucket + RING as u64 - 5);
        for b in lo..=hi {
            self.ring[b as usize % RING] += per_bucket;
        }
        self.total_busy += total_service_us;
    }

    /// Total busy microseconds accumulated since construction.
    pub fn total_busy_us(&self) -> f64 {
        self.total_busy
    }
}

/// Fixed-capacity reservoir of latency samples for percentile estimation.
#[derive(Debug, Clone)]
pub struct LatencyReservoir {
    samples: Vec<f64>,
    seen: u64,
    cap: usize,
    state: u64,
}

impl LatencyReservoir {
    /// Creates a reservoir holding at most `cap` samples.
    pub fn new(cap: usize, seed: u64) -> Self {
        Self::with_buffer(cap, seed, Vec::new())
    }

    /// Creates an empty reservoir, exactly like [`LatencyReservoir::new`],
    /// that keeps its samples in `buffer` (emptied first), typically the
    /// [`LatencyReservoir::into_buffer`] of an earlier one.
    pub fn with_buffer(cap: usize, seed: u64, mut buffer: Vec<f64>) -> Self {
        assert!(cap > 0);
        buffer.clear();
        buffer.reserve(cap.min(4096));
        LatencyReservoir { samples: buffer, seen: 0, cap, state: seed | 1 }
    }

    /// Gives up the sample buffer for [`LatencyReservoir::with_buffer`].
    pub fn into_buffer(self) -> Vec<f64> {
        self.samples
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Records one latency observation (Vitter's Algorithm R).
    pub fn record(&mut self, latency_us: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(latency_us);
        } else {
            let idx = (self.next_u64() % self.seen) as usize;
            if idx < self.cap {
                self.samples[idx] = latency_us;
            }
        }
    }

    /// Number of observations recorded (not retained).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Percentile estimates for each `q` in `qs` (in `[0, 100]`), from
    /// one sort of the retained samples; `None` when empty. The sort is in
    /// place, so a reservoir is read this way once its run is over.
    pub fn percentiles<const N: usize>(&mut self, qs: [f64; N]) -> Option<[f64; N]> {
        if self.samples.is_empty() {
            return None;
        }
        // Unstable: no scratch buffer. Latencies are positive, so samples
        // that compare equal have equal bits and the result is the same as
        // a stable sort's.
        self.samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN latency sample"));
        Some(qs.map(|q| llamatune_math::stats::percentile_sorted(&self.samples, q)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_has_no_queueing() {
        let mut m = ResourceMeter::new(1.0, 10_000, 2.0);
        let lat = m.request(0, 100.0);
        assert!((lat - 100.0).abs() < 1e-9, "idle latency {lat}");
    }

    #[test]
    fn saturation_inflates_latency() {
        let mut m = ResourceMeter::new(1.0, 10_000, 2.0);
        // Saturate the current window.
        for t in 0..40 {
            m.request(t * 1_000, 900.0);
        }
        let busy_lat = m.request(40_000, 100.0);
        assert!(busy_lat > 150.0, "expected queueing, got {busy_lat}");

        // After a long idle gap the meter decays back to idle.
        let idle_lat = m.request(2_000_000, 100.0);
        assert!((idle_lat - 100.0).abs() < 1.0, "idle latency {idle_lat}");
    }

    #[test]
    fn multi_server_queues_later_than_single() {
        let mut single = ResourceMeter::new(1.0, 10_000, 2.0);
        let mut multi = ResourceMeter::new(10.0, 10_000, 4.0);
        for t in 0..40 {
            single.request(t * 1_000, 900.0);
            multi.request(t * 1_000, 900.0);
        }
        let s = single.request(40_000, 100.0);
        let m = multi.request(40_000, 100.0);
        assert!(m < s, "10-way resource should queue less: single={s} multi={m}");
    }

    #[test]
    fn background_load_raises_utilization() {
        let mut m = ResourceMeter::new(1.0, 10_000, 2.0);
        assert!(m.utilization(5_000) < 0.01);
        m.add_background(0, 30_000.0, 40_000);
        assert!(m.utilization(5_000) > 0.5);
        // Foreground requests see the background pressure.
        let lat = m.request(5_000, 100.0);
        assert!(lat > 150.0);
    }

    #[test]
    fn utilization_window_rolls_forward() {
        let mut m = ResourceMeter::new(1.0, 10_000, 2.0);
        m.request(0, 10_000.0);
        assert!(m.utilization(1_000) > 0.2);
        // 10 buckets later the old busy time is out of the window.
        m.advance(10); // 100 ms at 10 ms buckets
        assert!(m.utilization(100_000) < 0.01);
    }

    #[test]
    fn total_busy_accumulates() {
        let mut m = ResourceMeter::new(2.0, 10_000, 3.0);
        m.request(0, 50.0);
        m.add_background(0, 150.0, 20_000);
        assert!((m.total_busy_us() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn reservoir_exact_percentiles_under_capacity() {
        let mut r = LatencyReservoir::new(1000, 42);
        for i in 1..=100 {
            r.record(i as f64);
        }
        assert_eq!(r.count(), 100);
        let [p50, p95] = r.percentiles([50.0, 95.0]).unwrap();
        assert!((p50 - 50.5).abs() < 1.0, "p50 {p50}");
        assert!((p95 - 95.0).abs() < 1.5, "p95 {p95}");
    }

    #[test]
    fn reservoir_approximates_after_overflow() {
        let mut r = LatencyReservoir::new(512, 7);
        for i in 0..50_000 {
            r.record((i % 1000) as f64);
        }
        assert_eq!(r.count(), 50_000);
        let [p50] = r.percentiles([50.0]).unwrap();
        assert!((p50 - 500.0).abs() < 80.0, "p50 {p50}");
    }

    #[test]
    fn reservoir_on_a_used_buffer_matches_a_new_one() {
        let mut used = LatencyReservoir::new(64, 3);
        for i in 0..1_000 {
            used.record(f64::from(i));
        }
        let _ = used.percentiles([50.0]);
        let mut recycled = LatencyReservoir::with_buffer(512, 7, used.into_buffer());
        let mut fresh = LatencyReservoir::new(512, 7);
        for i in 0..5_000 {
            let x = f64::from((i * 37) % 1_001);
            recycled.record(x);
            fresh.record(x);
        }
        let qs = [50.0, 95.0, 99.0];
        assert_eq!(
            recycled.percentiles(qs).map(|p| p.map(f64::to_bits)),
            fresh.percentiles(qs).map(|p| p.map(f64::to_bits))
        );
    }

    #[test]
    fn empty_reservoir_has_no_percentile() {
        let mut r = LatencyReservoir::new(8, 1);
        assert!(r.percentiles([95.0]).is_none());
    }
}
