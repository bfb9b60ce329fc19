//! Lock-cheap metrics registry with Prometheus text exposition.
//!
//! Counters and gauges are single relaxed atomics; histograms are a
//! fixed array of power-of-two microsecond buckets, so recording a
//! latency is one atomic add on the bucket plus two on sum/count —
//! no locks anywhere on the hot path. [`ServeMetrics::render`] walks
//! the registry and emits the Prometheus text format (`# TYPE` lines,
//! cumulative `_bucket{le=...}` series, `_sum`/`_count`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge that can move both ways (e.g. current queue depth).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one, atomically: concurrent callers never lose an update.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one, atomically, stopping at zero.
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` covers latencies up to
/// `2^i` microseconds, so 32 buckets span 1 µs to ~71 minutes before
/// the implicit `+Inf` overflow bucket.
pub const HIST_BUCKETS: usize = 32;

/// A log-scale latency histogram (power-of-two µs buckets).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    overflow: AtomicU64,
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        // Bucket i holds observations with micros <= 2^i.
        let idx = (64 - micros.max(1).leading_zeros()).saturating_sub(1) as usize
            + usize::from(!micros.max(1).is_power_of_two());
        if idx < HIST_BUCKETS {
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        } else {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed latencies, in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    fn render_into(&self, out: &mut String, name: &str, help: &str) {
        use std::fmt::Write;
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let le = 1u64 << i;
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        cumulative += self.overflow.load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", self.sum_micros());
        let _ = writeln!(out, "{name}_count {}", self.count());
    }
}

/// The process-wide serving metrics registry.
///
/// One instance lives in an `Arc` shared by the acceptor, the worker
/// pool, and the `/metrics` HTTP listener. Cache and engine counters
/// are *not* duplicated here — `render` pulls them live from the
/// snapshots the server passes in, so the registry can stay
/// allocation-free on the request path.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests accepted off the wire (any op).
    pub requests_total: Counter,
    /// Requests rejected because the admission queue was full.
    pub requests_shed: Counter,
    /// Requests that failed (parse errors, exec errors, deadlines).
    pub requests_failed: Counter,
    /// Requests whose deadline expired (subset of `requests_failed`).
    pub deadline_expired: Counter,
    /// Current depth of the admission queue.
    pub queue_depth: Gauge,
    /// Time from admission to the start of execution.
    pub queue_wait: Histogram,
    /// End-to-end compile latency (cache misses only).
    pub compile_latency: Histogram,
    /// End-to-end execute latency for `run`/`bench` ops.
    pub run_latency: Histogram,
    /// Connections accepted on the request port.
    pub connections_total: Counter,
    /// Connections currently open on the request port (the reactor
    /// maintains this; with thousands of idle clients this is the
    /// number to watch, not `connections_total`).
    pub open_connections: Gauge,
}

impl ServeMetrics {
    /// Renders the registry (plus `extra` subsystem samples, each a
    /// Prometheus name and its value, e.g. `flexvec_cache_hits_total`)
    /// in Prometheus text exposition format.
    pub fn render(&self, extra: &[(&'static str, u64)]) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096);
        let counters: [(&str, &str, u64); 5] = [
            (
                "flexvec_serve_requests_total",
                "Requests accepted off the wire",
                self.requests_total.get(),
            ),
            (
                "flexvec_serve_requests_shed_total",
                "Requests rejected by admission control",
                self.requests_shed.get(),
            ),
            (
                "flexvec_serve_requests_failed_total",
                "Requests that returned a structured error",
                self.requests_failed.get(),
            ),
            (
                "flexvec_serve_deadline_expired_total",
                "Requests cancelled by their deadline",
                self.deadline_expired.get(),
            ),
            (
                "flexvec_serve_connections_total",
                "TCP connections accepted",
                self.connections_total.get(),
            ),
        ];
        for (name, help, value) in counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        // Gauges, pre-seeded (rendered from the very first scrape, like
        // the tier counters).
        let gauges: [(&str, &str, u64); 2] = [
            (
                "flexvec_open_connections",
                "Request connections currently open",
                self.open_connections.get(),
            ),
            (
                "flexvec_serve_queue_depth",
                "Current admission queue depth",
                self.queue_depth.get(),
            ),
        ];
        for (name, help, value) in gauges {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        self.queue_wait.render_into(
            &mut out,
            "flexvec_serve_queue_wait_micros",
            "Microseconds from admission to execution start",
        );
        self.compile_latency.render_into(
            &mut out,
            "flexvec_serve_compile_micros",
            "Compile latency in microseconds (cache misses only)",
        );
        self.run_latency.render_into(
            &mut out,
            "flexvec_serve_run_micros",
            "Execution latency in microseconds",
        );
        // Labeled samples (`name{label="v"}`) share one metric family:
        // the TYPE line is emitted once per base name, and families
        // without the `_total` suffix are gauges (cache entry counts,
        // active-spec breakdowns), not counters.
        let mut typed = std::collections::BTreeSet::new();
        for &(name, value) in extra {
            let base = name.split('{').next().unwrap_or(name);
            if typed.insert(base) {
                let kind = if base.ends_with("_total") {
                    "counter"
                } else {
                    "gauge"
                };
                let _ = writeln!(out, "# TYPE {base} {kind}");
            }
            let _ = writeln!(out, "{name} {value}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(1)); // bucket 0 (le 1)
        h.observe(Duration::from_micros(2)); // bucket 1 (le 2)
        h.observe(Duration::from_micros(3)); // bucket 2 (le 4)
        h.observe(Duration::from_micros(1024)); // bucket 10
        h.observe(Duration::from_secs(90 * 60)); // overflow
        assert_eq!(h.count(), 5);
        let mut out = String::new();
        h.render_into(&mut out, "t", "test");
        assert!(out.contains("t_bucket{le=\"1\"} 1"));
        assert!(out.contains("t_bucket{le=\"2\"} 2"));
        assert!(out.contains("t_bucket{le=\"4\"} 3"));
        assert!(out.contains("t_bucket{le=\"1024\"} 4"));
        assert!(out.contains("t_bucket{le=\"+Inf\"} 5"));
        assert!(out.contains("t_count 5"));
    }

    #[test]
    fn render_includes_every_family_and_extras() {
        let m = ServeMetrics::default();
        m.requests_total.add(3);
        m.queue_depth.set(2);
        m.run_latency.observe(Duration::from_micros(100));
        let text = m.render(&[
            ("flexvec_cache_hits", 9),
            ("flexvec_autotune_active_spec{mode=\"auto\"}", 2),
            ("flexvec_autotune_active_spec{mode=\"rtm\"}", 1),
        ]);
        assert!(text.contains("flexvec_serve_requests_total 3"));
        assert!(text.contains("# TYPE flexvec_serve_queue_depth gauge"));
        assert!(text.contains("flexvec_serve_queue_depth 2"));
        assert!(text.contains("flexvec_serve_run_micros_count 1"));
        assert!(text.contains("flexvec_cache_hits 9"));
        // Labeled samples share one TYPE line under the base name, and
        // non-_total families are gauges.
        assert!(text.contains("# TYPE flexvec_cache_hits gauge"));
        assert!(text.contains("# TYPE flexvec_autotune_active_spec gauge"));
        assert_eq!(
            text.matches("# TYPE flexvec_autotune_active_spec").count(),
            1
        );
        assert!(text.contains("flexvec_autotune_active_spec{mode=\"auto\"} 2"));
        assert!(text.contains("flexvec_autotune_active_spec{mode=\"rtm\"} 1"));
    }

    #[test]
    fn connection_and_queue_gauges_are_pre_seeded() {
        // A freshly constructed registry must already render both
        // first-class gauges (value 0), so they exist from the first
        // scrape rather than appearing when the first client connects.
        let m = ServeMetrics::default();
        let text = m.render(&[]);
        assert!(text.contains("# TYPE flexvec_open_connections gauge"));
        assert!(text.contains("flexvec_open_connections 0"));
        assert!(text.contains("# TYPE flexvec_serve_queue_depth gauge"));
        assert!(text.contains("flexvec_serve_queue_depth 0"));
        // The queue depth is exported once, under the `serve` prefix.
        assert!(!text.contains("flexvec_queue_depth"), "{text}");

        m.open_connections.set(5001);
        m.queue_depth.set(7);
        let text = m.render(&[]);
        assert!(text.contains("flexvec_open_connections 5001"));
        assert!(text.contains("flexvec_serve_queue_depth 7"));
    }

    #[test]
    fn zero_micros_lands_in_first_bucket() {
        let h = Histogram::default();
        h.observe(Duration::ZERO);
        let mut out = String::new();
        h.render_into(&mut out, "t", "test");
        assert!(out.contains("t_bucket{le=\"1\"} 1"));
    }
}
