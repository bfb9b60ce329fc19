//! Statistics the benchmark reports: percentiles under the tail rule,
//! quartiles as Python's `statistics.quantiles` computes them, the
//! open-loop step verdict, and the seeded Poisson arrival schedule.

use flexvec_fuzz::Rng;

/// Latency limit on a rate step's p99. Four times the 25 ms first
/// proposed: the daemon re-verifies every kernel once per 65 runs, and
/// an audit of the largest paper kernels takes 20-60 ms of service
/// time, so a 25 ms p99 is missed at any rate (measured: 36-48 ms at
/// 112-253 req/s). At 100 ms the limit is crossed by queueing.
pub const SLO_P99_MS: f64 = 100.0;

/// A rate step whose generator ran later than this did not offer
/// the load it claims, so it cannot pass. A fifth of the SLO: on a
/// two-core machine the generator shares the cores with the daemon's
/// two workers, and a woken thread waits up to a scheduler slice for
/// one (1.5-3.7 ms p99 measured at 300 req/s). Latency is timed from
/// the due time, so the lateness is inside every reported latency.
pub const MAX_LATENESS_MS: f64 = 5.0;

/// Samples a reported percentile must leave beyond it.
const MIN_BEYOND: usize = 10;

/// Percentiles the tail may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` in a sample of `n` (the
/// epsilon keeps 99.9% of 10000 at rank 9990 despite rounding).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of an ascending sample.
///
/// # Panics
///
/// On an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest percentile, no higher than `nominal`, that leaves at
/// least ten of `n` samples beyond it (50 when even that fails).
pub fn tail_percentile(n: usize, nominal: f64) -> f64 {
    TAIL_LADDER
        .into_iter()
        .filter(|p| *p <= nominal)
        .find(|p| n.saturating_sub(rank(n, *p)) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the `exclusive` method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the run-to-run spread
/// is judged by.
///
/// # Panics
///
/// With fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One operation, in s from the start of the measured span: when it
/// started (for an open loop, when it was due) and when it finished.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    /// Start (or due) time, s.
    pub start: f64,
    /// Completion time, s.
    pub end: f64,
}

impl Op {
    /// Latency, ms.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// Windows a measured span is cut into.
pub const WINDOWS: usize = 10;

/// Windows kept: the least-disturbed half.
const KEPT: usize = WINDOWS / 2;

/// The end-to-end numbers of one measured span, taken over its
/// least-disturbed half (see [`summarize`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Operations that finished in the kept windows.
    pub n: usize,
    /// Operations finished per second in the kept windows.
    pub ops_per_s: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// The tail percentile reported.
    pub tail_pct: f64,
    /// The tail latency, ms.
    pub tail_ms: f64,
    /// Samples beyond the tail percentile.
    pub beyond: usize,
    /// Process CPU time per operation, ms.
    pub cpu_ms_per_op: f64,
}

/// Summarizes operations measured over `seconds`.
///
/// The span is cut into [`WINDOWS`] equal windows and only the half
/// with the lowest CPU time per operation is kept: the machine is
/// shared, and other tenants slow it down for seconds at a time (the
/// CPU time of one deterministic Figure 8 sweep ranged from 144 to
/// 300 ms between the windows of a single run). Other tenants only ever
/// slow a window down, so the least-disturbed windows measure the
/// software; a change that slows the software slows those too.
///
/// `cpu_marks` holds the process CPU time (s) at each window boundary
/// (`WINDOWS + 1` readings). An operation counts towards each window's
/// work by the share of its duration inside the window (so slow
/// operations do not quantize the rate), and towards the latency of the
/// window it finished in. The tail percentile is capped at `nominal`.
///
/// # Panics
///
/// When no operation finished in the span.
pub fn summarize(ops: &[Op], seconds: f64, cpu_marks: &[f64], nominal: f64) -> Summary {
    assert!(!ops.is_empty(), "no operation finished");
    let w = seconds / WINDOWS as f64;
    // An operation ending exactly on a boundary belongs to the window
    // that holds its work.
    let window = |t: f64| (((t - 1e-9) / w).max(0.0) as usize).min(WINDOWS - 1);
    let mut work = [0.0; WINDOWS];
    for op in ops {
        let dur = (op.end - op.start).max(1e-12);
        for (k, share) in work.iter_mut().enumerate() {
            let (a, b) = (k as f64 * w, (k + 1) as f64 * w);
            *share += (op.end.min(b) - op.start.max(a)).max(0.0) / dur;
        }
    }
    let cpu = |k: usize| match (cpu_marks.get(k), cpu_marks.get(k + 1)) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    let mut order: Vec<usize> = (0..WINDOWS).filter(|k| work[*k] > 0.0).collect();
    order.sort_by(|a, b| (cpu(*a) / work[*a]).total_cmp(&(cpu(*b) / work[*b])));
    order.truncate(KEPT);
    let kept_work: f64 = order.iter().map(|k| work[*k]).sum();
    let kept_cpu: f64 = order.iter().map(|k| cpu(*k)).sum();
    let mut lat: Vec<f64> = ops
        .iter()
        .filter(|op| order.contains(&window(op.end)))
        .map(Op::ms)
        .collect();
    if lat.is_empty() {
        lat = ops.iter().map(Op::ms).collect();
    }
    let l = Latency::of(&mut lat, nominal);
    Summary {
        n: l.n,
        ops_per_s: kept_work / (order.len().max(1) as f64 * w),
        p50_ms: l.p50_ms,
        tail_pct: l.tail_pct,
        tail_ms: l.tail_ms,
        beyond: l.beyond(),
        cpu_ms_per_op: kept_cpu * 1e3 / kept_work.max(f64::MIN_POSITIVE),
    }
}

/// Latency summary of one sample: median and tail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median, ms.
    pub p50_ms: f64,
    /// Which percentile `tail_ms` is.
    pub tail_pct: f64,
    /// The tail percentile, ms.
    pub tail_ms: f64,
}

impl Latency {
    /// Summarizes `samples_ms` with the tail capped at `nominal`.
    ///
    /// # Panics
    ///
    /// On an empty sample.
    pub fn of(samples_ms: &mut [f64], nominal: f64) -> Latency {
        samples_ms.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(samples_ms.len(), nominal);
        Latency {
            n: samples_ms.len(),
            p50_ms: percentile(samples_ms, 50.0),
            tail_pct,
            tail_ms: percentile(samples_ms, tail_pct),
        }
    }

    /// Samples beyond the reported tail percentile.
    pub fn beyond(&self) -> usize {
        self.n.saturating_sub(rank(self.n, self.tail_pct))
    }
}

/// What one open-loop rate step observed.
#[derive(Clone, Debug, Default)]
pub struct Step {
    /// Offered rate, req/s.
    pub rate: f64,
    /// Step length, s.
    pub seconds: f64,
    /// Requests due in the step.
    pub sent: usize,
    /// Requests that failed or were never answered.
    pub errors: usize,
    /// Every answered request, from its due time to its reply, s from
    /// the step's start.
    pub ops: Vec<Op>,
    /// Requests sent but unanswered at the step's midpoint.
    pub backlog_mid: usize,
    /// Requests sent but unanswered at the step's end.
    pub backlog_end: usize,
    /// How late the generator sent, ms, at the highest percentile up to
    /// p99 with ten samples beyond it.
    pub lateness_ms: f64,
}

impl Step {
    /// Whether the unanswered backlog grew from midpoint to end by more
    /// than a stable queue holds: by Little's law, requests that all
    /// meet the SLO leave at most `rate × SLO` in flight (at least 4).
    pub fn backlog_grew(&self) -> bool {
        let slack = (self.rate * SLO_P99_MS / 1e3).max(4.0);
        self.backlog_end as f64 > self.backlog_mid as f64 + slack
    }

    /// p99 of the answered requests (infinite when none were).
    pub fn p99_ms(&self) -> f64 {
        let mut v: Vec<f64> = self.ops.iter().map(Op::ms).collect();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            f64::INFINITY
        } else {
            percentile(&v, 99.0)
        }
    }

    /// The step verdict: p99 within the SLO, no errors, no backlog
    /// growth, and a generator that kept to its schedule.
    pub fn passes(&self) -> bool {
        self.errors == 0
            && self.p99_ms() <= SLO_P99_MS
            && !self.backlog_grew()
            && self.lateness_ms <= MAX_LATENESS_MS
    }
}

/// Uniform draw in `(0, 1]` from the fuzz crate's SplitMix64.
fn unit(rng: &mut Rng) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Seeded Poisson arrivals at `rate` req/s over `seconds`: the offsets,
/// in seconds from the step start, at which requests are due.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ rate.to_bits());
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -unit(&mut rng).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000, 99.0), 99.0);
        assert_eq!(tail_percentile(999, 99.0), 95.0);
        assert_eq!(tail_percentile(199, 99.0), 90.0);
        assert_eq!(tail_percentile(10_000, 99.9), 99.9);
        assert_eq!(tail_percentile(10_000, 99.0), 99.0, "capped at nominal");
        assert_eq!(tail_percentile(100, 90.0), 90.0);
        assert_eq!(tail_percentile(99, 90.0), 75.0);
        assert_eq!(tail_percentile(39, 90.0), 50.0);
        assert_eq!(tail_percentile(5, 99.0), 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0]), 2.0);
    }

    #[test]
    fn step_verdict_needs_slo_no_errors_no_backlog_and_a_punctual_generator() {
        let after_ms = |ms: f64| Op {
            start: 0.0,
            end: ms / 1e3,
        };
        let ok = Step {
            rate: 300.0,
            sent: 1000,
            ops: vec![after_ms(1.0); 1000],
            backlog_mid: 2,
            backlog_end: 3,
            ..Step::default()
        };
        assert!(ok.passes());
        let slow = Step {
            ops: vec![after_ms(SLO_P99_MS + 5.0); 1000],
            ..ok.clone()
        };
        assert!(!slow.passes(), "p99 over the SLO");
        assert!(!Step {
            errors: 1,
            ..ok.clone()
        }
        .passes());
        // 300 req/s meeting a 100 ms SLO leaves at most 30 in flight.
        let stable = Step {
            backlog_end: 32,
            ..ok.clone()
        };
        assert!(!stable.backlog_grew());
        let growing = Step {
            backlog_end: 33,
            ..ok.clone()
        };
        assert!(growing.backlog_grew() && !growing.passes());
        let late = Step {
            lateness_ms: MAX_LATENESS_MS + 0.5,
            ..ok.clone()
        };
        assert!(!late.passes());
        assert!(!Step::default().passes(), "nothing answered");
    }

    #[test]
    fn summary_keeps_the_least_disturbed_half() {
        // 100 ops of 0.1 s back to back over 10 s, 1 ms of CPU each;
        // windows 0-4 were slowed down (3 ms of CPU per op) and their
        // ops were due 50 ms before they started.
        let ops: Vec<Op> = (0..100)
            .map(|i| Op {
                start: i as f64 * 0.1 - if i < 50 { 0.05 } else { 0.0 },
                end: (i + 1) as f64 * 0.1,
            })
            .collect();
        let mut marks = vec![0.0];
        for k in 0..WINDOWS {
            let per_op = if k < 5 { 0.003 } else { 0.001 };
            marks.push(marks[k] + 10.0 * per_op);
        }
        let s = summarize(&ops, 10.0, &marks, 99.0);
        assert_eq!(s.n, 50, "only the ops of the five kept windows");
        assert!((s.p50_ms - 100.0).abs() < 1e-6, "{}", s.p50_ms);
        assert!((s.cpu_ms_per_op - 1.0).abs() < 1e-9, "{}", s.cpu_ms_per_op);
        assert!((s.ops_per_s - 10.0).abs() < 1e-9, "{}", s.ops_per_s);
        assert_eq!(s.tail_pct, 75.0, "50 samples carry a p75, not a p90");
    }

    #[test]
    fn summary_shares_a_long_op_between_windows() {
        // One op spanning the whole span counts a tenth in each window.
        let ops = [Op {
            start: 0.0,
            end: 10.0,
        }];
        let marks: Vec<f64> = (0..=WINDOWS).map(|k| k as f64).collect();
        let s = summarize(&ops, 10.0, &marks, 90.0);
        assert!((s.ops_per_s - 0.1).abs() < 1e-12);
        assert!((s.cpu_ms_per_op - 10_000.0).abs() < 1e-6);
        assert_eq!(s.p50_ms, 10_000.0);
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(7, 675.0, 4.0);
        assert_eq!(a, poisson_schedule(7, 675.0, 4.0));
        assert_ne!(a, poisson_schedule(8, 675.0, 4.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|t| (0.0..4.0).contains(t)));
        // 2700 expected arrivals; the count is within a few sigma.
        assert!((2500..2900).contains(&a.len()), "{}", a.len());
    }
}
