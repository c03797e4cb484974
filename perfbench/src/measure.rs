//! Measurement helpers shared by every workload: percentiles with their
//! sample counts, steal-free chunks and fastest replays, the host-speed
//! guard, the seeded Zipf sampler and Poisson arrival schedule, the peak-RSS
//! reader, and the per-layer span tally of the traced runs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::Rng;

/// The `q`-quantile of an ascending slice: the sample at rank
/// `round((n - 1) * q)`. `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    Some(sorted[rank])
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5).unwrap_or(0.0)
}

/// The highest of p99.9, p99 and p90 that has at least ten samples beyond
/// it among `samples`, as a percentage; `None` below 100 samples.
pub fn supported_tail_percent(samples: usize) -> Option<f64> {
    // In tenths of a percent, so the count beyond is exact.
    [999usize, 990, 900]
        .into_iter()
        .find(|&permille| samples * (1000 - permille) >= 10 * 1000)
        .map(|permille| permille as f64 / 10.0)
}

/// Median and supported tail of a set of latencies, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples the percentiles were taken over.
    pub samples: usize,
    /// Median latency.
    pub p50_ms: f64,
    /// The tail percentile reported (see [`supported_tail_percent`]).
    pub tail_percent: Option<f64>,
    /// Latency at `tail_percent`.
    pub tail_ms: Option<f64>,
}

/// Median and tail of latencies given in milliseconds.
pub fn summarize_ms(samples_ms: &[f64]) -> LatencySummary {
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_percent = supported_tail_percent(sorted.len());
    LatencySummary {
        samples: sorted.len(),
        p50_ms: quantile(&sorted, 0.5).unwrap_or(0.0),
        tail_percent,
        tail_ms: tail_percent.and_then(|percent| quantile(&sorted, percent / 100.0)),
    }
}

/// The host's current speed, read from a fixed memory-touching kernel that
/// belongs to the benchmark, not to the program under test: a
/// running-average update with a data-dependent branch over 512 KiB, the
/// shape of the vision front end's per-pixel passes.
///
/// It is a guard printed beside a run's figures and never applied to them:
/// on a shared VM the host's speed drifted by up to 1.5× over minutes, so
/// two runs whose kernel times differ by more than a metric's bound ran on
/// hosts of different speed and do not compare.
#[derive(Debug, Clone)]
pub struct HostSpeed {
    buffer: Vec<f64>,
    state: u64,
    samples_ms: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            buffer: vec![128.0; 64 * 1024],
            state: 0x9E37_79B9_7F4A_7C15,
            samples_ms: Vec::new(),
        }
    }
}

impl HostSpeed {
    /// Runs the kernel once and records how long it took.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut x = self.state;
        let mut foreground = 0u32;
        for _ in 0..2 {
            for value in self.buffer.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let pixel = (x & 255) as f64;
                if (pixel - *value).abs() > 100.0 {
                    foreground += 1;
                } else {
                    *value = 0.95 * *value + 0.05 * pixel;
                }
            }
        }
        self.state = std::hint::black_box(x ^ u64::from(foreground));
        self.samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// Median kernel time in milliseconds (0 before any sample).
    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }
}

/// CPU time the hypervisor gave to other guests, summed over this VM's
/// CPUs, in ticks of 1/100 s: the `steal` field of the `cpu` line of a
/// `/proc/stat` text.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|line| line.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// This VM's steal ticks so far, from `/proc/stat`.
pub fn steal_ticks() -> Option<u64> {
    parse_steal_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Operations split into consecutive chunks of a few operations each,
/// every chunk flagged by whether the hypervisor stole CPU time while it
/// ran. The figures are taken over the chunks without steal (over all
/// chunks when none is clean), so time the host gave to other guests does
/// not count as the program's.
#[derive(Debug, Clone)]
pub struct Chunks {
    ops_per_chunk: usize,
    ops: usize,
    work: f64,
    busy_s: f64,
    open: Vec<f64>,
    steal_mark: Option<u64>,
    /// Per finished chunk: work per busy second, and whether it saw steal.
    done: Vec<(f64, bool)>,
    /// Latencies (ms) of every finished chunk, and of the clean ones.
    all_ms: Vec<f64>,
    clean_ms: Vec<f64>,
}

impl Default for Chunks {
    /// Chunks of [`Chunks::DEFAULT_OPS`] operations.
    fn default() -> Self {
        Chunks::new(Chunks::DEFAULT_OPS)
    }
}

impl Chunks {
    /// Operations per chunk unless stated otherwise: a few milliseconds of
    /// work in every workload, short enough that many chunks fall between
    /// the host's steal bursts.
    pub const DEFAULT_OPS: usize = 10;

    /// Chunks of `ops_per_chunk` operations, starting now.
    pub fn new(ops_per_chunk: usize) -> Self {
        Chunks {
            ops_per_chunk: ops_per_chunk.max(1),
            ops: 0,
            work: 0.0,
            busy_s: 0.0,
            open: Vec::new(),
            steal_mark: steal_ticks(),
            done: Vec::new(),
            all_ms: Vec::new(),
            clean_ms: Vec::new(),
        }
    }

    /// Adds `units` of work done in `busy` to the open chunk.
    pub fn work(&mut self, units: f64, busy: Duration) {
        self.work += units;
        self.busy_s += busy.as_secs_f64();
    }

    /// Adds one latency sample to the open chunk.
    pub fn latency(&mut self, elapsed: Duration) {
        self.open.push(elapsed.as_secs_f64() * 1e3);
    }

    /// Ends one operation; every `ops_per_chunk` operations close a chunk.
    pub fn end_op(&mut self) {
        self.ops += 1;
        if self.ops < self.ops_per_chunk {
            return;
        }
        let steal = steal_ticks();
        let stolen = steal != self.steal_mark;
        self.steal_mark = steal;
        self.done.push((ratio(self.work, self.busy_s), stolen));
        self.all_ms.extend_from_slice(&self.open);
        if !stolen {
            self.clean_ms.extend_from_slice(&self.open);
        }
        self.open.clear();
        self.ops = 0;
        self.work = 0.0;
        self.busy_s = 0.0;
    }

    /// `(chunks without steal, all chunks)`.
    pub fn clean_share(&self) -> (usize, usize) {
        let clean = self.done.iter().filter(|(_, stolen)| !stolen).count();
        (clean, self.done.len())
    }

    /// Whether any chunk ran without steal, so the figures can be taken
    /// over the clean chunks alone.
    fn use_clean(&self) -> bool {
        self.clean_share().0 > 0
    }

    /// Median over the counted chunks of work per busy second.
    pub fn median_rate(&self) -> f64 {
        let clean_only = self.use_clean();
        let rates: Vec<f64> = self
            .done
            .iter()
            .filter(|(_, stolen)| !(clean_only && *stolen))
            .map(|(rate, _)| *rate)
            .collect();
        median(&rates)
    }

    /// Latency summary over the operations of the counted chunks.
    pub fn summary(&self) -> LatencySummary {
        summarize_ms(if self.use_clean() {
            &self.clean_ms
        } else {
            &self.all_ms
        })
    }
}

/// Each position's fastest time over replays of one fixed sequence of
/// operations. A replay slowed at some moment by the host's other guests
/// leaves the figures alone as long as one replay of each operation ran
/// unhindered; a change that slows every replay of an operation shows in
/// full.
#[derive(Debug, Clone)]
pub struct Fastest {
    best_ms: Vec<f64>,
}

impl Fastest {
    /// A tally of `positions` operations per replay, none timed yet.
    pub fn new(positions: usize) -> Self {
        Fastest {
            best_ms: vec![f64::INFINITY; positions],
        }
    }

    /// Records one replay of the operation at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position` is not below the tally's length.
    pub fn record(&mut self, position: usize, elapsed: Duration) {
        let best = &mut self.best_ms[position];
        *best = best.min(elapsed.as_secs_f64() * 1e3);
    }

    /// The fastest times of the positions recorded so far, in milliseconds.
    fn timed_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.best_ms.iter().copied().filter(|ms| ms.is_finite())
    }

    /// Operations per second over the sum of their fastest times.
    pub fn rate(&self) -> f64 {
        let (count, total_ms) = self
            .timed_ms()
            .fold((0usize, 0.0), |(n, sum), ms| (n + 1, sum + ms));
        ratio(count as f64 * 1e3, total_ms)
    }

    /// Median over the positions of their fastest time.
    pub fn p50_ms(&self) -> f64 {
        median(&self.timed_ms().collect::<Vec<_>>())
    }
}

/// Times one call, adding it to `spans` as a span of `name` when traced.
pub fn timed<T>(
    spans: Option<&mut Spans>,
    name: &'static str,
    call: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let out = call();
    let elapsed = start.elapsed();
    if let Some(spans) = spans {
        spans.add(name, elapsed);
    }
    (out, elapsed)
}

/// Zipf-distributed ranks over `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^exponent`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler's cumulative table.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "a Zipf sampler needs at least one rank");
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                total += (k as f64).powf(-exponent);
                total
            })
            .collect();
        for value in &mut cdf {
            *value /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Send offsets of an open-loop Poisson arrival process at
/// `rate_per_second`, from 0 up to (excluding) `duration`.
pub fn poisson_schedule<R: Rng + ?Sized>(
    rate_per_second: f64,
    duration: Duration,
    rng: &mut R,
) -> Vec<Duration> {
    let end = duration.as_secs_f64();
    let mut at = 0.0;
    let mut schedule = Vec::with_capacity((rate_per_second * end * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate_per_second;
        if at >= end {
            return schedule;
        }
        schedule.push(Duration::from_secs_f64(at));
    }
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
}

/// This process's peak resident set in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// Total time and call count of one named span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Summed span durations.
    pub total: Duration,
    /// Spans recorded.
    pub calls: u64,
}

/// Per-name span totals, kept in memory and read out when a run ends.
#[derive(Debug, Default)]
pub struct Spans {
    tallies: BTreeMap<&'static str, Tally>,
}

impl Spans {
    /// Records one span of `name` that took `elapsed`.
    pub fn add(&mut self, name: &'static str, elapsed: Duration) {
        let tally = self.tallies.entry(name).or_default();
        tally.total += elapsed;
        tally.calls += 1;
    }

    /// Adds every tally of `other`, e.g. spans recorded on another thread.
    pub fn merge(&mut self, other: &Spans) {
        for (name, tally) in &other.tallies {
            let mine = self.tallies.entry(name).or_default();
            mine.total += tally.total;
            mine.calls += tally.calls;
        }
    }

    /// The tally of `name` (zero if never recorded).
    pub fn get(&self, name: &str) -> Tally {
        self.tallies.get(name).copied().unwrap_or_default()
    }

    /// Mean span length of `name` in microseconds (0 if never recorded).
    pub fn mean_us(&self, name: &str) -> f64 {
        let tally = self.get(name);
        if tally.calls == 0 {
            0.0
        } else {
            tally.total.as_secs_f64() * 1e6 / tally.calls as f64
        }
    }

    /// Total time of `name` divided over `per` units, in microseconds.
    pub fn per_unit_us(&self, name: &str, per: u64) -> f64 {
        self.get(name).total.as_secs_f64() * 1e6 / per.max(1) as f64
    }
}

/// Share `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quantile_picks_the_rounded_rank() {
        let sorted: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), Some(51.0));
        assert_eq!(quantile(&sorted, 0.99), Some(100.0));
        assert_eq!(quantile(&sorted, 0.0), Some(1.0));
        assert_eq!(quantile(&sorted, 1.0), Some(101.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail_percent(99), None);
        assert_eq!(supported_tail_percent(100), Some(90.0));
        assert_eq!(supported_tail_percent(999), Some(90.0));
        assert_eq!(supported_tail_percent(1000), Some(99.0));
        assert_eq!(supported_tail_percent(10_000), Some(99.9));
    }

    #[test]
    fn latency_summary_reports_its_sample_count() {
        let samples: Vec<f64> = (1..=1000).map(|micros| f64::from(micros) / 1e3).collect();
        let summary = summarize_ms(&samples);
        assert_eq!(summary.samples, 1000);
        assert!((summary.p50_ms - 0.501).abs() < 1e-9, "{summary:?}");
        assert_eq!(summary.tail_percent, Some(99.0));
        assert!(
            (summary.tail_ms.unwrap() - 0.990).abs() < 1e-9,
            "{summary:?}"
        );
        let few = summarize_ms(&samples[..50]);
        assert_eq!(
            (few.samples, few.tail_percent, few.tail_ms),
            (50, None, None)
        );
    }

    #[test]
    fn chunks_close_every_few_operations() {
        let mut chunks = Chunks::new(4);
        for _ in 0..10 {
            chunks.work(2.0, Duration::from_millis(1));
            chunks.latency(Duration::from_millis(1));
            chunks.end_op();
        }
        // Two whole chunks; the open one is not counted yet.
        assert_eq!(chunks.clean_share().1, 2);
        assert_eq!(chunks.summary().samples % 4, 0);
        assert!((chunks.median_rate() - 2000.0).abs() < 1e-6);
        assert!((chunks.summary().p50_ms - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fastest_keeps_each_positions_best_replay() {
        let ms = Duration::from_millis;
        let mut fastest = Fastest::new(3);
        for (position, millis) in [(0, 4), (1, 2), (0, 1), (1, 8), (0, 9)] {
            fastest.record(position, ms(millis));
        }
        // Position 2 never ran; positions 0 and 1 are best at 1 and 2 ms.
        assert!((fastest.rate() - 2.0 / 3e-3).abs() < 1e-6);
        assert!((fastest.p50_ms() - 2.0).abs() < 1e-9);
        assert_eq!(Fastest::new(2).rate(), 0.0);
    }

    #[test]
    fn host_kernel_reports_its_median_time() {
        let mut host = HostSpeed::default();
        assert_eq!(host.median_ms(), 0.0);
        host.sample();
        host.sample();
        assert!(host.median_ms() > 0.0 && host.median_ms().is_finite());
    }

    #[test]
    fn steal_is_parsed_from_the_cpu_line() {
        let stat = "cpu  93164 0 12517 291173 2837 0 3981 7024 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(7024));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
    }

    #[test]
    fn zipf_ranks_follow_the_power_law() {
        let zipf = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 100];
        for _ in 0..200_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // P(rank 0) / P(rank 1) = 2^1.2 ≈ 2.30.
        let head = f64::from(counts[0]) / f64::from(counts[1]);
        assert!((head - 2.297).abs() < 0.1, "head ratio {head}");
        assert!(counts.windows(2).take(10).all(|w| w[0] > w[1]));
        assert!(counts[99] > 0);
        let mut again = StdRng::seed_from_u64(7);
        let mut rng = StdRng::seed_from_u64(7);
        assert!((0..64).all(|_| zipf.sample(&mut rng) == zipf.sample(&mut again)));
    }

    #[test]
    fn single_rank_zipf_always_draws_it() {
        let zipf = Zipf::new(1, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..100).all(|_| zipf.sample(&mut rng) == 0));
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_at_rate() {
        let duration = Duration::from_secs(20);
        let schedule = poisson_schedule(1000.0, duration, &mut StdRng::seed_from_u64(3));
        let again = poisson_schedule(1000.0, duration, &mut StdRng::seed_from_u64(3));
        assert_eq!(schedule, again);
        assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
        assert!(schedule.iter().all(|&at| at < duration));
        // 20k expected arrivals; the count's standard deviation is ~141.
        let count = schedule.len() as f64;
        assert!((count - 20_000.0).abs() < 700.0, "{count} arrivals");
        // Exponential gaps: the coefficient of variation is 1.
        let gaps: Vec<f64> = schedule
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "coefficient of variation {cv}");
        let other = poisson_schedule(1000.0, duration, &mut StdRng::seed_from_u64(4));
        assert_ne!(schedule, other);
    }

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t   1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(12345));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        let live = peak_rss_mib().expect("procfs reports VmHWM on Linux");
        assert!(live > 0.0);
    }

    #[test]
    fn spans_accumulate_per_name() {
        let mut spans = Spans::default();
        let (out, _) = timed(Some(&mut spans), "a", || 5);
        assert_eq!(out, 5);
        assert_eq!(spans.get("a").calls, 1);
        assert_eq!(timed(None, "a", || 6).0, 6);
        assert_eq!(spans.get("a").calls, 1);
        spans.add("b", Duration::from_micros(10));
        spans.add("b", Duration::from_micros(30));
        assert_eq!(spans.get("b").calls, 2);
        assert!((spans.mean_us("b") - 20.0).abs() < 1e-9);
        assert!((spans.per_unit_us("b", 4) - 10.0).abs() < 1e-9);
        assert_eq!(spans.mean_us("missing"), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
