//! Shared harness pieces: the seeded generator, sample statistics, the
//! output digest, process memory, set-up and pass timing, and the run
//! report every workload fills in.

use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole output is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank quantile of unsorted samples; 0 when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Hash of one piece of emitted text.
pub fn text_hash(text: &str) -> u128 {
    let mut h = qsyn_circuit::Fnv128::new();
    h.write_str(text);
    h.finish()
}

/// The run's output digest: a hash over every emitted text in a fixed
/// order, printed as hex.
pub fn digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> String {
    let mut h = qsyn_circuit::Fnv128::new();
    for t in texts {
        h.write_str(t);
    }
    format!("{:032x}", h.finish())
}

/// Peak resident set (`VmHWM`) of a process in MB; `None` for this
/// process. Returns 0 where `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Kernel-mode CPU seconds of a process so far (`None` for this
/// process), from `/proc/<pid>/stat` in USER_HZ ticks, 100 per second on
/// Linux. Returns 0 where `/proc` is unavailable.
pub fn sys_cpu_s(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name start at the
            // third; `stime` is the fifteenth.
            let rest = stat.get(stat.rfind(')')? + 1..)?;
            rest.split_whitespace().nth(12)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Runs a set-up [`SETUP_REPS`] times and returns the last result with
/// the median seconds. `f` is told whether it is the last repetition,
/// the one whose state the measured passes go on to use.
pub fn timed_setup<T>(mut f: impl FnMut(bool) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let value = f(rep + 1 == SETUP_REPS);
        times.push(started.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one repetition"), median(&times))
}

/// Runs whole passes within a time budget: always one, then another only
/// while the last pass's wall time still fits in what is left. Cutting a
/// pass short would skew rates on workloads whose ops differ widely in
/// cost. Returns the number of passes run.
pub fn run_passes(seconds: f64, mut pass: impl FnMut(usize)) -> usize {
    let started = Instant::now();
    let mut passes = 0;
    loop {
        let t = Instant::now();
        pass(passes);
        passes += 1;
        let last = t.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + last > seconds {
            return passes;
        }
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times one call, adding its seconds to `slot`.
pub fn span<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += secs(t);
    out
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports: counts, failed checks, the digest, the
/// run header and the metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
    /// Hash of the emitted QASM (see [`digest`]).
    pub digest: String,
    /// Workload-specific run-header fields.
    pub header: Vec<(&'static str, String)>,
    /// Reported metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Adds a metric; its unit comes from the metric tables.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit = crate::metrics::unit_of(name)
            .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"));
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a header field.
    pub fn header(&mut self, key: &'static str, value: impl ToString) {
        self.header.push((key, value.to_string()));
    }
}
