//! Measurement plumbing shared by the workloads: process CPU and memory,
//! host diagnostics, percentiles with their sample counts, and the
//! in-memory span recorder of the traced run.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Linux reports `/proc` CPU times in USER_HZ ticks, 100 per second on
/// every architecture the kernel's ABI exposes to user space.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 11 and 12 after `)`.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Host-wide steal time so far, in seconds (`/proc/stat`, 8th cpu field).
pub fn host_steal_s() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|t| t / TICKS_PER_S)
        .unwrap_or(0.0)
}

/// The filesystem type `dir` lives on, from the longest matching mount
/// point in `/proc/self/mounts`.
pub fn filesystem_of(dir: &Path) -> String {
    let dir = fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut parts = line.split_whitespace();
        let (Some(_dev), Some(point), Some(fstype)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if dir.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() > *len) {
            best = Some((point.len(), fstype.to_string()));
        }
    }
    best.map(|(_, fs)| fs).unwrap_or_else(|| "unknown".into())
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// The nearest-rank value; `None` when fewer than ten samples lie
    /// beyond it, in which case the percentile is not reported.
    pub value: Option<f64>,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// Fewest samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0..1) of `values`, refused when fewer than
/// [`MIN_BEYOND`] samples lie above it.
pub fn percentile(values: &[f64], q: f64) -> Percentile {
    let n = values.len();
    if n == 0 {
        return Percentile {
            value: None,
            samples: 0,
        };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let value = (n - rank >= MIN_BEYOND).then(|| v[rank - 1]);
    Percentile { value, samples: n }
}

/// One timed call into a layer, kept in memory until the run ends.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Thread-safe in-memory span recorder. Ids start at 1; parent 0 is the
/// run itself.
pub struct Spans {
    origin: Instant,
    list: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            list: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Start a span whose children are recorded before it ends; returns
    /// its id.
    pub fn open(&self, name: &'static str, parent: u64) -> u64 {
        let mut list = self.list.lock().expect("span list poisoned");
        let id = list.len() as u64 + 1;
        let start = self.now_us();
        list.push(Span {
            id,
            parent,
            name,
            start_us: start,
            end_us: start,
        });
        id
    }

    /// Close a span opened with [`Spans::open`]; returns its seconds.
    pub fn close(&self, id: u64) -> f64 {
        let end = self.now_us();
        let mut list = self.list.lock().expect("span list poisoned");
        let span = &mut list[id as usize - 1];
        span.end_us = end;
        span.seconds()
    }

    /// Record a span that was timed by the caller; returns its id.
    pub fn record(&self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut list = self.list.lock().expect("span list poisoned");
        let id = list.len() as u64 + 1;
        list.push(Span {
            id,
            parent,
            name,
            start_us: us(start),
            end_us: us(end),
        });
        id
    }

    /// Time `f` as one span.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.list.lock().expect("span list poisoned").clone()
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.snapshot()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Seconds of `[start, end)` covered by the union of spans named `name`.
    pub fn covered_s(&self, name: &str) -> f64 {
        let mut iv: Vec<(f64, f64)> = self
            .snapshot()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.start_us, s.end_us))
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut total, mut cur): (f64, Option<(f64, f64)>) = (0.0, None);
        for (s, e) in iv {
            cur = match cur {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total / 1e6
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for s in self.snapshot() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id, s.parent, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// CPU and wall of one measured phase.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
    steal: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu: process_cpu_s(),
            steal: host_steal_s(),
            wall: Instant::now(),
        }
    }

    /// `(wall_s, cpu_s, steal_s)` since [`Stopwatch::start`].
    pub fn stop(&self) -> (f64, f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (
            wall,
            process_cpu_s() - self.cpu,
            host_steal_s() - self.steal,
        )
    }
}

/// Share of the host's CPU time the hypervisor may steal during a unit
/// before the unit is measured again.
pub const STEAL_LIMIT: f64 = 0.03;
/// Re-measurements allowed per unit.
const MAX_REMEASURE: usize = 2;
/// Longest wait for the host to go quiet before a re-measurement.
const QUIET_WAIT_S: f64 = 5.0;

/// One measured attempt of a unit of work.
pub struct Attempt<T> {
    pub out: T,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
}

impl<T> Attempt<T> {
    fn steal_share(&self, cores: f64) -> f64 {
        self.steal_s / (self.wall_s * cores).max(1e-9)
    }
}

/// Measures units of work, re-measuring a unit (same inputs) when the
/// hypervisor stole more than [`STEAL_LIMIT`] of the host's CPU time while
/// it ran, so that a co-tenant's burst is not read as a slow commit. The
/// least-disturbed attempt counts; every re-measurement is reported.
pub struct UnitTimer {
    cores: f64,
    /// No re-measurement starts after this instant, bounding the run.
    deadline: Instant,
    pub remeasured: usize,
    /// Wall of every unit's first attempt, summed: the undisturbed-or-not
    /// reference the traced run is compared against.
    pub first_wall_s: f64,
}

impl UnitTimer {
    pub fn new(budget_s: f64) -> UnitTimer {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        UnitTimer {
            cores: cores as f64,
            deadline: Instant::now() + std::time::Duration::from_secs_f64(budget_s),
            remeasured: 0,
            first_wall_s: 0.0,
        }
    }

    fn attempt<T>(unit: &mut impl FnMut() -> T) -> Attempt<T> {
        let watch = Stopwatch::start();
        let out = unit();
        let (wall_s, cpu_s, steal_s) = watch.stop();
        Attempt {
            out,
            wall_s,
            cpu_s,
            steal_s,
        }
    }

    /// Wait until one second passes with steal under the limit, or
    /// [`QUIET_WAIT_S`] elapse.
    fn wait_for_quiet(&self) {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < QUIET_WAIT_S {
            let before = host_steal_s();
            std::thread::sleep(std::time::Duration::from_secs(1));
            if (host_steal_s() - before) / self.cores < STEAL_LIMIT {
                return;
            }
        }
    }

    pub fn measure<T>(&mut self, mut unit: impl FnMut() -> T) -> Attempt<T> {
        let mut best = Self::attempt(&mut unit);
        self.first_wall_s += best.wall_s;
        for _ in 0..MAX_REMEASURE {
            if best.steal_share(self.cores) <= STEAL_LIMIT || Instant::now() >= self.deadline {
                break;
            }
            self.wait_for_quiet();
            self.remeasured += 1;
            let next = Self::attempt(&mut unit);
            if next.steal_share(self.cores) < best.steal_share(self.cores) {
                best = next;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5).value, None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let p = percentile(&v, 0.5);
        assert_eq!((p.value, p.samples), (Some(10.0), 20));
        assert_eq!(percentile(&v, 0.9).value, None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9).value, Some(90.0));
    }

    #[test]
    fn covered_time_merges_overlapping_spans() {
        let spans = Spans::new();
        {
            let mut list = spans.list.lock().unwrap();
            for (id, (s, e)) in [(0.0, 2e6), (1e6, 3e6), (5e6, 6e6)].into_iter().enumerate() {
                list.push(Span {
                    id: id as u64 + 1,
                    parent: 0,
                    name: "x",
                    start_us: s,
                    end_us: e,
                });
            }
        }
        assert_eq!(spans.covered_s("x"), 4.0);
        assert_eq!(spans.total_s("x"), 5.0);
    }
}
