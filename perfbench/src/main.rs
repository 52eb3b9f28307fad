//! The repository benchmark: workloads run through the crates' public
//! entry points, timed end to end, split by layer in a separate traced
//! run, and checked for correct output. `BENCHMARK.json` gates
//! `net-edits-101` and `daemon-farm`; `serial-50` runs the same way but is
//! too noisy on the reference host to gate (see `README.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serial-50|net-edits-101|daemon-farm \
//!     --seed N --seconds S --trace 0|1 [--toy] [--corrupt-golden] [--pin FILE]
//! ```
//!
//! `--seconds` sizes the measured phase: it runs a fixed number of
//! searches or jobs, that number derived from `--seconds` and the
//! workload's nominal unit cost (never from the speed of the host), so two
//! commits measure identical work. Human-readable lines come first; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The process exits non-zero when any
//! output fails its check.

mod farm;
mod golden;
mod layers;
mod measure;
mod net;
mod serial;

use fdml_datagen::{evolve, paper_dataset, yule_tree, EvolutionConfig, PaperDataset};
use fdml_phylo::alignment::Alignment;
use layers::{Layers, CATALOGUE};
use measure::{median, peak_rss_mb, percentile, Spans};
use std::path::PathBuf;
use std::process::ExitCode;

/// Nominal seconds of one `serial-50` search on the reference host
/// (2 vCPU, AVX-512 lane).
const SERIAL_SEARCH_S: f64 = 5.0;
/// Timed passes over the `serial-50` searches; each search's fastest
/// pass counts (min-of-N, as `kernel_report` times its kernels).
pub const SERIAL_PASSES: usize = 2;
/// Nominal seconds of one `net-edits-101` search on the reference host.
const NET_SEARCH_S: f64 = 13.0;
/// Nominal `daemon-farm` jobs per second on the reference host.
const DAEMON_JOBS_PER_S: f64 = 12.0;
/// Alignment length of `serial-50`, as a share of the paper's 1858 sites.
const SERIAL_SITE_SCALE: f64 = 0.03;
/// Alignment length of `net-edits-101`, as a share of 1858 sites.
const NET_SITE_SCALE: f64 = 0.05;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes for the benchmark's own tests.
    pub toy: bool,
    /// Test hook: treat every pinned comparison as a mismatch.
    pub corrupt_golden: bool,
    /// Append this run's outputs to a golden file.
    pub pin: Option<PathBuf>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let mut args = Args {
            workload: String::new(),
            seed: golden::DEFAULT_SEED,
            seconds: 40.0,
            trace: false,
            toy: false,
            corrupt_golden: false,
            pin: None,
        };
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?.clone(),
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => args.trace = value()? == "1",
                "--pin" => args.pin = Some(PathBuf::from(value()?)),
                "--toy" => args.toy = true,
                "--corrupt-golden" => args.corrupt_golden = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }

    /// Key of this workload and size in the golden file.
    pub fn golden_key(&self) -> String {
        format!(
            "{}/{}",
            self.workload,
            if self.toy { "toy" } else { "full" }
        )
    }
}

/// SplitMix64 of `a` and `b`: per-job stamps from the run seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The jumble seeds of a run: `units` seeds planned the way the program
/// plans a farm, from a base that keeps different run seeds disjoint
/// (seed 1 starts at jumble seed 1).
pub fn plan_jumbles(seed: u64, units: usize) -> Vec<u64> {
    let base = seed.wrapping_sub(1).wrapping_mul(2000).wrapping_add(1);
    fdml_core::farm::plan_seeds(base, units).expect("at least one jumble")
}

/// A synthetic alignment: a Yule tree and sequences evolved along it.
fn synthetic(taxa: usize, sites: usize, stamp: u64) -> Alignment {
    let tree = yule_tree(taxa, 0.08, stamp);
    evolve(
        &tree,
        sites,
        &EvolutionConfig::default(),
        stamp ^ 0xABCD,
        "taxon",
    )
}

/// What a workload runs on.
pub enum Dataset {
    Paper(PaperDataset, f64),
    Synthetic { taxa: usize, sites: usize },
}

/// A workload's size.
pub struct Size {
    pub dataset: Dataset,
    /// Searches or jobs in the measured phase.
    pub units: usize,
    /// Set-ups per run; the median is reported.
    pub setups: usize,
    /// Jumbles per daemon job.
    pub jumbles_per_job: usize,
}

impl Size {
    fn of(args: &Args) -> Result<Size, String> {
        let per = |unit_s: f64| ((args.seconds / unit_s).round() as usize).max(1);
        let toy = |units, jumbles_per_job| Size {
            dataset: Dataset::Synthetic { taxa: 8, sites: 80 },
            units,
            setups: 3,
            jumbles_per_job,
        };
        Ok(match (args.workload.as_str(), args.toy) {
            ("serial-50", false) => Size {
                dataset: Dataset::Paper(PaperDataset::Taxa50, SERIAL_SITE_SCALE),
                units: per(SERIAL_SEARCH_S * SERIAL_PASSES as f64),
                setups: 15,
                jumbles_per_job: 1,
            },
            ("net-edits-101", false) => Size {
                dataset: Dataset::Paper(PaperDataset::Taxa101, NET_SITE_SCALE),
                units: per(NET_SEARCH_S),
                setups: 5,
                jumbles_per_job: 1,
            },
            ("daemon-farm", false) => Size {
                dataset: Dataset::Synthetic {
                    taxa: 12,
                    sites: 200,
                },
                units: ((args.seconds * DAEMON_JOBS_PER_S).round() as usize).max(1),
                setups: 3,
                jumbles_per_job: 3,
            },
            ("serial-50", true) => toy(2, 1),
            ("net-edits-101", true) => toy(1, 1),
            ("daemon-farm", true) => toy(6, 2),
            (other, _) => return Err(format!("unknown workload {other:?}")),
        })
    }

    /// The warm-up job of a daemon set-up.
    pub fn toy_farm() -> Size {
        Size {
            dataset: Dataset::Synthetic { taxa: 6, sites: 40 },
            units: 1,
            setups: 1,
            jumbles_per_job: 1,
        }
    }

    /// The alignment of a universe-assembly probe.
    pub fn tiny_alignment(seed: u64) -> Alignment {
        synthetic(5, 40, mix(seed, 0))
    }

    /// The workload's alignment (fixed; the seed drives the jumbles).
    pub fn dataset(&self) -> Alignment {
        match self.dataset {
            Dataset::Paper(which, scale) => paper_dataset(which, scale).0,
            Dataset::Synthetic { taxa, sites } => synthetic(taxa, sites, 0x7017),
        }
    }

    /// A daemon job's own alignment, stamped by `stamp`.
    pub fn job_dataset(&self, stamp: u64) -> Alignment {
        match self.dataset {
            Dataset::Paper(which, scale) => paper_dataset(which, scale).0,
            Dataset::Synthetic { taxa, sites } => synthetic(taxa, sites, stamp),
        }
    }
}

/// Wall, CPU and host steal of a measured phase: the sums over its units'
/// counted attempts.
pub struct Phase {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
    /// Units measured again because the host was stealing CPU time.
    pub remeasured: usize,
    /// Mean wall of one pass over the units, first attempts only: what a
    /// single traced pass is compared with.
    pub pass_wall_s: f64,
}

impl Phase {
    pub fn of<T>(
        attempts: &[measure::Attempt<T>],
        timer: &measure::UnitTimer,
        passes: usize,
    ) -> Phase {
        Phase {
            wall_s: attempts.iter().map(|a| a.wall_s).sum(),
            cpu_s: attempts.iter().map(|a| a.cpu_s).sum(),
            steal_s: attempts.iter().map(|a| a.steal_s).sum(),
            remeasured: timer.remeasured,
            pass_wall_s: timer.first_wall_s / passes as f64,
        }
    }
}

/// Re-measurements stop once a run has spent this multiple of `--seconds`
/// in its measured phase, bounding the run's length on a busy host.
pub const REMEASURE_BUDGET: f64 = 1.0;

/// Everything one workload run produced.
pub struct Run {
    pub setup_s: Vec<f64>,
    pub phase: Phase,
    /// Searches or jobs completed in the measured phase.
    pub jobs: usize,
    /// Candidate trees scored in the measured phase, where the workload
    /// can count them.
    pub trees_scored: Option<u64>,
    /// Per-job latencies, for workloads that serve jobs.
    pub latencies: Option<Vec<f64>>,
    pub outputs: Vec<golden::Output>,
    pub attempted: usize,
    pub failed: usize,
    /// Traced outputs that differ from the untraced ones.
    pub trace_mismatches: usize,
    pub layers: Option<Layers>,
    pub state_fs: Option<String>,
}

impl Run {
    pub fn new(setup_s: Vec<f64>, phase: Phase) -> Run {
        Run {
            setup_s,
            phase,
            jobs: 0,
            trees_scored: None,
            latencies: None,
            outputs: Vec::new(),
            attempted: 0,
            failed: 0,
            trace_mismatches: 0,
            layers: None,
            state_fs: None,
        }
    }

    /// Write the traced run's spans at the end of the run.
    pub fn write_spans(&self, spans: &Spans, args: &Args) {
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let size = match Size::of(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "serial-50" => serial::run(&args, &size),
        "net-edits-101" => net::run(&args, &size),
        _ => farm::run(&args, &size),
    };
    if let Some(path) = &args.pin {
        let lines = golden::pin_lines(&args.golden_key(), &run.outputs);
        let mut text = std::fs::read_to_string(path).unwrap_or_default();
        text.push_str(&lines);
        std::fs::write(path, text).expect("write golden file");
    }

    let p = &run.phase;
    let failed = run.failed + run.trace_mismatches;
    let attempted = run.attempted.max(1);
    let mut e2e = vec![
        ("wall_s", p.wall_s, "s"),
        ("setup_s", median(&run.setup_s), "s"),
        ("cpu_s", p.cpu_s, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("jobs_per_s", run.jobs as f64 / p.wall_s, "1/s"),
    ];
    let gated = e2e.len();
    let mut extra = Vec::new();
    if let Some(trees) = run.trees_scored {
        e2e.push(("trees_per_s", trees as f64 / p.wall_s, "1/s"));
    }
    if let Some(lat) = &run.latencies {
        for (name, q) in [("job_latency_p50_s", 0.5), ("job_latency_p90_s", 0.9)] {
            let pc = percentile(lat, q);
            match pc.value {
                Some(v) => {
                    e2e.push((name, v, "s"));
                    extra.push(format!("{name} over {} samples", pc.samples));
                }
                None => extra.push(format!(
                    "{name} not reported: {} samples leave fewer than 10 beyond it",
                    pc.samples
                )),
            }
        }
    }
    e2e.push(("failed_frac", failed as f64 / attempted as f64, "frac"));

    println!(
        "workload {} seed {} size {}",
        args.workload,
        args.seed,
        args.golden_key()
    );
    println!(
        "measured {} units; setup_s is the median of {} set-ups {:?}",
        run.jobs,
        run.setup_s.len(),
        run.setup_s
    );
    for (name, v, unit) in &e2e {
        println!("metric {name} {v} {unit}");
    }
    for line in &extra {
        println!("note {line}");
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("diag host.steal_s {} s", p.steal_s);
    println!("diag host.remeasured_units {}", p.remeasured);
    println!("diag host.cores {cores}");
    println!("diag host.isa {}", fdml_likelihood::isa::active().name());
    if let Some(fs) = &run.state_fs {
        println!("diag state.fs {fs}");
    }

    let metrics: Vec<String> = match &run.layers {
        None => e2e[..gated]
            .iter()
            .map(|(n, v, u)| json_metric(n, *v, u))
            .collect(),
        Some(layers) => {
            println!("trace trees_equal {}", run.trace_mismatches == 0);
            for note in &layers.notes {
                println!("note {note}");
            }
            CATALOGUE
                .iter()
                .map(|(name, unit)| {
                    let v = layers.get(name);
                    let shown = if layers.is_measured(name) {
                        v.to_string()
                    } else {
                        "n/a".into()
                    };
                    println!("layer {name} {shown} {unit}");
                    json_metric(name, v, unit)
                })
                .collect()
        }
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        attempted,
        failed,
        metrics.join(",")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
