//! Per-layer metrics of the traced run: the catalogue, and the probes that
//! time calls into each layer's public functions.

use crate::measure::{median, percentile, Spans};
use fdml_comm::message::{Message, MonitorEvent, TreeEdit};
use fdml_core::config::SearchConfig;
use fdml_core::executor::{BaseOutcome, CandidateScore, ExecutorError, RoundExecutor};
use fdml_core::wal::{WalMove, WalPhase, WalRound, WalWriter};
use fdml_obs::event::Event;
use fdml_obs::{MemorySink, Record, RunReport};
use fdml_phylo::alignment::Alignment;
use fdml_phylo::ops::TreeMove;
use fdml_phylo::tree::Tree;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric with its unit. A traced run prints all of them;
/// a layer a workload does not exercise reads 0.
pub const CATALOGUE: &[(&str, &str)] = &[
    ("likelihood.work_units", "count"),
    ("likelihood.patterns_per_s", "1/s"),
    ("likelihood.evaluate_us", "us"),
    ("likelihood.optimize_us", "us"),
    ("likelihood.newton_pattern_iters", "count"),
    ("executor.score_s", "s"),
    ("executor.commit_s", "s"),
    ("search.self_s", "s"),
    ("search.rounds", "count"),
    ("search.candidates", "count"),
    ("incremental.clv_cache_hits", "count"),
    ("incremental.edges_recomputed", "count"),
    ("incremental.fallbacks", "count"),
    ("foreman.dispatched", "count"),
    ("foreman.useful_frac", "frac"),
    ("foreman.timeouts", "count"),
    ("foreman.max_queue_depth", "count"),
    ("foreman.service_p50_us", "us"),
    ("worker.busy_s", "s"),
    ("worker.idle_s", "s"),
    ("worker.util", "frac"),
    ("wire.frames", "count"),
    ("wire.bytes", "B"),
    ("wire.bytes_per_task", "B"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("net.reconnects", "count"),
    ("net.corrupt_frames", "count"),
    ("wal.appends", "count"),
    ("wal.bytes", "B"),
    ("wal.append_us", "us"),
    ("durable.atomic_write_us", "us"),
    ("serve.submit_s", "s"),
    ("serve.result_s", "s"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("obs.trace_overhead_frac", "frac"),
    ("trace.unaccounted_frac", "frac"),
];

/// Measured per-layer values, plus notes on values that were refused.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(CATALOGUE.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        self.set(name, self.get(name) + value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn is_measured(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Set a percentile metric, or note why it was refused.
    pub fn set_percentile(&mut self, name: &'static str, samples: &[f64], q: f64) {
        let p = percentile(samples, q);
        match p.value {
            Some(v) => {
                self.set(name, v);
                self.notes
                    .push(format!("{name} over {} samples", p.samples));
            }
            None => self.notes.push(format!(
                "{name} not reported: {} samples leave fewer than 10 beyond it",
                p.samples
            )),
        }
    }
}

/// Times every call into the wrapped executor as a span under the
/// enclosing search span.
pub struct TimedExecutor<'s, E> {
    pub inner: E,
    pub spans: &'s Spans,
    pub parent: u64,
}

impl<E: RoundExecutor> RoundExecutor for TimedExecutor<'_, E> {
    fn set_base(&mut self, tree: Tree) -> Result<BaseOutcome, ExecutorError> {
        let inner = &mut self.inner;
        self.spans
            .time("executor.set_base", self.parent, || inner.set_base(tree))
            .0
    }

    fn score_round(&mut self, moves: &[TreeMove]) -> Result<Vec<CandidateScore>, ExecutorError> {
        let inner = &mut self.inner;
        self.spans
            .time("executor.score_round", self.parent, || {
                inner.score_round(moves)
            })
            .0
    }

    fn commit(&mut self, mv: &TreeMove) -> Result<BaseOutcome, ExecutorError> {
        let inner = &mut self.inner;
        self.spans
            .time("executor.commit", self.parent, || inner.commit(mv))
            .0
    }
}

/// Executor and search-driver layers from the spans of a traced run:
/// `search` spans with `executor.*` children.
pub fn executor_layers(layers: &mut Layers, spans: &Spans) {
    let score_s = spans.total_s("executor.score_round");
    let commit_s = spans.total_s("executor.set_base") + spans.total_s("executor.commit");
    layers.set("executor.score_s", score_s);
    layers.set("executor.commit_s", commit_s);
    layers.set(
        "search.self_s",
        spans.total_s("search") - score_s - commit_s,
    );
}

/// Repetitions of each single-call probe; the median is reported.
const PROBE_REPS: usize = 9;

/// Time `LikelihoodEngine::evaluate` and `optimize` on `tree` with a fresh
/// engine, and record the kernel's counts for one `optimize` call.
pub fn probe_likelihood(
    layers: &mut Layers,
    spans: &Spans,
    config: &SearchConfig,
    alignment: &Alignment,
    tree: &Tree,
) {
    let engine = config.build_engine(alignment);
    let mut eval_us = Vec::new();
    let mut opt_us = Vec::new();
    let mut work = None;
    for _ in 0..PROBE_REPS {
        let (_, s) = spans.time("likelihood.evaluate", 0, || {
            black_box(engine.evaluate(tree))
        });
        eval_us.push(s * 1e6);
        let mut t = tree.clone();
        let (r, s) = spans.time("likelihood.optimize", 0, || {
            engine.optimize(&mut t, &config.optimize)
        });
        opt_us.push(s * 1e6);
        work = Some(r.work);
    }
    let work = work.expect("probe ran");
    let opt_med = median(&opt_us);
    layers.set("likelihood.evaluate_us", median(&eval_us));
    layers.set("likelihood.optimize_us", opt_med);
    layers.set(
        "likelihood.newton_pattern_iters",
        work.newton_pattern_iters as f64,
    );
    layers.set(
        "likelihood.patterns_per_s",
        work.total_pattern_updates() as f64 / (opt_med / 1e6),
    );
}

/// Merge the records of several sinks (each with its own clock origin)
/// into one report; only counts and sums of it are used.
pub fn merged_report(sinks: &[MemorySink]) -> (RunReport, Vec<Record>) {
    let records: Vec<Record> = sinks.iter().flat_map(|s| s.take()).collect();
    (RunReport::from_events(&records), records)
}

/// Worker, incremental, wire and network layers from a merged report;
/// `wall_s` is the traced phase's wall, `workers` the fleet size.
pub fn report_layers(layers: &mut Layers, report: &RunReport, workers: usize, wall_s: f64) {
    let busy_s: f64 = report.workers.iter().map(|w| w.busy_us as f64 / 1e6).sum();
    layers.add("worker.busy_s", busy_s);
    layers.add("worker.idle_s", workers as f64 * wall_s - busy_s);
    let (busy, idle) = (layers.get("worker.busy_s"), layers.get("worker.idle_s"));
    layers.set("worker.util", busy / (busy + idle));
    for w in &report.workers {
        layers.add("incremental.clv_cache_hits", w.clv_cache_hits as f64);
        layers.add(
            "incremental.edges_recomputed",
            w.clv_edges_recomputed as f64,
        );
        layers.add("incremental.fallbacks", w.incremental_fallbacks as f64);
    }
    let frames: u64 = report.traffic.values().map(|t| t.sent_msgs).sum();
    let bytes: u64 = report.traffic.values().map(|t| t.sent_bytes).sum();
    layers.add("wire.frames", frames as f64);
    layers.add("wire.bytes", bytes as f64);
    layers.add(
        "net.reconnects",
        report.net_peers.iter().map(|p| p.reconnects as f64).sum(),
    );
    layers.add("net.corrupt_frames", report.corrupt_frames as f64);
    layers.add("wal.appends", report.wal_appends as f64);
    layers.add("wal.bytes", report.wal_bytes as f64);
}

/// `(kind, sent frames)` over a set of reports, for the frame-mix probe.
pub fn frame_counts(reports: &[&RunReport]) -> BTreeMap<String, u64> {
    let mut mix = BTreeMap::new();
    for r in reports {
        for (kind, t) in &r.traffic {
            *mix.entry(kind.clone()).or_insert(0) += t.sent_msgs;
        }
    }
    mix
}

/// A representative message of `kind`, built from the run's own tree and
/// alignment text; `None` for kinds the probe does not model.
fn sample(kind: &str, newick: &str, phylip: &str, config_json: &str) -> Option<Message> {
    Some(match kind {
        "TreeEditTask" => Message::TreeEditTask {
            task: 40_123,
            base_id: 117,
            edit: TreeEdit::Regraft {
                root: 45,
                attachment: 46,
                a: 120,
                b: 121,
            },
            base_newick: None,
        },
        "TreeResult" => Message::TreeResult {
            task: 40_123,
            newick: newick.to_string(),
            ln_likelihood: -3459.0906,
            work_units: 912_345,
        },
        "BaseTopology" => Message::BaseTopology {
            base_id: 117,
            newick: newick.to_string(),
        },
        "Monitor" => Message::Monitor(MonitorEvent::Completed {
            task: 40_123,
            worker: 4,
            ln_likelihood: -3459.0906,
            work_units: 912_345,
            service_us: 812,
        }),
        "ProblemData" => Message::ProblemData {
            phylip: phylip.to_string(),
            config_json: config_json.to_string(),
        },
        "JobData" => Message::JobData {
            job: 42,
            phylip: phylip.to_string(),
            config_json: config_json.to_string(),
        },
        "JobTask" => Message::JobTask {
            job: 42,
            task: 311,
            seed: 1_234_567,
        },
        "JobTaskResult" => Message::JobTaskResult {
            job: 42,
            task: 311,
            seed: 1_234_567,
            newick: newick.to_string(),
            ln_likelihood: -1712.25,
            work_units: 912_345,
        },
        "JumbleResume" => Message::JumbleResume {
            job: 42,
            task: 311,
            seed: 1_234_567,
            wal: Vec::new(),
        },
        "WalRound" => Message::WalRound {
            job: 42,
            seed: 1_234_567,
            index: 3,
            entry: sample_wal_round(3).to_json(),
        },
        "JobRetire" => Message::JobRetire { job: 42 },
        "WorkerReady" => Message::WorkerReady,
        "Ping" => Message::Ping,
        "Shutdown" => Message::Shutdown,
        _ => return None,
    })
}

/// A committed rearrangement round of typical size.
pub fn sample_wal_round(index: u64) -> WalRound {
    WalRound {
        index,
        phase: WalPhase::Rearrange,
        tried: vec![WalMove::Spr {
            root: 7,
            attachment: 15,
            ta: 3,
            tb: 16,
        }],
        accepted: true,
        lnl_bits: (-1712.25f64).to_bits(),
    }
}

/// Mean `encode_message` / `decode_message` nanoseconds per frame over the
/// run's frame mix (each modelled kind weighted by its frame count).
pub fn probe_wire(
    layers: &mut Layers,
    mix: &BTreeMap<String, u64>,
    newick: &str,
    phylip: &str,
    config_json: &str,
) {
    let (mut enc, mut dec, mut weight, mut total) = (0.0, 0.0, 0u64, 0u64);
    for (kind, &count) in mix {
        total += count;
        let Some(msg) = sample(kind, newick, phylip, config_json) else {
            continue;
        };
        let bytes = fdml_wire::encode_message(&msg);
        let reps = 2000;
        let t = Instant::now();
        for _ in 0..reps {
            black_box(fdml_wire::encode_message(black_box(&msg)));
        }
        let e = t.elapsed().as_secs_f64() * 1e9 / reps as f64;
        let t = Instant::now();
        for _ in 0..reps {
            black_box(fdml_wire::decode_message(black_box(&bytes)).expect("sample decodes"));
        }
        let d = t.elapsed().as_secs_f64() * 1e9 / reps as f64;
        enc += e * count as f64;
        dec += d * count as f64;
        weight += count;
    }
    if weight > 0 {
        layers.set("wire.encode_ns", enc / weight as f64);
        layers.set("wire.decode_ns", dec / weight as f64);
        layers.notes.push(format!(
            "wire.encode_ns/decode_ns over {weight} of {total} frames (kinds modelled by the probe)"
        ));
    }
}

/// Time `WalWriter::append` and `durable::atomic_write` in `dir`, the
/// daemon's state directory. The snapshot is `snapshot` (the registry's
/// own bytes).
pub fn probe_storage(layers: &mut Layers, spans: &Spans, dir: &Path, snapshot: &[u8]) {
    let wal_dir = dir.join("perfbench-wal");
    let mut writer = WalWriter::create(&wal_dir, 9, 1, 12).expect("create probe WAL");
    let mut append_us = Vec::new();
    for i in 0..PROBE_REPS as u64 * 3 {
        let round = sample_wal_round(i);
        let (r, s) = spans.time("wal.append", 0, || writer.append(&round));
        r.expect("probe WAL append");
        append_us.push(s * 1e6);
    }
    drop(writer);
    let _ = std::fs::remove_dir_all(&wal_dir);
    layers.set("wal.append_us", median(&append_us));

    let path = dir.join("perfbench-snapshot.json");
    let mut write_us = Vec::new();
    for _ in 0..PROBE_REPS {
        let (r, s) = spans.time("durable.atomic_write", 0, || {
            fdml_core::durable::atomic_write(&path, snapshot)
        });
        r.expect("probe atomic write");
        write_us.push(s * 1e6);
    }
    let _ = std::fs::remove_file(&path);
    layers.set("durable.atomic_write_us", median(&write_us));
}

/// Exact per-task service times (µs) the monitor saw.
pub fn service_times_us(records: &[Record]) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| match &r.event {
            Event::TaskCompleted { service_us, .. } => Some(*service_us as f64),
            _ => None,
        })
        .collect()
}
