//! `daemon-farm`: an in-process `fdml-serve` daemon with two worker peers
//! over TCP, driven in a closed loop by two client threads that each
//! submit a job, attach until its result arrives, and submit the next.

use crate::golden::Output;
use crate::layers::{
    frame_counts, merged_report, probe_likelihood, probe_storage, probe_wire, report_layers, Layers,
};
use crate::measure::{filesystem_of, Attempt, Spans, Stopwatch, UnitTimer};
use crate::net::peer;
use crate::{Args, Phase, Run, Size, REMEASURE_BUDGET};
use fdml_comm::job::{JobResult, JobSpec};
use fdml_core::config::SearchConfig;
use fdml_core::ResolvedJob;
use fdml_obs::event::Event;
use fdml_obs::{MemorySink, Record};
use fdml_phylo::{newick, phylip};
use fdml_serve::client::{attach, submit, ClientError};
use fdml_serve::{Daemon, ServeOptions};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Hub + scheduler + monitor placeholder + two workers.
const RANKS: usize = 5;
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// How long a client waits for one job's result.
const PATIENCE: Duration = Duration::from_secs(120);
/// Jobs per measured unit. Each wave is timed (and, on a busy host,
/// re-measured) on its own; the clients drain a wave before the next.
const WAVE_JOBS: usize = 25;

/// One daemon with its in-process worker fleet.
struct Fleet {
    daemon: Daemon,
    workers: Vec<JoinHandle<Result<fdml_core::netrun::PeerOutcome, String>>>,
    sinks: Vec<MemorySink>,
}

impl Fleet {
    fn start(state_dir: &Path, observe: bool) -> Fleet {
        let _ = std::fs::remove_dir_all(state_dir);
        let sinks: Vec<MemorySink> = if observe {
            (0..=WORKERS).map(|_| MemorySink::new()).collect()
        } else {
            Vec::new()
        };
        let mut options = ServeOptions::new("127.0.0.1:0", RANKS, state_dir);
        if let Some(s) = sinks.first() {
            options.sinks = vec![Box::new(s.clone())];
        }
        let daemon = Daemon::start(options).expect("start daemon");
        let addr = daemon.local_addr().to_string();
        let workers = (1..=WORKERS)
            .map(|i| {
                let sink = sinks.get(i).cloned();
                let addr = addr.clone();
                thread::spawn(move || peer(&addr, sink))
            })
            .collect();
        Fleet {
            daemon,
            workers,
            sinks,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    /// Graceful stop; waits for every worker thread.
    fn stop(self) -> Vec<MemorySink> {
        self.daemon.stop();
        for w in self.workers {
            w.join().expect("worker thread").expect("worker peer");
        }
        self.sinks
    }
}

/// A distinct dataset per job, stamped from the run seed and job index.
fn job_spec(size: &Size, seed: u64, index: usize) -> (JobSpec, ResolvedJob) {
    let stamp = crate::mix(seed, index as u64 + 1);
    let alignment = size.job_dataset(stamp);
    let config = SearchConfig::default();
    let spec = JobSpec::builder()
        .phylip(phylip::write(&alignment))
        .config_json(config.engine_config_json())
        .jumbles(size.jumbles_per_job)
        .base_seed(1 + 2 * (stamp % 1_000_000))
        .label(format!("perfbench-{index}"))
        .build()
        .expect("valid job spec");
    let resolved = ResolvedJob::from_spec(&spec).expect("spec resolves");
    (spec, resolved)
}

/// One client-visible job: when it was submitted, accepted and done.
struct Served {
    index: usize,
    submit_s: f64,
    result_s: f64,
    result: Result<JobResult, String>,
}

/// Drive `specs` through the daemon with [`CLIENTS`] closed-loop clients.
fn drive(addr: SocketAddr, specs: &[JobSpec], spans: Option<&Spans>) -> Vec<Served> {
    let next = AtomicUsize::new(0);
    let served = Mutex::new(Vec::new());
    thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(index) else {
                    break;
                };
                let t0 = Instant::now();
                let submitted = submit(addr, spec);
                let t1 = Instant::now();
                let result = submitted.and_then(|job| attach(addr, job, PATIENCE, &mut |_| {}));
                let t2 = Instant::now();
                if let Some(sp) = spans {
                    let job = sp.record("serve.job", 0, t0, t2);
                    sp.record("serve.submit", job, t0, t1);
                    sp.record("serve.attach", job, t1, t2);
                }
                served.lock().expect("served list poisoned").push(Served {
                    index,
                    submit_s: (t1 - t0).as_secs_f64(),
                    result_s: (t2 - t1).as_secs_f64(),
                    result: result.map_err(|e: ClientError| e.to_string()),
                });
            });
        }
    });
    let mut served = served.into_inner().expect("served list poisoned");
    served.sort_by_key(|s| s.index);
    served
}

fn output(result: &Result<JobResult, String>) -> Output {
    match result {
        Ok(r) => Output {
            newick: r.best_newick.clone(),
            ln_likelihood: r.best_ln_likelihood,
            trees: r.trees.len(),
        },
        Err(e) => Output {
            newick: format!("error: {e}"),
            ln_likelihood: f64::NAN,
            trees: 0,
        },
    }
}

fn state_dir(args: &Args, tag: &str) -> PathBuf {
    PathBuf::from(".bench_state").join(format!("{}-{}-{tag}", args.workload, std::process::id()))
}

pub fn run(args: &Args, size: &Size) -> Run {
    // Set-up: generate every job's dataset, start the daemon, let the
    // fleet join, and serve one small warm-up job. Repeated; the last
    // fleet stays up for the measured phase.
    let dir = state_dir(args, "run");
    let mut setup_s = Vec::new();
    let mut fleet = None;
    let mut jobs = Vec::new();
    for i in 0..size.setups {
        let t = Instant::now();
        jobs = (0..size.units)
            .map(|j| job_spec(size, args.seed, j))
            .collect();
        let f = Fleet::start(&dir, false);
        let (warm, _) = job_spec(&Size::toy_farm(), args.seed, usize::MAX - 1);
        let warmed = drive(f.addr(), std::slice::from_ref(&warm), None);
        assert!(warmed[0].result.is_ok(), "warm-up job failed");
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < size.setups {
            f.stop();
        } else {
            fleet = Some(f);
        }
    }
    let fleet = fleet.expect("at least one set-up");
    let specs: Vec<JobSpec> = jobs.iter().map(|(s, _)| s.clone()).collect();

    let mut timer = UnitTimer::new(args.seconds * REMEASURE_BUDGET);
    let attempts: Vec<Attempt<Vec<Served>>> = specs
        .chunks(WAVE_JOBS)
        .map(|wave| timer.measure(|| drive(fleet.addr(), wave, None)))
        .collect();
    fleet.stop();
    let phase = Phase::of(&attempts, &timer, 1);
    let pass_wall_s = phase.pass_wall_s;
    let served: Vec<Served> = attempts.into_iter().flat_map(|a| a.out).collect();

    let outputs: Vec<Output> = served.iter().map(|s| output(&s.result)).collect();
    let latencies: Vec<f64> = served
        .iter()
        .filter(|s| s.result.is_ok())
        .map(|s| s.submit_s + s.result_s)
        .collect();
    let mut run = Run::new(setup_s, phase);
    run.jobs = served.iter().filter(|s| s.result.is_ok()).count();
    run.latencies = Some(latencies);
    run.state_fs = Some(filesystem_of(dir.parent().unwrap_or(&dir)));
    run.failed = crate::golden::check(
        &args.golden_key(),
        args.seed,
        &outputs,
        size.jumbles_per_job,
        args.corrupt_golden,
        |i, out| {
            let job = &jobs[i].1;
            out.trees > 0 && crate::golden::recheck(out, &job.alignment, &job.config)
        },
    );
    run.attempted = outputs.len();
    if args.trace {
        run.layers = Some(traced(args, &jobs, &specs, &outputs, pass_wall_s, &mut run));
    }
    let _ = std::fs::remove_dir_all(&dir);
    run.outputs = outputs;
    run
}

fn traced(
    args: &Args,
    jobs: &[(JobSpec, ResolvedJob)],
    specs: &[JobSpec],
    untraced: &[Output],
    untraced_wall_s: f64,
    run: &mut Run,
) -> Layers {
    let dir = state_dir(args, "traced");
    let spans = Spans::new();
    let fleet = Fleet::start(&dir, true);
    let watch = Stopwatch::start();
    let served: Vec<Served> = specs
        .chunks(WAVE_JOBS)
        .flat_map(|wave| drive(fleet.addr(), wave, Some(&spans)))
        .collect();
    let (wall_s, _, _) = watch.stop();
    let snapshot = std::fs::read(dir.join("jobs.json")).unwrap_or_default();
    let sinks = fleet.stop();

    let mut layers = Layers::default();
    run.trace_mismatches = served
        .iter()
        .zip(untraced)
        .filter(|(s, u)| output(&s.result).fingerprint() != u.fingerprint())
        .count();
    let (report, records) = merged_report(&sinks);
    report_layers(&mut layers, &report, WORKERS, wall_s);
    layers.set(
        "likelihood.work_units",
        report.workers.iter().map(|w| w.work_units as f64).sum(),
    );
    scheduler_layers(&mut layers, &records);
    layers.set(
        "wire.bytes_per_task",
        layers.get("wire.bytes") / layers.get("foreman.dispatched"),
    );

    let ok: Vec<&Served> = served.iter().filter(|s| s.result.is_ok()).collect();
    let submit_s: Vec<f64> = ok.iter().map(|s| s.submit_s).collect();
    let result_s: Vec<f64> = ok.iter().map(|s| s.result_s).collect();
    layers.set_percentile("serve.submit_s", &submit_s, 0.5);
    layers.set_percentile("serve.result_s", &result_s, 0.5);
    let rejected = served
        .iter()
        .filter(|s| matches!(&s.result, Err(e) if e.starts_with("rejected")))
        .count();
    layers.set("serve.rejected", rejected as f64);
    layers.set("serve.failed", (served.len() - ok.len() - rejected) as f64);
    layers.set("obs.trace_overhead_frac", wall_s / untraced_wall_s - 1.0);
    layers.set(
        "trace.unaccounted_frac",
        (wall_s - spans.covered_s("serve.job")) / wall_s,
    );

    probe_storage(&mut layers, &spans, &dir, &snapshot);
    let (spec, job) = jobs.last().expect("at least one job");
    let best = &untraced.last().expect("at least one job").newick;
    let mix = frame_counts(&[&report]);
    probe_wire(&mut layers, &mix, best, &spec.phylip, &spec.config_json);
    if let Ok(tree) = newick::parse_tree(best, &job.alignment) {
        probe_likelihood(&mut layers, &spans, &job.config, &job.alignment, &tree);
    }
    let _ = std::fs::remove_dir_all(&dir);
    run.write_spans(&spans, args);
    layers
}

/// The daemon scheduler plays the foreman: each jumble it starts is one
/// dispatch, each it completes one useful result; its queue is the
/// admitted jumbles not yet started.
fn scheduler_layers(layers: &mut Layers, records: &[Record]) {
    let mut started: HashMap<u64, u64> = HashMap::new();
    let (mut dispatched, mut completed, mut timeouts) = (0u64, 0u64, 0u64);
    let (mut queued, mut max_queued) = (0i64, 0i64);
    let mut service_us = Vec::new();
    for r in records {
        match &r.event {
            Event::JobSubmitted { jumbles, .. } => {
                queued += *jumbles as i64;
                max_queued = max_queued.max(queued);
            }
            Event::JumbleStarted { seed } => {
                dispatched += 1;
                queued -= 1;
                started.insert(*seed, r.t_us);
            }
            Event::JumbleCompleted { seed, .. } => {
                completed += 1;
                if let Some(t0) = started.remove(seed) {
                    service_us.push(r.t_us.saturating_sub(t0) as f64);
                }
            }
            Event::TaskTimedOut { .. } => timeouts += 1,
            _ => {}
        }
    }
    layers.set("foreman.dispatched", dispatched as f64);
    layers.set("foreman.useful_frac", completed as f64 / dispatched as f64);
    layers.set("foreman.timeouts", timeouts as f64);
    layers.set("foreman.max_queue_depth", max_queued as f64);
    layers.set_percentile("foreman.service_p50_us", &service_us, 0.5);
}
