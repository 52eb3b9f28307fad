//! `net-edits-101`: the TCP runtime as `--net spawn 5 --incremental` runs
//! it, with the coordinator and its four peers (foreman, monitor, two
//! workers) as threads of this process talking over loopback. Each
//! candidate is one scheduled task: an edit scored against the workers'
//! cached base.

use crate::golden::Output;
use crate::layers::{
    executor_layers, frame_counts, merged_report, probe_likelihood, probe_wire, report_layers,
    service_times_us, Layers, TimedExecutor,
};
use crate::measure::{Attempt, Spans, Stopwatch, UnitTimer};
use crate::{plan_jumbles, Args, Phase, Run, Size, REMEASURE_BUDGET};
use fdml_comm::recording::Recording;
use fdml_core::config::SearchConfig;
use fdml_core::hierarchy::first_worker_rank;
use fdml_core::master::ClusterExecutor;
use fdml_core::netrun::{
    net_coordinator_search, run_net_peer, NetOptions, NetOutcome, PeerOutcome,
};
use fdml_core::search::StepwiseSearch;
use fdml_core::{ResolvedJob, SearchResult};
use fdml_net::{NetConfig, TcpHub};
use fdml_obs::{MemorySink, Obs, RunReport, Sink};
use fdml_phylo::alignment::Alignment;
use fdml_phylo::{newick, phylip};
use std::net::TcpListener;
use std::thread;
use std::time::{Duration, Instant};

/// Coordinator + foreman + monitor + two workers.
const RANKS: usize = 5;
const WORKERS: usize = 2;

/// How long a peer keeps dialing a coordinator that has not bound yet.
const DIAL_PATIENCE: Duration = Duration::from_secs(30);

/// An unused loopback port for the next coordinator.
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind an ephemeral loopback port")
        .port()
}

/// Run one peer through `run_net_peer`, redialing while the coordinator
/// is not listening yet.
pub fn peer(addr: &str, sink: Option<MemorySink>) -> Result<PeerOutcome, String> {
    let deadline = Instant::now() + DIAL_PATIENCE;
    loop {
        let sinks: Vec<Box<dyn Sink>> = sink
            .iter()
            .map(|s| Box::new(s.clone()) as Box<dyn Sink>)
            .collect();
        match run_net_peer(addr, sinks, None) {
            Ok((_, outcome)) => return Ok(outcome),
            Err(e) if e.starts_with("connect ") && Instant::now() < deadline => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// One search through `net_coordinator_search`, with the four peers as
/// threads of this process.
fn search(job: &ResolvedJob) -> NetOutcome {
    let addr = format!("127.0.0.1:{}", free_port());
    thread::scope(|s| {
        let handles: Vec<_> = (1..RANKS)
            .map(|_| {
                let addr = addr.as_str();
                s.spawn(move || peer(addr, None))
            })
            .collect();
        let outcome = net_coordinator_search(job, NetOptions::new(addr.clone(), RANKS))
            .expect("net coordinator search");
        for h in handles {
            h.join().expect("peer thread").expect("peer run");
        }
        outcome
    })
}

fn jobs_for(alignment: &Alignment, seeds: &[u64]) -> Vec<ResolvedJob> {
    seeds
        .iter()
        .map(|&jumble_seed| {
            let config = SearchConfig {
                jumble_seed,
                incremental: true,
                ..SearchConfig::default()
            };
            ResolvedJob::from_parts(alignment.clone(), config, 1).expect("one-jumble job")
        })
        .collect()
}

fn output(job: &ResolvedJob, result: &SearchResult) -> Output {
    Output {
        newick: newick::write_tree(&result.tree, job.alignment.names()),
        ln_likelihood: result.ln_likelihood,
        trees: 1,
    }
}

pub fn run(args: &Args, size: &Size) -> Run {
    // Set-up: dataset generation and a PHYLIP round trip, then one
    // universe assembly (bind, four peers join, a 5-taxon search, drain)
    // so the measured phase starts with the transport warm.
    let mut setup_s = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..size.setups {
        let t = Instant::now();
        let alignment = size.dataset();
        let alignment = phylip::parse(&phylip::write(&alignment)).expect("generated PHYLIP parses");
        let tiny = Size::tiny_alignment(args.seed);
        search(&jobs_for(&tiny, &[1])[0]);
        jobs = jobs_for(&alignment, &plan_jumbles(args.seed, size.units));
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut timer = UnitTimer::new(args.seconds * REMEASURE_BUDGET);
    let attempts: Vec<Attempt<NetOutcome>> =
        jobs.iter().map(|j| timer.measure(|| search(j))).collect();
    let phase = Phase::of(&attempts, &timer, 1);
    let pass_wall_s = phase.pass_wall_s;
    let searched: Vec<NetOutcome> = attempts.into_iter().map(|a| a.out).collect();
    let outputs: Vec<Output> = jobs
        .iter()
        .zip(&searched)
        .map(|(j, s)| output(j, &s.result))
        .collect();

    let mut run = Run::new(setup_s, phase);
    run.jobs = searched.len();
    run.trees_scored = Some(
        searched
            .iter()
            .map(|s| s.result.candidates_evaluated as u64)
            .sum(),
    );
    run.failed = crate::golden::check(
        &args.golden_key(),
        args.seed,
        &outputs,
        1,
        args.corrupt_golden,
        |i, out| crate::golden::recheck(out, &jobs[i].alignment, &jobs[i].config),
    );
    run.attempted = outputs.len();
    if args.trace {
        run.layers = Some(traced(&jobs, &outputs, pass_wall_s, args, &mut run));
    }
    run.outputs = outputs;
    run
}

/// How long a traced coordinator waits for its peers to join.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A traced search: the coordinator `net_coordinator_search` runs,
/// assembled from the same public parts (hub, `ClusterExecutor`,
/// `StepwiseSearch`) so that the search and every executor call are
/// spans; assembling and draining the universe are `universe` spans.
/// Every rank gets its own sink.
fn traced_search(
    job: &ResolvedJob,
    spans: &Spans,
) -> (SearchResult, Vec<PeerOutcome>, Vec<MemorySink>) {
    let universe = spans.open("universe", 0);
    let sinks: Vec<MemorySink> = (0..RANKS).map(|_| MemorySink::new()).collect();
    let obs = Obs::new(Box::new(sinks[0].clone()));
    let config = &job.config;
    let net = NetConfig {
        worker_timeout: config.worker_timeout,
        ..NetConfig::default()
    };
    let hub = TcpHub::bind("127.0.0.1:0", RANKS, net, obs.clone()).expect("bind hub");
    let addr = hub.local_addr().to_string();
    thread::scope(|s| {
        let handles: Vec<_> = sinks[1..]
            .iter()
            .map(|sink| {
                let (addr, sink) = (addr.as_str(), sink.clone());
                s.spawn(move || peer(addr, Some(sink)))
            })
            .collect();
        hub.wait_ready(READY_TIMEOUT).expect("peers join");
        spans.close(universe);
        let parent = spans.open("search", 0);
        let names = job.alignment.names().to_vec();
        let executor = ClusterExecutor::with_first_worker(
            Recording::new(hub, obs.clone()),
            names.clone(),
            phylip::write(&job.alignment),
            config.engine_config_json(),
            true,
            first_worker_rank(0),
        )
        .with_incremental(config.incremental);
        let timed = TimedExecutor {
            inner: executor,
            spans,
            parent,
        };
        let mut search =
            StepwiseSearch::new(config, timed, job.alignment.num_taxa()).with_names(names);
        let result = search.run().expect("traced net search");
        spans.close(parent);
        let drain = spans.open("universe", 0);
        // Keep the hub up until the peers acknowledge the shutdown by
        // disconnecting, as the coordinator does.
        let master_end = search.into_executor().inner.shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        while master_end.inner().connected_peers() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        drop(master_end);
        let peers = handles
            .into_iter()
            .map(|h| h.join().expect("peer thread").expect("peer run"))
            .collect();
        spans.close(drain);
        (result, peers, sinks.clone())
    })
}

/// The same searches again with every rank observed and every executor
/// call timed.
fn traced(
    jobs: &[ResolvedJob],
    untraced: &[Output],
    untraced_wall_s: f64,
    args: &Args,
    run: &mut Run,
) -> Layers {
    let spans = Spans::new();
    let mut layers = Layers::default();
    let mut reports: Vec<RunReport> = Vec::new();
    let mut service_us = Vec::new();
    let mut mismatches = 0;
    let mut forwarded = 0.0;
    let watch = Stopwatch::start();
    let mut last_newick = String::new();
    for (job, expected) in jobs.iter().zip(untraced) {
        let ((result, peers, sinks), search_s) =
            spans.time("net.search", 0, || traced_search(job, &spans));
        let out = output(job, &result);
        mismatches += usize::from(out.fingerprint() != expected.fingerprint());
        let (report, records) = merged_report(&sinks);
        report_layers(&mut layers, &report, WORKERS, search_s);
        service_us.extend(service_times_us(&records));
        for peer in &peers {
            if let PeerOutcome::Foreman(stats) = peer {
                layers.add("foreman.dispatched", stats.dispatched as f64);
                layers.add("foreman.timeouts", stats.timeouts as f64);
                forwarded += stats.results_forwarded as f64;
            }
        }
        let depth = layers
            .get("foreman.max_queue_depth")
            .max(report.max_work_depth as f64);
        layers.set("foreman.max_queue_depth", depth);
        layers.add("search.rounds", result.rounds as f64);
        layers.add("search.candidates", result.candidates_evaluated as f64);
        layers.add("likelihood.work_units", result.work_units as f64);
        last_newick = out.newick;
        reports.push(report);
    }
    let (wall_s, _, _) = watch.stop();
    run.trace_mismatches = mismatches;

    let dispatched = layers.get("foreman.dispatched");
    layers.set("foreman.useful_frac", forwarded / dispatched);
    layers.set("wire.bytes_per_task", layers.get("wire.bytes") / dispatched);
    layers.set_percentile("foreman.service_p50_us", &service_us, 0.5);
    layers.set("obs.trace_overhead_frac", wall_s / untraced_wall_s - 1.0);
    executor_layers(&mut layers, &spans);
    layers.set(
        "trace.unaccounted_frac",
        (wall_s - spans.covered_s("search") - spans.covered_s("universe")) / wall_s,
    );

    let job = jobs.last().expect("at least one search");
    let mix = frame_counts(&reports.iter().collect::<Vec<_>>());
    probe_wire(
        &mut layers,
        &mix,
        &last_newick,
        &phylip::write(&job.alignment),
        &job.config.engine_config_json(),
    );
    let tree = newick::parse_tree(&last_newick, &job.alignment).expect("final tree parses");
    probe_likelihood(&mut layers, &spans, &job.config, &job.alignment, &tree);
    run.write_spans(&spans, args);
    layers
}
