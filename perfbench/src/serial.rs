//! `serial-50`: the paper's serial program, `runner::serial_search` on the
//! 50-taxon dataset. Every candidate gets the full branch-length
//! optimization, so the likelihood kernels and Newton do the work.

use crate::golden::Output;
use crate::layers::{executor_layers, probe_likelihood, Layers, TimedExecutor};
use crate::measure::{Attempt, Spans, Stopwatch, UnitTimer};
use crate::{plan_jumbles, Args, Phase, Run, Size, REMEASURE_BUDGET, SERIAL_PASSES};
use fdml_core::config::SearchConfig;
use fdml_core::executor::FullEvalExecutor;
use fdml_core::search::StepwiseSearch;
use fdml_core::SearchResult;
use fdml_phylo::alignment::Alignment;
use fdml_phylo::newick;
use fdml_phylo::phylip;
use std::time::Instant;

struct Inputs {
    alignment: Alignment,
    configs: Vec<SearchConfig>,
}

/// Dataset generation, a PHYLIP round trip (what a user's run parses) and
/// the likelihood engine build.
fn set_up(args: &Args, size: &Size) -> Inputs {
    let alignment = size.dataset();
    let alignment = phylip::parse(&phylip::write(&alignment)).expect("generated PHYLIP parses");
    let configs: Vec<SearchConfig> = plan_jumbles(args.seed, size.units)
        .into_iter()
        .map(|jumble_seed| SearchConfig {
            jumble_seed,
            ..SearchConfig::default()
        })
        .collect();
    std::hint::black_box(configs[0].build_engine(&alignment));
    Inputs { alignment, configs }
}

fn output(alignment: &Alignment, r: &SearchResult) -> Output {
    Output {
        newick: newick::write_tree(&r.tree, alignment.names()),
        ln_likelihood: r.ln_likelihood,
        trees: 1,
    }
}

pub fn run(args: &Args, size: &Size) -> Run {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..size.setups {
        let t = Instant::now();
        inputs = Some(set_up(args, size));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Inputs { alignment, configs } = inputs.expect("at least one set-up");

    // Every search runs once per pass; a search's fastest pass counts.
    // The passes are interleaved so that a slow spell of the host (a busy
    // hyperthread sibling shows no steal) rarely covers both attempts.
    let mut timer = UnitTimer::new(args.seconds * REMEASURE_BUDGET);
    let mut best: Vec<Option<Attempt<SearchResult>>> = configs.iter().map(|_| None).collect();
    for _ in 0..SERIAL_PASSES {
        for (slot, c) in best.iter_mut().zip(&configs) {
            let a = timer.measure(|| {
                fdml_core::runner::serial_search(&alignment, c).expect("serial search")
            });
            if slot.as_ref().is_none_or(|b| a.wall_s < b.wall_s) {
                *slot = Some(a);
            }
        }
    }
    let attempts: Vec<Attempt<SearchResult>> = best.into_iter().flatten().collect();
    let phase = Phase::of(&attempts, &timer, SERIAL_PASSES);
    let pass_wall_s = phase.pass_wall_s;
    let results: Vec<SearchResult> = attempts.into_iter().map(|a| a.out).collect();
    let outputs: Vec<Output> = results.iter().map(|r| output(&alignment, r)).collect();
    let candidates: usize = results.iter().map(|r| r.candidates_evaluated).sum();

    let mut run = Run::new(setup_s, phase);
    run.jobs = results.len();
    run.trees_scored = Some(candidates as u64);
    run.failed = crate::golden::check(
        &args.golden_key(),
        args.seed,
        &outputs,
        1,
        args.corrupt_golden,
        |i, out| crate::golden::recheck(out, &alignment, &configs[i]),
    );
    run.attempted = outputs.len();

    if args.trace {
        run.layers = Some(traced(
            &alignment,
            &configs,
            &results,
            pass_wall_s,
            args,
            &mut run,
        ));
    }
    run.outputs = outputs;
    run
}

/// The same searches again, with every executor call timed.
fn traced(
    alignment: &Alignment,
    configs: &[SearchConfig],
    untraced: &[SearchResult],
    untraced_wall_s: f64,
    args: &Args,
    run: &mut Run,
) -> Layers {
    let spans = Spans::new();
    let watch = Stopwatch::start();
    let mut results = Vec::new();
    for config in configs {
        let search_id = spans.open("search", 0);
        let engine = config.build_engine(alignment);
        let executor = TimedExecutor {
            inner: FullEvalExecutor::new(&engine, config.optimize),
            spans: &spans,
            parent: search_id,
        };
        let result = StepwiseSearch::new(config, executor, alignment.num_taxa())
            .with_names(alignment.names().to_vec())
            .run()
            .expect("traced serial search");
        spans.close(search_id);
        results.push(result);
    }
    let (wall_s, _, _) = watch.stop();

    let mut layers = Layers::default();
    run.trace_mismatches = results
        .iter()
        .zip(untraced)
        .filter(|(t, u)| output(alignment, t).fingerprint() != output(alignment, u).fingerprint())
        .count();
    executor_layers(&mut layers, &spans);
    layers.set(
        "search.rounds",
        results.iter().map(|r| r.rounds as f64).sum(),
    );
    layers.set(
        "search.candidates",
        results.iter().map(|r| r.candidates_evaluated as f64).sum(),
    );
    layers.set(
        "likelihood.work_units",
        results.iter().map(|r| r.work_units as f64).sum(),
    );
    layers.set("obs.trace_overhead_frac", wall_s / untraced_wall_s - 1.0);
    layers.set(
        "trace.unaccounted_frac",
        (wall_s - spans.covered_s("search")) / wall_s,
    );
    let last = results.last().expect("at least one search");
    probe_likelihood(&mut layers, &spans, &configs[0], alignment, &last.tree);
    run.write_spans(&spans, args);
    layers
}
