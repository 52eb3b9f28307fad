//! The benchmark's own checks, on toy sizes of each workload: every named
//! metric is printed with its unit, a forced golden mismatch fails the run,
//! and the traced run reproduces the untraced trees.

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["serial-50", "net-edits-101", "daemon-farm"];

/// End-to-end metrics every untraced run reports, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
];

fn bench(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fdml-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--toy"])
        .args(extra)
        .output()
        .expect("run the benchmark binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

/// The last line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
fn result_line(out: &Output) -> String {
    stdout(out)
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

fn has_metric(json: &str, name: &str, unit: &str) -> bool {
    let key = format!("\"{name}\":{{\"value\":");
    json.find(&key).is_some_and(|at| {
        let rest = &json[at + key.len()..];
        rest.split_once('}')
            .is_some_and(|(body, _)| body.ends_with(&format!(",\"unit\":\"{unit}\"")))
    })
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    for w in WORKLOADS {
        let out = bench(w, 1, false, &[]);
        assert!(
            out.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = result_line(&out);
        assert!(json.starts_with("{\"correct\":true,"), "{w}: {json}");
        assert!(json.contains("\"failed\":0,"), "{w}: {json}");
        for (name, unit) in END_TO_END {
            assert!(
                has_metric(&json, name, unit),
                "{w} lacks {name} [{unit}]: {json}"
            );
        }
        let text = stdout(&out);
        assert!(text.contains("metric failed_frac 0 frac"), "{w}: {text}");
        for diag in ["diag host.steal_s", "diag host.cores", "diag host.isa"] {
            assert!(text.contains(diag), "{w} lacks {diag}");
        }
    }
}

#[test]
fn every_per_layer_metric_is_printed_and_traced_trees_match() {
    let catalogue = include_str!("../../BENCHMARK.json");
    for w in WORKLOADS {
        let out = bench(w, 2, true, &[]);
        assert!(
            out.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        assert!(text.contains("trace trees_equal true"), "{w}: {text}");
        let json = result_line(&out);
        let per_layer = &catalogue[catalogue.find("\"per_layer\"").expect("per_layer list")..];
        let mut seen = 0;
        for entry in per_layer.split("{\"name\": \"").skip(1) {
            let name = entry.split('"').next().expect("metric name");
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("metric unit");
            assert!(
                has_metric(&json, name, unit),
                "{w} lacks {name} [{unit}]: {json}"
            );
            seen += 1;
        }
        assert!(seen > 30, "parsed only {seen} per-layer metrics");
    }
}

#[test]
fn a_golden_mismatch_fails_the_run() {
    for w in WORKLOADS {
        let out = bench(w, 1, false, &["--corrupt-golden"]);
        assert!(!out.status.success(), "{w} exited 0 on a golden mismatch");
        let json = result_line(&out);
        assert!(json.starts_with("{\"correct\":false,"), "{w}: {json}");
        assert!(!json.contains("\"failed\":0,"), "{w}: {json}");
        let text = stdout(&out);
        let frac = text
            .lines()
            .find_map(|l| l.strip_prefix("metric failed_frac "))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .expect("failed_frac line");
        assert!(frac > 0.0, "{w}: failed_frac {frac}");
    }
}

#[test]
fn outputs_at_the_default_seed_match_their_pins() {
    let golden = include_str!("../golden.txt");
    for w in WORKLOADS {
        assert!(
            golden.lines().any(|l| l.starts_with(&format!("{w}/toy "))),
            "no pinned toy outputs for {w}"
        );
    }
}
