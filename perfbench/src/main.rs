//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <olap-mix|serve-prepared|mixed-rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a readable report, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits
//! non-zero when any answer was wrong. See `perfbench/README.md`.

mod common;
mod mixed;
mod olap;
mod report;
mod rng;
mod serve;
mod serving;
mod stats;
mod trace;

use common::{Config, Outcome};
use report::{Entry, Sheet};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["olap-mix", "serve-prepared", "mixed-rw"];

/// The engine settings the benchmark pins, whatever the environment says.
const PINNED_ENV: [(&str, &str); 3] =
    [("DQO_THREADS", "2"), ("DQO_OBS", "on"), ("DQO_PRUNE", "on")];

struct Args {
    workload: String,
    cfg: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        cfg: Config {
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        },
    })
}

/// The end-to-end sheet of one run.
fn end_to_end(out: &Outcome) -> Result<Sheet, String> {
    let mut s = Sheet::end_to_end();
    s.set("setup_s", stats::median(&out.setup_s));
    s.note(
        "setup_s",
        format!(
            "median of {} set-ups: {}",
            out.setup_s.len(),
            out.setup_s
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    let mut callers: Vec<&[f64]> = Vec::new();
    let mut rest = out.queries_ms.as_slice();
    for &n in &out.query_callers {
        let (head, tail) = rest.split_at(n.min(rest.len()));
        callers.push(head);
        rest = tail;
    }
    if !rest.is_empty() {
        callers.push(rest);
    }
    for (class, streams) in [
        ("query", callers),
        ("insert", vec![out.inserts_ms.as_slice()]),
    ] {
        let n: usize = streams.iter().map(|s| s.len()).sum();
        if n == 0 {
            if class == "insert" {
                s.note("insert_p50_ms", "no writes on this workload");
                s.note("insert_p99_ms", "no writes on this workload");
                continue;
            }
            return Err("no query completed".into());
        }
        let unsupported = |name: &str, u: stats::Unsupported| {
            format!(
                "{name} unsupported: {} samples, {} needed",
                u.samples, u.needed
            )
        };
        let p50_name = format!("{class}_p50_ms");
        let pooled = stats::sorted(streams.iter().flat_map(|s| s.iter().copied()).collect());
        let p50 = stats::percentile(&pooled, 50.0).map_err(|u| unsupported(&p50_name, u))?;
        s.set(&p50_name, Some(p50));
        s.note(&p50_name, format!("{n} samples"));
        let p99_name = format!("{class}_p99_ms");
        let (p99, blocks) =
            stats::blocked_percentile(&streams, 99.0).map_err(|u| unsupported(&p99_name, u))?;
        s.set(&p99_name, Some(p99));
        s.note(
            &p99_name,
            format!("{n} samples; median over {blocks} block(s) of >= 1000 in a row"),
        );
    }
    s.set("ops_per_s", common::throughput(&out.tallies, false));
    s.note(
        "ops_per_s",
        format!("closed loop, {} caller(s)", out.tallies.len()),
    );
    s.set(
        "failed_ratio",
        Some(out.failed as f64 / out.attempted.max(1) as f64),
    );
    s.note(
        "failed_ratio",
        format!("{} of {} attempted", out.failed, out.attempted),
    );
    s.set("peak_rss_mb", stats::peak_rss_mb());
    s.note("peak_rss_mb", "VmHWM");
    Ok(s)
}

fn main() -> ExitCode {
    for (k, v) in PINNED_ENV {
        std::env::set_var(k, v);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    common::settle();
    let result = match args.workload.as_str() {
        "olap-mix" => olap::run(cfg),
        "serve-prepared" => serve::run(cfg),
        _ => mixed::run(cfg),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let e2e = match end_to_end(&out) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!(
        "env: nproc={} profile={} dop={} {} mode=Deep",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        common::DOP,
        PINNED_ENV
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("end-to-end:");
    for line in e2e.lines() {
        println!("{line}");
    }

    let metrics: Vec<&Entry> = if cfg.trace {
        let traced = common::throughput(&out.tallies, true);
        let untraced = e2e.get("ops_per_s");
        let layers = &mut out.layers;
        layers.set(
            "trace.overhead_pct",
            traced.zip(untraced).map(|(t, u)| (u - t) / u * 100.0),
        );
        layers.note(
            "trace.overhead_pct",
            format!(
                "traced {:.1} vs untraced {:.1} ops/s, alternating {}s blocks",
                traced.unwrap_or(0.0),
                untraced.unwrap_or(0.0),
                common::BLOCK_S
            ),
        );
        for name in ["query_p99_ms", "insert_p50_ms", "insert_p99_ms"] {
            layers.set(name, e2e.get(name));
        }
        println!("per-layer (n/a = layer not on this workload's path):");
        for line in layers.lines() {
            println!("{line}");
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, cfg.seed));
        match trace::write_jsonl(&path, &out.spans) {
            Ok(()) => println!("spans: {} written to {}", out.spans.len(), path.display()),
            Err(e) => println!("spans: {} not written: {e}", out.spans.len()),
        }
        out.layers.entries().iter().collect()
    } else {
        e2e.entries()
            .iter()
            .filter(|e| report::GATED.contains(&e.name.as_str()))
            .collect()
    };
    for note in &out.notes {
        println!("note: {note}");
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        report::result_json(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
