//! What every workload shares: the pinned engine settings, the
//! measurement window, operation tallies, and the reduction of spans to
//! per-layer metrics.

use crate::report::{Sheet, OP_KINDS};
use crate::stats::{self, q_error};
use crate::trace::{self, Span};
use dqo::core::{Catalog, PlanRuntime};
use dqo::plan::PhysicalPlan;
use std::collections::HashMap;
use std::time::Instant;

/// Engine degree of parallelism, pinned (the machine has two cores).
pub const DOP: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Samples a p99 needs (ten beyond it).
pub const P99_SAMPLES: usize = 1_000;
/// A traced run alternates untraced and traced blocks of this length, so
/// drift over the run hits both modes alike.
pub const BLOCK_S: f64 = 0.5;
/// Hard cap on one measurement loop, whatever the sample count.
pub const CAP_S: f64 = 150.0;
/// Seconds of busy-spinning on every core before the first set-up.
pub const SETTLE_S: f64 = 1.0;

/// Keep every core busy for [`SETTLE_S`] before anything is timed. On the
/// two-core virtual machine the bounds were set on, the first second of
/// load after idling ran up to twice as slow; without this the first run
/// of a series read slower than the rest.
pub fn settle() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let until = Instant::now() + std::time::Duration::from_secs_f64(SETTLE_S);
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                let mut x = 0u64;
                while Instant::now() < until {
                    for i in 0..10_000u64 {
                        x = std::hint::black_box(
                            x.wrapping_mul(6364136223846793005).wrapping_add(i),
                        );
                    }
                }
                x
            });
        }
    });
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: the only source of inputs.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Record benchmark spans and report per-layer metrics.
    pub trace: bool,
}

/// The measured interval of one run.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    seconds: f64,
    trace: bool,
}

impl Window {
    /// Open the window now.
    pub fn open(cfg: &Config) -> Self {
        Window {
            start: Instant::now(),
            seconds: cfg.seconds,
            trace: cfg.trace,
        }
    }

    /// Seconds since the window opened.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The loop ends once the time is up and every latency class that
    /// reports a p99 has its samples, or at the hard cap.
    pub fn done(&self, samples: &[usize]) -> bool {
        let e = self.elapsed();
        e >= CAP_S || (e >= self.seconds && samples.iter().all(|&n| n >= P99_SAMPLES))
    }

    /// Whether the benchmark's spans are on for an operation starting
    /// now: never in an untraced run; every other block in a traced run,
    /// starting untraced.
    pub fn traced_now(&self) -> bool {
        self.trace && (self.elapsed() / BLOCK_S) as u64 % 2 == 1
    }
}

/// One caller's completed operations and busy seconds, split by whether
/// spans were on (`[untraced, traced]`).
#[derive(Debug, Clone, Default)]
pub struct Tally {
    ops: [u64; 2],
    secs: [f64; 2],
}

impl Tally {
    /// Count `ops` operations that kept the caller busy for `secs`.
    pub fn add(&mut self, traced: bool, ops: u64, secs: f64) {
        self.ops[usize::from(traced)] += ops;
        self.secs[usize::from(traced)] += secs;
    }
}

/// Closed-loop throughput of one mode over all callers: operations over
/// the mean busy time per caller.
pub fn throughput(tallies: &[Tally], traced: bool) -> Option<f64> {
    let m = usize::from(traced);
    let ops: u64 = tallies.iter().map(|t| t.ops[m]).sum();
    let secs: f64 = tallies.iter().map(|t| t.secs[m]).sum::<f64>() / tallies.len().max(1) as f64;
    (ops > 0 && secs > 0.0).then(|| ops as f64 / secs)
}

/// Everything a workload hands back for reporting.
#[derive(Debug)]
pub struct Outcome {
    /// Each set-up's duration, seconds.
    pub setup_s: Vec<f64>,
    /// SELECT latencies at the caller, ms: each caller's samples in the
    /// order taken, callers one after another.
    pub queries_ms: Vec<f64>,
    /// How many of `queries_ms` each caller took (empty: one caller).
    pub query_callers: Vec<usize>,
    /// INSERT latencies at the caller, ms (empty without writes).
    pub inserts_ms: Vec<f64>,
    /// Operations attempted (timed loop plus end-of-run checks).
    pub attempted: u64,
    /// Operations that errored or returned a wrong answer.
    pub failed: u64,
    /// Per-caller tallies.
    pub tallies: Vec<Tally>,
    /// Per-layer values (traced runs).
    pub layers: Sheet,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
    /// Extra report lines (parameters, checks).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An empty outcome.
    pub fn new() -> Self {
        Outcome {
            setup_s: Vec::new(),
            queries_ms: Vec::new(),
            query_callers: Vec::new(),
            inserts_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            tallies: Vec::new(),
            layers: Sheet::per_layer(),
            spans: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Median duration of the spans called `name`, in µs (refused below the
/// 20 samples a median needs).
pub fn span_p50_us(spans: &[Span], name: &str) -> Option<f64> {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    stats::percentile(&stats::sorted(v), 50.0).ok()
}

/// Rows consumed per operator span, for the `exec.<K>.rows_per_s` rates.
pub type OpRows = HashMap<u64, u64>;

/// Rows each node consumed, in pre-order: its children's output, or its
/// own output for a leaf.
fn input_rows(plan: &PhysicalPlan, runtime: &PlanRuntime) -> Vec<u64> {
    fn walk(
        node: &PhysicalPlan,
        runtime: &PlanRuntime,
        next: &mut usize,
        out: &mut Vec<u64>,
    ) -> u64 {
        let at = *next;
        *next += 1;
        out.push(0);
        let own = runtime.node(at).map_or(0, |m| m.rows_out);
        let children = node.children();
        out[at] = if children.is_empty() {
            own
        } else {
            children.iter().map(|c| walk(c, runtime, next, out)).sum()
        };
        own
    }
    let mut out = Vec::with_capacity(runtime.len());
    walk(plan, runtime, &mut 0, &mut out);
    out
}

/// Record the operator spans of one executed plan and remember the rows
/// each node consumed.
pub fn record_plan(
    tracer: &mut trace::Tracer,
    request: u64,
    execute: Option<(u64, u64)>,
    plan: &PhysicalPlan,
    runtime: &PlanRuntime,
    rows: &mut OpRows,
) {
    let Some((parent, start)) = execute else {
        return;
    };
    let ids = trace::record_operators(tracer, request, parent, start, plan, runtime);
    rows.extend(ids.into_iter().zip(input_rows(plan, runtime)));
}

/// Fill `exec.<K>.self_ms` (mean self time of one node of kind K) and
/// `exec.<K>.rows_per_s` (rows consumed over self time) from operator
/// spans.
pub fn operator_metrics(sheet: &mut Sheet, spans: &[Span], rows: &OpRows) {
    let own = trace::self_times(spans);
    let mut per: HashMap<&str, (u64, u64, u64)> = HashMap::new();
    for (s, ns) in spans.iter().zip(own) {
        let Some(kind) = s.name.strip_prefix("op.") else {
            continue;
        };
        let e = per.entry(kind).or_default();
        e.0 += 1;
        e.1 += ns;
        e.2 += rows.get(&s.id).copied().unwrap_or(0);
    }
    for k in OP_KINDS {
        let Some(&(n, ns, r)) = per.get(k) else {
            continue;
        };
        sheet.set(
            &format!("exec.{k}.self_ms"),
            Some(ns as f64 / n as f64 / 1e6),
        );
        let rate = if ns > 0 {
            r as f64 / (ns as f64 / 1e9)
        } else {
            0.0
        };
        sheet.set(&format!("exec.{k}.rows_per_s"), Some(rate));
        sheet.note(&format!("exec.{k}.self_ms"), format!("{n} nodes"));
    }
}

/// Plans and runtimes kept from traced executions, for the q-error
/// audit after the loop.
#[derive(Debug, Default)]
pub struct QErrors {
    kept: Vec<(PhysicalPlan, PlanRuntime)>,
}

impl QErrors {
    /// At most this many executions are kept.
    const KEEP: usize = 4_000;

    /// Keep one execution.
    pub fn keep(&mut self, plan: &PhysicalPlan, runtime: &PlanRuntime) {
        if self.kept.len() < Self::KEEP && !runtime.is_empty() {
            self.kept.push((plan.clone(), runtime.clone()));
        }
    }

    /// Median and maximum q-error of every node's estimate (the
    /// optimiser's own estimator with the session's feedback folded in)
    /// against its actual output rows.
    pub fn fill(&self, sheet: &mut Sheet, catalog: &Catalog, feedback: &dqo::core::FeedbackStore) {
        let mut q: Vec<f64> = Vec::new();
        for (plan, runtime) in &self.kept {
            let est = dqo::core::profile::estimate_rows_with(plan, catalog, Some(feedback));
            q.extend(
                est.iter()
                    .zip(&runtime.nodes)
                    .map(|(&e, m)| q_error(e, m.rows_out)),
            );
        }
        let q = stats::sorted(q);
        sheet.set("opt.q_error_p50", stats::percentile(&q, 50.0).ok());
        sheet.set("opt.q_error_max", q.last().copied());
        sheet.note(
            "opt.q_error_p50",
            format!("{} nodes of {} plans", q.len(), self.kept.len()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo::exec::pipeline::OperatorMetrics;

    #[test]
    fn input_rows_are_the_children_output() {
        let scan = |t: &str| PhysicalPlan::Scan { table: t.into() };
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Join {
                left: Box::new(scan("r")),
                right: Box::new(scan("s")),
                left_key: "id".into(),
                right_key: "r_id".into(),
                algo: dqo::plan::JoinImpl::Hj,
            }),
            n: 10,
        };
        let out = |rows_out| OperatorMetrics {
            rows_out,
            ..OperatorMetrics::default()
        };
        let runtime = PlanRuntime {
            nodes: vec![out(10), out(700), out(100), out(600)],
        };
        assert_eq!(input_rows(&plan, &runtime), vec![700, 700, 100, 600]);
    }
}
