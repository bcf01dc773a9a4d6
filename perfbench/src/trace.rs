//! Benchmark-side spans, kept in memory and written out at exit.
//!
//! The benchmark adds no instrumentation to the engine. A span is either
//! timed here around a call into a public function (`Dqo::sql`,
//! `Client::execute`, `PreparedQuery::bind_params`, …), or re-expressed
//! from what the engine already returns: the phases of a
//! `QueryProfile`, and one span per plan node from `PlanRuntime`'s
//! inclusive wall times.

use dqo::core::PlanRuntime;
use dqo::obs::QueryProfile;
use dqo::plan::PhysicalPlan;
use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request every span of one operation shares.
    pub request: u64,
    /// Layer-qualified name, e.g. `sql.parse` or `op.SPHG`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span sink for one caller thread. Disabled tracers record
/// nothing and cost one branch per call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    /// Distinguishes ids minted by different threads' tracers.
    tag: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant, tag: u64) -> Self {
        Tracer {
            origin,
            enabled: true,
            tag,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off (the untraced blocks of a traced run).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds from the origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span; returns its id (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = (self.tag << 48) | self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        Some(id)
    }

    /// Record a span between two instants.
    pub fn record_at(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        let (s, e) = (self.ns(start), self.ns(end));
        self.record(name, parent, request, s, e)
    }

    /// Open a span whose end is not known yet; [`Tracer::close`] ends it.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
    ) -> Option<u64> {
        let s = self.ns(start);
        self.record(name, parent, request, s, s)
    }

    /// End a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<u64>, end: Instant) {
        let end = self.ns(end);
        if let Some(span) = id.and_then(|id| self.spans.get_mut((id & ((1 << 48) - 1)) as usize)) {
            span.end_ns = end;
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Span name of a profile phase.
fn phase_span_name(phase: dqo::Phase) -> &'static str {
    match phase {
        dqo::Phase::Parse => "sql.parse",
        dqo::Phase::Bind => "sql.bind",
        dqo::Phase::AdmissionWait => "parallel.admission_wait",
        dqo::Phase::Optimise => "opt.optimise",
        dqo::Phase::Execute => "exec.execute",
    }
}

/// Re-express a [`QueryProfile`] as child spans of `parent`. The
/// profile's offsets count from the engine's trace start, which the
/// caller pins to `origin_ns` (the start of the call that produced it).
/// Returns the id of the execute span, the parent of the operator spans.
pub fn record_profile(
    tracer: &mut Tracer,
    request: u64,
    parent: Option<u64>,
    origin_ns: u64,
    profile: &QueryProfile,
) -> Option<(u64, u64)> {
    let mut execute = None;
    for span in &profile.spans {
        let start = origin_ns + span.start.as_nanos() as u64;
        let end = start + span.duration.as_nanos() as u64;
        let id = tracer.record(phase_span_name(span.phase), parent, request, start, end);
        if span.phase == dqo::Phase::Execute {
            execute = id.map(|id| (id, start));
        }
    }
    execute
}

/// Span name of a plan node: `op.` and the physical algorithm for
/// groupings and joins, the node type otherwise.
fn op_span_name(node: &PhysicalPlan) -> &'static str {
    use dqo::plan::{GroupingImpl, JoinImpl};
    match node {
        PhysicalPlan::Scan { .. } => "op.Scan",
        PhysicalPlan::PartitionedScan { .. } => "op.PartitionedScan",
        PhysicalPlan::Filter { .. } => "op.Filter",
        PhysicalPlan::Sort { .. } => "op.Sort",
        PhysicalPlan::Project { .. } => "op.Project",
        PhysicalPlan::Limit { .. } => "op.Limit",
        PhysicalPlan::Exchange { .. } => "op.Exchange",
        PhysicalPlan::GroupBy { algo, .. } => match algo {
            GroupingImpl::Hg => "op.HG",
            GroupingImpl::Sphg => "op.SPHG",
            GroupingImpl::Og => "op.OG",
            GroupingImpl::Sog => "op.SOG",
            GroupingImpl::Bsg => "op.BSG",
        },
        PhysicalPlan::Join { algo, .. } => match algo {
            JoinImpl::Hj => "op.HJ",
            JoinImpl::Oj => "op.OJ",
            JoinImpl::Soj => "op.SOJ",
            JoinImpl::Sphj => "op.SPHJ",
            JoinImpl::Bsj => "op.BSJ",
        },
    }
}

/// One span per plan node from the runtime's inclusive wall times. The
/// runtime records durations, not start times, so each node's children
/// are laid out back to back from the node's own start; a node's self
/// time then comes out as its inclusive wall minus its children's,
/// floored at zero. Returns the span id of each node, in pre-order.
pub fn record_operators(
    tracer: &mut Tracer,
    request: u64,
    parent: u64,
    start_ns: u64,
    plan: &PhysicalPlan,
    runtime: &PlanRuntime,
) -> Vec<u64> {
    let mut ids = Vec::with_capacity(runtime.len());
    let mut next = 0usize;
    lay_out(
        tracer, request, parent, start_ns, plan, runtime, &mut next, &mut ids,
    );
    ids
}

#[allow(clippy::too_many_arguments)]
fn lay_out(
    tracer: &mut Tracer,
    request: u64,
    parent: u64,
    start_ns: u64,
    node: &PhysicalPlan,
    runtime: &PlanRuntime,
    next: &mut usize,
    ids: &mut Vec<u64>,
) {
    let wall = runtime.node(*next).map_or(0, |m| m.wall.as_nanos() as u64);
    *next += 1;
    let name = op_span_name(node);
    let Some(id) = tracer.record(name, Some(parent), request, start_ns, start_ns + wall) else {
        return;
    };
    ids.push(id);
    let mut child_start = start_ns;
    for child in node.children() {
        let before = *next;
        lay_out(tracer, request, id, child_start, child, runtime, next, ids);
        child_start += runtime.node(before).map_or(0, |m| m.wall.as_nanos() as u64);
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    use std::collections::HashMap;
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Write spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
/// `request`, `id`, `self_ns`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns, own
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo::exec::pipeline::OperatorMetrics;
    use dqo::plan::JoinImpl;
    use std::time::Duration;

    fn scan(t: &str) -> PhysicalPlan {
        PhysicalPlan::Scan {
            table: t.to_owned(),
        }
    }

    fn metrics(wall_us: u64) -> OperatorMetrics {
        OperatorMetrics {
            wall: Duration::from_micros(wall_us),
            ..OperatorMetrics::default()
        }
    }

    #[test]
    fn self_time_from_inclusive_operator_walls() {
        // Limit(10µs) ← Join(8µs) ← [Scan r (2µs), Scan s (3µs)]
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Join {
                left: Box::new(scan("r")),
                right: Box::new(scan("s")),
                left_key: "id".into(),
                right_key: "r_id".into(),
                algo: JoinImpl::Hj,
            }),
            n: 10,
        };
        let runtime = PlanRuntime {
            nodes: vec![metrics(10), metrics(8), metrics(2), metrics(3)],
        };
        let mut t = Tracer::new(Instant::now(), 1);
        let root = t.record("exec.execute", None, 7, 1_000, 11_000).unwrap();
        let ids = record_operators(&mut t, 7, root, 1_000, &plan, &runtime);
        assert_eq!(ids.len(), 4);
        let spans = t.into_spans();
        let own = self_times(&spans);
        let by_name: Vec<(&str, u64)> = spans.iter().map(|s| s.name).zip(own).collect();
        assert_eq!(
            by_name,
            vec![
                ("exec.execute", 0),
                ("op.Limit", 2_000),
                ("op.HJ", 3_000),
                ("op.Scan", 2_000),
                ("op.Scan", 3_000),
            ]
        );
        assert!(spans.iter().all(|s| s.request == 7));
    }

    #[test]
    fn children_wider_than_their_parent_floor_self_time_at_zero() {
        // A parallel child can report more inclusive wall than its parent.
        let plan = PhysicalPlan::Exchange {
            input: Box::new(scan("t")),
            dop: 2,
        };
        let runtime = PlanRuntime {
            nodes: vec![metrics(5), metrics(9)],
        };
        let mut t = Tracer::new(Instant::now(), 0);
        let root = t.record("exec.execute", None, 1, 0, 5_000).unwrap();
        record_operators(&mut t, 1, root, 0, &plan, &runtime);
        let own = self_times(&t.into_spans());
        assert_eq!(own, vec![0, 0, 9_000]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut t = Tracer::new(Instant::now(), 0);
        let p = t.record("request", None, 1, 0, 100).unwrap();
        t.record("a", Some(p), 1, 10, 50);
        t.record("b", Some(p), 1, 30, 70);
        t.record("c", Some(p), 1, 90, 150);
        let own = self_times(&t.into_spans());
        // Covered: [10,70) + [90,100) = 70 of 100.
        assert_eq!(own[0], 30);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.set_enabled(false);
        assert_eq!(t.record("x", None, 0, 0, 1), None);
        assert!(t.into_spans().is_empty());
    }
}
