//! The metric catalogue and the two output forms: aligned lines for a
//! reader, then one JSON object as the last line of standard output.

/// End-to-end metrics, as a user of the system sees them. Those in
/// [`GATED`] carry a regression bound in `BENCHMARK.json`. The others are
/// printed for the reader: the insert latencies exist only where the
/// workload writes, the failed ratio is 0 on a correct build, and the
/// p99 moved by up to 2x between minutes on the shared two-core host the
/// bounds were set on, more than any bound can absorb.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("insert_p50_ms", "ms"),
    ("insert_p99_ms", "ms"),
    ("failed_ratio", "fraction"),
];

/// The end-to-end metrics in every workload's result line.
pub const GATED: &[&str] = &["setup_s", "query_p50_ms", "ops_per_s", "peak_rss_mb"];

/// Operator kinds with their own `exec.<K>.*` metrics.
pub const OP_KINDS: &[&str] = &[
    "Scan",
    "PartitionedScan",
    "Filter",
    "Project",
    "Limit",
    "Sort",
    "SPHG",
    "HG",
    "OG",
    "SOG",
    "BSG",
    "SPHJ",
    "HJ",
    "Exchange",
];

/// Per-layer metrics of the traced run, in report order, before and
/// after the per-operator block.
const LAYERS_HEAD: &[(&str, &str)] = &[
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("sql.bind_params_us", "us"),
    ("sql.insert_bind_us", "us"),
    ("opt.optimise_us", "us"),
    ("opt.winner_hit_ratio", "ratio"),
    ("opt.feedback_corrections", "count"),
    ("opt.memo_groups", "count"),
    ("opt.q_error_p50", "ratio"),
    ("opt.q_error_max", "ratio"),
    ("plan_cache.hit_ratio", "fraction"),
    ("plan_cache.evictions", "count"),
    ("exec.execute_ms", "ms"),
    ("exec.materialised_rows", "rows"),
];

const LAYERS_TAIL: &[(&str, &str)] = &[
    ("parallel.morsels", "count"),
    ("parallel.steals", "count"),
    ("parallel.parks", "count"),
    ("parallel.admission_wait_p50_us", "us"),
    ("parallel.admission_wait_p99_us", "us"),
    ("part.pruned_ratio", "fraction"),
    ("av.maintain_us", "us"),
    ("av.delta_merges", "count"),
    ("av.compactions", "count"),
    ("av.rebuilds", "count"),
    ("av.backlog_rows", "rows"),
    ("av.build_s", "s"),
    ("storage.append_us", "us"),
    ("server.roundtrip_us", "us"),
    ("server.overhead_us", "us"),
    ("server.encode_us", "us"),
    ("server.decode_us", "us"),
    ("server.frame_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    // The end-to-end metrics without a bound, recorded with the layers.
    ("query_p99_ms", "ms"),
    ("insert_p50_ms", "ms"),
    ("insert_p99_ms", "ms"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYERS_HEAD
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .collect();
    for k in OP_KINDS {
        out.push((format!("exec.{k}.self_ms"), "ms"));
        out.push((format!("exec.{k}.rows_per_s"), "rows/s"));
    }
    out.extend(LAYERS_TAIL.iter().map(|&(n, u)| (n.to_owned(), u)));
    out
}

/// One metric's value, or why there is none.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `None` = the layer is not on this workload's path.
    pub value: Option<f64>,
    /// Context printed beside the value (sample counts, sources).
    pub note: String,
}

/// A named set of metrics in catalogue order.
#[derive(Debug, Clone)]
pub struct Sheet {
    entries: Vec<Entry>,
}

impl Sheet {
    /// A sheet over `catalogue`, every value unset.
    pub fn new(catalogue: Vec<(String, &'static str)>) -> Self {
        Sheet {
            entries: catalogue
                .into_iter()
                .map(|(name, unit)| Entry {
                    name,
                    unit,
                    value: None,
                    note: String::new(),
                })
                .collect(),
        }
    }

    /// The end-to-end sheet.
    pub fn end_to_end() -> Self {
        Sheet::new(END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect())
    }

    /// The per-layer sheet.
    pub fn per_layer() -> Self {
        Sheet::new(per_layer())
    }

    fn entry(&mut self, name: &str) -> &mut Entry {
        self.entries
            .iter_mut()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
    }

    /// Set a value (a `None` leaves the metric marked not applicable).
    pub fn set(&mut self, name: &str, value: Option<f64>) {
        self.entry(name).value = value;
    }

    /// Attach a note.
    pub fn note(&mut self, name: &str, note: impl Into<String>) {
        self.entry(name).note = note.into();
    }

    /// Value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| e.value)
    }

    /// The entries in catalogue order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Aligned human-readable lines.
    pub fn lines(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| {
                let value = match e.value {
                    Some(v) => format!("{v:.4}"),
                    None => "n/a".to_owned(),
                };
                let note = if e.note.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", e.note)
                };
                format!("  {:<32} {:>16} {:<8}{}", e.name, value, e.unit, note)
                    .trim_end()
                    .to_owned()
            })
            .collect()
    }
}

/// Render a finite number for JSON with every digit it has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`,
/// where each metric is `{"value": …, "unit": …}`. A metric whose layer
/// the workload bypasses is written as 0 (the readable report says
/// `n/a`).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[&Entry]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|e| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                e.name,
                json_number(e.value.unwrap_or(0.0)),
                e.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names in `BENCHMARK.json` and the catalogue here must agree.
    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let open = start + json[start..].find('[').expect("list");
            let close = open + json[open..].find(']').expect("list end");
            json[open..close]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
                .collect()
        };
        assert_eq!(section("end_to_end"), GATED);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(section("per_layer"), layers);
    }

    #[test]
    fn catalogues_have_unique_names() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(total <= 128);
        for g in GATED {
            assert!(END_TO_END.iter().any(|(n, _)| n == g));
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut s = Sheet::end_to_end();
        s.set("setup_s", Some(0.25));
        let e: Vec<&Entry> = s.entries().iter().take(2).collect();
        let line = result_json(true, 3, 0, &e);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"query_p50_ms\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }
}
