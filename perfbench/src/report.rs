//! Metric names, the run report, and how it is printed and saved.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics (name, unit), measured by untraced runs; every
/// workload reports all of them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("solve_ms.p50", "ms"),
    ("solve_ms.p90", "ms"),
    ("solves_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p99", "ms"),
    ("goodput_rps", "1/s"),
    ("capacity_rps", "1/s"),
    ("makespan_vs_list", "ratio"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics (name, unit), measured by traced runs.  A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("core.problem_us", "us"),
    ("core.search_ms", "ms"),
    ("core.expanded", "count"),
    ("core.generated", "count"),
    ("core.expansions_per_s", "1/s"),
    ("core.pruned_share", "share"),
    ("core.max_open_size", "count"),
    ("core.arena.replayed_per_expansion", "ratio"),
    ("core.arena.path_cache_hit_rate", "share"),
    ("core.arena.peak_live_records", "count"),
    ("core.arena.reclaimed_records", "count"),
    ("listsched.upper_bound_us", "us"),
    ("taskgraph.levels_us", "us"),
    ("schedule.validate_us", "us"),
    ("parallel.search_ms", "ms"),
    ("parallel.total_expanded", "count"),
    ("parallel.total_expanded.iqr", "count"),
    ("parallel.redundant_ratio", "ratio"),
    ("parallel.election_transfers", "count"),
    ("parallel.peak_in_flight", "count"),
    ("parallel.load_imbalance", "ratio"),
    ("parallel.arena.replayed_per_expansion", "ratio"),
    ("parallel.closed.dup_avoided", "count"),
    ("parallel.closed.hit_rate", "share"),
    ("service.protocol.parse_us", "us"),
    ("service.signature.canon_us", "us"),
    ("service.portfolio.resolve_us", "us"),
    ("service.open_latency_ms.p50", "ms"),
    ("service.open_latency_ms.p99", "ms"),
    ("service.handle_ms.p50", "ms"),
    ("service.handle_ms.p99", "ms"),
    ("service.cache.hit_rate", "share"),
    ("service.cache.evictions", "count"),
    ("service.cache.filter_skips", "count"),
    ("service.runtime.queue_wait_ms.p50", "ms"),
    ("service.runtime.queue_wait_ms.p99", "ms"),
    ("service.runtime.outside_handler_ms.p99", "ms"),
    ("service.runtime.peak_pending", "count"),
    ("service.runtime.shed", "count"),
    ("service.runtime.degraded", "count"),
    ("service.portfolio.band_exact", "count"),
    ("service.portfolio.band_anytime", "count"),
    ("service.portfolio.band_raced", "count"),
    ("service.portfolio.warm_starts", "count"),
    ("service.portfolio.predict_ratio", "ratio"),
    ("bench.gen_lag_ms.p99", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.attribution", "share"),
    ("bench.ref_ms", "ms"),
    ("failed_frac", "share"),
    ("deadline_miss_frac", "share"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Output checks that failed, one line each (empty = correct).
    pub violations: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (errors, sheds, lost replies, invalid schedules,
    /// wrong optima, budget hits).
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample count behind a percentile or mean, by metric name.
    pub samples: BTreeMap<&'static str, usize>,
    /// Run metadata (seed, rates, phase lengths, ...).
    pub meta: Vec<(String, String)>,
    /// Free-form lines printed before the metrics (realised mix, spreads).
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets a metric with the number of samples behind it.
    pub fn set_n(&mut self, name: &'static str, value: f64, n: usize) {
        self.values.insert(name, value);
        self.samples.insert(name, n);
    }

    /// Records a failed output check (the run is then not correct).
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Adds a metadata entry.
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// True when no output check failed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The metrics this run reports: end-to-end untraced, per-layer traced.
    pub fn metric_list(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The result object printed as the last line of standard output.
    pub fn result_json(&self, trace: bool) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in Report::metric_list(trace).iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(value)
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// Human-readable lines: metadata, notes, violations and every metric
    /// with its unit and sample count.
    pub fn text(&self, trace: bool) -> String {
        let mut out = String::new();
        for (k, v) in &self.meta {
            let _ = writeln!(out, "# {k}: {v}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for v in &self.violations {
            let _ = writeln!(out, "! check failed: {v}");
        }
        for (name, unit) in Report::metric_list(trace) {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            match self.samples.get(name) {
                Some(n) => {
                    let _ = writeln!(out, "{name} = {} {unit} (n={n})", num(value));
                }
                None => {
                    let _ = writeln!(out, "{name} = {} {unit}", num(value));
                }
            }
        }
        let _ = writeln!(out, "# attempted {} failed {}", self.attempted, self.failed);
        out
    }

    /// The full record saved beside the trace: metadata, every value set
    /// (either mode), sample counts and violations.
    pub fn record_json(&self, trace: bool) -> String {
        let mut out = String::from("{\"meta\":{");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", esc(k), esc(v));
        }
        out.push_str("},\"values\":{");
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{}", num(*v));
        }
        out.push_str("},\"samples\":{");
        for (i, (k, n)) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{n}");
        }
        out.push_str("},\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", esc(n));
        }
        out.push_str("],\"violations\":[");
        for (i, n) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", esc(n));
        }
        let _ = write!(out, "],\"result\":{}}}", self.result_json(trace));
        out.push('\n');
        out
    }
}

/// A JSON number with all its digits.  A percentile that landed on a
/// failure (+∞) is written as the largest finite double, since JSON has no
/// infinity.
fn num(v: f64) -> String {
    if v.is_nan() {
        "0".to_string()
    } else if v.is_infinite() {
        format!("{:e}", f64::MAX)
    } else {
        format!("{v}")
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The checked-out commit, read from `.git` when the working directory is
/// a git checkout; `unknown` otherwise.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.clone()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys_and_every_metric() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.set("setup_s", 0.5);
        r.set("latency_ms.p99", f64::INFINITY);
        let line = r.result_json(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{name}");
            assert!(line.contains(&format!("\"unit\":\"{unit}\"")), "{unit}");
        }
        assert!(line.contains("1.7976931348623157e308"));
        r.violation("x".into());
        assert!(r.result_json(true).starts_with("{\"correct\":false"));
    }

    /// Every quoted value following `"key":` in `text`, in order.
    fn values_of<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\"");
        text.match_indices(&pat)
            .filter_map(|(i, _)| {
                let rest = text[i + pat.len()..]
                    .trim_start()
                    .strip_prefix(':')?
                    .trim_start();
                let rest = rest.strip_prefix('"')?;
                Some(&rest[..rest.find('"')?])
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let e2e = &text[text.find("\"end_to_end\"").expect("end_to_end")..];
        let (e2e, layers) = e2e.split_at(
            e2e.find("\"per_layer\"")
                .expect("per_layer after end_to_end"),
        );
        for (section, list) in [(e2e, &END_TO_END[..]), (layers, &PER_LAYER[..])] {
            let names = values_of(section, "name");
            let units = values_of(section, "unit");
            let own: Vec<&str> = list.iter().map(|m| m.0).collect();
            let own_units: Vec<&str> = list.iter().map(|m| m.1).collect();
            assert_eq!(names, own);
            assert_eq!(units, own_units);
        }
    }
}
