//! Named metrics with units, the host and run identity, and the output format: a
//! human-readable block followed by one JSON line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The value, or `None` when it could not be measured (too few samples).
    pub value: Option<f64>,
    /// How many samples the value rests on, for percentiles and medians.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn plain(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value: Some(value),
            samples: None,
        }
    }

    /// A percentile or median over `samples` samples.
    pub fn sampled(
        name: &'static str,
        unit: &'static str,
        value: Option<f64>,
        samples: usize,
    ) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: Some(samples),
        }
    }
}

/// The host and run identity every report records.
pub fn identity(
    workload: &str,
    transport: &str,
    seed: u64,
    seconds: u64,
    rate: f64,
    open_loop: bool,
    trace: bool,
) -> Vec<(&'static str, String)> {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("workload", workload.to_string()),
        ("transport", transport.to_string()),
        ("seed", seed.to_string()),
        ("window_s", seconds.to_string()),
        (
            "rate_ops_s",
            format!(
                "{rate:.0} ({})",
                if open_loop {
                    "open loop"
                } else {
                    "paced, one op outstanding"
                }
            ),
        ),
        ("trace", trace.to_string()),
        ("available_parallelism", cpus.to_string()),
        ("cpu_model", model),
        ("build_profile", profile.to_string()),
        ("commit", commit()),
    ]
}

/// The commit the program was built from: the `HEAD` of a `.git` directory in the
/// working directory, its ref looked up loose or in `packed-refs`; else `unknown` (a
/// source checkout without git metadata).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let packed = |r: &str| {
        read(".git/packed-refs")?.lines().find_map(|line| {
            let (hash, name) = line.split_once(' ')?;
            (name == r).then(|| hash.to_string())
        })
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| packed(r))
                .unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// The human-readable report: identity, then one line per metric with unit and sample
/// count.
pub fn render_text(identity: &[(&str, String)], metrics: &[Metric], notes: &[String]) -> String {
    let mut out = String::new();
    for (k, v) in identity {
        let _ = writeln!(out, "# {k}: {v}");
    }
    for note in notes {
        let _ = writeln!(out, "# {note}");
    }
    for m in metrics {
        let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        let _ = writeln!(out, "{:<40} {:>16} {}{}", m.name, value, m.unit, samples);
    }
    out
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
pub fn render_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = m.value.expect("only complete metric sets are rendered");
        assert!(value.is_finite(), "metric {} is not finite", m.name);
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            value,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let metrics = [
            Metric::plain("setup_s", "s", 0.8127),
            Metric::sampled("op_p50_us", "us", Some(41.25), 1234),
        ];
        let line = render_json(true, 1000, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"op_p50_us\": {\"value\": 41.25, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn text_report_names_units_and_sample_counts() {
        let text = render_text(
            &[("seed", "3".into())],
            &[Metric::sampled("op_p99_us", "us", None, 12)],
            &[],
        );
        assert!(text.contains("# seed: 3"));
        assert!(text.contains("op_p99_us") && text.contains("n/a") && text.contains("(n=12)"));
    }

    #[test]
    fn identity_records_the_host() {
        let id = identity("tcp_rtt", "tcp", 1, 10, 5_000.0, false, false);
        let keys: Vec<_> = id.iter().map(|(k, _)| *k).collect();
        for k in [
            "available_parallelism",
            "cpu_model",
            "build_profile",
            "commit",
            "transport",
            "seed",
            "rate_ops_s",
            "window_s",
        ] {
            assert!(keys.contains(&k), "{k} missing");
        }
    }
}
