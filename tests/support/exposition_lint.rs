//! A promtool-style lint for the Prometheus text exposition format.
//!
//! [`lint_exposition`] checks the output of
//! `inca_obs::metrics::MetricsRegistry::render`
//! (or any exposition text) against the rules an actual scrape
//! pipeline would enforce: `# HELP` / `# TYPE` ordering, valid metric
//! and label names, parseable sample values, and — for histograms —
//! the presence of a `+Inf` bucket, `_sum` and `_count` lines, and
//! cumulative (non-decreasing) bucket counts. OpenMetrics exemplar
//! suffixes (`# {trace_id="…"} v`) on `_bucket` lines are accepted.
//!
//! The lint exists so the conformance test suite does not need the
//! real `promtool` binary: it is pure Rust over a `String` and runs in
//! the ordinary test harness.

use std::collections::{BTreeMap, BTreeSet};

/// A sample's labels as `(name, value)` pairs.
type Labels = Vec<(String, String)>;

/// One parsed sample line.
struct Sample {
    name: String,
    labels: Labels,
    value: f64,
}

/// Checks `text` for exposition-format violations; returns one message
/// per violation (empty means conformant). Line numbers in messages
/// are 1-based.
pub fn lint_exposition(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    // Family name → declared kind, from # TYPE lines.
    let mut kinds: BTreeMap<String, String> = BTreeMap::new();
    let mut helped: BTreeSet<String> = BTreeSet::new();
    let mut sampled: BTreeSet<String> = BTreeSet::new();
    // Histogram family → label-set (minus le) → collected data.
    let mut histograms: BTreeMap<String, BTreeMap<Labels, HistogramSeries>> =
        BTreeMap::new();

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            problems.push(format!("line {lineno}: empty line in exposition"));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            lint_comment(rest, lineno, &mut kinds, &mut helped, &mut sampled, &mut problems);
            continue;
        }
        if line.starts_with('#') {
            problems.push(format!("line {lineno}: malformed comment {line:?}"));
            continue;
        }
        let Some(sample) = parse_sample(line, lineno, &mut problems) else { continue };
        lint_sample(&sample, lineno, &kinds, &mut sampled, &mut histograms, &mut problems);
    }

    for (family, series) in &histograms {
        for (labels, h) in series {
            h.finish(family, labels, &mut problems);
        }
    }
    for family in &sampled {
        if !helped.contains(base_family(family, &kinds)) {
            problems.push(format!("metric {family:?} has samples but no # HELP"));
        }
    }
    problems
}

/// Resolves a sampled name to the family the HELP/TYPE comments use
/// (strips histogram suffixes when the base family is a histogram).
fn base_family<'a>(name: &'a str, kinds: &BTreeMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if kinds.get(base).is_some_and(|k| k == "histogram" || k == "summary") {
                return base;
            }
        }
    }
    name
}

fn lint_comment(
    rest: &str,
    lineno: usize,
    kinds: &mut BTreeMap<String, String>,
    helped: &mut BTreeSet<String>,
    sampled: &mut BTreeSet<String>,
    problems: &mut Vec<String>,
) {
    let mut parts = rest.splitn(3, ' ');
    let keyword = parts.next().unwrap_or("");
    let name = parts.next().unwrap_or("");
    let payload = parts.next().unwrap_or("");
    match keyword {
        "HELP" => {
            if !valid_metric_name(name) {
                problems.push(format!("line {lineno}: HELP for invalid metric name {name:?}"));
            }
            if !helped.insert(name.to_string()) {
                problems.push(format!("line {lineno}: duplicate # HELP for {name:?}"));
            }
            if kinds.contains_key(name) {
                problems.push(format!(
                    "line {lineno}: # HELP for {name:?} must precede its # TYPE"
                ));
            }
        }
        "TYPE" => {
            if !valid_metric_name(name) {
                problems.push(format!("line {lineno}: TYPE for invalid metric name {name:?}"));
            }
            const KINDS: [&str; 5] = ["counter", "gauge", "histogram", "summary", "untyped"];
            if !KINDS.contains(&payload) {
                problems.push(format!("line {lineno}: unknown metric kind {payload:?}"));
            }
            if sampled.iter().any(|s| base_name_matches(s, name)) {
                problems.push(format!(
                    "line {lineno}: # TYPE for {name:?} must precede its samples"
                ));
            }
            if kinds.insert(name.to_string(), payload.to_string()).is_some() {
                problems.push(format!("line {lineno}: duplicate # TYPE for {name:?}"));
            }
        }
        other => {
            problems.push(format!("line {lineno}: unexpected comment keyword {other:?}"));
        }
    }
}

/// Whether sampled name `s` belongs to family `family` (exact, or via
/// a histogram suffix).
fn base_name_matches(s: &str, family: &str) -> bool {
    s == family
        || ["_bucket", "_sum", "_count"]
            .iter()
            .any(|suf| s.strip_suffix(suf) == Some(family))
}

fn lint_sample(
    sample: &Sample,
    lineno: usize,
    kinds: &BTreeMap<String, String>,
    sampled: &mut BTreeSet<String>,
    histograms: &mut BTreeMap<String, BTreeMap<Labels, HistogramSeries>>,
    problems: &mut Vec<String>,
) {
    sampled.insert(sample.name.clone());
    if !valid_metric_name(&sample.name) {
        problems.push(format!("line {lineno}: invalid metric name {:?}", sample.name));
    }
    for (k, _) in &sample.labels {
        if !valid_metric_name(k) {
            problems.push(format!(
                "line {lineno}: invalid label name {k:?} on {:?}",
                sample.name
            ));
        }
    }
    let base = base_family(&sample.name, kinds);
    match kinds.get(base) {
        None => {
            problems.push(format!(
                "line {lineno}: sample {:?} appears before any # TYPE",
                sample.name
            ));
        }
        Some(kind) if kind == "histogram" => {
            let mut labels = sample.labels.clone();
            let le = labels
                .iter()
                .position(|(k, _)| k == "le")
                .map(|i| labels.remove(i).1);
            labels.sort();
            let series = histograms
                .entry(base.to_string())
                .or_default()
                .entry(labels)
                .or_default();
            match sample.name.strip_prefix(base) {
                Some("_bucket") => match le {
                    Some(le) => series.buckets.push((le, sample.value, lineno)),
                    None => problems.push(format!(
                        "line {lineno}: histogram bucket without an le label"
                    )),
                },
                Some("_sum") => series.sum = Some(sample.value),
                Some("_count") => series.count = Some(sample.value),
                _ => problems.push(format!(
                    "line {lineno}: bare sample {:?} for histogram family {base:?}",
                    sample.name
                )),
            }
        }
        Some(kind) if kind == "counter" => {
            if sample.value < 0.0 {
                problems.push(format!(
                    "line {lineno}: counter {:?} has negative value {}",
                    sample.name, sample.value
                ));
            }
        }
        Some(_) => {}
    }
}

/// Collected `_bucket`/`_sum`/`_count` data for one histogram series.
#[derive(Default)]
struct HistogramSeries {
    /// (`le` value, cumulative count, line number) in appearance order.
    buckets: Vec<(String, f64, usize)>,
    sum: Option<f64>,
    count: Option<f64>,
}

impl HistogramSeries {
    fn finish(&self, family: &str, labels: &[(String, String)], problems: &mut Vec<String>) {
        let ctx = if labels.is_empty() {
            format!("histogram {family:?}")
        } else {
            format!("histogram {family:?} {labels:?}")
        };
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_count = 0.0;
        let mut saw_inf = false;
        for (le, count, lineno) in &self.buckets {
            let bound = if le == "+Inf" {
                saw_inf = true;
                f64::INFINITY
            } else {
                match le.parse::<f64>() {
                    Ok(b) => b,
                    Err(_) => {
                        problems.push(format!("line {lineno}: {ctx}: unparseable le {le:?}"));
                        continue;
                    }
                }
            };
            if bound <= prev_le {
                problems.push(format!("line {lineno}: {ctx}: le bounds not ascending"));
            }
            if *count < prev_count {
                problems.push(format!(
                    "line {lineno}: {ctx}: bucket counts not cumulative ({count} after {prev_count})"
                ));
            }
            prev_le = bound;
            prev_count = *count;
        }
        if !saw_inf {
            problems.push(format!("{ctx}: missing le=\"+Inf\" bucket"));
        }
        match self.count {
            None => problems.push(format!("{ctx}: missing _count sample")),
            Some(c) if saw_inf && c != prev_count => problems.push(format!(
                "{ctx}: _count {c} disagrees with +Inf bucket {prev_count}"
            )),
            Some(_) => {}
        }
        if self.sum.is_none() {
            problems.push(format!("{ctx}: missing _sum sample"));
        }
    }
}

/// Parses `name{labels} value [# exemplar]`, reporting problems and
/// returning `None` when the line is unusable.
fn parse_sample(line: &str, lineno: usize, problems: &mut Vec<String>) -> Option<Sample> {
    let name_end = line
        .find(['{', ' '])
        .unwrap_or(line.len());
    let name = &line[..name_end];
    if name.is_empty() {
        problems.push(format!("line {lineno}: sample without a metric name: {line:?}"));
        return None;
    }
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(after_brace) = rest.strip_prefix('{') {
        match parse_labels(after_brace) {
            Ok((parsed, remainder)) => {
                labels = parsed;
                rest = remainder;
            }
            Err(e) => {
                problems.push(format!("line {lineno}: {e}: {line:?}"));
                return None;
            }
        }
    }
    let rest = rest.trim_start();
    // The value runs to the next space; anything after must be an
    // OpenMetrics exemplar (`# {…} value`).
    let (value_str, trailer) = match rest.split_once(' ') {
        Some((v, t)) => (v, Some(t)),
        None => (rest, None),
    };
    let value = match parse_value(value_str) {
        Some(v) => v,
        None => {
            problems.push(format!("line {lineno}: unparseable sample value {value_str:?}"));
            return None;
        }
    };
    if let Some(trailer) = trailer {
        if !is_valid_exemplar(trailer) {
            problems.push(format!("line {lineno}: trailing garbage after value: {trailer:?}"));
        } else if !name.ends_with("_bucket") {
            problems.push(format!("line {lineno}: exemplar on non-bucket sample {name:?}"));
        }
    }
    Some(Sample { name: name.to_string(), labels, value })
}

/// Parses the label body after `{`, returning the pairs and the text
/// after the closing `}`. Honors `\\`, `\"`, and `\n` escapes.
fn parse_labels(mut s: &str) -> Result<(Labels, &str), String> {
    let mut labels = Vec::new();
    loop {
        if let Some(rest) = s.strip_prefix('}') {
            return Ok((labels, rest));
        }
        let eq = s.find('=').ok_or("label without '='")?;
        let key = s[..eq].trim_matches(',').to_string();
        s = s[eq + 1..].strip_prefix('"').ok_or("label value not quoted")?;
        let mut value = String::new();
        let mut chars = s.char_indices();
        let close = loop {
            let (i, c) = chars.next().ok_or("unterminated label value")?;
            match c {
                '"' => break i,
                '\\' => match chars.next().ok_or("dangling escape")?.1 {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    other => return Err(format!("unknown escape \\{other}")),
                },
                c => value.push(c),
            }
        };
        labels.push((key, value));
        s = &s[close + 1..];
        s = s.strip_prefix(',').unwrap_or(s);
    }
}

/// Parses a sample value: a float, or the Prometheus spellings of
/// infinity and NaN.
fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        s => s.parse().ok(),
    }
}

/// Whether `s` is an OpenMetrics exemplar trailer: `# {labels} value`.
fn is_valid_exemplar(s: &str) -> bool {
    let Some(s) = s.strip_prefix("# {") else { return false };
    let Ok((labels, rest)) = parse_labels(s) else { return false };
    !labels.is_empty()
        && rest
            .trim()
            .split(' ')
            .next()
            .is_some_and(|v| parse_value(v).is_some())
}

/// Prometheus metric/label name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_conformant_exposition() {
        let text = "\
# HELP a_total Things.
# TYPE a_total counter
a_total{kind=\"x\"} 3
# HELP b_seconds Latency.
# TYPE b_seconds histogram
b_seconds_bucket{le=\"0.01\"} 1 # {trace_id=\"00000000000000ab\"} 0.005
b_seconds_bucket{le=\"+Inf\"} 2
b_seconds_sum 0.5
b_seconds_count 2
";
        assert_eq!(lint_exposition(text), Vec::<String>::new());
    }

    #[test]
    fn flags_missing_inf_sum_count_and_ordering() {
        let text = "\
# TYPE h_seconds histogram
# HELP h_seconds Late help.
h_seconds_bucket{le=\"0.01\"} 2
h_seconds_bucket{le=\"0.1\"} 1
";
        let problems = lint_exposition(text);
        let all = problems.join("\n");
        assert!(all.contains("must precede its # TYPE"), "{all}");
        assert!(all.contains("not cumulative"), "{all}");
        assert!(all.contains("missing le=\"+Inf\""), "{all}");
        assert!(all.contains("missing _sum"), "{all}");
        assert!(all.contains("missing _count"), "{all}");
    }

    #[test]
    fn flags_type_after_samples_and_bad_values() {
        let text = "\
# HELP x_total X.
x_total 1
# TYPE x_total counter
# HELP y_total Y.
# TYPE y_total counter
y_total notanumber
";
        let problems = lint_exposition(text);
        let all = problems.join("\n");
        assert!(all.contains("appears before any # TYPE"), "{all}");
        assert!(all.contains("must precede its samples"), "{all}");
        assert!(all.contains("unparseable sample value"), "{all}");
    }

    #[test]
    fn parses_escaped_label_values() {
        let text = "\
# HELP e_total E.
# TYPE e_total counter
e_total{v=\"a\\\\b \\\"q\\\" \\nend\"} 1
";
        assert_eq!(lint_exposition(text), Vec::<String>::new());
    }

    #[test]
    fn flags_exemplars_outside_buckets() {
        let text = "\
# HELP c_total C.
# TYPE c_total counter
c_total 1 # {trace_id=\"ab\"} 1
";
        let all = lint_exposition(text).join("\n");
        assert!(all.contains("exemplar on non-bucket sample"), "{all}");
    }
}
