//! The Prometheus text exposition (format 0.0.4): the one writer both
//! serving tiers render through. [`crate::ServeReport`] and
//! [`crate::RouterReport`] decide *what* they expose — families, help
//! text, values; this module alone spells the format: `# HELP` / `# TYPE`
//! once per family, sample lines with escaped label values, and
//! cumulative histograms (`le` buckets, `+Inf`, `_sum`, `_count`, and
//! OpenMetrics-style exemplar suffixes).

use crate::hist::{BucketExemplar, HistSnapshot};
use std::fmt::{Display, Write as _};

/// Escape a label value: backslash, double-quote and newline must be
/// escaped inside the quoted value.
pub fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// A scalar counter as a report declares it, once: (JSON key, help
/// text, value). The Stats JSON uses the key as is; the exposition
/// names the family `<prefix><key>_total` ([`Expo::counters`]).
pub type Counter = (&'static str, &'static str, u64);

/// One exposition being written; [`Expo::finish`] returns the text.
#[derive(Default)]
pub struct Expo {
    out: String,
}

impl Expo {
    /// Open a family: its `# HELP` and `# TYPE` lines.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        let _ = write!(self.out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
    }

    /// One sample line, `name{k="v",…} value` (no braces without labels).
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: impl Display) {
        let labels: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        let _ = if labels.is_empty() {
            writeln!(self.out, "{name} {value}")
        } else {
            writeln!(self.out, "{name}{{{}}} {value}", labels.join(","))
        };
    }

    /// A family holding one unlabelled sample.
    pub fn scalar(&mut self, name: &str, kind: &str, help: &str, value: impl Display) {
        self.family(name, kind, help);
        self.sample(name, &[], value);
    }

    /// One counter family per declared [`Counter`], named
    /// `<prefix><key>_total`.
    pub fn counters(&mut self, prefix: &str, counters: &[Counter]) {
        for &(key, help, v) in counters {
            self.scalar(&format!("{prefix}{key}_total"), "counter", help, v);
        }
    }

    /// One latency series of a `histogram` family (open the family first
    /// with [`Expo::family`]): a cumulative `_bucket` line at every
    /// non-empty bucket's upper bound in seconds, the `+Inf` bucket,
    /// `_sum` and `_count`. A bucket with an exemplar carries it as
    /// ` # {trace_id="…"} seconds`, linking the bucket to a fetchable trace.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        hist: &HistSnapshot,
        exemplars: &[BucketExemplar],
    ) {
        let bucket = format!("{name}_bucket");
        let mut cum = 0u64;
        for (le_ns, count) in hist.nonzero_buckets() {
            cum += count;
            // the open top bucket is the +Inf line below
            if le_ns == u64::MAX {
                continue;
            }
            let exemplar = exemplars
                .iter()
                .find(|x| x.le_ns == le_ns)
                .map(|x| {
                    format!(
                        " # {{trace_id=\"{:016x}\"}} {:.9}",
                        x.trace_id,
                        x.ns as f64 / 1e9
                    )
                })
                .unwrap_or_default();
            let le = format!("{:.9}", le_ns as f64 / 1e9);
            let labels = [labels, &[("le", &le)]].concat();
            self.sample(&bucket, &labels, format!("{cum}{exemplar}"));
        }
        self.sample(&bucket, &[labels, &[("le", "+Inf")]].concat(), cum);
        let sum_s = format!("{:.9}", hist.sum_ns as f64 / 1e9);
        self.sample(&format!("{name}_sum"), labels, sum_s);
        self.sample(&format!("{name}_count"), labels, hist.count());
    }

    /// The finished exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
/// A strict text-format-0.0.4 parser: rejects malformed names,
/// unescaped label values, missing TYPE declarations, non-numeric
/// sample values, non-monotone histogram buckets, and `_count` rows
/// that disagree with the `+Inf` bucket.
pub(crate) mod promparse {
    #[derive(Debug, Clone)]
    pub struct Sample {
        pub name: String,
        pub labels: Vec<(String, String)>,
        pub value: f64,
        /// OpenMetrics-style exemplar (` # {labels} value` suffix),
        /// if the line carried one.
        pub exemplar: Option<(Vec<(String, String)>, f64)>,
    }

    fn valid_metric_name(s: &str) -> bool {
        let mut chars = s.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    fn valid_label_name(s: &str) -> bool {
        let mut chars = s.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
    }

    fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
        let mut out = Vec::new();
        let mut chars = s.chars().peekable();
        loop {
            let mut name = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    name.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            if !valid_label_name(&name) {
                return Err(format!("bad label name {name:?} in {s:?}"));
            }
            if chars.next() != Some('=') || chars.next() != Some('"') {
                return Err(format!("expected =\" after label name in {s:?}"));
            }
            let mut val = String::new();
            loop {
                match chars.next() {
                    Some('\\') => match chars.next() {
                        Some('\\') => val.push('\\'),
                        Some('"') => val.push('"'),
                        Some('n') => val.push('\n'),
                        other => return Err(format!("bad escape {other:?} in {s:?}")),
                    },
                    Some('"') => break,
                    Some('\n') | None => return Err(format!("unterminated value in {s:?}")),
                    Some(c) => val.push(c),
                }
            }
            out.push((name, val));
            match chars.next() {
                Some(',') => continue,
                None => break,
                Some(c) => return Err(format!("unexpected {c:?} after label in {s:?}")),
            }
        }
        Ok(out)
    }

    fn parse_sample(line: &str) -> Result<Sample, String> {
        let (name, rest) = match line.find('{') {
            Some(brace) => {
                // find the closing brace outside quotes, honoring escapes
                let tail = &line[brace + 1..];
                let mut in_quotes = false;
                let mut escaped = false;
                let mut close = None;
                for (i, c) in tail.char_indices() {
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        in_quotes = !in_quotes;
                    } else if c == '}' && !in_quotes {
                        close = Some(i);
                        break;
                    }
                }
                let close = close.ok_or_else(|| format!("no closing brace in {line:?}"))?;
                let labels = parse_labels(&tail[..close])?;
                (&line[..brace], (labels, &tail[close + 1..]))
            }
            None => {
                let sp = line
                    .find(' ')
                    .ok_or_else(|| format!("no value in {line:?}"))?;
                (&line[..sp], (Vec::new(), &line[sp..]))
            }
        };
        let (labels, value_part) = rest;
        if !valid_metric_name(name) {
            return Err(format!("bad metric name {name:?}"));
        }
        let value_part = value_part
            .strip_prefix(' ')
            .ok_or_else(|| format!("missing space before value in {line:?}"))?;
        // an OpenMetrics exemplar may trail the value:
        // `value # {labels} exemplar_value`
        let (value_part, exemplar) = match value_part.split_once(" # ") {
            Some((v, ex)) => {
                let ex = ex
                    .strip_prefix('{')
                    .ok_or_else(|| format!("exemplar without labels in {line:?}"))?;
                let (ex_labels, ex_rest) = ex
                    .split_once('}')
                    .ok_or_else(|| format!("unclosed exemplar labels in {line:?}"))?;
                let ex_labels = parse_labels(ex_labels)?;
                let ex_value = ex_rest
                    .strip_prefix(' ')
                    .ok_or_else(|| format!("exemplar without value in {line:?}"))?;
                if ex_value.contains(' ') {
                    return Err(format!("trailing tokens after exemplar in {line:?}"));
                }
                let ex_value = ex_value
                    .parse::<f64>()
                    .map_err(|_| format!("unparseable exemplar value in {line:?}"))?;
                (v, Some((ex_labels, ex_value)))
            }
            None => (value_part, None),
        };
        if value_part.contains(' ') {
            return Err(format!("trailing tokens in {line:?}"));
        }
        let value = match value_part {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v
                .parse::<f64>()
                .map_err(|_| format!("unparseable value {v:?} in {line:?}"))?,
        };
        Ok(Sample {
            name: name.to_string(),
            labels,
            value,
            exemplar,
        })
    }

    /// Parse and structurally validate a full exposition.
    pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
        let mut types: Vec<(String, String)> = Vec::new();
        let mut samples: Vec<Sample> = Vec::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix("# ") {
                let mut parts = comment.splitn(3, ' ');
                let keyword = parts.next().unwrap_or("");
                let name = parts.next().unwrap_or("");
                let body = parts.next();
                if !valid_metric_name(name) {
                    return Err(format!("bad name in comment {line:?}"));
                }
                match keyword {
                    "HELP" => {
                        if body.is_none() {
                            return Err(format!("HELP without text: {line:?}"));
                        }
                    }
                    "TYPE" => {
                        let ty = body.ok_or_else(|| format!("TYPE without type: {line:?}"))?;
                        if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty) {
                            return Err(format!("unknown type {ty:?}"));
                        }
                        if types.iter().any(|(n, _)| n == name) {
                            return Err(format!("duplicate TYPE for {name}"));
                        }
                        types.push((name.to_string(), ty.to_string()));
                    }
                    _ => return Err(format!("unknown comment keyword in {line:?}")),
                }
                continue;
            }
            samples.push(parse_sample(line)?);
        }
        // every sample belongs to a declared family
        for s in &samples {
            let family = types.iter().find(|(n, _)| {
                n == &s.name
                    || ((s.name == format!("{n}_bucket")
                        || s.name == format!("{n}_sum")
                        || s.name == format!("{n}_count"))
                        && types.iter().any(|(tn, tt)| tn == n && tt == "histogram"))
            });
            let (_, ty) =
                family.ok_or_else(|| format!("sample {} has no TYPE declaration", s.name))?;
            if ty == "counter" && !(s.value >= 0.0 && s.value.is_finite()) {
                return Err(format!("counter {} has bad value {}", s.name, s.value));
            }
        }
        // histogram structure: per label-set (minus le), buckets are
        // emitted with increasing le and non-decreasing cumulative
        // counts, ending in +Inf, which _count must equal
        for (fam, ty) in &types {
            if ty != "histogram" {
                continue;
            }
            let bucket_name = format!("{fam}_bucket");
            let count_name = format!("{fam}_count");
            // (label set minus `le`) -> [(le, cumulative count)]
            type BucketSeries = Vec<(Vec<(String, String)>, Vec<(f64, f64)>)>;
            let mut series: BucketSeries = Vec::new();
            for s in samples.iter().filter(|s| s.name == bucket_name) {
                let le_raw = s
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| format!("bucket without le: {fam}"))?;
                let le = match le_raw.as_str() {
                    "+Inf" => f64::INFINITY,
                    v => v.parse::<f64>().map_err(|_| format!("bad le {v:?}"))?,
                };
                let mut key: Vec<(String, String)> = s
                    .labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .cloned()
                    .collect();
                key.sort();
                match series.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, buckets)) => buckets.push((le, s.value)),
                    None => series.push((key, vec![(le, s.value)])),
                }
            }
            for (key, buckets) in &series {
                for pair in buckets.windows(2) {
                    if pair[1].0 <= pair[0].0 {
                        return Err(format!("le not increasing for {fam} {key:?}"));
                    }
                    if pair[1].1 < pair[0].1 {
                        return Err(format!("cumulative count decreases for {fam} {key:?}"));
                    }
                }
                let last = buckets.last().unwrap();
                if !last.0.is_infinite() {
                    return Err(format!("{fam} {key:?} missing +Inf bucket"));
                }
                if let Some(count) = samples.iter().find(|s| {
                    s.name == count_name && {
                        let mut k: Vec<_> = s.labels.clone();
                        k.sort();
                        k == *key
                    }
                }) {
                    if (count.value - last.1).abs() > 1e-9 {
                        return Err(format!("{fam} {key:?} _count != +Inf bucket"));
                    }
                }
            }
        }
        Ok(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_spells_families_samples_and_histograms() {
        let mut w = Expo::default();
        w.counters("t_", &[("hits", "Hits.", 3)]);
        w.family("t_lat_seconds", "histogram", "Latency.");
        let mut h = HistSnapshot::new();
        h.record_ns(1_000_000);
        w.histogram("t_lat_seconds", &[("lane", "a\"b")], &h, &[]);
        // an empty series still closes with +Inf, _sum and _count
        w.histogram("t_lat_seconds", &[("lane", "c")], &HistSnapshot::new(), &[]);
        let text = w.finish();
        assert!(text.starts_with(
            "# HELP t_hits_total Hits.\n# TYPE t_hits_total counter\nt_hits_total 3\n"
        ));
        assert!(text.contains("t_lat_seconds_bucket{lane=\"a\\\"b\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("t_lat_seconds_sum{lane=\"a\\\"b\"} 0.001000000\n"));
        assert!(text.contains("t_lat_seconds_bucket{lane=\"c\",le=\"+Inf\"} 0\n"));
        assert!(text.contains("t_lat_seconds_count{lane=\"c\"} 0\n"));
        promparse::parse(&text).expect("writer output parses strictly");
    }

    #[test]
    fn the_open_top_bucket_folds_into_inf() {
        let mut h = HistSnapshot::new();
        h.record_ns(u64::MAX);
        let mut w = Expo::default();
        w.family("t_seconds", "histogram", "Top bucket.");
        w.histogram("t_seconds", &[], &h, &[]);
        let text = w.finish();
        assert_eq!(text.matches("le=\"+Inf\"").count(), 1, "{text}");
        promparse::parse(&text).expect("one +Inf bucket parses");
    }
}
