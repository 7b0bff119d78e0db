//! Windowed load time-series: per-second snapshots of the serving layer.
//!
//! gsknn-serve keeps a fixed ring of these, one row per wall-clock
//! second, each the growth of the server's cumulative counters over that
//! second (so the rows sum to its `Stats`); this module owns the *data*
//! shape — [`LoadSample`] — its JSON wire form (the `TimeSeries`
//! op's body), and the terminal rendering `gsknn-cli top` uses. Keeping
//! the types here lets the CLI parse and render a dump without linking
//! the server.
//!
//! A sample aggregates across **all** requests in its second — unlike
//! the slowest-traces ring, which keeps whole timelines for a few
//! outliers — so the two exports answer complementary questions:
//! "where did *this* query's time go" (traces) vs "where does *every*
//! cycle go, second over second" (this).

use serde_json::Value;

/// One second of aggregated serving activity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoadSample {
    /// Seconds since the server epoch.
    pub t_s: u64,
    /// Query requests received this second (before admission).
    pub arrivals: u64,
    /// Query points received this second (a batch query counts its `m`).
    pub points: u64,
    /// Batches flushed this second.
    pub batches: u64,
    /// Query points executed in those batches.
    pub batch_points: u64,
    /// Flushes triggered by the model target.
    pub flush_model: u64,
    /// Flushes triggered by the deadline.
    pub flush_deadline: u64,
    /// Flushes triggered by shutdown drain.
    pub flush_drain: u64,
    /// Highest in-flight point count observed this second.
    pub queue_depth_max: u64,
    /// In-flight point count at the last observation this second.
    pub in_flight: u64,
    /// Kernel nanoseconds per phase this second, summed over batches.
    /// Names are the kernel's phase names (`"gather-pack R"`, …).
    pub phase_ns: Vec<(String, u64)>,
}

impl LoadSample {
    /// Mean flushed batch size this second, `None` when nothing flushed.
    pub fn batch_m_mean(&self) -> Option<f64> {
        if self.batches == 0 {
            None
        } else {
            Some(self.batch_points as f64 / self.batches as f64)
        }
    }

    /// Total kernel nanoseconds across phases this second.
    pub fn phase_total_ns(&self) -> u64 {
        self.phase_ns.iter().map(|(_, ns)| ns).sum()
    }

    /// JSON object form (field names match the struct).
    pub fn to_json(&self) -> Value {
        let phases = Value::Object(
            self.phase_ns
                .iter()
                .map(|(name, ns)| (name.clone(), Value::from(*ns)))
                .collect(),
        );
        Value::Object(vec![
            ("t_s".to_string(), Value::from(self.t_s)),
            ("arrivals".to_string(), Value::from(self.arrivals)),
            ("points".to_string(), Value::from(self.points)),
            ("batches".to_string(), Value::from(self.batches)),
            ("batch_points".to_string(), Value::from(self.batch_points)),
            ("flush_model".to_string(), Value::from(self.flush_model)),
            (
                "flush_deadline".to_string(),
                Value::from(self.flush_deadline),
            ),
            ("flush_drain".to_string(), Value::from(self.flush_drain)),
            (
                "queue_depth_max".to_string(),
                Value::from(self.queue_depth_max),
            ),
            ("in_flight".to_string(), Value::from(self.in_flight)),
            ("phase_ns".to_string(), phases),
        ])
    }

    /// Parse a sample written by [`LoadSample::to_json`].
    pub fn from_json(v: &Value) -> Option<LoadSample> {
        let field = |name: &str| v.get(name).and_then(|x| x.as_u64());
        let mut phase_ns = Vec::new();
        if let Some(Value::Object(pairs)) = v.get("phase_ns") {
            for (name, ns) in pairs {
                phase_ns.push((name.clone(), ns.as_u64()?));
            }
        }
        Some(LoadSample {
            t_s: field("t_s")?,
            arrivals: field("arrivals")?,
            points: field("points")?,
            batches: field("batches")?,
            batch_points: field("batch_points")?,
            flush_model: field("flush_model")?,
            flush_deadline: field("flush_deadline")?,
            flush_drain: field("flush_drain")?,
            queue_depth_max: field("queue_depth_max")?,
            in_flight: field("in_flight")?,
            phase_ns,
        })
    }
}

/// The `TimeSeries` wire-op body: window metadata plus the samples,
/// oldest first. `enabled: false` (obs compiled out) carries no samples.
pub fn timeseries_json(enabled: bool, window_s: u64, samples: &[LoadSample]) -> Value {
    Value::Object(vec![
        ("experiment".to_string(), Value::from("timeseries")),
        ("enabled".to_string(), Value::from(enabled)),
        ("window_s".to_string(), Value::from(window_s)),
        (
            "samples".to_string(),
            Value::Array(samples.iter().map(LoadSample::to_json).collect()),
        ),
    ])
}

/// Parse a document written by [`timeseries_json`] back into
/// `(enabled, window_s, samples)`.
pub fn parse_timeseries(doc: &Value) -> Option<(bool, u64, Vec<LoadSample>)> {
    let enabled = doc.get("enabled")?.as_bool()?;
    let window_s = doc.get("window_s")?.as_u64()?;
    let mut samples = Vec::new();
    for v in doc.get("samples")?.as_array()? {
        samples.push(LoadSample::from_json(v)?);
    }
    Some((enabled, window_s, samples))
}

/// Render the newest `rows` samples as the `gsknn-cli top` table: one
/// line per second plus a footer aggregating the kernel-phase split
/// across the shown window.
pub fn render_top(samples: &[LoadSample], rows: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{:>6} {:>8} {:>7} {:>8} {:>7} {:>14} {:>6} {:>6} {:>9}",
        "t(s)",
        "arrive",
        "points",
        "batches",
        "m-mean",
        "flush m/d/dr",
        "depth",
        "infl",
        "kern(ms)"
    )
    .unwrap();
    let start = samples.len().saturating_sub(rows);
    for s in &samples[start..] {
        let m_mean = s
            .batch_m_mean()
            .map(|m| format!("{m:.1}"))
            .unwrap_or_else(|| "-".to_string());
        writeln!(
            out,
            "{:>6} {:>8} {:>7} {:>8} {:>7} {:>14} {:>6} {:>6} {:>9.2}",
            s.t_s,
            s.arrivals,
            s.points,
            s.batches,
            m_mean,
            format!("{}/{}/{}", s.flush_model, s.flush_deadline, s.flush_drain),
            s.queue_depth_max,
            s.in_flight,
            s.phase_total_ns() as f64 / 1e6,
        )
        .unwrap();
    }
    // aggregate phase split over the shown rows
    let mut totals: Vec<(String, u64)> = Vec::new();
    for s in &samples[start..] {
        for (name, ns) in &s.phase_ns {
            match totals.iter_mut().find(|(n, _)| n == name) {
                Some((_, t)) => *t += ns,
                None => totals.push((name.clone(), *ns)),
            }
        }
    }
    let grand: u64 = totals.iter().map(|(_, ns)| ns).sum();
    if grand > 0 {
        write!(out, "phases:").unwrap();
        for (name, ns) in &totals {
            if *ns == 0 {
                continue;
            }
            write!(out, " {} {:.0}%", name, *ns as f64 / grand as f64 * 100.0).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64) -> LoadSample {
        LoadSample {
            t_s: t,
            arrivals: 40,
            points: 40,
            batches: 5,
            batch_points: 40,
            flush_model: 1,
            flush_deadline: 4,
            flush_drain: 0,
            queue_depth_max: 12,
            in_flight: 3,
            phase_ns: vec![
                ("gather-pack R".to_string(), 2_000_000),
                ("rank-dc kernel".to_string(), 6_000_000),
            ],
        }
    }

    #[test]
    fn sample_round_trips_json() {
        let s = sample(7);
        let back = LoadSample::from_json(&s.to_json()).expect("parses");
        assert_eq!(back, s);
        assert_eq!(back.batch_m_mean(), Some(8.0));
        assert_eq!(back.phase_total_ns(), 8_000_000);
    }

    #[test]
    fn empty_second_has_no_batch_mean() {
        assert_eq!(LoadSample::default().batch_m_mean(), None);
    }

    #[test]
    fn document_round_trips_and_flags_enabled() {
        let samples = vec![sample(1), sample(2)];
        let doc = timeseries_json(true, 120, &samples);
        let (enabled, window, back) = parse_timeseries(&doc).expect("parses");
        assert!(enabled);
        assert_eq!(window, 120);
        assert_eq!(back, samples);

        let off = timeseries_json(false, 0, &[]);
        let (enabled, _, back) = parse_timeseries(&off).expect("parses");
        assert!(!enabled);
        assert!(back.is_empty());
    }

    #[test]
    fn render_top_shows_rows_and_phase_split() {
        let samples: Vec<_> = (0..20).map(sample).collect();
        let text = render_top(&samples, 10);
        // 1 header + 10 rows + 1 phase footer
        assert_eq!(text.lines().count(), 12);
        assert!(text.contains("flush m/d/dr"));
        assert!(text.contains("1/4/0"));
        assert!(text.contains("rank-dc kernel 75%"), "{text}");
        // oldest rows are cut, newest kept
        assert!(!text.lines().any(|l| l.trim_start().starts_with("9 ")));
        assert!(text.contains("\n    19 "));
    }

    #[test]
    fn render_top_handles_empty_window() {
        let text = render_top(&[], 10);
        assert_eq!(text.lines().count(), 1, "header only: {text}");
    }
}
