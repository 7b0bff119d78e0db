//! The benchmark's own span recorder. A traced pass wraps every call the
//! driver makes into a layer in a span (name, start, end, parent, request
//! id); spans stay in memory until the pass ends, then go out as a Chrome
//! trace-event file and are folded into per-name self times. Spans inside
//! the measured program are a later issue.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Index of a span in its recorder.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;
/// Spans written to the trace file; self times still cover every span.
const TRACE_FILE_SPANS: usize = 20_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// The request's `trace_id` (kernel workloads: the call number).
    pub request: u64,
}

/// Recorder handle: `None` inside makes every method a no-op, so the
/// untraced pass runs the same code without the bookkeeping.
#[derive(Default)]
pub struct SpanRec {
    spans: Option<Vec<Span>>,
}

impl SpanRec {
    pub fn off() -> Self {
        SpanRec { spans: None }
    }

    pub fn on() -> Self {
        SpanRec {
            spans: Some(Vec::with_capacity(1 << 16)),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Record a finished span.
    pub fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        match &mut self.spans {
            Some(v) => {
                v.push(Span {
                    name,
                    start_ns,
                    end_ns,
                    parent,
                    request,
                });
                (v.len() - 1) as SpanId
            }
            None => NO_PARENT,
        }
    }

    /// Close a span opened with a provisional end.
    pub fn set_end(&mut self, id: SpanId, end_ns: u64) {
        if let Some(s) = self.spans.as_mut().and_then(|v| v.get_mut(id as usize)) {
            s.end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Per span name: `(count, total self ns)`, where a span's self time
    /// is its duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let spans = self.spans();
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(k) = kids.get_mut(s.parent as usize) {
                k.push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, k) in spans.iter().zip(kids.iter_mut()) {
            let own = s.end_ns.saturating_sub(s.start_ns);
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += own - covered(k, s.start_ns, s.end_ns).min(own);
        }
        out
    }

    /// Mean self time of `name` in ns (0 when no such span was recorded).
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        match self.self_times().get(name) {
            Some(&(n, total)) if n > 0 => total as f64 / n as f64,
            _ => 0.0,
        }
    }

    /// Write the first spans as Chrome trace-event JSON (open it in
    /// `chrome://tracing` or Perfetto). One `tid` per request so a
    /// request's spans stack.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans();
        let shown = &spans[..spans.len().min(TRACE_FILE_SPANS)];
        f.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in shown.iter().enumerate() {
            let sep = if i + 1 == shown.len() { "" } else { "," };
            writeln!(
                f,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}{}",
                s.name,
                s.request % 1000,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                i,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                },
                s.request,
                sep
            )?;
        }
        f.write_all(b"],\"displayTimeUnit\":\"ns\"}\n")?;
        f.flush()?;
        Ok(shown.len())
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut edge) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(edge), e.min(hi));
        if e > s {
            total += e - s;
            edge = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = SpanRec::on();
        let root = r.add("request", 0, 1000, NO_PARENT, 1);
        r.add("send", 100, 300, root, 1);
        r.add("recv", 250, 400, root, 1); // overlaps send by 50
        r.add("recv", 900, 1200, root, 1); // clipped to the parent
        let t = r.self_times();
        assert_eq!(t["request"], (1, 1000 - 300 - 100));
        assert_eq!(t["send"], (1, 200));
        assert_eq!(t["recv"], (2, 150 + 300));
        assert_eq!(r.mean_self_ns("request"), 600.0);
        assert_eq!(r.mean_self_ns("absent"), 0.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = SpanRec::off();
        assert_eq!(r.add("x", 0, 1, NO_PARENT, 0), NO_PARENT);
        assert!(r.spans().is_empty());
        assert!(!r.enabled());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut r = SpanRec::on();
        let root = r.add("request", 10, 2000, NO_PARENT, 7);
        r.add("send", 20, 30, root, 7);
        let path = std::env::temp_dir().join(format!("ledger_trace_{}.json", std::process::id()));
        assert_eq!(r.write_chrome(&path).unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let v = serde_json::from_str(&text).expect("trace parses");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(|n| n.as_str()), Some("send"));
    }
}
