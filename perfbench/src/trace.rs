//! In-memory span recorder used by the traced runs.
//!
//! Every span wraps one call the benchmark makes into a layer's public
//! function. Spans nest on the calling thread, carry the request id (a
//! device index, shard, candidate or registry row) and are written out
//! once, when the run ends. A disabled tracer records nothing, so the
//! same replay code serves as its own untraced twin.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn duration_s(&self) -> f64 {
        self.duration_ns() as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` for request `req`; `f` gets
    /// the tracer back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children of one span never overlap (spans
/// nest on one thread), so the covered part is the sum of their
/// durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per span name: (calls, Σ self ns), excluding the spans named in `skip`.
pub fn self_by_name(spans: &[Span], skip: &[&str]) -> BTreeMap<&'static str, (u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        if skip.contains(&s.name) {
            continue;
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += ns;
    }
    out
}

/// Per request id of the spans named `name`: Σ self ns.
pub fn self_by_req(spans: &[Span], name: &str) -> BTreeMap<u64, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        if s.name == name {
            *out.entry(s.req).or_default() += ns;
        }
    }
    out
}

/// Durations (not self times) of every span named `name`, seconds.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,25); root ⊃ c [50,90)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("c", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root's wall exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let by_name = self_by_name(&spans, &["root"]);
        assert_eq!(by_name["a"], (1, 20));
        assert!(!by_name.contains_key("root"));
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", 7, |t| t.span("inner", 8, |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 8);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let own = self_times(spans);
        assert_eq!(own[0] + own[1], spans[0].duration_ns());

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |t| t.span("inner", 0, |_| 3)), 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn per_request_self_time_groups_by_id() {
        let mut spans = vec![
            span("run", 0, 10, None),
            span("run", 10, 30, None),
            span("run", 30, 35, None),
        ];
        spans[1].req = 1;
        let by_req = self_by_req(&spans, "run");
        assert_eq!(by_req[&0], 15);
        assert_eq!(by_req[&1], 20);
        assert_eq!(durations_s(&spans, "run").len(), 3);
    }
}
