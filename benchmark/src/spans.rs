//! In-memory spans recorded around the calls into each layer, dumped
//! when the traced pass ends.
//!
//! Spans come from the harness only: the program carries none yet. A
//! layer that is reachable only through its parent is re-run on the
//! same inputs right after the parent and recorded as a *replayed*
//! child, so its interval lies after the parent's, not inside it. Self
//! time therefore subtracts child durations, not interval overlap.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer entry point, e.g. `core.engine`.
    pub name: &'static str,
    /// The job or request all spans of one walk share.
    pub job: usize,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Whether this is a re-run of a layer the parent reached itself.
    pub replayed: bool,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// A recorder over hand-built spans (for tests).
    pub fn from_spans(spans: Vec<Span>) -> Self {
        Recorder {
            origin: Instant::now(),
            spans,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span inside `parent`'s interval. `f` gets the
    /// recorder and its own span id, to nest further real spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: usize,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Recorder, SpanId) -> T,
    ) -> (SpanId, T) {
        self.record(name, job, parent, false, f)
    }

    /// Times `f` as a replayed child of `parent` (see the module docs).
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        job: usize,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        self.record(name, job, Some(parent), true, |_, _| f())
    }

    fn record<T>(
        &mut self,
        name: &'static str,
        job: usize,
        parent: Option<SpanId>,
        replayed: bool,
        f: impl FnOnce(&mut Recorder, SpanId) -> T,
    ) -> (SpanId, T) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            start_ns,
            end_ns: start_ns,
            parent,
            replayed,
        });
        let out = f(self, id);
        self.spans[id].end_ns = self.now_ns();
        (id, out)
    }

    /// Duration of span `id` in ns.
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans[id].duration_ns()
    }

    /// Every span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's,
    /// floored at zero (a replayed child can outlast the share of the
    /// parent it stands for).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Total duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.sum_ns(name, |i| self.spans[i].duration_ns())
    }

    /// Total self time of the spans called `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let own = self.self_times_ns();
        self.sum_ns(name, |i| own[i])
    }

    fn sum_ns(&self, name: &str, f: impl Fn(usize) -> u64) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(f)
            .sum();
        ns as f64 / 1e9
    }

    /// Per root span: the self times of its whole tree over its own
    /// duration. 1.0 when the stages account for the walk exactly, above
    /// it when replayed children outlast their parents.
    pub fn coverages(&self) -> Vec<f64> {
        let own = self.self_times_ns();
        let mut tree_ns = vec![0u64; self.spans.len()];
        for (i, &ns) in own.iter().enumerate() {
            let mut root = i;
            while let Some(parent) = self.spans[root].parent {
                root = parent;
            }
            tree_ns[root] += ns;
        }
        self.spans
            .iter()
            .zip(tree_ns)
            .filter(|(s, _)| s.parent.is_none())
            .map(|(s, ns)| ns as f64 / s.duration_ns() as f64)
            .collect()
    }

    /// The median of [`Recorder::coverages`]: a burst of host noise
    /// stretches the replays of a few walks, not of most.
    pub fn coverage(&self) -> f64 {
        crate::stats::median(&self.coverages())
    }

    /// The spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let own = self.self_times_ns();
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"job\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"replayed\": {}, \"self_ns\": {}}}{comma}",
                s.name, s.job, s.start_ns, s.end_ns, s.replayed, own[i]
            );
        }
        out.push(']');
        out
    }
}
