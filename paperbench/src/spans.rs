//! The traced run's span recorder. Each call the benchmark makes into a
//! layer's public function (or each batch of calls) is wrapped in a
//! span: name, start, end, parent, and how many operations it covered.
//! Spans are kept in memory and written out once, at the end.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Dotted layer name, e.g. `frontend.lsd_iter`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Operations the span covered (1 for a single call).
    pub ops: u64,
    /// Nanoseconds covered by direct child spans.
    child_ns: u64,
}

impl Span {
    /// Duration minus the time its child spans cover.
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns)
    }

    /// Wall nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Strictly nested spans: a span's children start and end inside it,
/// so the time they cover is the sum of their durations.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` covering `ops` operations.
    pub fn span<T>(&mut self, name: &str, ops: u64, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            ops,
            child_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        let total = span.total_ns();
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += total;
        }
        out
    }

    /// Runs `samples` spans named `name`, each calling `op` `ops` times.
    pub fn sample(&mut self, name: &str, samples: usize, ops: u64, mut op: impl FnMut()) {
        for _ in 0..samples {
            self.span(name, ops, |_| {
                for _ in 0..ops {
                    op();
                }
            });
        }
    }

    /// Median self nanoseconds per operation over every span named `name`.
    ///
    /// # Panics
    ///
    /// Panics when no such span was recorded: a metric without samples
    /// is a bug in the layer suite.
    pub fn median_self_ns_per_op(&self, name: &str) -> f64 {
        let per_op: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_ns() as f64 / s.ops.max(1) as f64)
            .collect();
        assert!(!per_op.is_empty(), "no spans named {name}");
        crate::stats::median(&per_op)
    }

    /// Every span named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"ops\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.self_ns(),
                s.ops
            );
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Lowercases and keeps `[A-Za-z0-9_.-]`: spaces become `-`, anything
/// else is dropped (`L1I P+P` → `l1i-pp`).
pub fn slug(label: &str) -> String {
    label
        .chars()
        .filter_map(|c| match c {
            ' ' => Some('-'),
            c if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') => {
                Some(c.to_ascii_lowercase())
            }
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.span("outer", 1, |rec| {
            rec.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let outer = rec.named("outer").next().expect("recorded");
        let inner = rec.named("inner").next().expect("recorded");
        assert_eq!(inner.parent, Some(0));
        assert!(inner.total_ns() >= 20_000_000);
        assert_eq!(outer.self_ns(), outer.total_ns() - inner.total_ns());
        assert!(outer.self_ns() < inner.total_ns());
    }

    #[test]
    fn slugs_keep_only_the_metric_alphabet() {
        assert_eq!(slug("L1I P+P"), "l1i-pp");
        assert_eq!(slug("MEM F+R"), "mem-fr");
        assert_eq!(slug("non-mt-fast-eviction"), "non-mt-fast-eviction");
    }
}
