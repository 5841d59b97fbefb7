//! In-memory spans recorded *around* calls into the crates' public
//! functions. Spans inside the program are a later issue; until then the
//! traced run rebuilds each pipeline out of public calls and times every
//! call from outside (see [`crate::decomposed`]).

use std::time::Instant;

/// One recorded span. `name` is `<layer>.<operation>`; the layer is the
/// crate or module the call went into.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle returned by [`Trace::enter`]; spans close in LIFO order.
#[must_use = "a span that is never exited records no time"]
pub struct Open(usize);

/// Span recorder. Everything stays in memory until the run ends.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close the innermost span.
    pub fn exit(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0].end_ns = self.now_ns();
    }

    /// Time one call as a span.
    pub fn span<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = call();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of the spans called `name`: their duration minus the part
    /// their direct children cover (children never overlap — one thread).
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for (id, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            total += (s.end_ns - s.start_ns).saturating_sub(children) as f64 / 1e6;
        }
        total
    }

    /// Per-name aggregate `(name, calls, total_ms, self_ms)` in first-seen
    /// order — the form the result file keeps (raw spans of a 120-commit
    /// run would be tens of thousands of lines).
    pub fn aggregate(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|n| (n, self.count(n), self.total_ms(n), self.self_ms(n)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Trace::default();
        let outer = t.enter("system.detect");
        t.span("fastknn.classify", || {
            std::thread::sleep(std::time::Duration::from_millis(15))
        });
        t.span("store.feedback", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer);
        let total = t.total_ms("system.detect");
        let own = t.self_ms("system.detect");
        let kids = t.total_ms("fastknn.classify") + t.total_ms("store.feedback");
        assert!(kids >= 20.0, "children slept 20 ms, saw {kids}");
        assert!((total - kids - own).abs() < 1e-6, "self = total − children");
        assert!(own < 10.0, "outer span did nothing itself, saw {own}");
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.aggregate().len(), 3);
    }
}
