//! Spans recorded by the benchmark around each call into a layer's
//! public functions: name, start, end and the span that caused it.
//! Spans stay in memory and are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Recording thread (0 = the benchmark's main thread).
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// One thread's span recorder. Spans nest by call order: a span begun
/// while another is open is its child.
pub struct Tracer {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: u32) -> Tracer {
        Tracer {
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, on the same clock.
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer::new(self.origin, thread)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Names a span after the fact, once its outcome (say, cache hit or
    /// miss) is known.
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Appends another thread's spans, renumbering their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ms)
            .collect()
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Self time of every span: its duration minus the part its
    /// children cover (children of one thread never overlap).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ms();
            }
        }
        own
    }

    /// Per-name `(count, total ms, self ms)`, in first-seen order.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let own = self.self_ms();
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(own) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.dur_ms();
                    r.3 += own;
                }
                None => rows.push((s.name, 1, s.dur_ms(), own)),
            }
        }
        rows
    }

    /// The spans as JSON Lines: `{"id","parent","thread","name",
    /// "start_us","end_us","self_us"}`.
    pub fn to_jsonl(&self) -> String {
        let own = self.self_ms();
        let mut out = String::new();
        for (id, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"thread\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.thread,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                own * 1e3
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        let outer = t.begin("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        let own = t.self_ms();
        assert!(own[1] >= 2.0);
        assert!((own[0] + own[1] - t.spans()[0].dur_ms()).abs() < 1e-9);
        let summary = t.summary();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[1].1, 1);
    }

    #[test]
    fn absorb_renumbers_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, 0);
        a.time("a", || ());
        let mut b = Tracer::new(origin, 1);
        let p = b.begin("b");
        b.time("c", || ());
        b.end(p);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(a.to_jsonl().lines().count() == 3);
    }
}
