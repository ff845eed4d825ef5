//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer's public function, made by the
//! benchmark: its name, start, end, the span that caused it, and the id
//! of the campaign or probe it belongs to. Spans stay in memory until the
//! run ends and are then written out with each name's self time (its
//! duration minus the part covered by its child spans).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call, e.g. `cluster.run_task_spec`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// The campaign or probe the span belongs to.
    pub trace_id: u64,
}

impl Span {
    /// The span's duration.
    #[must_use]
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it is recorded when [`Tracer::close`] is called.
    #[must_use]
    pub fn open(&self, name: &'static str, parent: Option<usize>, trace_id: u64) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace_id,
        });
        spans.len() - 1
    }

    /// Closes span `idx` now and returns its duration.
    pub fn close(&self, idx: usize) -> Duration {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock");
        spans[idx].end_ns = end_ns;
        spans[idx].duration()
    }

    /// Records a span that has already ended.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        trace_id: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| u64::try_from((t - self.epoch).as_nanos()).unwrap_or(u64::MAX);
        self.spans.lock().expect("span list lock").push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            trace_id,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        trace_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, parent, trace_id);
        let out = f();
        self.close(idx);
        out
    }

    /// Durations of every span named `name`, in recording order.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        let spans = self.spans.lock().expect("span list lock");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Self time per span name: each span's duration minus the union of
    /// its children's intervals, summed by name, with span counts.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, Duration)> {
        let spans = self.spans.lock().expect("span list lock");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, Duration)> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += Duration::from_nanos((s.end_ns - s.start_ns).saturating_sub(covered));
        }
        out
    }

    /// The spans and self-time table as JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"self_time_ms\": {");
        let table = self.self_times();
        for (i, (name, (count, time))) in table.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"spans\": {count}, \"ms\": {:.6}}}",
                time.as_secs_f64() * 1e3
            );
        }
        out.push_str("}, \"spans\": [");
        let spans = self.spans.lock().expect("span list lock");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"trace_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.trace_id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        let parent = t.open("outer", None, 1);
        let child = t.open("inner", Some(parent), 1);
        std::thread::sleep(Duration::from_millis(5));
        t.close(child);
        t.close(parent);
        let table = t.self_times();
        let (_, outer) = table["outer"];
        let (_, inner) = table["inner"];
        assert!(inner >= Duration::from_millis(5));
        assert!(outer < inner, "outer self {outer:?} vs inner {inner:?}");
        assert!(t.to_json().contains("\"parent\": 0"));
    }
}
