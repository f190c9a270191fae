//! The benchmark's own span recorder, used only by the traced run.
//!
//! Spans are taken around calls into the program's public functions:
//! name, start, end, parent span and op id. Counts are taken at the same
//! boundaries. Everything stays in memory until [`take`], and a thread
//! that never called [`enable`] records nothing, so the untraced runs
//! pay one thread-local check per boundary.

use std::cell::RefCell;
use std::time::Instant;

/// One closed span. `parent` is 0 for a root span; ids start at 1.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work the benchmark adds to look inside a layer; it is not part
    /// of the op a user runs, so op times leave it out.
    pub probe: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// One counted value.
#[derive(Debug, Clone)]
pub struct Count {
    pub name: &'static str,
    pub op: u64,
    pub value: f64,
}

#[derive(Debug, Default)]
pub struct Recording {
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
}

impl Recording {
    /// The spans and counts of ops `first` and later.
    pub fn ops_from(&self, first: u64) -> Recording {
        Recording {
            spans: self
                .spans
                .iter()
                .filter(|s| s.op >= first)
                .cloned()
                .collect(),
            counts: self
                .counts
                .iter()
                .filter(|c| c.op >= first)
                .cloned()
                .collect(),
        }
    }

    /// Durations in ms of every span called `name`.
    pub fn span_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Every value counted under `name`.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect()
    }

    /// The sum of every value counted under `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.values(name).iter().sum()
    }

    /// The recording as JSON, one span or count per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"probe\": {}}}{sep}\n",
                s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns, s.probe
            ));
        }
        out.push_str("],\n\"counts\": [\n");
        for (i, c) in self.counts.iter().enumerate() {
            let sep = if i + 1 < self.counts.len() { "," } else { "" };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"op\": {}, \"value\": {}}}{sep}\n",
                c.name, c.op, c.value
            ));
        }
        out.push_str("]}\n");
        out
    }
}

struct Recorder {
    epoch: Instant,
    rec: Recording,
    open: Vec<usize>,
    op: u64,
    probe_ns: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            rec: Recording::default(),
            open: Vec::new(),
            op: 0,
            probe_ns: 0,
        })
    });
}

/// Stop recording on this thread and hand over what was recorded.
pub fn take() -> Recording {
    RECORDER.with(|r| r.borrow_mut().take().map(|r| r.rec).unwrap_or_default())
}

/// Is this thread recording?
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Suspend recording on this thread until the returned guard drops.
pub fn pause() -> Paused {
    Paused(RECORDER.with(|r| r.borrow_mut().take()))
}

/// Resumes recording on drop.
pub struct Paused(Option<Recorder>);

impl Drop for Paused {
    fn drop(&mut self) {
        if let Some(rec) = self.0.take() {
            RECORDER.with(|r| *r.borrow_mut() = Some(rec));
        }
    }
}

/// Tag the spans and counts that follow with op id `op`.
pub fn set_op(op: u64) {
    RECORDER.with(|r| {
        if let Some(r) = r.borrow_mut().as_mut() {
            r.op = op;
        }
    });
}

/// Total time spent in closed outermost probe spans so far, in ns.
pub fn probe_ns() -> u64 {
    RECORDER.with(|r| r.borrow().as_ref().map(|r| r.probe_ns).unwrap_or(0))
}

/// Record `value` under `name` for the current op.
pub fn count(name: &'static str, value: f64) {
    RECORDER.with(|r| {
        if let Some(r) = r.borrow_mut().as_mut() {
            let op = r.op;
            r.rec.counts.push(Count { name, op, value });
        }
    });
}

/// Open a span; it closes when the guard drops.
#[must_use]
pub fn span(name: &'static str) -> Guard {
    open(name, false)
}

/// Open a probe span: work the benchmark adds to time a layer from
/// outside, which op times leave out.
#[must_use]
pub fn probe(name: &'static str) -> Guard {
    open(name, true)
}

/// Run `f` inside a span called `name`.
pub fn within<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

fn open(name: &'static str, probe: bool) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(r) = r.as_mut() else {
            return Guard(None);
        };
        let index = r.rec.spans.len();
        let parent = r.open.last().map(|&i| r.rec.spans[i].id).unwrap_or(0);
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.rec.spans.push(Span {
            name,
            id: index as u32 + 1,
            parent,
            op: r.op,
            start_ns,
            end_ns: start_ns,
            probe,
        });
        r.open.push(index);
        Guard(Some(index))
    })
}

/// Closes its span on drop.
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(r) = r.borrow_mut().as_mut() {
                let end_ns = r.epoch.elapsed().as_nanos() as u64;
                r.rec.spans[index].end_ns = end_ns;
                let span = &r.rec.spans[index];
                if span.probe && !r.open.iter().any(|&i| i != index && r.rec.spans[i].probe) {
                    r.probe_ns += end_ns - span.start_ns;
                }
                r.open.retain(|&i| i != index);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_probes_are_summed_once() {
        enable();
        set_op(7);
        {
            let _outer = span("outer");
            let _p = probe("p");
            let _inner = probe("inner");
            count("n", 2.0);
        }
        let _ = span("after");
        assert!(probe_ns() > 0);
        let rec = take();
        assert!(!enabled());
        let names: Vec<_> = rec
            .spans
            .iter()
            .map(|s| (s.name, s.id, s.parent, s.op))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", 1, 0, 7),
                ("p", 2, 1, 7),
                ("inner", 3, 2, 7),
                ("after", 4, 0, 7)
            ]
        );
        assert_eq!(rec.total("n"), 2.0);
        assert!(rec.to_json().contains("\"name\": \"inner\""));
    }

    #[test]
    fn nothing_is_recorded_when_disabled() {
        let _ = span("x");
        count("n", 1.0);
        assert_eq!(probe_ns(), 0);
        assert!(take().spans.is_empty());
    }
}
