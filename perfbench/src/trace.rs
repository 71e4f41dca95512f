//! In-memory span recorder for traced runs.
//!
//! Spans are opened by the benchmark's own code around every call it makes
//! into a layer's public functions (and by the store wrappers in
//! [`crate::stores`] around every page-store call). Each span records its
//! name, start and end (nanoseconds since the recorder was enabled), the
//! span that was open when it started, and the request it belongs to.
//! Recording is per thread; the benchmark drives every layer from one
//! thread, so a span's children are exactly the spans opened while it was
//! the innermost open one.
//!
//! When tracing is off, [`span`] costs one thread-local flag read and
//! takes no clock readings.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marker for "no parent".
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.view.query`.
    pub name: &'static str,
    /// Start, in ns since tracing was enabled.
    pub start: u64,
    /// End, in ns since tracing was enabled.
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Identifier shared by every span of one benchmark operation.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        request: 0,
    });
}

/// Turns recording on or off for this thread. Already recorded spans are
/// kept; spans still open when recording is switched off are closed
/// normally.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().enabled = on);
}

/// Sets the request id stamped on spans opened from now on.
pub fn set_request(id: u64) {
    REC.with(|r| r.borrow_mut().request = id);
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Guard closing its span on drop.
#[must_use = "a span ends when its guard is dropped"]
pub struct SpanGuard(u32);

/// Opens a span named `name` if recording is on.
pub fn span(name: &'static str) -> SpanGuard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return SpanGuard(NO_PARENT);
        }
        let idx = u32::try_from(r.spans.len()).unwrap_or(NO_PARENT);
        if idx == NO_PARENT {
            return SpanGuard(NO_PARENT);
        }
        let start = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let request = r.request;
        r.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        r.open.push(idx);
        SpanGuard(idx)
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.0 == NO_PARENT {
            return;
        }
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.epoch.elapsed().as_nanos() as u64;
            r.spans[self.0 as usize].end = end;
            let top = r.open.pop();
            debug_assert_eq!(top, Some(self.0), "spans must close innermost first");
        });
    }
}

/// Per-span derived figures: time covered by direct children, and self
/// time (duration minus that).
#[derive(Debug, Clone)]
pub struct Analysis {
    /// `children[i]`: summed duration of span `i`'s direct children.
    pub children: Vec<u64>,
}

impl Analysis {
    /// Self time of span `i`.
    #[must_use]
    pub fn self_time(&self, spans: &[Span], i: usize) -> u64 {
        spans[i].dur().saturating_sub(self.children[i])
    }
}

/// Computes child coverage for every span.
#[must_use]
pub fn analyse(spans: &[Span]) -> Analysis {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize] += s.dur();
        }
    }
    Analysis { children }
}

/// Checks the structural contract of a span list: every child lies inside
/// its parent's interval, siblings do not overlap, and the children of a
/// span never cover more than the span itself. Returns the first
/// violation.
pub fn check(spans: &[Span]) -> Result<(), String> {
    let mut last_child_end: BTreeMap<u32, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if s.parent == NO_PARENT {
            continue;
        }
        let p = spans
            .get(s.parent as usize)
            .ok_or_else(|| format!("span {i} has a dangling parent"))?;
        if s.parent as usize >= i {
            return Err(format!("span {i} opened before its parent"));
        }
        if s.start < p.start || s.end > p.end {
            return Err(format!("span {i} ({}) escapes parent {}", s.name, p.name));
        }
        if s.request != p.request {
            return Err(format!("span {i} changes request inside its parent"));
        }
        let prev = last_child_end.entry(s.parent).or_insert(0);
        if s.start < *prev {
            return Err(format!("span {i} ({}) overlaps a sibling", s.name));
        }
        *prev = s.end;
    }
    let a = analyse(spans);
    for (i, s) in spans.iter().enumerate() {
        if a.children[i] > s.dur() {
            return Err(format!("children of span {i} ({}) exceed it", s.name));
        }
    }
    Ok(())
}

/// Writes spans as tab-separated lines
/// `index name start_ns end_ns parent request` (parent `-` for roots).
///
/// # Errors
/// I/O errors.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NO_PARENT {
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t-\t{}",
                s.name, s.start, s.end, s.request
            )?;
        } else {
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start, s.end, s.parent, s.request
            )?;
        }
    }
    w.flush()
}

/// Durations (ns) of every span named `name`.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}

/// Total duration (ns) of spans named `child` whose direct parent is named
/// `parent`.
#[must_use]
pub fn child_time_under(spans: &[Span], parent: &str, child: &str) -> u64 {
    spans
        .iter()
        .filter(|s| {
            s.name == child && s.parent != NO_PARENT && spans[s.parent as usize].name == parent
        })
        .map(Span::dur)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn nested_spans_keep_children_inside_and_self_times_add_up() {
        set_enabled(true);
        take();
        for req in 0..3 {
            set_request(req);
            let _root = span("root");
            busy(2_000);
            for _ in 0..3 {
                let _mid = span("mid");
                busy(1_000);
                let _leaf = span("leaf");
                busy(500);
            }
            busy(1_000);
        }
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 3 * 7);
        check(&spans).unwrap();
        let a = analyse(&spans);
        // Each request has one root; the self times of all its spans add
        // up to the root's duration exactly.
        for s in spans.iter().filter(|s| s.parent == NO_PARENT) {
            let total_self: u64 = (0..spans.len())
                .filter(|&j| spans[j].request == s.request)
                .map(|j| a.self_time(&spans, j))
                .sum();
            assert_eq!(total_self, s.dur());
        }
        assert!(spans.iter().all(|s| s.request < 3));
    }

    #[test]
    fn check_rejects_escaping_and_overlapping_children() {
        let mk = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            request: 0,
        };
        let escaping = [mk("p", 0, 10, NO_PARENT), mk("c", 5, 11, 0)];
        assert!(check(&escaping).is_err());
        let overlapping = [
            mk("p", 0, 10, NO_PARENT),
            mk("a", 1, 6, 0),
            mk("b", 5, 9, 0),
        ];
        assert!(check(&overlapping).is_err());
        let fine = [
            mk("p", 0, 10, NO_PARENT),
            mk("a", 1, 5, 0),
            mk("b", 5, 9, 0),
        ];
        check(&fine).unwrap();
        let a = analyse(&fine);
        assert_eq!(a.self_time(&fine, 0), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        set_enabled(false);
        take();
        {
            let _s = span("x");
        }
        assert!(take().is_empty());
    }
}
