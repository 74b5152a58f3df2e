//! Host-time spans recorded by the harness around its calls into each
//! layer. Spans are kept in memory and written once, at exit; a disabled
//! recorder records nothing, so the untraced pass pays for no span.

use crate::json;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// One closed or still-open span. Times are host seconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

struct Inner {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Cheap-to-clone handle; clones share one span list, so code inside a
/// simulation task can record under the span its caller opened.
#[derive(Clone)]
pub struct Recorder(Option<Rc<RefCell<Inner>>>);

/// Closes its span when dropped.
pub struct Guard(Option<(Rc<RefCell<Inner>>, usize)>);

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder(enabled.then(|| {
            Rc::new(RefCell::new(Inner {
                origin: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
            }))
        }))
    }

    /// Open a span under the innermost open one.
    pub fn span(&self, name: &str) -> Guard {
        Guard(self.0.as_ref().map(|inner| {
            let mut i = inner.borrow_mut();
            let now = i.origin.elapsed().as_secs_f64();
            let parent = i.open.last().copied();
            let id = i.spans.len();
            i.spans.push(Span {
                name: name.to_string(),
                start_s: now,
                end_s: now,
                parent,
            });
            i.open.push(id);
            (Rc::clone(inner), id)
        }))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map(|i| i.borrow().spans.clone())
            .unwrap_or_default()
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((inner, id)) = self.0.take() {
            let mut i = inner.borrow_mut();
            i.spans[id].end_s = i.origin.elapsed().as_secs_f64();
            let top = i.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost-first");
        }
    }
}

/// Self time per span: its duration minus the part of it that its direct
/// children cover. Children of one parent never overlap (one thread, one
/// stack), so their durations add.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_s - s.start_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let covered = s.end_s.min(spans[p].end_s) - s.start_s.max(spans[p].start_s);
            own[p] -= covered.max(0.0);
        }
    }
    own
}

/// The trace file: every span with its parent, duration, and self time,
/// under one run id.
pub fn trace_json(run_id: &str, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = format!(
        "{{\"run_id\": {}, \"unit\": \"s\", \"spans\": [",
        json::string(run_id)
    );
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n  {{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"start\": {}, \"end\": {}, \"self\": {}}}",
            json::string(&s.name),
            json::number(s.start_s),
            json::number(s.end_s),
            json::number(own[id]),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_s,
            end_s,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("workload", 0.0, 10.0, None),
            span("rep", 1.0, 9.0, Some(0)),
            span("arm", 2.0, 5.0, Some(1)),
            span("arm", 5.0, 8.5, Some(1)),
            span("check", 9.0, 9.5, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![10.0 - 8.0 - 0.5, 8.0 - 3.0 - 3.5, 3.0, 3.5, 0.5]);
        // Self times of a tree add up to its root's duration.
        assert_eq!(own.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn a_child_that_outlives_its_parent_is_clipped() {
        let spans = [span("p", 0.0, 4.0, None), span("c", 3.0, 6.0, Some(0))];
        assert_eq!(self_times(&spans), vec![3.0, 3.0]);
    }

    #[test]
    fn guards_nest_and_close_in_stack_order() {
        let rec = Recorder::new(true);
        {
            let _w = rec.span("workload");
            {
                let _r = rec.span("rep");
                let _a = rec.clone().span("arm");
            }
            let _c = rec.span("check");
        }
        let spans = rec.spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name.as_str(), s.parent)).collect();
        assert_eq!(
            shape,
            [
                ("workload", None),
                ("rep", Some(0)),
                ("arm", Some(1)),
                ("check", Some(0))
            ]
        );
        assert!(spans.iter().all(|s| s.end_s >= s.start_s));
        assert!(trace_json("run \"1\"", &spans).contains("\"run_id\": \"run \\\"1\\\"\""));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        drop(rec.span("workload"));
        assert!(rec.spans().is_empty());
    }
}
