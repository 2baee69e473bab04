//! Benchmark-side spans: recorded around the calls into each layer,
//! kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The op (or probe) the span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `jstreams.collect`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span store.
pub struct Spans {
    base: Instant,
    rows: Vec<Span>,
}

impl Spans {
    /// Empty store; span times count from now.
    pub fn new() -> Self {
        Spans {
            base: Instant::now(),
            rows: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` of op `op` under `parent`;
    /// `f` gets the store and the new span's id, for child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        f: impl FnOnce(&mut Self, u32) -> R,
    ) -> R {
        let id = self.rows.len() as u32;
        let start_ns = self.base.elapsed().as_nanos() as u64;
        self.rows.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        let r = f(self, id);
        self.rows[id as usize].end_ns = self.base.elapsed().as_nanos() as u64;
        r
    }

    /// Self time of every span name (duration minus the part of it its
    /// children cover), summed, in name order.
    pub fn self_ns_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.rows.len()];
        for s in &self.rows {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = std::collections::BTreeMap::new();
        for s in &self.rows {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            *by_name.entry(s.name).or_insert(0u64) += own;
        }
        by_name.into_iter().collect()
    }

    /// JSON array of every span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        spans.span("outer", 0, None, |s, id| {
            s.span("inner", 0, Some(id), |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let by_name = spans.self_ns_by_name();
        let get = |n| by_name.iter().find(|(k, _)| *k == n).unwrap().1;
        assert!(get("inner") >= 5_000_000);
        assert!(get("outer") < get("inner"));
        assert!(spans.to_json().contains("\"parent\":0"));
    }
}
