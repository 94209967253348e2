//! Spans recorded around calls into each crate's public functions, and
//! the layer ledger built from them.
//!
//! A span names the layer (the crate whose function was called), the
//! call, the request it served (a sweep run, a replay, or a program or
//! fuzz case of the layer probe), its parent span, and its start and
//! end in nanoseconds from the tracer's epoch. Spans stay in memory and
//! are written once, when the run ends.
//!
//! A layer's self time is its spans' durations minus the parts their
//! child spans cover. Some calls do the work of two layers in one
//! public function, such as a detector run that also simulates the
//! machine. For those, a *share* span times a separate call that does
//! only the inner layer's work (a `NullObserver` run of the same
//! machine, or an in-process decode of the capture a replay sends). The
//! ledger moves the share's duration from the outer span's layer to the
//! share's layer. Share spans are measurement, not part of the round,
//! so they are left out of the round's wall time.

use cord_json::{obj, Json, ToJson};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span whose time this one apportions to `layer`.
    pub share_of: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory. A span's id is its index.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Indexed by span id; `None` while the span is still open.
    spans: Vec<Option<Span>>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as one span, a child of the innermost open scope.
    /// Returns `f`'s result and the span's id.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.alloc_id();
        let start_ns = self.now_ns();
        let out = f();
        self.close(id, layer, name, request, start_ns, None);
        (out, id)
    }

    /// Times `f` as a share span of `of` (see the module docs).
    pub fn share<T>(
        &mut self,
        of: usize,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.alloc_id();
        let start_ns = self.now_ns();
        let out = f();
        self.close(id, layer, name, request, start_ns, Some(of));
        out
    }

    /// Runs `f` inside a scope span: spans `f` records become its
    /// children.
    pub fn scope<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, usize) {
        let id = self.alloc_id();
        let start_ns = self.now_ns();
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.close(id, layer, name, request, start_ns, None);
        (out, id)
    }

    fn alloc_id(&mut self) -> usize {
        self.spans.push(None);
        self.spans.len() - 1
    }

    fn close(
        &mut self,
        id: usize,
        layer: &'static str,
        name: &'static str,
        request: u64,
        start_ns: u64,
        share_of: Option<usize>,
    ) {
        let end_ns = self.now_ns();
        self.spans[id] = Some(Span {
            id,
            parent: self.open.last().copied(),
            request,
            layer,
            name,
            start_ns,
            end_ns,
            share_of,
        });
    }

    /// The closed spans, in id order.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().flatten()
    }

    fn get(&self, id: usize) -> Option<&Span> {
        self.spans.get(id).and_then(Option::as_ref)
    }

    /// The duration of span `id` in seconds (0 while it is open).
    pub fn seconds(&self, id: usize) -> f64 {
        self.get(id).map_or(0.0, |s| s.duration_ns() as f64 / 1e9)
    }

    /// Whether span `id` is a descendant of `root`.
    fn under(&self, root: usize, mut id: usize) -> bool {
        loop {
            match self.get(id).and_then(|s| s.parent) {
                Some(p) if p == root => return true,
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Whether `s` belongs to the round under `root`: a descendant of
    /// it, or a share of one.
    fn in_round(&self, root: usize, s: &Span) -> bool {
        s.id == root || self.under(root, s.share_of.unwrap_or(s.id))
    }

    /// Per-layer self time, in nanoseconds, of the spans under `root`
    /// (the root itself excluded), with share spans apportioned.
    pub fn layer_self_ns(&self, root: usize) -> BTreeMap<&'static str, i64> {
        let mut out: BTreeMap<&'static str, i64> = BTreeMap::new();
        for s in self
            .spans()
            .filter(|s| s.id != root && self.in_round(root, s))
        {
            let ns = s.duration_ns() as i64;
            *out.entry(s.layer).or_default() += ns;
            // A share moves its time out of the span it splits; any
            // other span's time is not its parent's self time.
            let from = s.share_of.or(s.parent.filter(|&p| p != root));
            if let Some(from) = from.and_then(|id| self.get(id)) {
                *out.entry(from.layer).or_default() -= ns;
            }
        }
        out
    }

    /// The round's spans, one compact row each, in the column order
    /// of [`SPAN_COLUMNS`].
    pub fn round_spans(&self, root: usize) -> Vec<Json> {
        self.spans()
            .filter(|s| self.in_round(root, s))
            .map(|s| {
                Json::Array(vec![
                    s.id.to_json(),
                    s.parent.to_json(),
                    s.request.to_json(),
                    s.layer.to_json(),
                    s.name.to_json(),
                    s.start_ns.to_json(),
                    s.end_ns.to_json(),
                    s.share_of.to_json(),
                ])
            })
            .collect()
    }

    /// Every span outside the round (the layer probe's calls), totalled
    /// by layer and call name.
    pub fn other_calls_json(&self, root: usize) -> Json {
        let mut calls: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
        for s in self.spans().filter(|s| !self.in_round(root, s)) {
            let c = calls.entry((s.layer, s.name)).or_default();
            c.0 += 1;
            c.1 += s.duration_ns();
        }
        Json::Array(
            calls
                .into_iter()
                .map(|((layer, name), (n, ns))| {
                    obj(vec![
                        ("layer", layer.to_json()),
                        ("name", name.to_json()),
                        ("calls", n.to_json()),
                        ("total_ms", (ns as f64 / 1e6).to_json()),
                    ])
                })
                .collect(),
        )
    }
}

/// The columns of each row [`Tracer::round_spans_json`] writes.
pub const SPAN_COLUMNS: [&str; 8] = [
    "id", "parent", "request", "layer", "name", "start_ns", "end_ns", "share_of",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-written spans, so self times are exact.
    fn tracer(spans: Vec<Span>) -> Tracer {
        let mut by_id = vec![None; spans.len()];
        for s in spans {
            let id = s.id;
            by_id[id] = Some(s);
        }
        Tracer {
            epoch: Instant::now(),
            spans: by_id,
            open: Vec::new(),
        }
    }

    fn span(id: usize, parent: Option<usize>, layer: &'static str, t: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            request: 0,
            layer,
            name: "call",
            start_ns: t.0,
            end_ns: t.1,
            share_of: None,
        }
    }

    #[test]
    fn self_time_excludes_children_and_applies_shares() {
        let mut spans = vec![
            span(1, Some(0), "workloads", (0, 10)),
            span(3, Some(2), "json", (60, 70)),
            span(2, Some(0), "detectors", (10, 100)),
            span(0, None, "bench", (0, 100)),
        ];
        // A NullObserver run of 50 ns measures the sim share of span 2.
        spans.push(Span {
            share_of: Some(2),
            ..span(4, None, "sim", (100, 150))
        });
        let self_ns = tracer(spans).layer_self_ns(0);
        assert_eq!(self_ns["workloads"], 10);
        assert_eq!(self_ns["json"], 10);
        assert_eq!(self_ns["detectors"], 90 - 10 - 50);
        assert_eq!(self_ns["sim"], 50);
        assert!(!self_ns.contains_key("bench"));
        assert_eq!(self_ns.values().sum::<i64>(), 100);
    }

    #[test]
    fn spans_nest_under_open_scopes() {
        let mut tr = Tracer::new();
        let ((), root) = tr.scope("bench", "round", 0, |tr| {
            let (x, id) = tr.span("sim", "run", 7, || 41 + 1);
            assert_eq!(x, 42);
            tr.share(id, "obs", "probe", 7, || ());
        });
        let spans: Vec<&Span> = tr.spans().collect();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].id, root);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].request, 7);
        assert_eq!(spans[2].share_of, Some(spans[1].id));
    }
}
