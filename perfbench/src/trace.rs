//! Spans recorded from the benchmark's own code around calls into each
//! layer, kept in memory and written out when the run ends.
//!
//! Every request gets one id. Its spans carry a name, the name of the
//! span that caused it, and start and end times; a span's *self time*
//! is its duration minus the part of it that its children cover. The
//! server-side span is tied to the client's request by the request
//! bytes: in a traced run every exchange, traced or not, announces its
//! bytes before sending and withdraws them after the reply, and the
//! serving wrapper claims the oldest id announced with the bytes that
//! arrive. When two in-flight exchanges announced the same bytes (two
//! clients asking for the same address), the server cannot tell them
//! apart; the traced requests among them are marked ambiguous and left
//! out of the blocking-path figures.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lvq_crypto::Hash256;
use lvq_node::{envelope, FullNode, Handled, NodeError, ServeNode, Traffic, Transport};
use lvq_store::DiskBlockSource;

/// The served node: a full node over a store-backed chain, as
/// `lvq serve --store` runs it.
pub type Node = FullNode<DiskBlockSource>;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// The request the span belongs to.
    pub req: u64,
    /// What ran, e.g. `"node.exchange"`.
    pub name: &'static str,
    /// Name of the span in the same request that caused this one.
    pub parent: Option<&'static str>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Exchanges announced with the same bytes, oldest first: an id and
/// whether the exchange is traced.
type Waiting = VecDeque<(u64, bool)>;

/// The in-memory span sink shared by clients and the serving wrapper.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_req: AtomicU64,
    spans: Mutex<Vec<Span>>,
    labels: Mutex<HashMap<u64, String>>,
    /// Request bytes announced by a client and not yet claimed by the
    /// server, with the exchanges waiting on them.
    pending: Mutex<HashMap<Vec<u8>, Waiting>>,
    /// Traced requests whose server-side span may belong to another
    /// exchange with the same bytes.
    ambiguous: Mutex<HashSet<u64>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_req: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            labels: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            ambiguous: Mutex::new(HashSet::new()),
        })
    }

    /// Opens a new request labelled `label` and returns its id.
    pub fn begin(&self, label: &str) -> u64 {
        let req = self.next_req.fetch_add(1, Ordering::Relaxed);
        self.labels
            .lock()
            .expect("a client thread panicked while tracing")
            .insert(req, label.to_string());
        req
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one span.
    pub fn record(
        &self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans
            .lock()
            .expect("a client thread panicked while tracing")
            .push(Span {
                req,
                name,
                parent,
                start_ns,
                end_ns,
            });
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = f();
        self.record(req, name, parent, start, self.now());
        out
    }

    /// A fresh id for an untraced exchange, so that it can be announced
    /// and withdrawn like a traced one.
    fn untraced_id(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    fn announce(&self, req: u64, traced: bool, request: &[u8]) {
        let mut pending = self
            .pending
            .lock()
            .expect("a client thread panicked while tracing");
        pending
            .entry(request.to_vec())
            .or_default()
            .push_back((req, traced));
    }

    fn withdraw(&self, req: u64, request: &[u8]) {
        let mut pending = self
            .pending
            .lock()
            .expect("a client thread panicked while tracing");
        if let Some(ids) = pending.get_mut(request) {
            ids.retain(|&(id, _)| id != req);
            if ids.is_empty() {
                pending.remove(request);
            }
        }
    }

    /// The traced request whose bytes just arrived at the server, if the
    /// oldest exchange announced with them is traced.
    fn claim(&self, request: &[u8]) -> Option<u64> {
        let mut pending = self
            .pending
            .lock()
            .expect("a client thread panicked while tracing");
        let ids = pending.get_mut(request)?;
        if ids.len() > 1 {
            self.ambiguous
                .lock()
                .expect("a client thread panicked while tracing")
                .extend(ids.iter().filter(|(_, traced)| *traced).map(|(id, _)| *id));
        }
        let (req, traced) = ids.pop_front()?;
        if ids.is_empty() {
            pending.remove(request);
        }
        traced.then_some(req)
    }

    /// Whether `req`'s server-side span may belong to another exchange.
    pub fn is_ambiguous(&self, req: u64) -> bool {
        self.ambiguous
            .lock()
            .expect("a client thread panicked while tracing")
            .contains(&req)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a client thread panicked while tracing")
            .clone()
    }

    /// The label `req` was opened with.
    pub fn label(&self, req: u64) -> String {
        self.labels
            .lock()
            .expect("a client thread panicked while tracing")
            .get(&req)
            .cloned()
            .unwrap_or_default()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let labels = self
            .labels
            .lock()
            .expect("a client thread panicked while tracing");
        let mut out = String::new();
        for s in self
            .spans
            .lock()
            .expect("a client thread panicked while tracing")
            .iter()
        {
            let _ = writeln!(
                out,
                "{{\"req\":{},\"label\":\"{}\",\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.req,
                labels.get(&s.req).map_or("", String::as_str),
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time in milliseconds of every span, keyed by request and name.
pub fn self_times(spans: &[Span]) -> HashMap<(u64, &'static str), f64> {
    let mut by_req: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        by_req.entry(s.req).or_default().push(s);
    }
    let mut out = HashMap::new();
    for (req, group) in by_req {
        for s in &group {
            let covered: u64 = group
                .iter()
                .filter(|c| c.parent == Some(s.name))
                .map(|c| {
                    c.end_ns
                        .min(s.end_ns)
                        .saturating_sub(c.start_ns.max(s.start_ns))
                })
                .sum();
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry((req, s.name)).or_insert(0.0) += own as f64 / 1e6;
        }
    }
    out
}

/// The benchmark's client-side wrapper: one `node.exchange` span per
/// exchange of the request currently set in [`TracedTransport::req`].
/// With a tracer, untraced exchanges are announced too, so the server
/// side can tell when a traced request's bytes are ambiguous.
pub struct TracedTransport {
    inner: Box<dyn Transport + Send>,
    tracer: Option<Arc<Tracer>>,
    /// The traced request and the span that causes its exchanges;
    /// `None` sends untraced.
    pub req: Option<(u64, &'static str)>,
}

impl TracedTransport {
    /// Wraps `inner`; with no tracer every exchange passes straight
    /// through.
    pub fn new(inner: Box<dyn Transport + Send>, tracer: Option<Arc<Tracer>>) -> Self {
        TracedTransport {
            inner,
            tracer,
            req: None,
        }
    }
}

impl Transport for TracedTransport {
    fn exchange(&mut self, request: &[u8]) -> Result<(Vec<u8>, Traffic), NodeError> {
        let Some(tracer) = &self.tracer else {
            return self.inner.exchange(request);
        };
        let (id, traced) = match self.req {
            Some((req, _)) => (req, true),
            None => (tracer.untraced_id(), false),
        };
        tracer.announce(id, traced, request);
        let start = tracer.now();
        let out = self.inner.exchange(request);
        if let Some((req, parent)) = self.req {
            tracer.record(req, "node.exchange", Some(parent), start, tracer.now());
        }
        tracer.withdraw(id, request);
        out
    }

    fn cumulative_traffic(&self) -> Traffic {
        self.inner.cumulative_traffic()
    }

    fn exchanges(&self) -> u64 {
        self.inner.exchanges()
    }
}

/// The benchmark's serving wrapper: one `node.handle` span around the
/// served node's `handle_classified` for every traced request.
pub struct BenchNode {
    /// The served node.
    pub node: Arc<Node>,
    /// `None` serves untraced.
    pub tracer: Option<Arc<Tracer>>,
}

impl ServeNode for BenchNode {
    fn handle_classified(&self, request: &[u8]) -> Handled {
        let Some(tracer) = &self.tracer else {
            return self.node.handle_classified(request);
        };
        let req = match envelope::unwrap_v2(request) {
            Some((_, v1)) => tracer.claim(&v1),
            None => tracer.claim(request),
        };
        let start = tracer.now();
        let handled = self.node.handle_classified(request);
        if let Some(req) = req {
            tracer.record(
                req,
                "node.handle",
                Some("node.exchange"),
                start,
                tracer.now(),
            );
        }
        handled
    }

    fn tip_hash(&self) -> Hash256 {
        self.node.chain().tip_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                req: 1,
                name: "query",
                parent: None,
                start_ns: 0,
                end_ns: 10_000_000,
            },
            Span {
                req: 1,
                name: "node.exchange",
                parent: Some("query"),
                start_ns: 2_000_000,
                end_ns: 9_000_000,
            },
            Span {
                req: 1,
                name: "node.handle",
                parent: Some("node.exchange"),
                start_ns: 3_000_000,
                end_ns: 7_000_000,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t[&(1, "query")], 3.0);
        assert_eq!(t[&(1, "node.exchange")], 3.0);
        assert_eq!(t[&(1, "node.handle")], 4.0);
    }

    #[test]
    fn claim_matches_announced_bytes_and_flags_overlaps() {
        let t = Tracer::new();
        t.announce(5, true, b"q");
        assert_eq!(t.claim(b"q"), Some(5));
        assert!(!t.is_ambiguous(5));
        t.withdraw(5, b"q");
        // A traced and an untraced exchange with the same bytes in
        // flight at once: whichever the server claims, the traced
        // request is ambiguous.
        t.announce(7, false, b"q");
        t.announce(6, true, b"q");
        assert_eq!(t.claim(b"q"), None);
        assert!(t.is_ambiguous(6));
        t.withdraw(6, b"q");
        assert_eq!(t.claim(b"q"), None);
    }
}
