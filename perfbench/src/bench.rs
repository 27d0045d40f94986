//! One benchmark run: set up the store-served node, warm it, drive the
//! closed-loop clients for the run time, check every answer, and
//! collect the end-to-end or the per-layer metrics.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lvq_bench::Scale;
use lvq_chain::{Address, CacheStats, ChainCacheStats};
use lvq_codec::{decode_exact, Encodable};
use lvq_core::{Prover, ProverStats};
use lvq_crypto::Hash256;
use lvq_node::{
    envelope, FaultPlan, FaultyTransport, FullNode, LightNode, Message, Negotiated, NodeServer,
    PipelinedTcpTransport, QuerySpec, ServerConfig, ServerStats, TcpOptions, Transport,
};
use lvq_store::StoreConfig;

use crate::input::{self, Entry, Input, Request, WalletPool, WINDOW_LEN};
use crate::layers::{self, WritePath};
use crate::stats::{mean, median, quantile};
use crate::trace::{self_times, BenchNode, Node, TracedTransport, Tracer};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-address full-history queries of typical wallet addresses.
    Wallet,
    /// The Table III heavy probes Addr4, Addr5 and Addr6.
    Heavy,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "wallet" => Some(Workload::Wallet),
            "heavy" => Some(Workload::Heavy),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Wallet => "wallet",
            Workload::Heavy => "heavy",
        }
    }

    /// Requests in one round of the workload's mix; clients stop only
    /// at the end of a round, so every run has the same mix.
    fn round(self) -> usize {
        match self {
            Workload::Wallet => WINDOW_LEN,
            Workload::Heavy => 3,
        }
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the request sequences.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Collect the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Chain scale.
    pub scale: Scale,
    /// Directory for the chain file, stores, and trace output.
    pub work: PathBuf,
    /// Fault injection on every client's query transport (the
    /// self-test's tampering check); `None` for real runs.
    pub faults: Option<FaultPlan>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every answer verified and matched the ground truth, and the
    /// Table III response sizes equal the pinned values.
    pub correct: bool,
    /// Queries attempted in the timed phase.
    pub attempted: u64,
    /// Queries that failed in the timed phase.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Descriptions of the first failures and gate violations.
    pub failures: Vec<String>,
    /// The traced Addr6 breakdown (traced `heavy` runs only).
    pub addr6: Vec<(&'static str, f64)>,
}

/// Table III response payload bytes (v1 payload: the proof plus the
/// 2-byte message header; the v2 envelope excluded) at
/// [`input::CHAIN_SEED`], Addr1 .. Addr6.
pub fn pinned_bytes(scale: Scale) -> [u64; 6] {
    match scale {
        Scale::Paper => [
            691_867, 1_023_393, 2_110_830, 9_631_693, 36_418_804, 45_472_220,
        ],
        Scale::Small => [2_005, 18_420, 18_617, 32_802, 159_448, 190_531],
    }
}

/// How many times set-up is repeated; the median is reported.
const SETUP_REPS: usize = 3;
/// Requests per client sequence; a run that completes more cycles it.
const SEQUENCE_LEN: usize = 1024;
/// Wallet requests per client after the gate, before timing.
const WARMUP_LEN: usize = 8;
/// Blocks appended one by one, and then caught up by an ingester, in
/// the write-path replay.
const WRITE_REPLAY_BLOCKS: u64 = 128;
/// Wallet requests replayed through prover, codec and verifier.
const REPLAY_LEN: usize = 24;

/// A light client: a header-only node plus its protocol-v2 transport.
struct Client {
    light: LightNode,
    transport: TracedTransport,
    addr: SocketAddr,
    tracer: Option<Arc<Tracer>>,
    faults: Option<(FaultPlan, u64)>,
    reconnects: u64,
}

impl Client {
    /// Replaces the transport, with the client's faults if it has any;
    /// after a failed exchange the old connection may hold a half-read
    /// reply.
    fn reconnect(&mut self) -> Result<(), String> {
        self.reconnects += 1;
        let faults = self
            .faults
            .map(|(plan, seed)| (plan, seed.wrapping_add(self.reconnects)));
        self.transport = connect(self.addr, self.tracer.clone(), faults)?;
        Ok(())
    }
}

/// One completed query.
struct Sample {
    latency_ms: f64,
    resp_bytes: u64,
    traced: Option<u64>,
}

/// What one client's timed loop produced.
#[derive(Default)]
struct Outcome {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Loop time in seconds.
    seconds: f64,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Set-up timings of one repetition, in seconds.
struct SetupTimes {
    total: f64,
    bulk_load: f64,
    open: f64,
}

/// Turns an error into a message naming what failed.
fn ctx<E: std::fmt::Display>(context: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{context}: {e}")
}

/// Dials `addr` and negotiates protocol v2 with a window of one.
fn connect(
    addr: SocketAddr,
    tracer: Option<Arc<Tracer>>,
    faults: Option<(FaultPlan, u64)>,
) -> Result<TracedTransport, String> {
    let options = TcpOptions::new()
        .with_connect_timeout(Some(Duration::from_secs(10)))
        .with_read_timeout(Some(Duration::from_secs(60)))
        .with_write_timeout(Some(Duration::from_secs(60)));
    let v2 = match PipelinedTcpTransport::negotiate(addr, options, 1).map_err(ctx("connect"))? {
        Negotiated::V2(t) => t,
        Negotiated::V1(_) => return Err("the server downgraded the client to protocol v1".into()),
    };
    let inner: Box<dyn Transport + Send> = match faults {
        Some((plan, seed)) => Box::new(FaultyTransport::new(v2, plan, seed)),
        None => Box::new(v2),
    };
    Ok(TracedTransport::new(inner, tracer))
}

/// Bulk-loads the input chain into a fresh store at `dir`, opens it,
/// serves it, and syncs `clients` light clients.
fn set_up(
    input: &Input,
    cfg: &Config,
    dir: &Path,
    clients: usize,
    tracer: &Option<Arc<Tracer>>,
) -> Result<(SetupTimes, NodeServer<BenchNode>, Vec<Client>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    drop(
        lvq_store::ingest_chain(&input.chain, dir, StoreConfig::default())
            .map_err(ctx("bulk load"))?,
    );
    let t1 = Instant::now();
    let (chain, report) =
        lvq_store::open_chain(dir, StoreConfig::default()).map_err(ctx("open_chain"))?;
    if !report.is_clean() {
        return Err(format!(
            "a freshly loaded store did not open clean: {report:?}"
        ));
    }
    let t2 = Instant::now();
    let node = BenchNode {
        node: Arc::new(FullNode::new(chain).map_err(ctx("node"))?),
        tracer: tracer.clone(),
    };
    let config = node.node.config();
    let server = NodeServer::bind(Arc::new(node), "127.0.0.1:0", ServerConfig::default())
        .map_err(ctx("bind"))?;
    let addr = server.local_addr();
    let mut out = Vec::with_capacity(clients);
    for c in 0..clients {
        let mut transport = connect(addr, tracer.clone(), None)?;
        let light = match tracer {
            Some(t) => {
                let req = t.begin("sync");
                transport.req = Some((req, "node.sync"));
                let light = t.span(req, "node.sync", None, || {
                    LightNode::sync_from(&mut transport, config)
                });
                transport.req = None;
                light
            }
            None => LightNode::sync_from(&mut transport, config),
        }
        .map_err(ctx("header sync"))?;
        let mut client = Client {
            light,
            transport,
            addr,
            tracer: tracer.clone(),
            faults: cfg.faults.map(|plan| (plan, cfg.seed ^ c as u64)),
            reconnects: 0,
        };
        if client.faults.is_some() {
            // Faults start after the header sync, on the query path.
            client.reconnect()?;
        }
        out.push(client);
    }
    let t3 = Instant::now();
    let times = SetupTimes {
        total: (t3 - t0).as_secs_f64(),
        bulk_load: (t1 - t0).as_secs_f64(),
        open: (t2 - t1).as_secs_f64(),
    };
    Ok((times, server, out))
}

/// Runs one verified full-history query and checks it against the
/// ground truth.
fn query(
    client: &mut Client,
    request: &Request,
    truth: &HashMap<Address, Vec<Entry>>,
    tracer: Option<&Tracer>,
) -> Result<Sample, String> {
    let spec = QuerySpec::address(request.address.clone());
    let traced = tracer.map(|t| (t, t.begin(&request.label)));
    client.transport.req = traced.map(|(_, req)| (req, "query"));
    let span_start = traced.map_or(0, |(t, _)| t.now());
    let start = Instant::now();
    let run = client.light.run(&spec, &mut client.transport);
    let latency = start.elapsed();
    if let Some((t, req)) = traced {
        t.record(req, "query", None, span_start, t.now());
    }
    client.transport.req = None;
    let run = run.map_err(|e| format!("{} {}: {e}", request.label, request.address))?;
    let got: Vec<Entry> = run.histories[0]
        .transactions
        .iter()
        .map(|(h, tx)| (*h, tx.txid()))
        .collect();
    if truth.get(&request.address) != Some(&got) {
        return Err(format!(
            "{} {}: verified history differs from ground truth",
            request.label, request.address
        ));
    }
    Ok(Sample {
        latency_ms: latency.as_secs_f64() * 1e3,
        resp_bytes: run
            .traffic
            .response_bytes
            .saturating_sub(envelope::V2_HEAD as u64 - 1),
        traced: traced.map(|(_, req)| req),
    })
}

/// The closed loop of one client over `sequence` until `deadline`,
/// checked only at the start of each `round` of requests. With a
/// tracer, every request is sent twice, once traced and once untraced
/// in alternating order, so the two halves query the same addresses and
/// their latency difference is the tracing cost.
fn client_loop(
    client: &mut Client,
    sequence: &[Request],
    truth: &HashMap<Address, Vec<Entry>>,
    tracer: Option<&Tracer>,
    round: usize,
    deadline: Instant,
) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut i = 0usize;
    'run: while !i.is_multiple_of(round) || Instant::now() < deadline {
        let request = &sequence[i % sequence.len()];
        let passes = match tracer {
            None => vec![None],
            Some(t) if i.is_multiple_of(2) => vec![Some(t), None],
            Some(t) => vec![None, Some(t)],
        };
        i += 1;
        for traced in passes {
            out.attempted += 1;
            match query(client, request, truth, traced) {
                Ok(sample) => out.samples.push(sample),
                Err(e) => {
                    out.fail(e);
                    if let Err(e) = client.reconnect() {
                        out.fail(e);
                        break 'run;
                    }
                }
            }
        }
    }
    out.seconds = start.elapsed().as_secs_f64();
    out
}

/// Every client runs its sequence in its own thread.
fn closed_loop(
    sessions: &mut [Client],
    sequences: &[Vec<Request>],
    truth: &HashMap<Address, Vec<Entry>>,
    tracer: Option<&Tracer>,
    round: usize,
    deadline: Instant,
) -> Vec<Outcome> {
    std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(sequences)
            .map(|(client, sequence)| {
                s.spawn(move || client_loop(client, sequence, truth, tracer, round, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The correctness gate: the Table III probes verify, match the ground
/// truth, and carry exactly the pinned number of bytes. Violations are
/// pushed onto `failures`.
fn table3_gate(
    client: &mut Client,
    table3: &[Request],
    truth: &HashMap<Address, Vec<Entry>>,
    pinned: [u64; 6],
    failures: &mut Vec<String>,
) -> Result<(), String> {
    for (request, want) in table3.iter().zip(pinned) {
        match query(client, request, truth, None) {
            Ok(sample) if sample.resp_bytes == want => {}
            Ok(sample) => failures.push(format!(
                "Table III {}: {} response bytes, pinned {want}",
                request.label, sample.resp_bytes
            )),
            Err(e) => {
                failures.push(format!("Table III {e}"));
                client.reconnect()?;
            }
        }
    }
    Ok(())
}

/// A resident-set figure of this process in MB: `"VmHWM"` (peak) or
/// `"VmRSS"` (now).
fn rss_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Hands the heap pages the dropped input and the earlier set-ups freed
/// back to the kernel, then restarts the peak-resident-set counter, so
/// the reported peak covers serving rather than loading the input.
/// Without the trim, glibc would keep most of those pages resident and
/// the server's allocations would reuse them unseen. Returns the
/// resident set in MB right after the reset.
fn reset_peak_rss() -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` only returns free heap memory to the
        // kernel; it touches no memory the program still uses.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    rss_mb("VmRSS")
}

fn hit_rate((hits, misses): (u64, u64)) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// One request replayed outside the server through each crate's
/// public functions.
struct Replay {
    label: String,
    prove_ms: f64,
    encode_ms: f64,
    decode_ms: f64,
    verify_ms: f64,
    block_misses: u64,
    stats: ProverStats,
}

fn replay(
    node: &Node,
    light: &LightNode,
    request: &Request,
    truth: &HashMap<Address, Vec<Entry>>,
    tracer: &Tracer,
) -> Result<Replay, String> {
    let req = tracer.begin(&format!("replay:{}", request.label));
    let timed = |name, f: &mut dyn FnMut()| {
        let start = tracer.now();
        f();
        let end = tracer.now();
        tracer.record(req, name, None, start, end);
        (end - start) as f64 / 1e6
    };
    let misses = || node.engine_stats().cache.blocks.misses;
    let before = misses();
    let mut proved = None;
    let prove_ms = timed("core.prove", &mut || {
        proved = Some(Prover::from_chain(node.chain()).and_then(|p| p.respond(&request.address)));
    });
    let block_misses = misses() - before;
    let (response, stats) = proved
        .expect("prover ran")
        .map_err(|e| format!("replay prove {}: {e}", request.label))?;
    let message = Message::QueryResponse(Box::new(response));
    let mut bytes = Vec::new();
    let encode_ms = timed("codec.encode", &mut || bytes = message.encode());
    let mut decoded = None;
    let decode_ms = timed("codec.decode", &mut || {
        decoded = Some(decode_exact::<Message>(&bytes))
    });
    let Some(Ok(Message::QueryResponse(response))) = decoded else {
        return Err(format!(
            "replay decode {}: not a query response",
            request.label
        ));
    };
    let mut verified = None;
    let verify_ms = timed("core.verify", &mut || {
        verified = Some(light.client().verify(&request.address, &response));
    });
    let history = verified
        .expect("verifier ran")
        .map_err(|e| format!("replay verify {}: {e}", request.label))?;
    let got: Vec<Entry> = history
        .transactions
        .iter()
        .map(|(h, tx)| (*h, tx.txid()))
        .collect();
    if truth.get(&request.address) != Some(&got) {
        return Err(format!(
            "replay {}: verified history differs from ground truth",
            request.label
        ));
    }
    Ok(Replay {
        label: request.label.clone(),
        prove_ms,
        encode_ms,
        decode_ms,
        verify_ms,
        block_misses,
        stats,
    })
}

/// Opens the store at `dir`, checks it holds the generated chain, and
/// returns how long opening took in seconds.
fn reopen(dir: &Path, total: u64, tip_hash: Hash256) -> Result<f64, String> {
    let start = Instant::now();
    let (chain, recovery) =
        lvq_store::open_chain(dir, StoreConfig::default()).map_err(ctx("reopen"))?;
    let took = start.elapsed().as_secs_f64();
    if !recovery.is_clean() || chain.tip_height() != total || chain.tip_hash() != tip_hash {
        return Err("the reopened store is not the generated chain".into());
    }
    Ok(took)
}

/// Everything a run measured, for turning into metrics.
struct Measured {
    setups: Vec<SetupTimes>,
    outcomes: Vec<Outcome>,
    engine_before: ChainCacheStats,
    engine_after: ChainCacheStats,
    server_before: ServerStats,
    server_after: ServerStats,
    peak_rss_mb: f64,
    bytes_per_block: f64,
}

impl Measured {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.outcomes.iter().flat_map(|o| &o.samples)
    }

    fn latencies(&self, traced: Option<bool>) -> Vec<f64> {
        self.samples()
            .filter(|s| traced.is_none_or(|t| s.traced.is_some() == t))
            .map(|s| s.latency_ms)
            .collect()
    }

    fn setup(&self, f: fn(&SetupTimes) -> f64) -> f64 {
        median(&self.setups.iter().map(f).collect::<Vec<_>>())
    }

    /// Hits and misses of one chain cache over the timed phase.
    fn cache(&self, f: fn(&ChainCacheStats) -> CacheStats) -> (u64, u64) {
        let (after, before) = (f(&self.engine_after), f(&self.engine_before));
        (after.hits - before.hits, after.misses - before.misses)
    }

    fn server(&self, f: fn(&ServerStats) -> u64) -> f64 {
        (f(&self.server_after) - f(&self.server_before)) as f64
    }

    /// The end-to-end metrics.
    fn end_to_end(&self) -> Vec<Metric> {
        let latencies = self.latencies(None);
        let bytes: Vec<f64> = self.samples().map(|s| s.resp_bytes as f64 / 1e6).collect();
        // Each client's own completion rate, summed: a client still
        // finishing a long query does not count as idle time of others.
        let qps: f64 = self
            .outcomes
            .iter()
            .map(|o| o.samples.len() as f64 / o.seconds)
            .sum();
        vec![
            metric("setup_s", "s", self.setup(|s| s.total)),
            metric("qps", "1/s", qps),
            metric("latency_p50_ms", "ms", quantile(&latencies, 0.5)),
            metric("latency_p90_ms", "ms", quantile(&latencies, 0.9)),
            metric("resp_mb_per_query", "MB", mean(&bytes)),
            metric("peak_rss_mb", "MB", self.peak_rss_mb),
        ]
    }
}

/// Means over traced queries of the blocking-path parts, in ms.
struct Blocking {
    queries: usize,
    exchange: f64,
    handle: f64,
    wire: f64,
    client: f64,
}

/// The blocking-path decomposition of the traced queries whose label
/// `keep` accepts: the server's `node.handle`, the wire (the exchange's
/// self time: framing, event loop, queue wait and loopback) and the
/// client (the query's self time: decode and verify). Queries whose
/// server-side span is ambiguous are left out.
fn blocking(tracer: &Tracer, traced: &[u64], keep: impl Fn(&str) -> bool) -> Blocking {
    let spans = tracer.spans();
    let own = self_times(&spans);
    let duration = |req: u64, name: &str| {
        spans
            .iter()
            .find(|s| s.req == req && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
    };
    let mut rows = Vec::new();
    for &req in traced
        .iter()
        .filter(|&&r| keep(&tracer.label(r)) && !tracer.is_ambiguous(r))
    {
        if let (Some(exchange), Some(handle)) =
            (duration(req, "node.exchange"), duration(req, "node.handle"))
        {
            rows.push([
                exchange,
                handle,
                own[&(req, "node.exchange")],
                own[&(req, "query")],
            ]);
        }
    }
    let col = |i: usize| mean(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    Blocking {
        queries: rows.len(),
        exchange: col(0),
        handle: col(1),
        wire: col(2),
        client: col(3),
    }
}

/// The per-layer metrics of a traced run, and the Addr6 breakdown when
/// the run queried Addr6.
fn per_layer(
    m: &Measured,
    tracer: &Tracer,
    replays: &[Replay],
    write: WritePath,
    reopen_s: f64,
) -> (Vec<Metric>, Vec<(&'static str, f64)>) {
    let traced: Vec<u64> = m.samples().filter_map(|s| s.traced).collect();
    let all = blocking(tracer, &traced, |_| true);
    eprintln!(
        "perfbench: blocking path over {} of {} traced queries; the rest shared their bytes with another exchange in flight",
        all.queries,
        traced.len()
    );
    let sync_ms: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "node.sync")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    let replayed = |label: Option<&str>, f: &dyn Fn(&Replay) -> f64| {
        let values: Vec<f64> = replays
            .iter()
            .filter(|r| label.is_none_or(|l| r.label == l))
            .map(f)
            .collect();
        mean(&values)
    };
    let untraced_p50 = quantile(&m.latencies(Some(false)), 0.5);
    let traced_p50 = quantile(&m.latencies(Some(true)), 0.5);
    let queries = m.samples().count().max(1) as f64;
    let metrics = vec![
        metric("node.exchange_ms", "ms", all.exchange),
        metric("node.handle_ms", "ms", all.handle),
        metric("node.wire_ms", "ms", all.wire),
        metric("node.client_ms", "ms", all.client),
        metric(
            "node.server_p50_ms",
            "ms",
            m.server_after.latency.p50_us as f64 / 1e3,
        ),
        metric(
            "node.queue_highwater",
            "count",
            m.server_after.queue_highwater as f64,
        ),
        metric("node.sync_ms", "ms", mean(&sync_ms)),
        metric("node.busy", "count", m.server(|s| s.busy)),
        metric("node.errors", "count", m.server(|s| s.errors)),
        metric(
            "node.deadline_misses",
            "count",
            m.server(|s| s.deadline_misses),
        ),
        metric("core.prove_ms", "ms", replayed(None, &|r| r.prove_ms)),
        metric("core.verify_ms", "ms", replayed(None, &|r| r.verify_ms)),
        metric(
            "core.bmt_endpoints",
            "count",
            replayed(None, &|r| r.stats.bmt.endpoint_count() as f64),
        ),
        metric(
            "core.bmt_filter_mb",
            "MB",
            replayed(None, &|r| r.stats.bmt.filter_bytes as f64 / 1e6),
        ),
        metric(
            "core.blocks_resolved",
            "count",
            replayed(None, &|r| r.stats.blocks_resolved as f64),
        ),
        metric(
            "core.fpm_blocks",
            "count",
            replayed(None, &|r| r.stats.fpm_blocks as f64),
        ),
        metric("codec.encode_ms", "ms", replayed(None, &|r| r.encode_ms)),
        metric("codec.decode_ms", "ms", replayed(None, &|r| r.decode_ms)),
        metric(
            "chain.filter_hit_rate",
            "ratio",
            hit_rate(m.cache(|c| c.filters)),
        ),
        metric("chain.smt_hit_rate", "ratio", hit_rate(m.cache(|c| c.smts))),
        metric("chain.extend_ms_per_block", "ms", write.extend_ms),
        metric(
            "store.block_hit_rate",
            "ratio",
            hit_rate(m.cache(|c| c.blocks)),
        ),
        metric(
            "store.block_misses_per_query",
            "count",
            m.cache(|c| c.blocks).1 as f64 / queries,
        ),
        metric("store.bulk_load_s", "s", m.setup(|s| s.bulk_load)),
        metric("store.open_s", "s", m.setup(|s| s.open)),
        metric("store.reopen_s", "s", reopen_s),
        metric("store.append_ms_per_block", "ms", write.append_ms),
        metric("store.bytes_per_block", "B", m.bytes_per_block),
        metric("ingest.blocks_per_s", "1/s", write.ingest_blocks_per_s),
        metric("ingest.batches", "count", write.ingest.batches as f64),
        metric("ingest.retries", "count", write.ingest.retries as f64),
        metric(
            "crypto.sha256_mb_s_30k",
            "MB/s",
            layers::sha256_mb_s(30_000),
        ),
        metric("crypto.sha256_mb_s_64b", "MB/s", layers::sha256_mb_s(64)),
        metric("bloom.union_us_30k", "us", layers::bloom_union_us()),
        metric(
            "merkle.bmt_verify_absent_us",
            "us",
            layers::bmt_verify_absent_us(),
        ),
        metric(
            "trace.overhead_pct",
            "%",
            (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        ),
    ];
    let addr6 = blocking(tracer, &traced, |l| l == "Addr6");
    let breakdown = if addr6.queries == 0 {
        Vec::new()
    } else {
        let six = Some("Addr6");
        vec![
            ("queries", addr6.queries as f64),
            ("latency_ms", addr6.exchange + addr6.client),
            ("handle_ms", addr6.handle),
            ("wire_ms", addr6.wire),
            ("client_ms", addr6.client),
            ("prove_ms", replayed(six, &|r| r.prove_ms)),
            ("encode_ms", replayed(six, &|r| r.encode_ms)),
            ("decode_ms", replayed(six, &|r| r.decode_ms)),
            ("verify_ms", replayed(six, &|r| r.verify_ms)),
            ("block_misses", replayed(six, &|r| r.block_misses as f64)),
        ]
    };
    (metrics, breakdown)
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Prints how long the phase since the last mark took, to standard
/// error, and starts the next one.
fn mark(last: &mut Instant, phase: &str) {
    eprintln!("perfbench: {phase} {:.2} s", last.elapsed().as_secs_f64());
    *last = Instant::now();
}

/// Runs the benchmark once.
///
/// # Errors
///
/// A description of whatever stopped the run before it could measure
/// (input, store, server or client set-up). Failed queries and gate
/// violations do not stop the run; they are reported in [`Report`].
pub fn run(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work).map_err(ctx("work dir"))?;
    let mut phase = Instant::now();
    let input = Input::load(cfg.scale, &cfg.work)?;
    mark(&mut phase, "input");
    let total = input.chain.tip_height();
    let tip_hash = input.chain.tip_hash();
    let clients = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);
    let (sequences, warmups): (Vec<_>, Vec<_>) = match cfg.workload {
        Workload::Heavy => (0..clients)
            .map(|c| {
                (
                    input::heavy_sequence(&input, cfg.seed, c, SEQUENCE_LEN / 3),
                    Vec::new(),
                )
            })
            .unzip(),
        Workload::Wallet => {
            let pool = WalletPool::new(&input);
            (0..clients)
                .map(|c| {
                    (
                        pool.sequence(cfg.seed, c, SEQUENCE_LEN),
                        pool.sequence(!cfg.seed, c, WARMUP_LEN),
                    )
                })
                .unzip()
        }
    };
    let table3: Vec<Request> = input
        .probes
        .iter()
        .map(|(label, address)| Request {
            label: label.clone(),
            address: address.clone(),
        })
        .collect();
    let truth = input::ground_truth(
        &input.chain,
        sequences.iter().chain(&warmups).flatten().chain(&table3),
    );
    mark(&mut phase, "sequences and ground truth");

    let tracer = cfg.trace.then(Tracer::new);
    let dir = cfg.work.join(format!("store-{}", cfg.workload.name()));
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 1..=SETUP_REPS {
        let (times, server, sessions) = set_up(
            &input,
            cfg,
            &dir,
            clients,
            if rep == SETUP_REPS { &tracer } else { &None },
        )?;
        setups.push(times);
        if rep == SETUP_REPS {
            kept = Some((server, sessions));
        } else {
            drop(sessions);
            server.shutdown();
        }
    }
    let (server, mut sessions) = kept.expect("at least one set-up");
    mark(&mut phase, "set-up");
    let write = match cfg.trace {
        true => Some(layers::write_path(
            &input.chain,
            &cfg.work.join("write-replay"),
            WRITE_REPLAY_BLOCKS,
        )?),
        false => None,
    };
    drop(input);
    let base_rss = reset_peak_rss();
    eprintln!("perfbench: resident set after the input was dropped {base_rss:.0} MB");

    // The gate doubles as the warm-up: a cold span-filter query costs
    // hundreds of times a warm one.
    let mut report = Report::default();
    table3_gate(
        &mut sessions[0],
        &table3,
        &truth,
        pinned_bytes(cfg.scale),
        &mut report.failures,
    )?;
    for (client, warm) in sessions.iter_mut().zip(&warmups) {
        for request in warm {
            if let Err(e) = query(client, request, &truth, None) {
                report.failures.push(format!("warm-up: {e}"));
            }
        }
    }
    mark(&mut phase, "gate and warm-up");

    let node = Arc::clone(&server.full().node);
    let engine_before = node.engine_stats().cache;
    let server_before = server.stats();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let round = cfg.workload.round();
    let outcomes = closed_loop(
        &mut sessions,
        &sequences,
        &truth,
        tracer.as_deref(),
        round,
        deadline,
    );
    let engine_after = node.engine_stats().cache;
    mark(&mut phase, "timed phase");

    let mut replays = Vec::new();
    if let Some(tracer) = tracer.as_deref() {
        let replayed = match cfg.workload {
            Workload::Heavy => &table3[3..],
            Workload::Wallet => &sequences[0][..REPLAY_LEN],
        };
        for request in replayed {
            replays.push(replay(&node, &sessions[0].light, request, &truth, tracer)?);
        }
    }
    drop(sessions);
    let server_after = server.shutdown();
    let bytes_per_block = node.chain().source().store().data_bytes() as f64 / total as f64;
    drop(node);
    let reopen_s = match cfg.trace {
        true => reopen(&dir, total, tip_hash)?,
        false => 0.0,
    };
    let _ = std::fs::remove_dir_all(&dir);
    mark(&mut phase, "replays and reopen");

    let measured = Measured {
        setups,
        outcomes,
        engine_before,
        engine_after,
        server_before,
        server_after,
        peak_rss_mb: rss_mb("VmHWM"),
        bytes_per_block,
    };
    for o in &measured.outcomes {
        report.attempted += o.attempted;
        report.failed += o.failed;
        report.failures.extend(o.failures.iter().cloned());
    }
    report.attempted = report.attempted.max(1);
    report.correct = report.failed == 0 && report.failures.is_empty();
    match (tracer, write) {
        (Some(tracer), Some(write)) => {
            (report.metrics, report.addr6) =
                per_layer(&measured, &tracer, &replays, write, reopen_s);
            let file = cfg
                .work
                .join(format!("trace-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
            tracer.write_jsonl(&file).map_err(ctx("trace file"))?;
        }
        _ => report.metrics = measured.end_to_end(),
    }
    Ok(report)
}
