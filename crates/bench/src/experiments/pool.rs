//! Extra experiment: readiness serving under load (`repro pool`).
//!
//! The [`lvq_node::NodeServer`] runs one readiness event loop owning
//! every connection and a bounded pool of proof workers behind a
//! dispatch queue. This experiment measures four things:
//!
//! 1. **Pool sizing** — a sweep of the worker count against a fixed
//!    fan-out of [`CLIENTS`] concurrent light clients: aggregate
//!    verified queries per second (best of [`REPS`] repetitions) plus
//!    the server's own latency digest and queue pressure;
//! 2. **C10K** — the event loop holding the scale's target of
//!    concurrently *open* connections ([`Scale::Small`]: 512,
//!    [`Scale::Paper`]: 10,000+) while still serving verified sessions
//!    through the standing crowd, gated on `RLIMIT_NOFILE` (both
//!    socket ends live in this one process);
//! 3. **Open-loop load** — a seeded Poisson arrival process over one
//!    pipelined v2 connection at several fractions of the measured
//!    capacity; latency is measured from each request's *scheduled*
//!    arrival, so queueing delay (and the harness falling behind)
//!    shows up in the percentiles instead of being absorbed, the way
//!    closed-loop clients absorb it;
//! 4. **Head-of-line isolation** — a deliberately slow proof pinned on
//!    one connection must not inflate the latency of queries on other
//!    connections, because proofs run on the worker pool while the
//!    event loop keeps every other socket moving.
//!
//! Phases 1, 2 and 4 verify every response against headers and ground
//! truth; phase 3 only decodes (client-side verification on the
//! measuring thread would distort the latency it is measuring).

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lvq_chain::Address;
use lvq_codec::{decode_exact, Encodable};
use lvq_core::{Scheme, SchemeConfig};
use lvq_node::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use lvq_node::{
    envelope, FullNode, Handled, HelloInfo, LightNode, Message, NodeServer, QuerySpec, ServeNode,
    ServerConfig, ServerStats, TcpTransport,
};
use rand::{rngs::StdRng, RngCore, SeedableRng};

use crate::report::Table;
use crate::scale::Scale;
use crate::workloads::{build_workload, built_probes, WorkloadSpec};

/// Concurrent client threads at every pool width.
pub const CLIENTS: u32 = 16;

/// Pool widths swept, in order.
pub const WIDTHS: [usize; 4] = [1, 2, 4, 16];

/// Repetitions per width; the reported row is the fastest one.
const REPS: u32 = 3;

/// Rounds over the six probe addresses per client and repetition.
const ROUNDS: u32 = 2;

/// Offered load as fractions of the measured closed-loop capacity.
const LOAD_FRACTIONS: [f64; 3] = [0.25, 0.5, 0.8];

/// How long the deliberately slow proof stalls its worker — long
/// enough for several ordinary verified queries to complete while it
/// is in flight.
const SLOW_STALL: Duration = Duration::from_millis(800);

/// Fewest timed queries either isolation run may produce for its p95
/// to mean anything.
const MIN_FAST_SAMPLES: usize = 4;

/// The address whose queries the adversarially slow server stalls on.
const SLOW_MARKER: &str = "1DeliberatelySlow";

/// One row of the sweep: a pool width and what it measured.
#[derive(Debug, Clone)]
pub struct PoolPoint {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Aggregate verified queries per second (best of [`REPS`] reps).
    pub qps: f64,
    /// Wall time of the best repetition.
    pub time: Duration,
    /// The server's accounting for the best repetition.
    pub server: ServerStats,
}

/// What the C10K phase held open and served.
#[derive(Debug, Clone)]
pub struct OpenConnections {
    /// Connections the scale asked for.
    pub target: u64,
    /// Connections actually opened — less than `target` only when
    /// `RLIMIT_NOFILE` would not stretch to both socket ends.
    pub opened: u64,
    /// The soft `RLIMIT_NOFILE` after attempting to raise it.
    pub fd_limit: u64,
    /// Verified queries served while every connection was held open.
    pub served_during: u32,
    /// The server's accounting over the whole phase.
    pub server: ServerStats,
}

/// One open-loop operating point: offered arrival rate vs observed
/// latency percentiles (measured from scheduled arrival).
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Offered arrival rate (Poisson mean), requests per second.
    pub offered_rps: f64,
    /// Completed requests per second of wall time.
    pub achieved_rps: f64,
    /// Requests issued at this point.
    pub requests: u32,
    /// Client-observed latency percentiles from scheduled arrival.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Worst request.
    pub max: Duration,
}

/// The head-of-line-blocking check: the same timed query loop run
/// twice against the same server — once idle (control), once with a
/// deliberately slow proof pinned on another connection — so the
/// contended p95 has a baseline that already includes each probe's
/// own proof cost.
#[derive(Debug, Clone)]
pub struct Isolation {
    /// How long the adversarial server stalled the slow proof.
    pub stall: Duration,
    /// What the slow connection observed end to end.
    pub slow_observed: Duration,
    /// p95 of verified queries with nothing else in flight.
    pub fast_p95_control: Duration,
    /// p95 of the same queries while the slow proof was in flight.
    pub fast_p95: Duration,
    /// Timed queries in the control run.
    pub control_samples: u32,
    /// Timed queries completed during the stall window.
    pub contended_samples: u32,
}

/// The experiment data.
#[derive(Debug, Clone)]
pub struct Pool {
    /// Client threads at every width.
    pub clients: u32,
    /// One measurement per entry of [`WIDTHS`], in order.
    pub points: Vec<PoolPoint>,
    /// The C10K open-connection phase.
    pub c10k: OpenConnections,
    /// One entry per [`LOAD_FRACTIONS`] operating point, in order.
    pub open_loop: Vec<LoadPoint>,
    /// The head-of-line isolation phase.
    pub isolation: Isolation,
}

impl Pool {
    /// The measured point for a given pool width.
    ///
    /// # Panics
    ///
    /// Panics if `workers` was not part of the sweep.
    pub fn at(&self, workers: usize) -> &PoolPoint {
        self.points
            .iter()
            .find(|p| p.workers == workers)
            .expect("width was swept")
    }
}

/// One client session: connect, sync headers, then `rounds` rounds of
/// verified queries over all probe addresses, checked against ground
/// truth. Returns the number of queries issued.
fn client_session(
    addr: SocketAddr,
    config: SchemeConfig,
    addresses: &[Address],
    truth: &[usize],
    rounds: u32,
) -> u32 {
    let mut transport = TcpTransport::connect(addr).expect("server is listening");
    let mut light = LightNode::sync_from(&mut transport, config).expect("honest server");
    let mut queried = 0;
    for _ in 0..rounds {
        for (address, expected) in addresses.iter().zip(truth) {
            let history = light
                .run(&QuerySpec::address(address.clone()), &mut transport)
                .expect("honest response")
                .into_single();
            assert_eq!(
                history.transactions.len(),
                *expected,
                "verified history must match ground truth"
            );
            queried += 1;
        }
    }
    queried
}

/// One repetition at one pool width: bind a fresh server over the
/// shared full node, fan out [`CLIENTS`] sessions, shut down, return
/// (queries, wall time, stats).
fn repetition(
    full: &Arc<FullNode>,
    config: SchemeConfig,
    addresses: &[Address],
    truth: &[usize],
    workers: usize,
) -> (u32, Duration, ServerStats) {
    // Deep enough that every request waits for a worker instead of
    // being shed — the sweep measures throughput, not shedding.
    let server_config = ServerConfig::default()
        .with_workers(workers)
        .with_accept_queue(CLIENTS as usize * 2);
    let server =
        NodeServer::bind(Arc::clone(full), "127.0.0.1:0", server_config).expect("loopback bind");
    let addr = server.local_addr();

    let started = Instant::now();
    let queried: u32 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client_session(addr, config, addresses, truth, ROUNDS)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    });
    let time = started.elapsed();
    (queried, time, server.shutdown())
}

/// Polls `cond` until it holds or `limit` elapses.
fn wait_for(what: &str, limit: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Phase 2: hold the scale's target of open connections on one event
/// loop, then serve verified sessions through the standing crowd.
fn c10k_phase(
    full: &Arc<FullNode>,
    scale: Scale,
    config: SchemeConfig,
    addresses: &[Address],
    truth: &[usize],
) -> OpenConnections {
    let target: u64 = match scale {
        Scale::Small => 512,
        Scale::Paper => 10_000,
    };
    // Both ends of every connection are fds in this process, plus the
    // serving sessions, the listener and whatever the harness has open.
    let fd_limit = mio::rlimit::raise_nofile(target * 2 + 512)
        .or_else(|_| mio::rlimit::nofile().map(|(soft, _)| soft))
        .unwrap_or(1024);
    let opened = target.min(fd_limit.saturating_sub(256) / 2);

    let server = NodeServer::bind(Arc::clone(full), "127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind");
    let addr = server.local_addr();

    let mut held: Vec<TcpStream> = Vec::with_capacity(opened as usize);
    for i in 0..opened {
        held.push(TcpStream::connect(addr).expect("open connection"));
        // Pace the dial so the kernel accept backlog (far smaller than
        // the target) never overflows.
        if i % 128 == 127 {
            wait_for(
                "the event loop to accept the batch",
                Duration::from_secs(10),
                || server.stats().connections > i,
            );
        }
    }
    wait_for(
        "every connection to be accepted",
        Duration::from_secs(30),
        || server.stats().connections_open >= opened,
    );

    // The crowd is idle, not dead weight: full verified sessions still
    // go through while every connection stays open.
    let mut served_during = 0;
    for _ in 0..4 {
        served_during += client_session(addr, config, addresses, truth, 1);
    }
    let open_while_serving = server.stats().connections_open;
    assert!(
        open_while_serving >= opened,
        "held connections fell to {open_while_serving} of {opened}"
    );

    drop(held);
    let stats = server.shutdown();
    OpenConnections {
        target,
        opened,
        fd_limit,
        served_during,
        server: stats,
    }
}

/// A unit-mean exponential draw (Poisson inter-arrival shape).
fn exp_draw(rng: &mut StdRng) -> f64 {
    // 53 uniform bits in (0, 1]; -ln(u) is Exp(1).
    let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    -u.ln()
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let index = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[index]
}

/// Phase 3, one operating point: fire `n` pipelined queries at a
/// seeded Poisson `offered_rps` over one v2 connection and collect the
/// latency from each request's *scheduled* arrival to its response.
fn open_loop_point(
    addr: SocketAddr,
    probe: &Address,
    offered_rps: f64,
    n: u32,
    seed: u64,
) -> LoadPoint {
    let mut stream = TcpStream::connect(addr).expect("server is listening");

    // Handshake proposing a window wide enough that the server never
    // sheds for depth — open-loop means arrivals do not wait.
    let hello = envelope::encode_v2(
        &Message::Hello(HelloInfo {
            max_in_flight: n,
            features: 0,
        }),
        0,
    );
    write_frame(&mut stream, &hello).expect("handshake write");
    let ack = read_frame(&mut stream, MAX_FRAME_LEN).expect("handshake read");
    let (ack_id, ack_v1) = envelope::unwrap_v2(&ack).expect("v2 ack");
    assert_eq!(ack_id, 0);
    let granted = match decode_exact::<Message>(&ack_v1).expect("decodable ack") {
        Message::HelloAck(info) => info.max_in_flight,
        other => panic!("expected HelloAck, got {other:?}"),
    };
    assert!(granted >= n, "server granted {granted} of {n} in flight");

    let request = Message::QueryRequest {
        address: probe.clone(),
        range: None,
    }
    .encode();

    // The arrival schedule, fixed up front so the writer and the
    // latency accounting agree on when each request *should* exist.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    let schedule: Vec<Duration> = (0..n)
        .map(|_| {
            at += exp_draw(&mut rng) / offered_rps;
            Duration::from_secs_f64(at)
        })
        .collect();

    let start = Instant::now();
    let writer_schedule = schedule.clone();
    let mut write_half = stream.try_clone().expect("clone socket");
    let writer = std::thread::spawn(move || {
        for (i, due) in writer_schedule.iter().enumerate() {
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let wire = envelope::wrap_v2(&request, (i + 1) as u64);
            let mut frame = Vec::with_capacity(4 + wire.len());
            frame.extend_from_slice(&u32::try_from(wire.len()).unwrap().to_le_bytes());
            frame.extend_from_slice(&wire);
            write_half.write_all(&frame).expect("submit request");
        }
    });

    let mut latencies: Vec<Duration> = Vec::with_capacity(n as usize);
    let mut outstanding: HashMap<u64, Duration> = (0..n)
        .map(|i| ((i + 1) as u64, schedule[i as usize]))
        .collect();
    for _ in 0..n {
        let reply = read_frame(&mut stream, MAX_FRAME_LEN).expect("response");
        let done = start.elapsed();
        let (id, v1) = envelope::unwrap_v2(&reply).expect("v2 response");
        let scheduled = outstanding.remove(&id).expect("known id");
        match decode_exact::<Message>(&v1).expect("decodable response") {
            Message::QueryResponse(_) => {}
            other => panic!("expected a proof, got {other:?}"),
        }
        latencies.push(done.saturating_sub(scheduled));
    }
    let wall = start.elapsed();
    writer.join().expect("writer thread");

    latencies.sort_unstable();
    LoadPoint {
        offered_rps,
        achieved_rps: f64::from(n) / wall.as_secs_f64(),
        requests: n,
        p50: percentile(&latencies, 0.50),
        p95: percentile(&latencies, 0.95),
        p99: percentile(&latencies, 0.99),
        max: *latencies.last().expect("nonempty"),
    }
}

/// Phase 3: sweep the offered load over one server.
fn open_loop_phase(
    full: &Arc<FullNode>,
    scale: Scale,
    capacity_qps: f64,
    probe: &Address,
    seed: u64,
) -> Vec<LoadPoint> {
    let n: u32 = match scale {
        Scale::Small => 240,
        Scale::Paper => 800,
    };
    let server_config = ServerConfig::default()
        .with_accept_queue(n as usize + 64)
        .with_max_in_flight(n);
    let server =
        NodeServer::bind(Arc::clone(full), "127.0.0.1:0", server_config).expect("loopback bind");
    let addr = server.local_addr();

    let points: Vec<LoadPoint> = LOAD_FRACTIONS
        .iter()
        .enumerate()
        .map(|(i, fraction)| {
            open_loop_point(addr, probe, capacity_qps * fraction, n, seed ^ (i as u64))
        })
        .collect();

    let stats = server.shutdown();
    assert_eq!(stats.errors, 0, "open-loop phase must be clean");
    assert_eq!(stats.busy, 0, "window was sized to avoid shedding");
    points
}

/// A [`FullNode`] that stalls any request mentioning [`SLOW_MARKER`] —
/// the adversarially slow prover of the head-of-line check.
struct SlowProver {
    inner: Arc<FullNode>,
    stall: Duration,
}

impl ServeNode for SlowProver {
    fn handle_classified(&self, request: &[u8]) -> Handled {
        let marker = SLOW_MARKER.as_bytes();
        if request.windows(marker.len()).any(|w| w == marker) {
            std::thread::sleep(self.stall);
        }
        self.inner.handle_classified(request)
    }
}

/// Runs verified queries round-robin over the probes for `window` wall
/// time, returning each query's latency.
fn timed_queries(
    light: &mut LightNode,
    transport: &mut TcpTransport,
    addresses: &[Address],
    truth: &[usize],
    window: Duration,
) -> Vec<Duration> {
    let phase = Instant::now();
    let mut latencies = Vec::new();
    let mut i = 0usize;
    while phase.elapsed() < window {
        let k = i % addresses.len();
        let started = Instant::now();
        let history = light
            .run(&QuerySpec::address(addresses[k].clone()), transport)
            .expect("honest response")
            .into_single();
        latencies.push(started.elapsed());
        assert_eq!(history.transactions.len(), truth[k]);
        i += 1;
    }
    latencies
}

/// Phase 4: a deliberately slow proof on one connection while other
/// connections keep querying; their p95 must match a control run of
/// the same loop against the same (idle) server, not the stall.
fn isolation_phase(
    full: &Arc<FullNode>,
    config: SchemeConfig,
    addresses: &[Address],
    truth: &[usize],
) -> Isolation {
    let node = Arc::new(SlowProver {
        inner: Arc::clone(full),
        stall: SLOW_STALL,
    });
    // Two workers: one gets pinned by the slow proof, the other keeps
    // serving. The point is that *connections* never pin the loop.
    let server_config = ServerConfig::default().with_workers(2);
    let server = NodeServer::bind(node, "127.0.0.1:0", server_config).expect("loopback bind");
    let addr = server.local_addr();

    let mut fast_transport = TcpTransport::connect(addr).expect("server is listening");
    let mut light = LightNode::sync_from(&mut fast_transport, config).expect("honest server");

    // Control: the same timed loop with nothing else in flight, so
    // each probe's own proof cost is priced into the baseline.
    let mut control = timed_queries(
        &mut light,
        &mut fast_transport,
        addresses,
        truth,
        SLOW_STALL,
    );

    // The slow connection: submit and do not read yet.
    let mut slow = TcpStream::connect(addr).expect("server is listening");
    let hello = envelope::encode_v2(
        &Message::Hello(HelloInfo {
            max_in_flight: 2,
            features: 0,
        }),
        0,
    );
    write_frame(&mut slow, &hello).expect("handshake write");
    let ack = read_frame(&mut slow, MAX_FRAME_LEN).expect("handshake read");
    assert!(matches!(envelope::unwrap_v2(&ack), Some((0, _))));
    let slow_request = envelope::wrap_v2(
        Message::QueryRequest {
            address: Address::new(SLOW_MARKER),
            range: None,
        }
        .encode(),
        1,
    );
    let slow_started = Instant::now();
    write_frame(&mut slow, &slow_request).expect("submit slow query");

    // Contended: the identical loop for the stall window, entirely
    // overlapped with the slow proof.
    let mut contended = timed_queries(
        &mut light,
        &mut fast_transport,
        addresses,
        truth,
        SLOW_STALL,
    );

    // Now collect the slow response and confirm it really stalled.
    let reply = read_frame(&mut slow, MAX_FRAME_LEN).expect("slow response");
    let slow_observed = slow_started.elapsed();
    let (id, v1) = envelope::unwrap_v2(&reply).expect("v2 response");
    assert_eq!(id, 1);
    assert!(matches!(
        decode_exact::<Message>(&v1).expect("decodable response"),
        Message::QueryResponse(_)
    ));
    assert!(
        slow_observed >= SLOW_STALL,
        "the slow proof returned in {slow_observed:?}, before its {SLOW_STALL:?} stall"
    );

    drop(slow);
    drop(fast_transport);
    let stats = server.shutdown();
    assert_eq!(stats.errors, 0, "isolation phase must be clean");
    assert!(
        control.len() >= MIN_FAST_SAMPLES && contended.len() >= MIN_FAST_SAMPLES,
        "too few timed queries per run ({} control, {} contended) for a p95",
        control.len(),
        contended.len()
    );

    control.sort_unstable();
    contended.sort_unstable();
    Isolation {
        stall: SLOW_STALL,
        slow_observed,
        fast_p95_control: percentile(&control, 0.95),
        fast_p95: percentile(&contended, 0.95),
        control_samples: control.len() as u32,
        contended_samples: contended.len() as u32,
    }
}

/// Runs all four phases under full LVQ at the Fig. 12 configuration.
///
/// # Panics
///
/// Panics if widening the pool from one to four workers *loses*
/// throughput (beyond a 10 % tolerance for machine noise); if the C10K
/// phase drops connections or serves with errors; or if the slow proof
/// of the isolation phase inflates other connections' p95 well past
/// the idle-server control run of the same query loop.
pub fn run(scale: Scale, seed: u64) -> Pool {
    let spec = WorkloadSpec {
        seed,
        ..WorkloadSpec::paper_default(Scheme::Lvq, scale)
    };
    let config = spec.config();
    let workload = build_workload(spec);
    let addresses: Vec<Address> = built_probes(&workload)
        .into_iter()
        .map(|(_, address)| address)
        .collect();
    let truth: Vec<usize> = addresses
        .iter()
        .map(|a| workload.chain.history_of(a).len())
        .collect();
    let full = Arc::new(FullNode::new(workload.chain).expect("known scheme"));

    // Warm the shared caches so every width measures the steady state.
    {
        let warm = NodeServer::bind(Arc::clone(&full), "127.0.0.1:0", ServerConfig::default())
            .expect("loopback bind");
        client_session(warm.local_addr(), config, &addresses, &truth, 1);
        warm.shutdown();
    }

    // Phase 1 — pool-width sweep.
    let points: Vec<PoolPoint> = WIDTHS
        .iter()
        .map(|&workers| {
            let mut best: Option<PoolPoint> = None;
            for _ in 0..REPS {
                let (queried, time, server) =
                    repetition(&full, config, &addresses, &truth, workers);
                assert_eq!(server.errors, 0, "clean run at {workers} workers");
                assert_eq!(u64::from(queried), server.by_kind.queries);
                let qps = f64::from(queried) / time.as_secs_f64();
                if best.as_ref().is_none_or(|b| qps > b.qps) {
                    best = Some(PoolPoint {
                        workers,
                        qps,
                        time,
                        server,
                    });
                }
            }
            best.expect("at least one repetition")
        })
        .collect();
    let capacity = points.iter().map(|p| p.qps).fold(0.0, f64::max);

    // Phase 2 — C10K open connections.
    let c10k = c10k_phase(&full, scale, config, &addresses, &truth);
    assert_eq!(c10k.server.errors, 0, "C10K phase must be clean");

    // Phase 3 — open-loop arrival-rate sweep.
    let open_loop = open_loop_phase(&full, scale, capacity, &addresses[0], seed);

    // Phase 4 — head-of-line isolation.
    let isolation = isolation_phase(&full, config, &addresses, &truth);
    // A readiness loop pinned by the slow proof would add its full
    // stall to every contended query; genuine isolation keeps the
    // contended p95 within noise of the idle-server control.
    assert!(
        isolation.fast_p95 <= isolation.fast_p95_control * 2 + isolation.stall / 8,
        "slow proof leaked into other connections: contended p95 {:?} vs control p95 {:?} \
         (stall {:?})",
        isolation.fast_p95,
        isolation.fast_p95_control,
        isolation.stall
    );

    let pool = Pool {
        clients: CLIENTS,
        points,
        c10k,
        open_loop,
        isolation,
    };
    let (one, four) = (pool.at(1).qps, pool.at(4).qps);
    assert!(
        four >= one * 0.9,
        "pool of 4 lost throughput against 1 worker: {four:.0} vs {one:.0} qps"
    );
    pool
}

fn fmt_us(d: Duration) -> String {
    format!("{}", d.as_micros())
}

impl std::fmt::Display for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Worker-pool sweep — LVQ, {} concurrent clients, six Table III probes, \
             {ROUNDS} rounds per client, best of {REPS} reps",
            self.clients
        )?;
        let mut table = Table::new(&[
            "Workers",
            "Throughput",
            "p50/p95/p99 (us)",
            "Max (us)",
            "Queue high-water",
            "Shed busy",
        ]);
        for point in &self.points {
            let l = point.server.latency;
            table.row(vec![
                point.workers.to_string(),
                format!("{:.0} queries/s", point.qps),
                format!("{}/{}/{}", l.p50_us, l.p95_us, l.p99_us),
                l.max_us.to_string(),
                point.server.queue_highwater.to_string(),
                point.server.busy.to_string(),
            ]);
        }
        write!(f, "{table}")?;

        writeln!(
            f,
            "\nC10K — one readiness loop holding {} open connections \
             (target {}, RLIMIT_NOFILE {}), {} verified queries served through \
             the crowd, {} errors",
            self.c10k.opened,
            self.c10k.target,
            self.c10k.fd_limit,
            self.c10k.served_during,
            self.c10k.server.errors
        )?;

        writeln!(
            f,
            "\nOpen-loop load — Poisson arrivals over one pipelined v2 connection, \
             latency from scheduled arrival"
        )?;
        let mut table = Table::new(&[
            "Offered (rps)",
            "Achieved (rps)",
            "Requests",
            "p50/p95/p99 (us)",
            "Max (us)",
        ]);
        for point in &self.open_loop {
            table.row(vec![
                format!("{:.0}", point.offered_rps),
                format!("{:.0}", point.achieved_rps),
                point.requests.to_string(),
                format!(
                    "{}/{}/{}",
                    fmt_us(point.p50),
                    fmt_us(point.p95),
                    fmt_us(point.p99)
                ),
                fmt_us(point.max),
            ]);
        }
        write!(f, "{table}")?;

        writeln!(
            f,
            "\nHead-of-line isolation — a {:?} stalled proof on one connection; \
             other connections' p95 {:?} contended vs {:?} idle control \
             ({}/{} samples; slow connection observed {:?})",
            self.isolation.stall,
            self.isolation.fast_p95,
            self.isolation.fast_p95_control,
            self.isolation.contended_samples,
            self.isolation.control_samples,
            self.isolation.slow_observed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_sweep_holds_throughput_and_accounts_for_queueing() {
        let result = run(Scale::Small, 11);
        assert_eq!(result.points.len(), WIDTHS.len());
        for point in &result.points {
            // Every session syncs once and queries 6 addresses for
            // ROUNDS rounds; the server's books must agree.
            let expected = u64::from(CLIENTS) * u64::from(ROUNDS) * 6;
            assert_eq!(point.server.by_kind.queries, expected);
            assert_eq!(point.server.workers, point.workers as u64);
            assert_eq!(point.server.connections, u64::from(CLIENTS));
            assert_eq!(point.server.busy, 0, "queue was sized to avoid shedding");
            assert!(point.server.latency.count > 0);
            assert!(point.server.latency.p50_us <= point.server.latency.p95_us);
            assert!(point.server.latency.p99_us <= point.server.latency.max_us);
        }
        // run() already asserts the 1 -> 4 throughput direction.

        // C10K: everything the fd budget allowed was held open at
        // once, with clean books. (CI raises RLIMIT_NOFILE far above
        // the small-scale target, so this is normally all 512.)
        let c10k = &result.c10k;
        assert_eq!(c10k.target, 512);
        if c10k.fd_limit >= c10k.target * 2 + 256 {
            assert_eq!(c10k.opened, c10k.target);
        }
        assert!(c10k.opened >= 64, "fd budget too small to test anything");
        assert_eq!(c10k.server.errors, 0);
        assert_eq!(c10k.server.busy, 0);
        assert!(c10k.served_during > 0);
        assert!(c10k.server.connections >= c10k.opened);

        // Open loop: every operating point completed all requests with
        // sane percentile ordering.
        assert_eq!(result.open_loop.len(), LOAD_FRACTIONS.len());
        for point in &result.open_loop {
            assert_eq!(point.requests, 240);
            assert!(point.p50 <= point.p95);
            assert!(point.p95 <= point.p99);
            assert!(point.p99 <= point.max);
            assert!(point.achieved_rps > 0.0);
        }

        // Isolation: run() asserts the contended p95 stays within
        // noise of the idle control; pin the slow side and the sample
        // floors too.
        assert!(result.isolation.slow_observed >= result.isolation.stall);
        assert!(result.isolation.control_samples >= MIN_FAST_SAMPLES as u32);
        assert!(result.isolation.contended_samples >= MIN_FAST_SAMPLES as u32);
    }
}
