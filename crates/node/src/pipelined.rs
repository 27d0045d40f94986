//! The pipelined (protocol v2) client transport.
//!
//! Protocol v1 is strictly request/response: one frame out, block until
//! the reply comes back ([`Transport::exchange`]). Over a real network
//! that serializes every round trip, so a light client verifying many
//! addresses pays `N × RTT` even though the server could overlap the
//! proof work. Protocol v2 fixes this with the request-id envelope
//! ([`envelope`]): every frame carries a little-endian `u64` id after
//! the version byte, requests may be submitted back-to-back up to a
//! negotiated in-flight window, and responses are matched back to their
//! requests by id — in whatever order the server finishes them.
//!
//! The negotiation is one extra round trip at connect time
//! ([`PipelinedTcpTransport::negotiate`]): the client sends a
//! v2-enveloped [`Message::Hello`] proposing a window, and
//!
//! * a v2 server answers [`Message::HelloAck`] with the granted window
//!   (its configured cap, so the client may get less than it asked
//!   for) → [`Negotiated::V2`];
//! * a v1 server rejects the unknown version byte with a structured
//!   [`WireErrorCode::UnsupportedVersion`] refusal → the client
//!   downgrades to plain [`TcpTransport`] *on the same connection*
//!   ([`Negotiated::V1`]) — no reconnect, no wasted socket.
//!
//! [`PipelinedTcpTransport`] also implements [`Transport`], so any
//! code written against the blocking API runs unchanged over a v2
//! connection (each exchange is a one-in-flight submit/recv pair).

use std::collections::{HashMap, VecDeque};
use std::net::{TcpStream, ToSocketAddrs};

use crate::frame::{read_frame, write_frame};
use crate::full::DEFAULT_MAX_IN_FLIGHT;
use crate::message::{envelope, HelloInfo, Message, NodeError, WireErrorCode};
use crate::pipe::Traffic;
use crate::tcp::{TcpOptions, TcpTransport};
use crate::transport::Transport;

/// The identifier a pipelined transport assigns to one submitted
/// request; the matching response carries it back.
pub type ReqId = u64;

/// A transport that keeps several requests in flight on one
/// connection.
///
/// The contract mirrors [`Transport`] but splits the exchange in two:
/// [`submit`](PipelinedTransport::submit) writes a request and returns
/// immediately with its [`ReqId`]; [`recv`](PipelinedTransport::recv)
/// blocks for the *next* response, whichever request it answers.
/// Responses may arrive in any order — the id is the only correlation.
///
/// Requests and responses are v1 payload bytes (the same bytes
/// [`Transport::exchange`] carries); the envelope is the transport's
/// business. [`Traffic`], however, meters the enveloped wire bytes, so
/// bandwidth measurements reflect what actually crossed the network —
/// v2 costs [`envelope::V2_HEAD`]` - 1` extra bytes per frame, and
/// experiments should see that.
pub trait PipelinedTransport {
    /// Writes one encoded v1 request, returning the id its response
    /// will carry.
    ///
    /// # Errors
    ///
    /// [`NodeError::PipelineViolation`] if the negotiated window is
    /// already full (call [`recv`](PipelinedTransport::recv) first);
    /// transport-level [`NodeError`]s if the write fails.
    fn submit(&mut self, request: &[u8]) -> Result<ReqId, NodeError>;

    /// Blocks for the next response, returning its request id, the v1
    /// payload bytes, and the wire traffic of the completed exchange
    /// (enveloped request + enveloped response).
    ///
    /// # Errors
    ///
    /// [`NodeError::PipelineViolation`] if nothing is in flight;
    /// [`NodeError::UnknownRequestId`] if the response's id matches no
    /// outstanding request; transport-level [`NodeError`]s if the read
    /// fails.
    fn recv(&mut self) -> Result<(ReqId, Vec<u8>, Traffic), NodeError>;

    /// How many requests are currently in flight.
    fn in_flight(&self) -> usize;

    /// The negotiated in-flight window.
    fn max_in_flight(&self) -> u32;
}

/// Outcome of dialing a server whose protocol version is unknown:
/// either a pipelined v2 session or a v1 downgrade on the same
/// connection.
#[derive(Debug)]
pub enum Negotiated {
    /// The server acknowledged the [`Message::Hello`]; requests can be
    /// pipelined up to the granted window.
    V2(PipelinedTcpTransport),
    /// The server rejected protocol v2 (a structured
    /// [`WireErrorCode::UnsupportedVersion`] refusal); the same
    /// connection continues as a blocking v1 transport.
    V1(TcpTransport),
}

impl Negotiated {
    /// Collapses the negotiation into a blocking [`Transport`],
    /// for callers that only need compatibility, not pipelining.
    pub fn into_transport(self) -> Box<dyn Transport + Send> {
        match self {
            Negotiated::V2(t) => Box::new(t),
            Negotiated::V1(t) => Box::new(t),
        }
    }

    /// Collapses the negotiation into a [`PipelinedTransport`]: the
    /// real thing on v2, a [`SequentialPipeline`] shim on v1 — so a
    /// caller written against the pipelined API works against either
    /// server generation (just without overlap on v1).
    pub fn into_pipelined(self) -> Box<dyn PipelinedTransport + Send> {
        match self {
            Negotiated::V2(t) => Box::new(t),
            Negotiated::V1(t) => Box::new(SequentialPipeline::new(t)),
        }
    }
}

/// Adapts any blocking [`Transport`] to the [`PipelinedTransport`]
/// contract: each submit performs the whole exchange on the spot and
/// buffers the response for a later `recv`. Nothing actually overlaps
/// — this is the downgrade shim that lets pipelined callers speak to
/// v1 servers ([`Negotiated::into_pipelined`]), trading the latency
/// win for compatibility without an API fork.
#[derive(Debug)]
pub struct SequentialPipeline<T: Transport> {
    inner: T,
    next_id: u64,
    ready: VecDeque<(ReqId, Vec<u8>, Traffic)>,
}

impl<T: Transport> SequentialPipeline<T> {
    /// Wraps a blocking transport.
    pub fn new(inner: T) -> Self {
        SequentialPipeline {
            inner,
            next_id: 1,
            ready: VecDeque::new(),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwraps, discarding any buffered responses.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> PipelinedTransport for SequentialPipeline<T> {
    fn submit(&mut self, request: &[u8]) -> Result<ReqId, NodeError> {
        let (reply, traffic) = self.inner.exchange(request)?;
        let id = self.next_id;
        self.next_id += 1;
        self.ready.push_back((id, reply, traffic));
        Ok(id)
    }

    fn recv(&mut self) -> Result<(ReqId, Vec<u8>, Traffic), NodeError> {
        self.ready.pop_front().ok_or(NodeError::PipelineViolation {
            context: "recv with nothing in flight",
        })
    }

    fn in_flight(&self) -> usize {
        self.ready.len()
    }

    fn max_in_flight(&self) -> u32 {
        // No negotiated window on v1; responses buffer locally, so the
        // only bound a caller needs is "don't submit unboundedly".
        DEFAULT_MAX_IN_FLIGHT
    }
}

/// A [`PipelinedTransport`] over one TCP connection to a protocol-v2
/// [`crate::NodeServer`].
///
/// Construct via [`PipelinedTcpTransport::negotiate`] (dial +
/// handshake) or [`PipelinedTcpTransport::negotiate_on`] (handshake on
/// an existing [`TcpTransport`]). Ids are assigned sequentially from 1
/// (0 is the handshake's); the window is whatever the server granted.
#[derive(Debug)]
pub struct PipelinedTcpTransport {
    stream: TcpStream,
    max_frame_len: u32,
    granted: u32,
    next_id: u64,
    /// id → enveloped request length, so the exchange's traffic can be
    /// attributed when the response lands.
    pending: HashMap<u64, u64>,
    cumulative: Traffic,
    exchanges: u64,
}

impl PipelinedTcpTransport {
    /// Dials `addr` with `options` and negotiates the protocol,
    /// proposing an in-flight window of `proposed` (clamped to at
    /// least 1).
    ///
    /// # Errors
    ///
    /// [`NodeError::Io`] if the dial fails; any transport or decode
    /// error from the handshake exchange. A v1 server is *not* an
    /// error — it yields [`Negotiated::V1`].
    pub fn negotiate(
        addr: impl ToSocketAddrs,
        options: TcpOptions,
        proposed: u32,
    ) -> Result<Negotiated, NodeError> {
        let tcp = TcpTransport::connect_with(addr, options)?;
        Self::negotiate_on(tcp, proposed)
    }

    /// Negotiates the protocol on an already-connected transport.
    ///
    /// Sends a v2-enveloped [`Message::Hello`] (request id 0) and
    /// classifies the reply: [`Message::HelloAck`] → v2 with the
    /// granted window; a v1 [`WireErrorCode::UnsupportedVersion`]
    /// refusal → downgrade, reusing the connection. The handshake's
    /// traffic is folded into the returned transport's cumulative
    /// meters either way.
    ///
    /// # Errors
    ///
    /// Transport errors from the handshake exchange;
    /// [`NodeError::UnexpectedMessage`] if the reply is neither an ack
    /// nor a version refusal; [`NodeError::Busy`] if the server sheds
    /// the handshake itself.
    pub fn negotiate_on(mut tcp: TcpTransport, proposed: u32) -> Result<Negotiated, NodeError> {
        let hello = envelope::encode_v2(
            &Message::Hello(HelloInfo {
                max_in_flight: proposed.max(1),
                features: 0,
            }),
            0,
        );
        let max_frame_len = tcp.max_frame();
        write_frame(tcp.stream_mut(), &hello)?;
        let reply = read_frame(tcp.stream_mut(), max_frame_len)?;
        let traffic = Traffic {
            request_bytes: hello.len() as u64,
            response_bytes: reply.len() as u64,
        };
        match envelope::unwrap_v2(&reply) {
            Some((0, v1)) => match Message::decode_classified(&v1) {
                Ok(Message::HelloAck(ack)) => {
                    tcp.record_extra(traffic);
                    let (stream, max_frame_len, cumulative, exchanges) = tcp.into_parts();
                    Ok(Negotiated::V2(PipelinedTcpTransport {
                        stream,
                        max_frame_len,
                        granted: ack.max_in_flight.max(1),
                        next_id: 1,
                        pending: HashMap::new(),
                        cumulative,
                        exchanges,
                    }))
                }
                Ok(Message::Busy) => Err(NodeError::Busy),
                Ok(Message::Error(e)) => Err(NodeError::Server(e)),
                _ => Err(NodeError::UnexpectedMessage),
            },
            // The handshake is the connection's only frame so far, so
            // a v2 reply must echo id 0; anything else is a fault.
            Some((id, _)) => Err(NodeError::UnknownRequestId { id }),
            // A v1 reply to a v2 frame: an old server refusing the
            // version byte. Only that exact refusal downgrades —
            // anything else is a protocol fault.
            None => match Message::decode_classified(&reply) {
                Ok(Message::Error(e)) if e.code == WireErrorCode::UnsupportedVersion => {
                    tcp.record_extra(traffic);
                    Ok(Negotiated::V1(tcp))
                }
                Ok(Message::Busy) => Err(NodeError::Busy),
                Ok(Message::Error(e)) => Err(NodeError::Server(e)),
                _ => Err(NodeError::UnexpectedMessage),
            },
        }
    }

    /// The in-flight window the server granted in its
    /// [`Message::HelloAck`].
    pub fn granted(&self) -> u32 {
        self.granted
    }

    /// Lowers (or raises) the largest response frame this client will
    /// accept.
    pub fn set_max_frame_len(&mut self, max: u32) {
        self.max_frame_len = max;
    }
}

impl PipelinedTransport for PipelinedTcpTransport {
    fn submit(&mut self, request: &[u8]) -> Result<ReqId, NodeError> {
        if self.pending.len() >= self.granted as usize {
            return Err(NodeError::PipelineViolation {
                context: "submit past the negotiated in-flight window",
            });
        }
        let id = self.next_id;
        let wire = envelope::wrap_v2(request, id);
        write_frame(&mut self.stream, &wire)?;
        self.next_id += 1;
        self.pending.insert(id, wire.len() as u64);
        Ok(id)
    }

    fn recv(&mut self) -> Result<(ReqId, Vec<u8>, Traffic), NodeError> {
        if self.pending.is_empty() {
            return Err(NodeError::PipelineViolation {
                context: "recv with nothing in flight",
            });
        }
        let reply = read_frame(&mut self.stream, self.max_frame_len)?;
        let Some(id) = envelope::request_id(&reply) else {
            // A bare v1 frame on a negotiated v2 connection: the reply
            // stream is corrupt. Surface any structured refusal it
            // carries, otherwise the generic protocol fault.
            return Err(match Message::decode_classified(&reply) {
                Ok(Message::Error(e)) => NodeError::Server(e),
                _ => NodeError::UnexpectedMessage,
            });
        };
        let Some(request_bytes) = self.pending.remove(&id) else {
            return Err(NodeError::UnknownRequestId { id });
        };
        let traffic = Traffic {
            request_bytes,
            response_bytes: reply.len() as u64,
        };
        self.cumulative.request_bytes += traffic.request_bytes;
        self.cumulative.response_bytes += traffic.response_bytes;
        self.exchanges += 1;
        // Unwrapped in place: a multi-megabyte reply is never held twice.
        let (_, v1) = envelope::unwrap_v2(reply).expect("request_id found a v2 head");
        Ok((id, v1, traffic))
    }

    fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn max_in_flight(&self) -> u32 {
        self.granted
    }
}

/// Blocking compatibility: one exchange is a one-in-flight
/// submit/recv pair. Requires an empty pipeline — interleaving
/// blocking exchanges with outstanding pipelined requests would have
/// to drop whichever response arrives first, so it is refused instead.
impl Transport for PipelinedTcpTransport {
    fn exchange(&mut self, request: &[u8]) -> Result<(Vec<u8>, Traffic), NodeError> {
        if !self.pending.is_empty() {
            return Err(NodeError::PipelineViolation {
                context: "blocking exchange with pipelined requests outstanding",
            });
        }
        let id = self.submit(request)?;
        let (got, bytes, traffic) = self.recv()?;
        if got != id {
            return Err(NodeError::UnknownRequestId { id: got });
        }
        Ok((bytes, traffic))
    }

    fn cumulative_traffic(&self) -> Traffic {
        self.cumulative
    }

    fn exchanges(&self) -> u64 {
        self.exchanges
    }
}
