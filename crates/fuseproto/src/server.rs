//! The event-driven serve loop and its client: one generic [`Server`] pumps
//! any [`Transport`] into any [`Dispatch`]er — a [`Session`](crate::Session)
//! over a writable [`MemFs`](crate::MemFs) or over a shared read-only
//! [`FrozenImage`](crate::FrozenImage) alike.
//!
//! The loop mirrors a FUSE daemon's: read one request frame, decode,
//! dispatch, write one reply frame, repeat until the client unmounts
//! (`FUSE_DESTROY`) or disconnects. Malformed and oversized frames get a
//! best-effort `EINVAL` reply addressed to the peeked request id — a broken
//! client never panics the server — and on *any* exit the dispatcher's
//! [`disconnect`](Dispatch::disconnect) runs, so handles the client leaked
//! are reclaimed exactly as a real daemon reclaims them at unmount.
//!
//! Two [`ServeConfig`]-controlled mechanisms make the loop safe under a
//! retransmitting client ([`Client::call_with`]) on a lossy transport:
//!
//! * a bounded **reply cache** keyed by unique id — a retransmitted request
//!   (its id at or below the highest already dispatched) replays the cached
//!   reply frame byte-for-byte instead of re-executing the operation, so
//!   at-least-once delivery stays exactly-once execution;
//! * **overload shedding** — when the transport reports more than
//!   [`ServeConfig::max_backlog`] frames still queued behind the one just
//!   received, the request is answered [`Errno::EAGAIN`] *before* decode or
//!   dispatch (a typed, retryable promise of non-execution). `FUSE_DESTROY`
//!   is never shed: graceful drain must always be reachable.

use std::collections::VecDeque;

use hpcc_kernel::Errno;

use crate::dispatch::Dispatch;
use crate::op::{Reply, ReplyKind, Request};
use crate::transport::{Transport, TransportError};
use crate::wire::{
    decode_reply, decode_request, encode_destroy, encode_reply, encode_request, peek_is_destroy,
    peek_unique, Incoming, WireError, MAX_REQUEST_FRAME,
};

/// What one [`Server::serve_one`] step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerEvent {
    /// A request (or a malformed frame) was answered; the loop continues.
    Served,
    /// The client sent `FUSE_DESTROY`: acknowledged, session over.
    Shutdown,
    /// The transport closed cleanly without a destroy — the client vanished.
    Closed,
}

/// How a completed [`Server::serve`] loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shutdown {
    /// The client unmounted politely with `FUSE_DESTROY`.
    Destroyed,
    /// The client disconnected without a destroy.
    Disconnected,
}

/// Counters from a completed serve loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests dispatched (malformed frames not included).
    pub requests: u64,
    /// Frames that failed to decode and were answered `EINVAL`.
    pub protocol_errors: u64,
    /// Retransmitted requests answered from the reply cache — each one a
    /// re-execution (a duplicated side effect) that did not happen.
    pub replayed: u64,
    /// Requests answered `EAGAIN` because the receive backlog was over the
    /// configured cap.
    pub shed: u64,
    /// How the session ended.
    pub shutdown: Shutdown,
}

/// Robustness knobs for a [`Server`]; [`ServeConfig::default`] matches what
/// [`Server::new`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Reply-cache capacity in entries; `0` disables replay protection
    /// (a retransmitted mutation would then re-execute). The cache must
    /// cover the client's retransmission window: for the sequential
    /// [`Client`], whose resends always carry its latest unique id, one
    /// entry suffices — the default keeps a margin for injected duplicates
    /// of older frames still in flight. Each entry owns the whole buffer
    /// its reply frame was encoded in, so a connection holds at most
    /// `reply_cache` + 1 reply buffers.
    pub reply_cache: usize,
    /// Shed (answer `EAGAIN`, skip execution) when more than this many
    /// frames are still queued behind the one being served. `None` never
    /// sheds; `Some(0)` sheds whenever any second request is waiting.
    /// Only effective on transports that report a backlog.
    pub max_backlog: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            reply_cache: 32,
            max_backlog: None,
        }
    }
}

/// A wire-protocol filesystem server: one dispatcher, one transport, one
/// client session.
///
/// The receive buffer lives for the server's lifetime. Each sent reply
/// frame moves into the reply cache and the evicted entry's buffer becomes
/// the next output buffer, so once every buffer in that rotation has grown
/// a steady-state request/reply cycle performs no allocation beyond what
/// the operation itself needs.
pub struct Server<D, T> {
    dispatcher: D,
    transport: T,
    config: ServeConfig,
    in_buf: Vec<u8>,
    out_buf: Vec<u8>,
    /// Recent (unique id, reply frame as sent) pairs, oldest first — the
    /// replay source for retransmitted requests.
    cache: VecDeque<(u64, Vec<u8>)>,
    /// Highest unique id successfully dispatched; anything at or below it
    /// arriving again is a retransmission, never a fresh request (malformed
    /// frames don't advance this, so a corrupt frame can't poison it).
    max_unique: u64,
    requests: u64,
    protocol_errors: u64,
    replayed: u64,
    shed: u64,
}

impl<D: Dispatch, T: Transport> Server<D, T> {
    /// Wraps a dispatcher and a transport into a serve loop with the default
    /// [`ServeConfig`].
    pub fn new(dispatcher: D, transport: T) -> Self {
        Server::with_config(dispatcher, transport, ServeConfig::default())
    }

    /// Like [`Server::new`] with explicit robustness knobs.
    pub fn with_config(dispatcher: D, transport: T, config: ServeConfig) -> Self {
        Server {
            dispatcher,
            transport,
            config,
            in_buf: Vec::new(),
            out_buf: Vec::new(),
            cache: VecDeque::with_capacity(config.reply_cache),
            max_unique: 0,
            requests: 0,
            protocol_errors: 0,
            replayed: 0,
            shed: 0,
        }
    }

    /// The dispatcher, for inspection (handle counts, op counters).
    pub fn dispatcher(&self) -> &D {
        &self.dispatcher
    }

    /// Frames answered `EINVAL` because they failed to decode.
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors
    }

    /// Retransmissions answered from the reply cache.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Requests answered `EAGAIN` under backlog pressure.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Receives, dispatches, and answers one frame.
    ///
    /// On [`ServerEvent::Shutdown`] and [`ServerEvent::Closed`] the
    /// dispatcher has been disconnected (open handles dropped). A transport
    /// error also disconnects before propagating — the dispatcher is never
    /// left holding a dead client's handles.
    pub fn serve_one(&mut self) -> Result<ServerEvent, TransportError> {
        let got = match self.transport.recv(&mut self.in_buf) {
            // A receiver cut off mid-wait (peer dropped while we blocked) is
            // the same fact as a clean close from where the server stands:
            // the client vanished between requests.
            Ok(got) => got,
            Err(TransportError::Closed) => false,
            Err(e) => {
                self.dispatcher.disconnect();
                return Err(e);
            }
        };
        if !got {
            self.dispatcher.disconnect();
            return Ok(ServerEvent::Closed);
        }
        if self.in_buf.len() > MAX_REQUEST_FRAME {
            return self.answer_malformed(WireError::Oversized {
                len: self.in_buf.len() as u64,
                max: MAX_REQUEST_FRAME as u64,
            });
        }
        // Retransmission check, before decode: a unique id at or below the
        // highest dispatched one was already answered — replay the cached
        // reply frame rather than execute the operation a second time.
        // (Only successfully dispatched requests advance `max_unique` or
        // enter the cache, so malformed frames can't poison either.)
        if let Some(unique) = peek_unique(&self.in_buf) {
            if unique != 0 && unique <= self.max_unique {
                if let Some((_, cached)) = self.cache.iter().find(|(u, _)| *u == unique) {
                    self.replayed += 1;
                    let sent = self.transport.send(cached);
                    return self.finish_send(sent);
                }
                // Aged out of the cache: fall through and re-execute. Only
                // reachable when a duplicate outlives `reply_cache` newer
                // requests — size the cache to the client's retransmission
                // window to keep this path read-only in practice.
            }
        }
        // Overload shedding, also before decode: EAGAIN promises the client
        // the operation was not executed, so it must precede dispatch. A
        // destroy is exempt — drain must stay reachable under pressure.
        if let Some(cap) = self.config.max_backlog {
            let over = self.transport.backlog().is_some_and(|b| b > cap);
            if over && !peek_is_destroy(&self.in_buf) {
                self.shed += 1;
                let unique = peek_unique(&self.in_buf).unwrap_or(0);
                encode_reply(&mut self.out_buf, unique, &Reply::Err(Errno::EAGAIN));
                let sent = self.transport.send(&self.out_buf);
                return self.finish_send(sent);
            }
        }
        match decode_request(&self.in_buf) {
            Ok(Incoming::Request { unique, req }) => {
                self.requests += 1;
                let reply = self.dispatcher.handle(req);
                let sent = self.reply(unique, &reply);
                let event = self.finish_send(sent)?;
                if event == ServerEvent::Served {
                    self.max_unique = self.max_unique.max(unique);
                    if self.config.reply_cache > 0 {
                        // The frame just sent becomes the cache entry, and
                        // the evicted entry's buffer (none while the cache
                        // fills) is the next reply's: no byte is copied.
                        let next = if self.cache.len() == self.config.reply_cache {
                            self.cache.pop_front().map(|(_, v)| v).unwrap_or_default()
                        } else {
                            Vec::new()
                        };
                        let frame = std::mem::replace(&mut self.out_buf, next);
                        self.cache.push_back((unique, frame));
                    }
                }
                Ok(event)
            }
            Ok(Incoming::Destroy { unique }) => {
                // Graceful drain: flush the acknowledgement best-effort (the
                // client may already be gone; the drain matters more than
                // the ack), then always reclaim the session's handles.
                encode_reply(&mut self.out_buf, unique, &Reply::Unit);
                let _ = self.transport.send(&self.out_buf);
                self.dispatcher.disconnect();
                Ok(ServerEvent::Shutdown)
            }
            Err(e) => self.answer_malformed(e),
        }
    }

    /// Serves until destroy or disconnect, returning the session counters.
    pub fn serve(&mut self) -> Result<ServeSummary, TransportError> {
        loop {
            match self.serve_one()? {
                ServerEvent::Served => continue,
                ServerEvent::Shutdown => return Ok(self.summary(Shutdown::Destroyed)),
                ServerEvent::Closed => return Ok(self.summary(Shutdown::Disconnected)),
            }
        }
    }

    /// Tears the server down, returning the dispatcher and transport.
    pub fn into_parts(self) -> (D, T) {
        (self.dispatcher, self.transport)
    }

    fn summary(&self, shutdown: Shutdown) -> ServeSummary {
        ServeSummary {
            requests: self.requests,
            protocol_errors: self.protocol_errors,
            replayed: self.replayed,
            shed: self.shed,
            shutdown,
        }
    }

    fn reply(&mut self, unique: u64, reply: &Reply) -> Result<(), TransportError> {
        encode_reply(&mut self.out_buf, unique, reply);
        self.transport.send(&self.out_buf)
    }

    /// Resolves the outcome of a reply send. A [`TransportError::Closed`] is
    /// the client vanishing between our receive and our answer — a
    /// disconnect, not a server failure — so it closes the session cleanly
    /// (handles reclaimed) instead of surfacing an error; anything else
    /// still disconnects first, then propagates.
    fn finish_send(
        &mut self,
        sent: Result<(), TransportError>,
    ) -> Result<ServerEvent, TransportError> {
        match sent {
            Ok(()) => Ok(ServerEvent::Served),
            Err(TransportError::Closed) => {
                self.dispatcher.disconnect();
                Ok(ServerEvent::Closed)
            }
            Err(e) => {
                self.dispatcher.disconnect();
                Err(e)
            }
        }
    }

    /// Best-effort `EINVAL` for a frame that failed to decode, addressed to
    /// whatever request id survives in the wreckage (0 if none). A send
    /// failure here is ignored — the client may already be gone, and the
    /// decode error is the interesting fact.
    fn answer_malformed(&mut self, _err: WireError) -> Result<ServerEvent, TransportError> {
        self.protocol_errors += 1;
        let unique = peek_unique(&self.in_buf).unwrap_or(0);
        encode_reply(&mut self.out_buf, unique, &Reply::Err(Errno::EINVAL));
        let _ = self.transport.send(&self.out_buf);
        Ok(ServerEvent::Served)
    }
}

/// A request in flight: returned by [`Client::send_request`], redeemed by
/// [`Client::recv_reply`]. Carries the id the reply must echo and the
/// payload shape it decodes under.
#[derive(Debug, Clone, Copy)]
pub struct PendingCall {
    unique: u64,
    kind: ReplyKind,
}

/// A client-side failure: the transport broke, a reply frame was malformed,
/// the server answered a different request than the one pending, it
/// refused to end the session, or a policy-driven call ran out of retries.
/// Always typed, never a hang.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed or closed before the reply arrived.
    Transport(TransportError),
    /// The reply frame failed to decode.
    Wire(WireError),
    /// The reply echoed a different request id than the pending call's.
    WrongUnique {
        /// The id the client was waiting on.
        expected: u64,
        /// The id the reply carried.
        got: u64,
    },
    /// The server answered `FUSE_DESTROY` with this errno instead of an
    /// acknowledgement (e.g. `EINVAL` for a destroy frame damaged in
    /// flight), after any retries: the session did not end.
    Refused(Errno),
    /// A [`Client::call_with`] spent its retry budget (attempts or
    /// deadline) without a usable reply.
    TimedOut {
        /// Attempts made, the original send included.
        attempts: u32,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "client transport: {e}"),
            ClientError::Wire(e) => write!(f, "client decode: {e}"),
            ClientError::WrongUnique { expected, got } => {
                write!(f, "reply for request {got}, expected {expected}")
            }
            ClientError::Refused(e) => write!(f, "server refused destroy: {e}"),
            ClientError::TimedOut { attempts } => {
                write!(f, "call timed out after {attempts} attempt(s)")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        ClientError::Transport(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// The other end of the wire: encodes requests, matches replies by id.
///
/// `send_request`/`recv_reply` are split so a caller that owns both ends
/// in one thread (benchmarks, lockstep tests) can interleave a server's
/// [`Server::serve_one`] between them.
pub struct Client<T> {
    pub(crate) transport: T,
    pub(crate) next_unique: u64,
    pub(crate) out_buf: Vec<u8>,
    pub(crate) in_buf: Vec<u8>,
}

impl<T: Transport> Client<T> {
    /// Wraps a transport whose peer is a [`Server`].
    pub fn new(transport: T) -> Self {
        Client {
            transport,
            next_unique: 1,
            out_buf: Vec::new(),
            in_buf: Vec::new(),
        }
    }

    /// The underlying transport, for inspection (fault counters, backlog).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Encodes and sends one request, returning the pending call to redeem.
    pub fn send_request(&mut self, req: &Request) -> Result<PendingCall, ClientError> {
        let unique = self.next_unique;
        self.next_unique += 1;
        encode_request(&mut self.out_buf, unique, req);
        self.transport.send(&self.out_buf)?;
        Ok(PendingCall {
            unique,
            kind: req.op.reply_kind(),
        })
    }

    /// Receives and decodes the reply for a pending call.
    pub fn recv_reply(&mut self, pending: PendingCall) -> Result<Reply, ClientError> {
        if !self.transport.recv(&mut self.in_buf)? {
            return Err(ClientError::Transport(TransportError::Closed));
        }
        let (unique, reply) = decode_reply(&mut self.in_buf, pending.kind)?;
        if unique != pending.unique {
            return Err(ClientError::WrongUnique {
                expected: pending.unique,
                got: unique,
            });
        }
        Ok(reply)
    }

    /// One full round trip: send, then wait for the reply.
    pub fn call(&mut self, req: &Request) -> Result<Reply, ClientError> {
        let pending = self.send_request(req)?;
        self.recv_reply(pending)
    }

    /// Sends `FUSE_DESTROY` and waits for the acknowledgement, ending the
    /// session politely. An errno answer is [`ClientError::Refused`].
    pub fn destroy(&mut self) -> Result<(), ClientError> {
        let unique = self.next_unique;
        self.next_unique += 1;
        encode_destroy(&mut self.out_buf, unique);
        self.transport.send(&self.out_buf)?;
        if !self.transport.recv(&mut self.in_buf)? {
            return Err(ClientError::Transport(TransportError::Closed));
        }
        let (got, reply) = decode_reply(&mut self.in_buf, ReplyKind::Unit)?;
        if got != unique {
            return Err(ClientError::WrongUnique {
                expected: unique,
                got,
            });
        }
        match reply {
            Reply::Err(e) => Err(ClientError::Refused(e)),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultPlan, FaultTransport};
    use crate::memfs::MemFs;
    use crate::op::{FsCreds, Operation};
    use crate::session::Session;
    use crate::transport::ChannelTransport;
    use crate::wire::FUSE_ROOT_ID;
    use hpcc_kernel::{Gid, Uid, UserNamespace};
    use hpcc_vfs::{Filesystem, Mode};

    fn cred() -> FsCreds {
        FsCreds::root()
    }

    fn memfs_session() -> Session<MemFs> {
        Session::new(MemFs::new(
            Filesystem::new_local(),
            UserNamespace::initial(),
        ))
    }

    fn served_session() -> (
        Server<Session<MemFs>, ChannelTransport>,
        Client<ChannelTransport>,
    ) {
        let (server_end, client_end) = ChannelTransport::pair();
        (
            Server::new(memfs_session(), server_end),
            Client::new(client_end),
        )
    }

    /// Pumps the server from the same thread: run after each client send.
    fn pump<D: Dispatch, T: Transport>(server: &mut Server<D, T>) -> ServerEvent {
        server.serve_one().unwrap()
    }

    #[test]
    fn lockstep_mkdir_lookup_round_trip() {
        let (mut server, mut client) = served_session();
        let mk = Request::new(
            cred(),
            Operation::Mkdir {
                parent: FUSE_ROOT_ID,
                name: "etc".into(),
                mode: Mode::DIR_755,
            },
        );
        let pending = client.send_request(&mk).unwrap();
        assert_eq!(pump(&mut server), ServerEvent::Served);
        let reply = client.recv_reply(pending).unwrap();
        let made = match reply {
            Reply::Entry(e) => e,
            other => panic!("{other:?}"),
        };

        let lk = Request::new(
            cred(),
            Operation::Lookup {
                parent: FUSE_ROOT_ID,
                name: "etc".into(),
            },
        );
        let pending = client.send_request(&lk).unwrap();
        assert_eq!(pump(&mut server), ServerEvent::Served);
        match client.recv_reply(pending).unwrap() {
            Reply::Entry(e) => assert_eq!(e.ino, made.ino),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_travel_as_errnos() {
        let (mut server, mut client) = served_session();
        let pending = client
            .send_request(&Request::new(
                cred(),
                Operation::Lookup {
                    parent: FUSE_ROOT_ID,
                    name: "missing".into(),
                },
            ))
            .unwrap();
        pump(&mut server);
        assert_eq!(
            client.recv_reply(pending).unwrap(),
            Reply::Err(Errno::ENOENT)
        );
    }

    #[test]
    fn destroy_acknowledges_and_shuts_down() {
        let (mut server, client) = served_session();
        let mut client = client;
        // Open a handle, then destroy without releasing: the server must
        // reclaim it.
        let pending = client
            .send_request(&Request::new(
                cred(),
                Operation::Opendir { ino: FUSE_ROOT_ID },
            ))
            .unwrap();
        assert_eq!(pump(&mut server), ServerEvent::Served);
        assert!(client.recv_reply(pending).unwrap().is_ok());
        assert_eq!(server.dispatcher().open_handles(), 1);

        std::thread::scope(|s| {
            let h = s.spawn(|| client.destroy());
            assert_eq!(server.serve_one().unwrap(), ServerEvent::Shutdown);
            h.join().unwrap().unwrap();
        });
        assert_eq!(server.dispatcher().open_handles(), 0);
    }

    #[test]
    fn client_disconnect_closes_and_reclaims_handles() {
        let (mut server, mut client) = served_session();
        let pending = client
            .send_request(&Request::new(
                cred(),
                Operation::Opendir { ino: FUSE_ROOT_ID },
            ))
            .unwrap();
        pump(&mut server);
        assert!(client.recv_reply(pending).unwrap().is_ok());
        assert_eq!(server.dispatcher().open_handles(), 1);
        drop(client);
        assert_eq!(server.serve_one().unwrap(), ServerEvent::Closed);
        assert_eq!(server.dispatcher().open_handles(), 0);
    }

    #[test]
    fn malformed_frames_get_einval_not_a_panic() {
        let (server_end, mut client_end) = ChannelTransport::pair();
        let mut server = Server::new(memfs_session(), server_end);

        // Garbage with a peekable unique id at bytes 8..16.
        let mut frame = vec![0u8; 20];
        frame[0..4].copy_from_slice(&20u32.to_le_bytes());
        frame[4..8].copy_from_slice(&777u32.to_le_bytes()); // bad opcode
        frame[8..16].copy_from_slice(&55u64.to_le_bytes());
        client_end.send(&frame).unwrap();
        assert_eq!(server.serve_one().unwrap(), ServerEvent::Served);
        assert_eq!(server.protocol_errors(), 1);

        let mut buf = Vec::new();
        assert!(client_end.recv(&mut buf).unwrap());
        let (unique, reply) = decode_reply(&mut buf, ReplyKind::Unit).unwrap();
        assert_eq!(unique, 55);
        assert_eq!(reply, Reply::Err(Errno::EINVAL));

        // An oversized frame gets the same treatment.
        let mut big = vec![0u8; MAX_REQUEST_FRAME + 1];
        big[0..4].copy_from_slice(&((MAX_REQUEST_FRAME + 1) as u32).to_le_bytes());
        big[8..16].copy_from_slice(&56u64.to_le_bytes());
        client_end.send(&big).unwrap();
        assert_eq!(server.serve_one().unwrap(), ServerEvent::Served);
        assert_eq!(server.protocol_errors(), 2);
        assert!(client_end.recv(&mut buf).unwrap());
        let (unique, reply) = decode_reply(&mut buf, ReplyKind::Unit).unwrap();
        assert_eq!(unique, 56);
        assert_eq!(reply, Reply::Err(Errno::EINVAL));
    }

    #[test]
    fn every_injector_wire_error_gets_einval_at_the_salvaged_unique() {
        // The fault injector can damage a frame in exactly three decodable
        // ways: a bit flip (BadChecksum), a cut that keeps the header
        // (LengthMismatch), and a cut into the unique id itself (Truncated).
        // Each must produce a best-effort EINVAL — at the salvaged unique
        // where one survives, at 0 where it doesn't — and count once.
        let (server_end, client_end) = ChannelTransport::pair();
        let mut server = Server::new(memfs_session(), server_end);
        let plan = FaultPlan::new()
            .on_send(0, Fault::Corrupt(300)) // bit 300: body, past the unique
            .on_send(1, Fault::Truncate(20)) // keeps header incl. unique
            .on_send(2, Fault::Truncate(6)); // cuts into the unique id
        let mut faulty = FaultTransport::new(client_end, plan);
        let req = Request::new(
            cred(),
            Operation::Lookup {
                parent: FUSE_ROOT_ID,
                name: "x".into(),
            },
        );
        let mut frame = Vec::new();
        for unique in [7u64, 8, 9] {
            encode_request(&mut frame, unique, &req);
            faulty.send(&frame).unwrap();
            assert_eq!(server.serve_one().unwrap(), ServerEvent::Served);
        }
        assert_eq!(
            server.protocol_errors(),
            faulty.counters().total(),
            "every injected fault surfaced as exactly one protocol error"
        );
        assert_eq!(server.protocol_errors(), 3);
        assert_eq!(
            server.replayed(),
            0,
            "corrupt frames never look like retransmits"
        );
        let mut buf = Vec::new();
        for expect in [7u64, 8, 0] {
            assert!(faulty.recv(&mut buf).unwrap());
            let (unique, reply) = decode_reply(&mut buf, ReplyKind::Unit).unwrap();
            assert_eq!(unique, expect);
            assert_eq!(reply, Reply::Err(Errno::EINVAL));
        }
    }

    #[test]
    fn retransmitted_uniques_replay_cached_replies_without_re_executing() {
        let (server_end, mut client_end) = ChannelTransport::pair();
        let mut server = Server::new(memfs_session(), server_end);
        let mk = Request::new(
            cred(),
            Operation::Mkdir {
                parent: FUSE_ROOT_ID,
                name: "once".into(),
                mode: Mode::DIR_755,
            },
        );
        let mut frame = Vec::new();
        encode_request(&mut frame, 1, &mk);
        client_end.send(&frame).unwrap();
        assert_eq!(server.serve_one().unwrap(), ServerEvent::Served);
        let mut first = Vec::new();
        assert!(client_end.recv(&mut first).unwrap());

        // The retransmission: same unique, same bytes. Re-execution would
        // answer EEXIST; the cache must answer the original Entry instead.
        client_end.send(&frame).unwrap();
        assert_eq!(server.serve_one().unwrap(), ServerEvent::Served);
        let mut second = Vec::new();
        assert!(client_end.recv(&mut second).unwrap());
        assert_eq!(first, second, "replayed reply is byte-identical");
        assert_eq!(server.replayed(), 1);
    }

    #[test]
    fn cached_frames_survive_buffer_rotation() {
        // Each sent frame becomes a cache entry, and the evicted entry's
        // buffer is the next reply's: an entry that aliased the buffer the
        // next encode writes into would replay some later reply's bytes.
        let mut fs = Filesystem::new_local();
        let content: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        fs.install_file("/big", content, Uid(0), Gid(0), Mode::FILE_644)
            .unwrap();
        let session = Session::new(MemFs::new(fs, UserNamespace::initial()));
        let (server_end, mut client_end) = ChannelTransport::pair();
        let mut server = Server::new(session, server_end);
        let cache = ServeConfig::default().reply_cache as u64;

        let mut requests: Vec<Request> = Vec::new();
        let mut first: Vec<Vec<u8>> = Vec::new();
        let mut frame = Vec::new();
        let mut call = |req: Request, requests: &mut Vec<Request>| -> Vec<u8> {
            requests.push(req);
            let unique = requests.len() as u64;
            encode_request(&mut frame, unique, requests.last().unwrap());
            client_end.send(&frame).unwrap();
            assert_eq!(server.serve_one().unwrap(), ServerEvent::Served);
            let mut reply = Vec::new();
            assert!(client_end.recv(&mut reply).unwrap());
            reply
        };
        let mkdir = Request::new(
            cred(),
            Operation::Mkdir {
                parent: FUSE_ROOT_ID,
                name: "once".into(),
                mode: Mode::DIR_755,
            },
        );
        first.push(call(mkdir, &mut requests));
        let lookup = Request::new(
            cred(),
            Operation::Lookup {
                parent: FUSE_ROOT_ID,
                name: "big".into(),
            },
        );
        first.push(call(lookup, &mut requests));
        let ino = match decode_reply(&mut first[1].clone(), ReplyKind::Entry).unwrap() {
            (_, Reply::Entry(e)) => e.ino,
            other => panic!("{other:?}"),
        };
        let open = Request::new(
            cred(),
            Operation::Open {
                ino,
                flags: crate::op::OpenFlags::RDONLY,
            },
        );
        first.push(call(open, &mut requests));
        let fh = match decode_reply(&mut first[2].clone(), ReplyKind::Opened).unwrap() {
            (_, Reply::Opened(o)) => o.fh,
            other => panic!("{other:?}"),
        };
        // 32 KiB reads at shifting offsets (the last ones cut short by end
        // of file), alternating with small getattr replies.
        while (first.len() as u64) < cache + 8 {
            let n = first.len() as u64;
            let op = if n.is_multiple_of(2) {
                Operation::Read {
                    fh,
                    offset: n * 331,
                    size: 32 << 10,
                }
            } else {
                Operation::Getattr { ino }
            };
            first.push(call(Request::new(cred(), op), &mut requests));
        }
        let served = first.len() as u64;

        // Every unique still cached replays the frame first received.
        for unique in served - cache + 1..=served {
            encode_request(&mut frame, unique, &requests[unique as usize - 1]);
            client_end.send(&frame).unwrap();
            assert_eq!(server.serve_one().unwrap(), ServerEvent::Served);
            let mut replay = Vec::new();
            assert!(client_end.recv(&mut replay).unwrap());
            assert_eq!(
                replay,
                first[unique as usize - 1],
                "unique {unique} replayed other bytes"
            );
        }
        assert_eq!(server.replayed(), cache);

        // The mkdir aged out: it re-executes, as documented, and answers
        // the duplicated side effect's EEXIST.
        encode_request(&mut frame, 1, &requests[0]);
        client_end.send(&frame).unwrap();
        assert_eq!(server.serve_one().unwrap(), ServerEvent::Served);
        let mut reply = Vec::new();
        assert!(client_end.recv(&mut reply).unwrap());
        assert_eq!(
            decode_reply(&mut reply, ReplyKind::Entry).unwrap(),
            (1, Reply::Err(Errno::EEXIST))
        );
        assert_eq!(server.replayed(), cache);
    }

    #[test]
    fn destroy_answered_with_an_errno_is_refused() {
        // A destroy damaged in flight gets the best-effort EINVAL and ends
        // nothing: the client must report that, not success (or panic).
        let (server_end, client_end) = ChannelTransport::pair();
        let mut server = Server::new(memfs_session(), server_end);
        let plan = FaultPlan::new().on_send(0, Fault::Corrupt(200));
        let mut client = Client::new(FaultTransport::new(client_end, plan));
        std::thread::scope(|s| {
            let h = s.spawn(|| client.destroy());
            assert_eq!(server.serve_one().unwrap(), ServerEvent::Served);
            let got = h.join().unwrap();
            assert!(
                matches!(got, Err(ClientError::Refused(Errno::EINVAL))),
                "{got:?}"
            );
        });
        assert_eq!(server.protocol_errors(), 1);
    }

    #[test]
    fn a_zero_entry_cache_disables_replay_protection() {
        let (server_end, mut client_end) = ChannelTransport::pair();
        let mut server = Server::with_config(
            memfs_session(),
            server_end,
            ServeConfig {
                reply_cache: 0,
                max_backlog: None,
            },
        );
        let mk = Request::new(
            cred(),
            Operation::Mkdir {
                parent: FUSE_ROOT_ID,
                name: "twice".into(),
                mode: Mode::DIR_755,
            },
        );
        let mut frame = Vec::new();
        encode_request(&mut frame, 1, &mk);
        let mut buf = Vec::new();
        for _ in 0..2 {
            client_end.send(&frame).unwrap();
            assert_eq!(server.serve_one().unwrap(), ServerEvent::Served);
            assert!(client_end.recv(&mut buf).unwrap());
        }
        // The duplicate re-executed: the second answer is the duplicated
        // side effect's EEXIST, not a replay.
        let (unique, reply) = decode_reply(&mut buf, ReplyKind::Entry).unwrap();
        assert_eq!(unique, 1);
        assert_eq!(reply, Reply::Err(Errno::EEXIST));
        assert_eq!(server.replayed(), 0);
    }

    #[test]
    fn backlog_over_cap_sheds_with_eagain_before_execution() {
        let (server_end, mut client_end) = ChannelTransport::pair();
        let mut server = Server::with_config(
            memfs_session(),
            server_end,
            ServeConfig {
                max_backlog: Some(0),
                ..ServeConfig::default()
            },
        );
        let mk = |name: &str| {
            Request::new(
                cred(),
                Operation::Mkdir {
                    parent: FUSE_ROOT_ID,
                    name: name.into(),
                    mode: Mode::DIR_755,
                },
            )
        };
        let mut frame = Vec::new();
        encode_request(&mut frame, 1, &mk("a"));
        client_end.send(&frame).unwrap();
        encode_request(&mut frame, 2, &mk("b"));
        client_end.send(&frame).unwrap();

        // Request 1 arrives with request 2 still queued behind it: shed.
        assert_eq!(server.serve_one().unwrap(), ServerEvent::Served);
        // Request 2 arrives with an empty backlog: executed.
        assert_eq!(server.serve_one().unwrap(), ServerEvent::Served);
        assert_eq!(server.shed(), 1);

        let mut buf = Vec::new();
        assert!(client_end.recv(&mut buf).unwrap());
        let (unique, reply) = decode_reply(&mut buf, ReplyKind::Entry).unwrap();
        assert_eq!((unique, reply), (1, Reply::Err(Errno::EAGAIN)));
        assert!(client_end.recv(&mut buf).unwrap());
        let (unique, reply) = decode_reply(&mut buf, ReplyKind::Entry).unwrap();
        assert_eq!(unique, 2);
        assert!(reply.is_ok());

        // The shed request was really not executed: "a" does not exist.
        encode_request(
            &mut frame,
            3,
            &Request::new(
                cred(),
                Operation::Lookup {
                    parent: FUSE_ROOT_ID,
                    name: "a".into(),
                },
            ),
        );
        client_end.send(&frame).unwrap();
        assert_eq!(server.serve_one().unwrap(), ServerEvent::Served);
        assert!(client_end.recv(&mut buf).unwrap());
        let (_, reply) = decode_reply(&mut buf, ReplyKind::Entry).unwrap();
        assert_eq!(reply, Reply::Err(Errno::ENOENT));
    }

    #[test]
    fn destroy_is_never_shed() {
        let (server_end, mut client_end) = ChannelTransport::pair();
        let mut server = Server::with_config(
            memfs_session(),
            server_end,
            ServeConfig {
                max_backlog: Some(0),
                ..ServeConfig::default()
            },
        );
        let mut frame = Vec::new();
        encode_destroy(&mut frame, 1);
        client_end.send(&frame).unwrap();
        encode_request(
            &mut frame,
            2,
            &Request::new(
                cred(),
                Operation::Lookup {
                    parent: FUSE_ROOT_ID,
                    name: "x".into(),
                },
            ),
        );
        client_end.send(&frame).unwrap();
        // The destroy arrives under backlog pressure and still drains.
        assert_eq!(server.serve_one().unwrap(), ServerEvent::Shutdown);
        assert_eq!(server.shed(), 0);
    }

    #[test]
    fn destroy_ack_to_a_dead_client_still_reclaims_handles() {
        let (server_end, mut client_end) = ChannelTransport::pair();
        let mut server = Server::new(memfs_session(), server_end);
        let mut frame = Vec::new();
        encode_request(
            &mut frame,
            1,
            &Request::new(cred(), Operation::Opendir { ino: FUSE_ROOT_ID }),
        );
        client_end.send(&frame).unwrap();
        assert_eq!(server.serve_one().unwrap(), ServerEvent::Served);
        assert_eq!(server.dispatcher().open_handles(), 1);

        // The destroy is queued, then the client dies before the ack can be
        // delivered: the ack send fails silently, the drain still runs.
        encode_destroy(&mut frame, 2);
        client_end.send(&frame).unwrap();
        drop(client_end);
        assert_eq!(server.serve_one().unwrap(), ServerEvent::Shutdown);
        assert_eq!(server.dispatcher().open_handles(), 0);
    }

    #[test]
    fn full_serve_loop_runs_on_a_thread() {
        let (server_end, client_end) = ChannelTransport::pair();
        let mut server = Server::new(memfs_session(), server_end);
        let handle = std::thread::spawn(move || {
            let summary = server.serve().unwrap();
            (server, summary)
        });

        let mut client = Client::new(client_end);
        let made = match client
            .call(&Request::new(
                cred(),
                Operation::Create {
                    parent: FUSE_ROOT_ID,
                    name: "hello.txt".into(),
                    mode: Mode::FILE_644,
                    flags: crate::op::OpenFlags::RDWR,
                },
            ))
            .unwrap()
        {
            Reply::Opened(o) => o,
            other => panic!("{other:?}"),
        };
        match client
            .call(&Request::new(
                cred(),
                Operation::Write {
                    fh: made.fh,
                    offset: 0,
                    data: b"over the wire".to_vec(),
                },
            ))
            .unwrap()
        {
            Reply::Written(w) => assert_eq!(w.size, 13),
            other => panic!("{other:?}"),
        }
        match client
            .call(&Request::new(
                cred(),
                Operation::Read {
                    fh: made.fh,
                    offset: 0,
                    size: 1024,
                },
            ))
            .unwrap()
        {
            Reply::Data(d) => assert_eq!(d.as_slice(), b"over the wire"),
            other => panic!("{other:?}"),
        }
        client.destroy().unwrap();
        let (server, summary) = handle.join().unwrap();
        assert_eq!(summary.shutdown, Shutdown::Destroyed);
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.protocol_errors, 0);
        assert_eq!(server.dispatcher().open_handles(), 0);
    }
}
