//! Deadline, backoff, and retransmission for the wire [`Client`].
//!
//! [`Client::call`] assumes a perfect byte pipe: it blocks forever on a lost
//! reply and has no answer to a shedding server. [`Client::call_with`] layers
//! a [`RetryPolicy`] on top — a per-call deadline, a bounded number of
//! attempts, and exponential backoff with deterministic jitter — without
//! changing the fast path: when the reply is already queued, no clock is
//! read and no backoff state is touched, so a policy-wrapped fault-free call
//! costs the same as a bare one (gated at ≤1.2× in `bench_gate --relative`).
//!
//! Retransmission safety is split by what the client *knows*:
//!
//! * a **typed busy answer** ([`Errno::EAGAIN`] from an overload-shedding
//!   server) or a best-effort [`Errno::EINVAL`] (the server's reply to a
//!   frame it could not parse) proves the operation was not executed, so any
//!   request — mutating or not — may be resent;
//! * a **timeout** proves nothing: the request may have executed with the
//!   reply lost. Read-only operations resend freely; mutating ones resend
//!   only when [`RetryPolicy::resend_mutations`] says the server keeps a
//!   reply cache (see [`ServeConfig`](crate::server::ServeConfig)), making
//!   at-least-once delivery exactly-once execution.
//!
//! Every resend reuses the same request bytes and unique id — that id is
//! what the server's reply cache replays on.

use std::time::{Duration, Instant};

use crate::errno::Errno;
use crate::fault::Rng;
use crate::op::{Reply, ReplyKind, Request};
use crate::server::Client;
use crate::transport::{RecvOutcome, Transport, TransportError};
use crate::wire::{decode_reply, encode_destroy, encode_request};

/// How hard a [`Client::call_with`] tries before giving up.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// How long one attempt waits for a reply before retransmitting.
    pub attempt_timeout: Duration,
    /// The overall per-call budget, measured from the first failed wait (the
    /// fast path never reads a clock).
    pub deadline: Duration,
    /// Total attempts, the original send included.
    pub max_attempts: u32,
    /// Backoff before resend `n` starts at this and doubles each time…
    pub backoff_base: Duration,
    /// …capped here, then jittered to `[½·b, 1½·b)` deterministically.
    pub backoff_cap: Duration,
    /// Whether mutating operations may be retransmitted after a *timeout*.
    /// Safe only against a server with a reply cache
    /// ([`ServeConfig::reply_cache`](crate::server::ServeConfig) > 0), which
    /// replays instead of re-executing. Busy/EINVAL answers resend
    /// regardless — they prove non-execution.
    pub resend_mutations: bool,
    /// Seed for the deterministic jitter (xored with each call's unique id,
    /// so concurrent clients sharing a policy still spread out).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempt_timeout: Duration::from_millis(10),
            deadline: Duration::from_millis(200),
            max_attempts: 6,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(2),
            resend_mutations: true,
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// Why a policy-driven call gave up — always typed, never a hang.
#[derive(Debug)]
pub enum CallError {
    /// Every attempt timed out (or the deadline/attempt budget ran dry).
    TimedOut {
        /// Attempts made, the original send included.
        attempts: u32,
    },
    /// The server went away: the transport closed mid-call.
    Disconnected,
    /// The transport failed in some other way (I/O, framing).
    Transport(TransportError),
    /// The server answered [`Client::destroy_with`]'s `FUSE_DESTROY` with
    /// this errno, after any retries: the session did not end.
    Refused(Errno),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::TimedOut { attempts } => {
                write!(f, "call timed out after {attempts} attempt(s)")
            }
            CallError::Disconnected => write!(f, "server disconnected mid-call"),
            CallError::Transport(e) => write!(f, "call transport error: {e}"),
            CallError::Refused(e) => write!(f, "server refused destroy: {e}"),
        }
    }
}

impl std::error::Error for CallError {}

/// Errnos that prove the server did *not* execute the request: `EAGAIN` is
/// the shedding server's typed busy answer, `EINVAL` its best-effort reply
/// to a frame it could not parse (an injector-corrupted request).
fn retryable(e: Errno) -> bool {
    e == Errno::EAGAIN || e == Errno::EINVAL
}

fn send_err(e: TransportError) -> CallError {
    match e {
        TransportError::Closed => CallError::Disconnected,
        other => CallError::Transport(other),
    }
}

/// Backoff before resend number `attempts`: base · 2^(attempts−1), capped.
fn backoff(policy: &RetryPolicy, attempts: u32) -> Duration {
    let shift = (attempts - 1).min(20);
    policy
        .backoff_base
        .saturating_mul(1u32 << shift)
        .min(policy.backoff_cap)
}

/// Spreads `base` to `[½·base, 1½·base)` from the deterministic stream.
fn jitter(rng: &mut Rng, base: Duration) -> Duration {
    let nanos = base.as_nanos() as u64;
    if nanos == 0 {
        return base;
    }
    Duration::from_nanos(nanos / 2 + rng.next() % nanos)
}

impl<T: Transport> Client<T> {
    /// One round trip under a [`RetryPolicy`]: send, wait up to
    /// [`attempt_timeout`](RetryPolicy::attempt_timeout), retransmit with
    /// backoff while the policy allows, and always terminate — with the
    /// server's reply, the last busy answer, or a typed [`CallError`].
    pub fn call_with(&mut self, req: &Request, policy: &RetryPolicy) -> Result<Reply, CallError> {
        let unique = self.next_unique;
        self.next_unique += 1;
        encode_request(&mut self.out_buf, unique, req);
        let resend_on_timeout = policy.resend_mutations || !req.op.mutates();
        self.drive(unique, req.op.reply_kind(), resend_on_timeout, policy)
    }

    /// [`Client::destroy`] under a policy: the destroy is resent freely (the
    /// server never sheds it, and re-delivery after the ack just finds a
    /// closed transport, reported as [`CallError::Disconnected`]). An errno
    /// that is still the answer once retries end is [`CallError::Refused`].
    // hpcc-lint: allow(test_only_api) — harness: tests/chaos_serve.rs ends every fault schedule with it
    pub fn destroy_with(&mut self, policy: &RetryPolicy) -> Result<(), CallError> {
        let unique = self.next_unique;
        self.next_unique += 1;
        encode_destroy(&mut self.out_buf, unique);
        match self.drive(unique, ReplyKind::Unit, true, policy)? {
            Reply::Err(e) => Err(CallError::Refused(e)),
            _ => Ok(()),
        }
    }

    /// The shared retry loop over the request already encoded in `out_buf`.
    fn drive(
        &mut self,
        unique: u64,
        kind: ReplyKind,
        resend_on_timeout: bool,
        policy: &RetryPolicy,
    ) -> Result<Reply, CallError> {
        self.transport.send(&self.out_buf).map_err(send_err)?;
        let mut attempts: u32 = 1;
        // Both the deadline and the jitter stream materialize lazily: the
        // fast path (reply already queued) runs zero clock reads and zero
        // RNG steps.
        let mut deadline: Option<Instant> = None;
        let mut rng: Option<Rng> = None;
        let mut busy: Option<Errno> = None;
        loop {
            // Whether this round produced proof the server never executed
            // the request (a typed busy/EINVAL answer re-arms resending even
            // for mutations).
            let mut proven_unexecuted = false;
            match self
                .transport
                .recv_timeout(&mut self.in_buf, policy.attempt_timeout)
            {
                Err(TransportError::Closed) => return Err(CallError::Disconnected),
                Err(e) => return Err(CallError::Transport(e)),
                Ok(RecvOutcome::Closed) => return Err(CallError::Disconnected),
                Ok(RecvOutcome::TimedOut) => {}
                Ok(RecvOutcome::Frame) => match decode_reply(&mut self.in_buf, kind) {
                    // A frame that fails to decode is injector damage on the
                    // reply path; the request likely executed, so fall back
                    // to waiting — a resend replays from the server's cache.
                    Err(_) => continue,
                    // A reply for an earlier attempt or call (a duplicate or
                    // a delayed straggler): skip it, keep waiting for ours.
                    Ok((u, _)) if u != unique => continue,
                    Ok((_, Reply::Err(e))) if retryable(e) => {
                        busy = Some(e);
                        proven_unexecuted = true;
                    }
                    Ok((_, reply)) => return Ok(reply),
                },
            }
            // No usable reply this round: retransmit if the policy and the
            // evidence allow, otherwise surface what we know.
            let now = Instant::now();
            let dl = *deadline.get_or_insert(now + policy.deadline);
            if (!resend_on_timeout && !proven_unexecuted)
                || attempts >= policy.max_attempts
                || now >= dl
            {
                return match busy {
                    // The server's last word was a typed busy answer; after
                    // exhausting retries that *is* the reply.
                    Some(e) => Ok(Reply::Err(e)),
                    None => Err(CallError::TimedOut { attempts }),
                };
            }
            let rng = rng.get_or_insert_with(|| Rng::new(policy.jitter_seed ^ unique));
            let pause = jitter(rng, backoff(policy, attempts)).min(dl - now);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            attempts += 1;
            self.transport.send(&self.out_buf).map_err(send_err)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultPlan, FaultTransport};
    use crate::memfs::MemFs;
    use crate::op::{FsCreds, Operation};
    use crate::server::{Server, Shutdown};
    use crate::session::Session;
    use crate::transport::ChannelTransport;
    use crate::wire::{encode_reply, FUSE_ROOT_ID};
    use hpcc_kernel::UserNamespace;
    use hpcc_vfs::{Filesystem, Mode};

    fn memfs_session() -> Session<MemFs> {
        Session::new(MemFs::new(
            Filesystem::new_local(),
            UserNamespace::initial(),
        ))
    }

    fn lookup(name: &str) -> Request {
        Request::new(
            FsCreds::root(),
            Operation::Lookup {
                parent: FUSE_ROOT_ID,
                name: name.into(),
            },
        )
    }

    fn mkdir(name: &str) -> Request {
        Request::new(
            FsCreds::root(),
            Operation::Mkdir {
                parent: FUSE_ROOT_ID,
                name: name.into(),
                mode: Mode::DIR_755,
            },
        )
    }

    /// A fast-retrying policy for tests: generous attempts, tiny waits.
    fn quick() -> RetryPolicy {
        RetryPolicy {
            attempt_timeout: Duration::from_millis(5),
            deadline: Duration::from_secs(2),
            max_attempts: 8,
            backoff_base: Duration::from_micros(10),
            backoff_cap: Duration::from_micros(100),
            ..RetryPolicy::default()
        }
    }

    /// Runs `f` against a served session over a faulty client transport,
    /// returning (client result, serve summary, injected fault counters).
    fn with_faulty_server<R>(
        plan: FaultPlan,
        f: impl FnOnce(&mut Client<FaultTransport<ChannelTransport>>) -> R,
    ) -> (R, crate::server::ServeSummary, crate::fault::FaultCounters) {
        let (server_end, client_end) = ChannelTransport::pair();
        let mut server = Server::new(memfs_session(), server_end);
        let handle = std::thread::spawn(move || server.serve());
        let mut client = Client::new(FaultTransport::new(client_end, plan));
        let r = f(&mut client);
        let counters = client.transport().counters();
        drop(client);
        let summary = handle.join().unwrap().unwrap();
        (r, summary, counters)
    }

    #[test]
    fn fault_free_call_with_matches_bare_call() {
        let (r, summary, counters) = with_faulty_server(FaultPlan::new(), |client| {
            let made = client.call_with(&mkdir("d"), &quick()).unwrap();
            let found = client.call_with(&lookup("d"), &quick()).unwrap();
            (made, found)
        });
        let (made, found) = r;
        match (&made, &found) {
            (Reply::Entry(a), Reply::Entry(b)) => assert_eq!(a.ino, b.ino),
            other => panic!("{other:?}"),
        }
        assert_eq!(summary.requests, 2);
        assert_eq!(counters.total(), 0);
    }

    #[test]
    fn dropped_request_is_retransmitted() {
        let plan = FaultPlan::new().on_send(0, Fault::Drop);
        let (reply, summary, counters) =
            with_faulty_server(plan, |client| client.call_with(&lookup("x"), &quick()));
        assert_eq!(reply.unwrap(), Reply::Err(Errno::ENOENT));
        assert_eq!(counters.dropped, 1);
        assert_eq!(summary.requests, 1, "the resend executed exactly once");
    }

    #[test]
    fn dropped_reply_replays_the_mutation_from_cache() {
        // The mkdir executes, its reply is lost, the resend must NOT mkdir
        // again (EEXIST) — the server's cache replays the original Entry.
        let plan = FaultPlan::new().on_recv(0, Fault::Drop);
        let (reply, summary, _) =
            with_faulty_server(plan, |client| client.call_with(&mkdir("once"), &quick()));
        assert!(matches!(reply.unwrap(), Reply::Entry(_)));
        assert_eq!(summary.requests, 1, "executed once, not twice");
        assert_eq!(summary.replayed, 1, "the resend hit the reply cache");
    }

    #[test]
    fn duplicated_request_hits_the_reply_cache() {
        let plan = FaultPlan::new().on_send(0, Fault::Duplicate);
        let (reply, summary, _) =
            with_faulty_server(plan, |client| client.call_with(&mkdir("dup"), &quick()));
        assert!(matches!(reply.unwrap(), Reply::Entry(_)));
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.replayed, 1);
    }

    #[test]
    fn corrupted_request_gets_einval_then_succeeds_on_resend() {
        // Flip a bit deep in the body: the server answers EINVAL at the
        // salvaged unique, which the policy treats as proof of non-execution.
        let plan = FaultPlan::new().on_send(0, Fault::Corrupt(200));
        let (reply, summary, counters) =
            with_faulty_server(plan, |client| client.call_with(&mkdir("c"), &quick()));
        assert!(matches!(reply.unwrap(), Reply::Entry(_)));
        assert_eq!(counters.corrupted, 1);
        assert_eq!(summary.protocol_errors, 1);
        assert_eq!(summary.requests, 1);
    }

    #[test]
    fn mutations_do_not_resend_on_timeout_when_disallowed() {
        let plan = FaultPlan::new().on_recv(0, Fault::Drop);
        let policy = RetryPolicy {
            resend_mutations: false,
            ..quick()
        };
        let (reply, summary, _) =
            with_faulty_server(plan, |client| client.call_with(&mkdir("m"), &policy));
        match reply {
            Err(CallError::TimedOut { attempts }) => assert_eq!(attempts, 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(summary.requests, 1, "executed once; never retransmitted");
    }

    #[test]
    fn read_only_ops_resend_on_timeout_even_when_mutations_cannot() {
        let plan = FaultPlan::new().on_recv(0, Fault::Drop);
        let policy = RetryPolicy {
            resend_mutations: false,
            ..quick()
        };
        let (reply, _, _) =
            with_faulty_server(plan, |client| client.call_with(&lookup("nope"), &policy));
        assert_eq!(reply.unwrap(), Reply::Err(Errno::ENOENT));
    }

    #[test]
    fn disconnect_surfaces_as_a_typed_error_not_a_hang() {
        let plan = FaultPlan::new().on_send(1, Fault::Disconnect);
        let (replies, summary, counters) = with_faulty_server(plan, |client| {
            let first = client.call_with(&lookup("a"), &quick());
            let second = client.call_with(&lookup("b"), &quick());
            (first, second)
        });
        assert_eq!(replies.0.unwrap(), Reply::Err(Errno::ENOENT));
        assert!(matches!(replies.1, Err(CallError::Disconnected)));
        assert_eq!(counters.disconnects, 1);
        assert_eq!(summary.shutdown, Shutdown::Disconnected);
    }

    #[test]
    fn busy_answers_are_retried_and_surface_after_exhaustion() {
        // Script the peer by hand: two EAGAINs, then the real reply.
        let (mut server_end, client_end) = ChannelTransport::pair();
        let peer = std::thread::spawn(move || {
            let mut buf = Vec::new();
            let mut out = Vec::new();
            for _ in 0..2 {
                assert!(server_end.recv(&mut buf).unwrap());
                let unique = crate::wire::peek_unique(&buf).unwrap();
                encode_reply(&mut out, unique, &Reply::Err(Errno::EAGAIN));
                server_end.send(&out).unwrap();
            }
            assert!(server_end.recv(&mut buf).unwrap());
            let unique = crate::wire::peek_unique(&buf).unwrap();
            encode_reply(&mut out, unique, &Reply::Err(Errno::ENOENT));
            server_end.send(&out).unwrap();
        });
        let mut client = Client::new(client_end);
        let reply = client.call_with(&lookup("busy"), &quick()).unwrap();
        assert_eq!(
            reply,
            Reply::Err(Errno::ENOENT),
            "retried through the busy answers"
        );
        peer.join().unwrap();

        // With the attempt budget exhausted, the busy answer itself is the
        // reply — a mutation answered EAGAIN was provably never executed,
        // so even `resend_mutations: false` retries it up to the budget.
        let (mut server_end, client_end) = ChannelTransport::pair();
        let peer = std::thread::spawn(move || {
            let mut buf = Vec::new();
            let mut out = Vec::new();
            for _ in 0..2 {
                assert!(server_end.recv(&mut buf).unwrap());
                let unique = crate::wire::peek_unique(&buf).unwrap();
                encode_reply(&mut out, unique, &Reply::Err(Errno::EAGAIN));
                server_end.send(&out).unwrap();
            }
        });
        let mut client = Client::new(client_end);
        let policy = RetryPolicy {
            max_attempts: 2,
            resend_mutations: false,
            ..quick()
        };
        let reply = client.call_with(&mkdir("busy"), &policy).unwrap();
        assert_eq!(reply, Reply::Err(Errno::EAGAIN));
        peer.join().unwrap();
    }

    #[test]
    fn destroy_with_reports_a_final_errno_as_refused() {
        // Every destroy answered EINVAL: retried to the budget, then the
        // errno is the outcome — an error, since the session did not end.
        let (mut server_end, client_end) = ChannelTransport::pair();
        let peer = std::thread::spawn(move || {
            let mut buf = Vec::new();
            let mut out = Vec::new();
            for _ in 0..2 {
                assert!(server_end.recv(&mut buf).unwrap());
                let unique = crate::wire::peek_unique(&buf).unwrap();
                encode_reply(&mut out, unique, &Reply::Err(Errno::EINVAL));
                server_end.send(&out).unwrap();
            }
        });
        let mut client = Client::new(client_end);
        let policy = RetryPolicy {
            max_attempts: 2,
            ..quick()
        };
        let got = client.destroy_with(&policy);
        assert!(
            matches!(got, Err(CallError::Refused(Errno::EINVAL))),
            "{got:?}"
        );
        peer.join().unwrap();
    }

    #[test]
    fn no_retry_policy_times_out_after_one_attempt() {
        let (_server_end, client_end) = ChannelTransport::pair();
        let mut client = Client::new(client_end);
        let policy = RetryPolicy {
            attempt_timeout: Duration::from_millis(2),
            deadline: Duration::from_millis(2),
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        match client.call_with(&lookup("void"), &policy) {
            Err(CallError::TimedOut { attempts }) => assert_eq!(attempts, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn backoff_doubles_to_the_cap_and_jitter_is_deterministic() {
        let policy = RetryPolicy {
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_micros(500),
            ..RetryPolicy::default()
        };
        assert_eq!(backoff(&policy, 1), Duration::from_micros(100));
        assert_eq!(backoff(&policy, 2), Duration::from_micros(200));
        assert_eq!(backoff(&policy, 3), Duration::from_micros(400));
        assert_eq!(backoff(&policy, 4), Duration::from_micros(500), "capped");
        assert_eq!(backoff(&policy, 30), Duration::from_micros(500));

        let a = jitter(&mut Rng::new(42), Duration::from_micros(100));
        let b = jitter(&mut Rng::new(42), Duration::from_micros(100));
        assert_eq!(a, b, "same seed, same jitter");
        let half = Duration::from_micros(50);
        let one_and_half = Duration::from_micros(150);
        assert!(a >= half && a < one_and_half, "{a:?} outside [½b, 1½b)");
    }
}
