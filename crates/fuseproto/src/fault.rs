//! Deterministic fault injection for wire transports.
//!
//! [`FaultTransport`] wraps any [`Transport`] and perturbs traffic according
//! to a [`FaultPlan`]: a map from frame index (per direction, counted from
//! zero) to the [`Fault`] applied there. Plans are plain data — built by
//! hand for scripted tests, or derived from a seed with [`FaultPlan::random`]
//! so a chaos run that fails can be replayed exactly by printing one `u64`.
//! No wall clock is involved anywhere: "delay" is reordering (the frame is
//! held back until later frames pass it), so every schedule is deterministic
//! under any scheduler.
//!
//! The wrapper is built for frame-preserving transports
//! ([`ChannelTransport`](crate::ChannelTransport)): a truncated or corrupted
//! frame still travels as one frame, and the receiver's decoder — not the
//! framing — detects the damage, which is exactly the failure shape the
//! checksum trailer in [`wire`](crate::wire) exists to type. Over a raw byte
//! stream, truncation would instead desynchronize the length-prefix framing
//! for the rest of the connection.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::transport::{RecvOutcome, Transport, TransportError};

/// One injected perturbation, applied to the frame at a chosen index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The frame silently vanishes.
    Drop,
    /// The frame is cut short: the value, taken modulo the frame length,
    /// is how many leading bytes survive (always strictly fewer than all).
    Truncate(u16),
    /// One bit flips; the value (modulo the frame's bit count) picks which.
    Corrupt(u16),
    /// The frame arrives twice.
    Duplicate,
    /// The frame is held back until this many later frames have passed it
    /// (reordering, not wall-clock delay). If the connection ends first,
    /// the held frame degrades to a drop.
    Delay(u8),
    /// The connection is severed: the underlying transport is dropped, so
    /// the peer observes a close and every later call here fails
    /// [`TransportError::Closed`].
    Disconnect,
}

/// Counts of faults actually injected, by kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultCounters {
    /// Frames silently discarded.
    pub dropped: u64,
    /// Frames cut short.
    pub truncated: u64,
    /// Frames with a flipped bit.
    pub corrupted: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames held back and reordered.
    pub delayed: u64,
    /// Hard disconnects.
    pub disconnects: u64,
}

impl FaultCounters {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.truncated
            + self.corrupted
            + self.duplicated
            + self.delayed
            + self.disconnects
    }
}

/// xorshift64* — the repo's stock offline PRNG (also seeds the retry
/// policy's deterministic jitter).
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Which faults land on which frames, per direction.
///
/// Indices count frames as they pass through the wrapper: the `n`th call to
/// `send` is send-index `n`, the `n`th frame pulled off the inner transport
/// is recv-index `n` (re-deliveries of held frames don't consume indices).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    send: BTreeMap<u64, Fault>,
    recv: BTreeMap<u64, Fault>,
}

impl FaultPlan {
    /// An empty plan: the wrapper becomes a transparent pass-through.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules `fault` on the `index`th outgoing frame.
    // hpcc-lint: allow(test_only_api) — harness: tests/chaos_serve.rs scripts its duplicate storm with it
    pub fn on_send(mut self, index: u64, fault: Fault) -> FaultPlan {
        self.send.insert(index, fault);
        self
    }

    /// Schedules `fault` on the `index`th incoming frame.
    #[cfg(test)]
    pub fn on_recv(mut self, index: u64, fault: Fault) -> FaultPlan {
        self.recv.insert(index, fault);
        self
    }

    /// Faults scheduled in the plan (collisions during random generation
    /// overwrite, so this may be less than the count requested).
    pub fn len(&self) -> usize {
        self.send.len() + self.recv.len()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.send.is_empty() && self.recv.is_empty()
    }

    /// Derives a schedule of `faults` random faults over the first `horizon`
    /// frame indices of both directions from `seed` — same seed, same plan,
    /// forever. With `allow_disconnect`, one extra hard [`Fault::Disconnect`]
    /// is placed at a random point, turning the schedule into a
    /// connection-killing one (for leak tests rather than equivalence tests).
    // hpcc-lint: allow(test_only_api) — harness: tests/chaos_serve.rs derives its 1000 seeded fault schedules with it
    pub fn random(seed: u64, faults: usize, horizon: u64, allow_disconnect: bool) -> FaultPlan {
        let mut rng = Rng::new(seed);
        let mut plan = FaultPlan::new();
        let horizon = horizon.max(1);
        for _ in 0..faults {
            let index = rng.next() % horizon;
            let fault = match rng.next() % 5 {
                0 => Fault::Drop,
                1 => Fault::Truncate(rng.next() as u16),
                2 => Fault::Corrupt(rng.next() as u16),
                3 => Fault::Duplicate,
                _ => Fault::Delay(1 + (rng.next() % 3) as u8),
            };
            if rng.next().is_multiple_of(2) {
                plan.send.insert(index, fault);
            } else {
                plan.recv.insert(index, fault);
            }
        }
        if allow_disconnect {
            let index = rng.next() % horizon;
            if rng.next().is_multiple_of(2) {
                plan.send.insert(index, Fault::Disconnect);
            } else {
                plan.recv.insert(index, Fault::Disconnect);
            }
        }
        plan
    }
}

/// A [`Transport`] wrapper that injects the faults a [`FaultPlan`] schedules,
/// counting every injection.
///
/// After a [`Fault::Disconnect`] the inner transport is dropped (so the peer
/// observes a real close) and every later operation fails with
/// [`TransportError::Closed`].
pub struct FaultTransport<T> {
    inner: Option<T>,
    plan: FaultPlan,
    sent: u64,
    rcvd: u64,
    /// Outgoing frames held by [`Fault::Delay`], due once `sent` passes the
    /// stored index.
    held_send: Vec<(u64, Vec<u8>)>,
    /// Incoming frames held by [`Fault::Delay`] or queued by
    /// [`Fault::Duplicate`], due once `rcvd` passes the stored index.
    held_recv: Vec<(u64, Vec<u8>)>,
    counters: FaultCounters,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner`, applying `plan` to the traffic that crosses it.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultTransport {
            inner: Some(inner),
            plan,
            sent: 0,
            rcvd: 0,
            held_send: Vec::new(),
            held_recv: Vec::new(),
            counters: FaultCounters::default(),
        }
    }

    /// Counts of faults injected so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    fn sever(&mut self) -> TransportError {
        self.counters.disconnects += 1;
        // Dropping the inner transport is the injection: the peer sees the
        // close exactly as if the process died.
        self.inner = None;
        TransportError::Closed
    }

    /// Sends held outgoing frames whose due index has passed.
    fn flush_due_sends(&mut self) -> Result<(), TransportError> {
        while let Some(i) = self.held_send.iter().position(|(due, _)| *due <= self.sent) {
            let (_, frame) = self.held_send.remove(i);
            let inner = self.inner.as_mut().ok_or(TransportError::Closed)?;
            inner.send(&frame)?;
        }
        Ok(())
    }

    fn recv_inner(
        &mut self,
        buf: &mut Vec<u8>,
        timeout: Option<Duration>,
    ) -> Result<RecvOutcome, TransportError> {
        loop {
            // Held frames whose turn has come are delivered before anything
            // new is pulled off the wire.
            if let Some(i) = self.held_recv.iter().position(|(due, _)| *due <= self.rcvd) {
                let (_, frame) = self.held_recv.remove(i);
                buf.clear();
                buf.extend_from_slice(&frame);
                return Ok(RecvOutcome::Frame);
            }
            let inner = self.inner.as_mut().ok_or(TransportError::Closed)?;
            let outcome = match timeout {
                Some(t) => inner.recv_timeout(buf, t)?,
                None => {
                    if inner.recv(buf)? {
                        RecvOutcome::Frame
                    } else {
                        RecvOutcome::Closed
                    }
                }
            };
            match outcome {
                RecvOutcome::Frame => {}
                other => return Ok(other),
            }
            let index = self.rcvd;
            self.rcvd += 1;
            match self.plan.recv.remove(&index) {
                None => return Ok(RecvOutcome::Frame),
                Some(Fault::Drop) => {
                    self.counters.dropped += 1;
                }
                Some(Fault::Truncate(n)) => {
                    self.counters.truncated += 1;
                    truncate(buf, n);
                    return Ok(RecvOutcome::Frame);
                }
                Some(Fault::Corrupt(n)) => {
                    self.counters.corrupted += 1;
                    corrupt(buf, n);
                    return Ok(RecvOutcome::Frame);
                }
                Some(Fault::Duplicate) => {
                    self.counters.duplicated += 1;
                    // Due immediately: the copy arrives on the next receive.
                    self.held_recv.push((self.rcvd, buf.clone()));
                    return Ok(RecvOutcome::Frame);
                }
                Some(Fault::Delay(k)) => {
                    self.counters.delayed += 1;
                    self.held_recv.push((self.rcvd + u64::from(k), buf.clone()));
                }
                Some(Fault::Disconnect) => return Err(self.sever()),
            }
        }
    }
}

/// Keeps `n % len` leading bytes — always strictly shrinking the frame.
fn truncate(buf: &mut Vec<u8>, n: u16) {
    if !buf.is_empty() {
        let keep = n as usize % buf.len();
        buf.truncate(keep);
    }
}

/// Flips bit `n % (len * 8)`.
fn corrupt(buf: &mut [u8], n: u16) {
    if !buf.is_empty() {
        let bit = n as usize % (buf.len() * 8);
        if let Some(byte) = buf.get_mut(bit / 8) {
            *byte ^= 1 << (bit % 8);
        }
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if self.inner.is_none() {
            return Err(TransportError::Closed);
        }
        let index = self.sent;
        self.sent += 1;
        match self.plan.send.remove(&index) {
            None => {
                let inner = self.inner.as_mut().ok_or(TransportError::Closed)?;
                inner.send(frame)?;
            }
            Some(Fault::Drop) => {
                self.counters.dropped += 1;
            }
            Some(Fault::Truncate(n)) => {
                self.counters.truncated += 1;
                let mut cut = frame.to_vec();
                truncate(&mut cut, n);
                self.inner
                    .as_mut()
                    .ok_or(TransportError::Closed)?
                    .send(&cut)?;
            }
            Some(Fault::Corrupt(n)) => {
                self.counters.corrupted += 1;
                let mut bad = frame.to_vec();
                corrupt(&mut bad, n);
                self.inner
                    .as_mut()
                    .ok_or(TransportError::Closed)?
                    .send(&bad)?;
            }
            Some(Fault::Duplicate) => {
                self.counters.duplicated += 1;
                let inner = self.inner.as_mut().ok_or(TransportError::Closed)?;
                inner.send(frame)?;
                inner.send(frame)?;
            }
            Some(Fault::Delay(k)) => {
                self.counters.delayed += 1;
                // `self.sent` is already past this frame's index, so the due
                // point is "after k more frames", mirroring the recv side.
                self.held_send
                    .push((self.sent + u64::from(k), frame.to_vec()));
            }
            Some(Fault::Disconnect) => return Err(self.sever()),
        }
        self.flush_due_sends()
    }

    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<bool, TransportError> {
        match self.recv_inner(buf, None)? {
            RecvOutcome::Frame => Ok(true),
            RecvOutcome::Closed => Ok(false),
            RecvOutcome::TimedOut => {
                // hpcc-lint: allow(panic) — recv_inner(None) blocks indefinitely and never reports TimedOut
                unreachable!("blocking recv cannot time out")
            }
        }
    }

    fn recv_timeout(
        &mut self,
        buf: &mut Vec<u8>,
        timeout: Duration,
    ) -> Result<RecvOutcome, TransportError> {
        self.recv_inner(buf, Some(timeout))
    }

    fn backlog(&self) -> Option<usize> {
        self.inner.as_ref().and_then(|t| t.backlog())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;

    fn pair_with(plan: FaultPlan) -> (FaultTransport<ChannelTransport>, ChannelTransport) {
        let (a, b) = ChannelTransport::pair();
        (FaultTransport::new(a, plan), b)
    }

    #[test]
    fn empty_plan_is_a_transparent_pass_through() {
        let (mut a, mut b) = pair_with(FaultPlan::new());
        a.send(&[1, 2, 3]).unwrap();
        b.send(&[4, 5]).unwrap();
        let mut buf = Vec::new();
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, [1, 2, 3]);
        assert!(a.recv(&mut buf).unwrap());
        assert_eq!(buf, [4, 5]);
        assert_eq!(a.counters().total(), 0);
    }

    #[test]
    fn send_faults_drop_truncate_corrupt_duplicate() {
        let plan = FaultPlan::new()
            .on_send(0, Fault::Drop)
            .on_send(1, Fault::Truncate(2))
            .on_send(2, Fault::Corrupt(0))
            .on_send(3, Fault::Duplicate);
        let (mut a, mut b) = pair_with(plan);
        a.send(&[10, 11, 12, 13]).unwrap(); // dropped
        a.send(&[20, 21, 22, 23]).unwrap(); // truncated to 2 bytes
        a.send(&[0x30, 0x31]).unwrap(); // bit 0 flipped
        a.send(&[40]).unwrap(); // doubled
        let mut buf = Vec::new();
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, [20, 21], "truncation keeps n leading bytes");
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, [0x31, 0x31], "bit 0 of byte 0 flipped");
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, [40]);
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, [40], "duplicate arrives as a second frame");
        let c = a.counters();
        assert_eq!(
            (c.dropped, c.truncated, c.corrupted, c.duplicated),
            (1, 1, 1, 1)
        );
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn delayed_sends_are_reordered_not_lost() {
        let plan = FaultPlan::new().on_send(0, Fault::Delay(2));
        let (mut a, mut b) = pair_with(plan);
        a.send(&[1]).unwrap(); // held until index 2 passes
        a.send(&[2]).unwrap();
        a.send(&[3]).unwrap(); // frame index 2: the held frame flushes after
        let mut buf = Vec::new();
        let mut order = Vec::new();
        for _ in 0..3 {
            assert!(b.recv(&mut buf).unwrap());
            order.push(buf[0]);
        }
        assert_eq!(order, [2, 3, 1], "held frame passes behind two others");
        assert_eq!(a.counters().delayed, 1);
    }

    #[test]
    fn recv_faults_mirror_send_faults() {
        let plan = FaultPlan::new()
            .on_recv(0, Fault::Drop)
            .on_recv(1, Fault::Duplicate)
            .on_recv(2, Fault::Delay(1));
        let (mut a, mut b) = pair_with(plan);
        b.send(&[1]).unwrap(); // dropped on receive
        b.send(&[2]).unwrap(); // duplicated
        b.send(&[3]).unwrap(); // delayed past the next frame
        b.send(&[4]).unwrap();
        let mut buf = Vec::new();
        let mut order = Vec::new();
        for _ in 0..4 {
            assert!(a.recv(&mut buf).unwrap());
            order.push(buf[0]);
        }
        assert_eq!(order, [2, 2, 4, 3]);
        let c = a.counters();
        assert_eq!((c.dropped, c.duplicated, c.delayed), (1, 1, 1));
    }

    #[test]
    fn disconnect_severs_both_sides() {
        let plan = FaultPlan::new().on_send(1, Fault::Disconnect);
        let (mut a, mut b) = pair_with(plan);
        a.send(&[1]).unwrap();
        assert!(matches!(a.send(&[2]), Err(TransportError::Closed)));
        // Every later operation on the wrapper stays dead.
        let mut buf = Vec::new();
        assert!(matches!(a.recv(&mut buf), Err(TransportError::Closed)));
        assert!(matches!(a.send(&[3]), Err(TransportError::Closed)));
        // The peer drains what was delivered, then sees a real close.
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, [1]);
        assert!(!b.recv(&mut buf).unwrap(), "peer observes the close");
        assert_eq!(a.counters().disconnects, 1);
    }

    #[test]
    fn random_plans_replay_exactly_from_their_seed() {
        let p1 = FaultPlan::random(0xDECAF, 6, 40, true);
        let p2 = FaultPlan::random(0xDECAF, 6, 40, true);
        assert_eq!(p1, p2, "same seed, same plan");
        assert!(!p1.is_empty());
        let p3 = FaultPlan::random(0xDECAF + 1, 6, 40, true);
        assert_ne!(p1, p3, "different seed, different plan");
        // Disconnect appears exactly when asked for.
        let no_dc = FaultPlan::random(7, 8, 40, false);
        assert!(!no_dc
            .send
            .values()
            .chain(no_dc.recv.values())
            .any(|f| *f == Fault::Disconnect));
        let with_dc = FaultPlan::random(7, 0, 40, true);
        assert_eq!(
            with_dc
                .send
                .values()
                .chain(with_dc.recv.values())
                .filter(|f| **f == Fault::Disconnect)
                .count(),
            1
        );
    }
}
