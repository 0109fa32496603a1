//! Framed transports the wire server and client run over.
//!
//! A [`Transport`] moves whole frames — the encoded requests and replies of
//! [`wire`](crate::wire) — in order, in both directions. Three impls cover
//! the deployment shapes the paper's FUSE daemon needs:
//!
//! * [`ChannelTransport`] — an in-memory duplex pair, for same-process
//!   serving and benchmarks (no syscalls on the fast path);
//! * [`StreamTransport`] — any `Read + Write` pair, length-prefix framed,
//!   for pipes and socket-like streams;
//! * [`unix_pair`] — a connected `AF_UNIX` socketpair wrapped in
//!   [`StreamTransport`], the closest stand-in for `/dev/fuse` available to
//!   an unprivileged process.
//!
//! Frame boundaries are the transport's job; byte layout inside a frame is
//! [`wire`](crate::wire)'s. Receivers fill a caller-owned buffer so a serve
//! loop reuses one allocation for its whole lifetime.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hpcc_kernel::sync::{lock_recover, wait_recover, wait_timeout_recover};

use crate::wire::{WireError, MAX_WIRE_FRAME};

/// A transport-layer failure.
#[derive(Debug)]
pub enum TransportError {
    /// The peer went away mid-frame, or a frame violated the framing rules.
    Frame(WireError),
    /// An I/O error from the underlying stream.
    Io(std::io::Error),
    /// The channel was closed by the peer before the frame was sent.
    Closed,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Frame(e) => write!(f, "framing error: {e}"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Closed => write!(f, "transport closed by peer"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Frame(e)
    }
}

/// Outcome of a timed receive ([`Transport::recv_timeout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvOutcome {
    /// A frame arrived in the caller's buffer.
    Frame,
    /// Clean close at a frame boundary — the peer finished and went away.
    Closed,
    /// No frame within the timeout; the buffer's contents are unspecified.
    TimedOut,
}

/// A bidirectional, ordered, frame-preserving byte channel.
pub trait Transport {
    /// Sends one frame to the peer.
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Receives one frame into `buf` (cleared and overwritten).
    ///
    /// Returns `Ok(true)` when a frame arrived and `Ok(false)` on clean
    /// close — the peer finished sending and went away at a frame boundary.
    /// A peer that vanishes *mid*-frame is an error, not a close. A peer
    /// that vanishes while this receiver is *blocked waiting* is
    /// [`TransportError::Closed`] — a typed wake-up, never a hang.
    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<bool, TransportError>;

    /// Like [`Transport::recv`] but gives up after `timeout` — what a
    /// deadline-driven retrying client needs. The default implementation
    /// ignores the timeout and blocks until a frame or close (transports
    /// without timers still compile and work; a retry policy over one
    /// degrades to blocking waits).
    fn recv_timeout(
        &mut self,
        buf: &mut Vec<u8>,
        timeout: Duration,
    ) -> Result<RecvOutcome, TransportError> {
        let _ = timeout;
        Ok(if self.recv(buf)? {
            RecvOutcome::Frame
        } else {
            RecvOutcome::Closed
        })
    }

    /// Frames already queued on this end's receive side — the overload
    /// signal a shedding server polls after each receive. `None` when the
    /// transport cannot tell (byte streams).
    fn backlog(&self) -> Option<usize> {
        None
    }
}

// ------------------------------------------------------- in-memory channel

/// One direction of the in-memory channel.
struct PipeState {
    frames: VecDeque<Vec<u8>>,
    /// Spent frame buffers handed back by receivers, reused by senders so a
    /// steady-state ping-pong allocates nothing.
    free: Vec<Vec<u8>>,
    closed: bool,
    /// Receivers currently blocked in `wait`. `notify_one` is an
    /// unconditional futex syscall in std; counting waiters lets the
    /// same-thread case (bench pumps, lockstep tests) skip it entirely.
    waiting: usize,
    /// Receivers that were blocked in `wait` at the moment the pipe closed:
    /// they get a typed [`TransportError::Closed`] wake-up instead of the
    /// drain-then-clean-close a later (unblocked) receive observes. A
    /// blocked waiter was waiting precisely because nothing was queued —
    /// the peer vanished mid-conversation on them.
    interrupted: usize,
}

struct Pipe {
    state: Mutex<PipeState>,
    cond: Condvar,
}

impl Pipe {
    fn new() -> Arc<Self> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                frames: VecDeque::new(),
                free: Vec::new(),
                closed: false,
                waiting: 0,
                interrupted: 0,
            }),
            cond: Condvar::new(),
        })
    }

    fn send(&self, frame: &[u8], spare: &mut Vec<Vec<u8>>) -> Result<(), TransportError> {
        let mut st = lock_recover(&self.state);
        if st.closed {
            return Err(TransportError::Closed);
        }
        let mut slot = st.free.pop().or_else(|| spare.pop()).unwrap_or_default();
        slot.clear();
        slot.extend_from_slice(frame);
        st.frames.push_back(slot);
        if st.waiting > 0 {
            self.cond.notify_one();
        }
        Ok(())
    }

    /// The shared receive core: blocking (`timeout: None`) or timed.
    fn recv_inner(
        &self,
        buf: &mut Vec<u8>,
        timeout: Option<Duration>,
    ) -> Result<RecvOutcome, TransportError> {
        let mut st = lock_recover(&self.state);
        // The deadline is materialized lazily, on the first actual wait —
        // the fast path (frame already queued) reads no clock at all, which
        // is what keeps a policy-wrapped fault-free call within noise of a
        // bare one.
        let mut deadline: Option<Instant> = None;
        loop {
            if let Some(mut frame) = st.frames.pop_front() {
                std::mem::swap(buf, &mut frame);
                // `frame` now holds the receiver's old buffer; recycle it
                // for the next sender.
                if st.free.len() < 4 {
                    st.free.push(frame);
                }
                // A waiter marked interrupted that still came away with a
                // frame (send raced the close) was not cut off after all.
                if st.closed && st.interrupted > 0 {
                    st.interrupted -= 1;
                }
                return Ok(RecvOutcome::Frame);
            }
            if st.closed {
                if st.interrupted > 0 {
                    st.interrupted -= 1;
                    return Err(TransportError::Closed);
                }
                return Ok(RecvOutcome::Closed);
            }
            match timeout {
                None => {
                    st.waiting += 1;
                    st = wait_recover(&self.cond, st, &self.state);
                    st.waiting -= 1;
                }
                Some(t) => {
                    let d = *deadline.get_or_insert_with(|| Instant::now() + t);
                    let rem = d.saturating_duration_since(Instant::now());
                    if rem.is_zero() {
                        return Ok(RecvOutcome::TimedOut);
                    }
                    st.waiting += 1;
                    let (guard, _) = wait_timeout_recover(&self.cond, st, rem, &self.state);
                    st = guard;
                    st.waiting -= 1;
                }
            }
        }
    }

    fn recv(&self, buf: &mut Vec<u8>) -> Result<bool, TransportError> {
        match self.recv_inner(buf, None)? {
            RecvOutcome::Frame => Ok(true),
            RecvOutcome::Closed => Ok(false),
            // hpcc-lint: allow(panic) — recv_inner(None) blocks indefinitely and never reports TimedOut
            RecvOutcome::TimedOut => unreachable!("blocking recv cannot time out"),
        }
    }

    fn close(&self) {
        let mut st = lock_recover(&self.state);
        if !st.closed {
            st.closed = true;
            // Everyone blocked right now is being cut off mid-wait; they
            // wake with a typed Closed error rather than a clean close.
            st.interrupted = st.waiting;
            if st.waiting > 0 {
                self.cond.notify_all();
            }
        }
    }
}

/// One endpoint of an in-memory duplex channel; see [`ChannelTransport::pair`].
///
/// Dropping an endpoint closes both directions: the peer's later `recv`s
/// drain queued frames, then report clean close, and its `send`s fail with
/// [`TransportError::Closed`] — the semantics of a FUSE client unmounting.
/// A receiver *blocked in `recv` at the moment of the drop* wakes with a
/// typed [`TransportError::Closed`] error instead: it was mid-conversation
/// (waiting on a frame that can now never come), which is a disconnect, not
/// a quiet end-of-stream.
pub struct ChannelTransport {
    tx: Arc<Pipe>,
    rx: Arc<Pipe>,
    /// Local buffer-recycling stash, so a lone sender (no receiver returning
    /// buffers yet) still reuses its own allocations.
    spare: Vec<Vec<u8>>,
}

impl ChannelTransport {
    /// Creates a connected pair: what one end sends, the other receives.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let a = Pipe::new();
        let b = Pipe::new();
        (
            ChannelTransport {
                tx: Arc::clone(&a),
                rx: Arc::clone(&b),
                spare: Vec::new(),
            },
            ChannelTransport {
                tx: b,
                rx: a,
                spare: Vec::new(),
            },
        )
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.tx.send(frame, &mut self.spare)
    }

    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<bool, TransportError> {
        self.rx.recv(buf)
    }

    fn recv_timeout(
        &mut self,
        buf: &mut Vec<u8>,
        timeout: Duration,
    ) -> Result<RecvOutcome, TransportError> {
        self.rx.recv_inner(buf, Some(timeout))
    }

    fn backlog(&self) -> Option<usize> {
        Some(lock_recover(&self.rx.state).frames.len())
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.tx.close();
        self.rx.close();
    }
}

// ------------------------------------------------------------ byte streams

/// Framing over any ordered byte stream: each frame travels as-is, and the
/// frame's own leading `len` field (first four bytes, little-endian — every
/// [`wire`](crate::wire) frame starts with one) doubles as the length
/// prefix, so nothing extra goes on the wire.
///
/// EOF at a frame boundary is a clean close; EOF inside a frame is
/// [`WireError::Truncated`]. A length above [`MAX_WIRE_FRAME`] is treated
/// as stream corruption rather than honored with a giant allocation.
pub struct StreamTransport<R, W> {
    reader: R,
    writer: W,
}

impl<R: Read, W: Write> StreamTransport<R, W> {
    /// Wraps a read half and a write half into a framed transport.
    pub fn new(reader: R, writer: W) -> Self {
        StreamTransport { reader, writer }
    }
}

impl<R: Read, W: Write> Transport for StreamTransport<R, W> {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        debug_assert!(frame.len() >= 4, "wire frames always carry a header");
        // Hand-rolled write loop rather than `write_all`: a signal-interrupted
        // or short write must never surface as a torn frame to the peer —
        // anything less than the whole frame on the wire desynchronizes the
        // length-prefix framing for the rest of the connection.
        let mut sent = 0;
        while let Some(rest) = frame.get(sent..).filter(|r| !r.is_empty()) {
            match self.writer.write(rest) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
        loop {
            match self.writer.flush() {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
    }

    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<bool, TransportError> {
        let mut len_bytes = [0u8; 4];
        // Read the length field byte by frame boundary: zero bytes here is
        // a clean close, a short read is a torn frame.
        let mut got = 0;
        while let Some(rest) = len_bytes.get_mut(got..).filter(|r| !r.is_empty()) {
            let n = match self.reader.read(rest) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            if n == 0 {
                if got == 0 {
                    return Ok(false);
                }
                return Err(WireError::Truncated.into());
            }
            got += n;
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_WIRE_FRAME {
            return Err(WireError::Oversized {
                len: len as u64,
                max: MAX_WIRE_FRAME as u64,
            }
            .into());
        }
        if len < 4 {
            return Err(WireError::LengthMismatch {
                header: len as u32,
                actual: 4,
            }
            .into());
        }
        buf.clear();
        buf.extend_from_slice(&len_bytes);
        buf.resize(len, 0);
        let body = buf.get_mut(4..).unwrap_or(&mut []);
        self.reader.read_exact(body).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Truncated.into(),
            _ => TransportError::Io(e),
        })?;
        Ok(true)
    }
}

/// A connected `AF_UNIX` socketpair, each end a [`StreamTransport`] — the
/// shape of serving a filesystem to another process, as `/dev/fuse` does
/// between the kernel and a daemon.
#[cfg(unix)]
pub fn unix_pair() -> std::io::Result<(
    StreamTransport<std::os::unix::net::UnixStream, std::os::unix::net::UnixStream>,
    StreamTransport<std::os::unix::net::UnixStream, std::os::unix::net::UnixStream>,
)> {
    let (a, b) = std::os::unix::net::UnixStream::pair()?;
    let (ar, aw) = (a.try_clone()?, a);
    let (br, bw) = (b.try_clone()?, b);
    Ok((StreamTransport::new(ar, aw), StreamTransport::new(br, bw)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_moves_frames_both_ways() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(&[1, 2, 3]).unwrap();
        a.send(&[4]).unwrap();
        b.send(&[9, 9]).unwrap();
        let mut buf = Vec::new();
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, [1, 2, 3]);
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, [4]);
        assert!(a.recv(&mut buf).unwrap());
        assert_eq!(buf, [9, 9]);
    }

    #[test]
    fn dropping_one_end_drains_then_closes_cleanly() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(&[7]).unwrap();
        drop(a);
        let mut buf = Vec::new();
        assert!(b.recv(&mut buf).unwrap(), "queued frame still arrives");
        assert_eq!(buf, [7]);
        assert!(!b.recv(&mut buf).unwrap(), "then clean close");
        assert!(matches!(b.send(&[1]), Err(TransportError::Closed)));
    }

    #[test]
    fn channel_unblocks_a_waiting_receiver_across_threads() {
        let (mut a, mut b) = ChannelTransport::pair();
        let t = std::thread::spawn(move || {
            let mut buf = Vec::new();
            let got = b.recv(&mut buf).unwrap();
            (got, buf)
        });
        // Give the receiver a chance to block before sending.
        std::thread::sleep(std::time::Duration::from_millis(10));
        a.send(&[42]).unwrap();
        let (got, buf) = t.join().unwrap();
        assert!(got);
        assert_eq!(buf, [42]);
    }

    #[test]
    fn stream_transport_frames_over_a_pipe_buffer() {
        // A Vec<u8> is the writer; a Cursor over it is the reader.
        let mut frame = 12u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut wire = Vec::new();
        {
            let mut tx = StreamTransport::new(std::io::empty(), &mut wire);
            tx.send(&frame).unwrap();
        }
        let mut rx = StreamTransport::new(std::io::Cursor::new(wire), std::io::sink());
        let mut buf = Vec::new();
        assert!(rx.recv(&mut buf).unwrap());
        assert_eq!(&buf[4..], [1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(!rx.recv(&mut buf).unwrap(), "EOF at boundary is clean");
    }

    #[test]
    fn stream_transport_rejects_torn_and_oversized_frames() {
        // Torn: length says 12 but only 6 bytes follow the prefix.
        let mut wire = 12u32.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0; 2]);
        let mut rx = StreamTransport::new(std::io::Cursor::new(wire), std::io::sink());
        let mut buf = Vec::new();
        assert!(matches!(
            rx.recv(&mut buf),
            Err(TransportError::Frame(WireError::Truncated))
        ));

        // Oversized length prefix is corruption, not an allocation request.
        let wire = (u32::MAX).to_le_bytes().to_vec();
        let mut rx = StreamTransport::new(std::io::Cursor::new(wire), std::io::sink());
        assert!(matches!(
            rx.recv(&mut buf),
            Err(TransportError::Frame(WireError::Oversized { .. }))
        ));

        // A length below the header's own size is self-inconsistent.
        let wire = 2u32.to_le_bytes().to_vec();
        let mut rx = StreamTransport::new(std::io::Cursor::new(wire), std::io::sink());
        assert!(matches!(
            rx.recv(&mut buf),
            Err(TransportError::Frame(WireError::LengthMismatch { .. }))
        ));
    }

    #[test]
    fn waiter_blocked_at_drop_time_gets_a_typed_closed_error() {
        // Satellite: a receiver parked inside `recv` when the peer drops must
        // wake with Err(Closed), not hang and not see a clean close.
        let (a, b) = ChannelTransport::pair();
        let pipe = Arc::clone(&b.rx);
        let t = std::thread::spawn(move || {
            let mut b = b;
            let mut buf = Vec::new();
            b.recv(&mut buf)
        });
        // Spin until the receiver is actually parked in the condvar — only a
        // waiter blocked *at drop time* earns the typed error.
        while pipe.state.lock().unwrap().waiting == 0 {
            std::thread::yield_now();
        }
        drop(a);
        assert!(matches!(t.join().unwrap(), Err(TransportError::Closed)));
    }

    #[test]
    fn recv_timeout_times_out_delivers_then_closes() {
        let (mut a, mut b) = ChannelTransport::pair();
        let mut buf = Vec::new();
        assert_eq!(
            b.recv_timeout(&mut buf, Duration::from_millis(1)).unwrap(),
            RecvOutcome::TimedOut
        );
        a.send(&[5, 6]).unwrap();
        assert_eq!(
            b.recv_timeout(&mut buf, Duration::from_millis(1)).unwrap(),
            RecvOutcome::Frame
        );
        assert_eq!(buf, [5, 6]);
        drop(a);
        assert_eq!(
            b.recv_timeout(&mut buf, Duration::from_secs(1)).unwrap(),
            RecvOutcome::Closed,
            "unqueued close after drop is clean, not an error"
        );
    }

    #[test]
    fn backlog_counts_queued_frames_on_channels_only() {
        let (mut a, mut b) = ChannelTransport::pair();
        assert_eq!(b.backlog(), Some(0));
        a.send(&[1]).unwrap();
        a.send(&[2]).unwrap();
        assert_eq!(b.backlog(), Some(2));
        let mut buf = Vec::new();
        b.recv(&mut buf).unwrap();
        assert_eq!(b.backlog(), Some(1));
        // Byte streams cannot see frame boundaries ahead of the reader.
        let s = StreamTransport::new(std::io::empty(), std::io::sink());
        assert_eq!(s.backlog(), None);
    }

    /// A writer that alternates short writes and `EINTR`, recording what
    /// actually lands — the syscall behavior of a signal-heavy process.
    struct FlakyWriter {
        out: Vec<u8>,
        step: usize,
    }

    impl Write for FlakyWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.step += 1;
            match self.step % 3 {
                0 => Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "eintr",
                )),
                1 => {
                    self.out.push(data[0]);
                    Ok(1)
                }
                _ => {
                    let n = data.len().div_ceil(2);
                    self.out.extend_from_slice(&data[..n]);
                    Ok(n)
                }
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.step += 1;
            if self.step.is_multiple_of(3) {
                Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "eintr",
                ))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn stream_send_survives_short_writes_and_eintr() {
        // Satellite: no torn frames — the full frame must land byte-for-byte
        // no matter how the writer fragments or interrupts the writes.
        let mut frame = 10u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&[0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF]);
        let mut tx = StreamTransport::new(
            std::io::empty(),
            FlakyWriter {
                out: Vec::new(),
                step: 0,
            },
        );
        tx.send(&frame).unwrap();
        assert_eq!(tx.writer.out, frame);
    }

    /// A writer whose pipe is gone: `write` returns `Ok(0)` forever.
    struct DeadWriter;

    impl Write for DeadWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Ok(0)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_send_maps_zero_length_writes_to_closed() {
        let mut tx = StreamTransport::new(std::io::empty(), DeadWriter);
        let frame = 5u32.to_le_bytes().to_vec();
        assert!(matches!(tx.send(&frame), Err(TransportError::Closed)));
    }

    /// A reader that raises `EINTR` before every productive single-byte read.
    struct FlakyReader {
        data: Vec<u8>,
        pos: usize,
        interrupt_next: bool,
    }

    impl Read for FlakyReader {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "eintr",
                ));
            }
            self.interrupt_next = true;
            if self.pos == self.data.len() {
                return Ok(0);
            }
            out[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn stream_recv_retries_interrupted_length_reads() {
        let mut frame = 7u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&[1, 2, 3]);
        let mut rx = StreamTransport::new(
            FlakyReader {
                data: frame.clone(),
                pos: 0,
                interrupt_next: true,
            },
            std::io::sink(),
        );
        let mut buf = Vec::new();
        assert!(rx.recv(&mut buf).unwrap());
        assert_eq!(buf, frame);
        assert!(!rx.recv(&mut buf).unwrap(), "then clean EOF");
    }

    #[cfg(unix)]
    #[test]
    fn unix_socketpair_round_trips_frames() {
        let (mut a, mut b) = unix_pair().unwrap();
        let mut frame = 9u32.to_le_bytes().to_vec();
        frame.extend_from_slice(b"hello");
        a.send(&frame).unwrap();
        let mut buf = Vec::new();
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, frame);
        drop(a);
        assert!(!b.recv(&mut buf).unwrap(), "peer hangup is a clean close");
    }
}
