//! RCCE-style communicator over native threads.
//!
//! The real RCCE library gives every core a rank and blocking
//! `RCCE_send` / `RCCE_recv` matched by source rank. This
//! module reproduces those semantics with one bounded crossbeam channel per
//! ordered rank pair: `send` blocks when the receiver's window is full
//! (MPB backpressure) and `recv(src)` blocks until that source delivers.
//!
//! Every endpoint tracks bytes/messages and the time spent blocked in
//! `recv` — the native runner's equivalent of the paper's per-stage idle
//! times (Figure 15).

use crate::crc::crc32;
use crate::error::RcceError;
use crate::mpb::MpbConfig;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use scc_sim::fault::{FaultPlan, MessageOutcome};
use scc_telemetry::{names, EventKind, TelemetrySink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-endpoint traffic counters (lock-free reads).
#[derive(Debug, Default)]
pub struct CommStats {
    pub sent_messages: AtomicU64,
    pub sent_bytes: AtomicU64,
    pub recv_messages: AtomicU64,
    pub recv_bytes: AtomicU64,
    /// Nanoseconds spent blocked waiting in `recv`.
    pub recv_wait_ns: AtomicU64,
    /// Nanoseconds spent blocked in `send` backpressure.
    pub send_wait_ns: AtomicU64,
    /// Transmission attempts beyond the first (reliable path).
    pub retransmissions: AtomicU64,
    /// Payloads discarded on arrival because their CRC failed.
    pub corrupt_drops: AtomicU64,
    /// Reliable operations that gave up (timeout or retry exhaustion).
    pub timeouts: AtomicU64,
}

/// Retry/timeout policy for the reliable (`send_reliable`/`recv_reliable`)
/// protocol: a stop-and-wait ARQ with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reliability {
    /// Acknowledgement window for the first attempt; attempt `n` waits
    /// `timeout << n`.
    pub timeout: Duration,
    /// Retransmissions allowed after the first attempt.
    pub retries: u32,
}

impl Default for Reliability {
    fn default() -> Self {
        Reliability {
            timeout: Duration::from_millis(200),
            retries: 3,
        }
    }
}

impl Reliability {
    /// Total worst-case patience of a receiver: the sum of every backoff
    /// window the slowest compliant sender could still be inside.
    fn receiver_patience(&self) -> Duration {
        // sum_{n=0..=retries} timeout * 2^n = timeout * (2^(retries+1) - 1)
        self.timeout
            * (2u32.saturating_pow(self.retries + 1))
                .saturating_sub(1)
                .max(1)
    }
}

/// One rank's endpoint of the communicator.
pub struct Endpoint {
    rank: usize,
    size: usize,
    /// `outs[d]` sends to rank d.
    outs: Vec<Option<Sender<Bytes>>>,
    /// `ins[s]` receives from rank s.
    ins: Vec<Option<Receiver<Bytes>>>,
    /// `ack_outs[s]` acknowledges data received from rank s.
    ack_outs: Vec<Option<Sender<u64>>>,
    /// `ack_ins[d]` carries acknowledgements from rank d for our sends.
    ack_ins: Vec<Option<Receiver<u64>>>,
    /// Next sequence number for reliable sends to each destination.
    send_seq: Vec<AtomicU64>,
    /// Next expected sequence number from each source.
    recv_seq: Vec<AtomicU64>,
    /// Reliable streams to each destination that completed with an ack —
    /// the ARQ audit's ledger against `send_seq` (streams started).
    acked_streams: Vec<AtomicU64>,
    mpb: MpbConfig,
    stats: Arc<CommStats>,
    reliability: Reliability,
    /// Deterministic fault schedule applied to reliable sends.
    fault: Option<Arc<FaultPlan>>,
    /// Per-source wait samples, for idle-time quartiles.
    wait_samples: Mutex<Vec<Duration>>,
    /// Shared telemetry sink (disabled by default): the ARQ protocol
    /// records retries, corrupt drops, and timeouts as they happen.
    tel: TelemetrySink,
    /// Wall-clock origin for telemetry event timestamps.
    tel_base: Instant,
}

/// Create a communicator of `size` ranks with per-pair channel capacity
/// `window_msgs` (the number of in-flight messages the receiver's MPB can
/// hold; RCCE's single window = 1).
pub fn communicator(size: usize, window_msgs: usize, mpb: MpbConfig) -> Vec<Endpoint> {
    assert!(size >= 1, "empty communicator");
    assert!(window_msgs >= 1, "zero-capacity window deadlocks");
    // senders[s][d] / receivers[d][s]
    let mut senders: Vec<Vec<Option<Sender<Bytes>>>> = (0..size)
        .map(|_| (0..size).map(|_| None).collect())
        .collect();
    let mut receivers: Vec<Vec<Option<Receiver<Bytes>>>> = (0..size)
        .map(|_| (0..size).map(|_| None).collect())
        .collect();
    // ack_senders[receiver][sender]: the ack path for data flowing
    // sender -> receiver. Sized generously so a receiver's ack never
    // blocks (a full ack channel is treated as a lost ack; the protocol
    // recovers via retransmission either way).
    let mut ack_senders: Vec<Vec<Option<Sender<u64>>>> = (0..size)
        .map(|_| (0..size).map(|_| None).collect())
        .collect();
    let mut ack_receivers: Vec<Vec<Option<Receiver<u64>>>> = (0..size)
        .map(|_| (0..size).map(|_| None).collect())
        .collect();
    for s in 0..size {
        for d in 0..size {
            if s == d {
                continue;
            }
            let (tx, rx) = bounded(window_msgs);
            senders[s][d] = Some(tx);
            receivers[d][s] = Some(rx);
            let (ack_tx, ack_rx) = bounded(window_msgs * 4 + 4);
            ack_senders[d][s] = Some(ack_tx);
            ack_receivers[s][d] = Some(ack_rx);
        }
    }
    senders
        .into_iter()
        .zip(receivers)
        .zip(ack_senders.into_iter().zip(ack_receivers))
        .enumerate()
        .map(|(rank, ((outs, ins), (ack_outs, ack_ins)))| Endpoint {
            rank,
            size,
            outs,
            ins,
            ack_outs,
            ack_ins,
            send_seq: (0..size).map(|_| AtomicU64::new(0)).collect(),
            recv_seq: (0..size).map(|_| AtomicU64::new(0)).collect(),
            acked_streams: (0..size).map(|_| AtomicU64::new(0)).collect(),
            mpb,
            stats: Arc::new(CommStats::default()),
            reliability: Reliability::default(),
            fault: None,
            wait_samples: Mutex::new(Vec::new()),
            tel: TelemetrySink::disabled(),
            tel_base: Instant::now(),
        })
        .collect()
}

impl Endpoint {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    pub fn mpb(&self) -> MpbConfig {
        self.mpb
    }

    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Blocking send to `dst`. Blocks while the destination's window is
    /// full (RCCE backpressure).
    pub fn send(&self, dst: usize, payload: Bytes) -> Result<(), RcceError> {
        if dst >= self.size || dst == self.rank {
            return Err(RcceError::InvalidRank {
                rank: dst,
                size: self.size,
            });
        }
        let tx = self.outs[dst].as_ref().expect("channel matrix hole");
        let bytes = payload.len() as u64;
        let t0 = Instant::now();
        tx.send(payload)
            .map_err(|_| RcceError::Disconnected { rank: dst })?;
        self.stats
            .send_wait_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.sent_messages.fetch_add(1, Ordering::Relaxed);
        self.stats.sent_bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Blocking receive from `src`, recording the wait time.
    pub fn recv(&self, src: usize) -> Result<Bytes, RcceError> {
        if src >= self.size || src == self.rank {
            return Err(RcceError::InvalidRank {
                rank: src,
                size: self.size,
            });
        }
        let rx = self.ins[src].as_ref().expect("channel matrix hole");
        let t0 = Instant::now();
        let payload = rx
            .recv()
            .map_err(|_| RcceError::Disconnected { rank: src })?;
        let waited = t0.elapsed();
        self.stats
            .recv_wait_ns
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        self.wait_samples.lock().push(waited);
        self.stats.recv_messages.fetch_add(1, Ordering::Relaxed);
        self.stats
            .recv_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        Ok(payload)
    }

    /// Non-blocking receive from `src`.
    pub fn try_recv(&self, src: usize) -> Result<Option<Bytes>, RcceError> {
        if src >= self.size || src == self.rank {
            return Err(RcceError::InvalidRank {
                rank: src,
                size: self.size,
            });
        }
        let rx = self.ins[src].as_ref().expect("channel matrix hole");
        match rx.try_recv() {
            Ok(p) => {
                self.stats.recv_messages.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .recv_bytes
                    .fetch_add(p.len() as u64, Ordering::Relaxed);
                Ok(Some(p))
            }
            Err(crossbeam::channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam::channel::TryRecvError::Disconnected) => {
                Err(RcceError::Disconnected { rank: src })
            }
        }
    }

    /// Install a deterministic fault schedule on this endpoint's reliable
    /// send path (call before moving the endpoint into its thread). The
    /// plan perturbs transmissions; the protocol is what recovers.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault = Some(plan);
    }

    /// Configure the retry/timeout policy (call before moving the
    /// endpoint into its thread).
    pub fn set_reliability(&mut self, reliability: Reliability) {
        self.reliability = reliability;
    }

    /// Attach a telemetry sink (call before moving the endpoint into its
    /// thread); event timestamps restart at this call. A disabled sink —
    /// the default — records nothing.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.tel = sink;
        self.tel_base = Instant::now();
    }

    /// Nanoseconds since the telemetry epoch ([`Endpoint::set_telemetry`]).
    fn telemetry_now_ns(&self) -> u64 {
        self.tel_base.elapsed().as_nanos() as u64
    }

    pub fn reliability(&self) -> Reliability {
        self.reliability
    }

    /// Reliable blocking send: CRC-framed stop-and-wait with bounded
    /// retransmission and exponential backoff. Pairs with
    /// [`Endpoint::recv_reliable`] on the destination rank.
    pub fn send_reliable(&self, dst: usize, payload: Bytes) -> Result<(), RcceError> {
        if dst >= self.size || dst == self.rank {
            return Err(RcceError::InvalidRank {
                rank: dst,
                size: self.size,
            });
        }
        let tx = self.outs[dst].as_ref().expect("channel matrix hole");
        let ack_rx = self.ack_ins[dst].as_ref().expect("ack matrix hole");
        let seq = self.send_seq[dst].fetch_add(1, Ordering::Relaxed);
        let envelope = encode_envelope(seq, &payload);
        let attempts = self.reliability.retries + 1;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.retransmissions.fetch_add(1, Ordering::Relaxed);
                self.tel.count(names::ARQ_RETRIES_TOTAL, &[], 1);
                self.tel.event(
                    self.telemetry_now_ns(),
                    EventKind::ArqRetry {
                        from: self.rank as u32,
                        to: dst as u32,
                        attempt,
                    },
                );
            }
            let outcome = match &self.fault {
                Some(plan) => plan.message_outcome(self.rank as u64, dst as u64, seq, attempt),
                None => MessageOutcome::Deliver,
            };
            let transmitted = match outcome {
                MessageOutcome::Drop => false,
                MessageOutcome::Corrupt { offset, xor } => {
                    let t0 = Instant::now();
                    tx.send(corrupt_envelope(&envelope, offset, xor))
                        .map_err(|_| RcceError::Disconnected { rank: dst })?;
                    self.stats
                        .send_wait_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    true
                }
                MessageOutcome::Delay(d) => {
                    // Bound the injected latency so a hostile plan cannot
                    // freeze the thread past its own ack window.
                    let sleep =
                        Duration::from_nanos(d.as_ps() / 1000).min(self.reliability.timeout / 2);
                    std::thread::sleep(sleep);
                    let t0 = Instant::now();
                    tx.send(envelope.clone())
                        .map_err(|_| RcceError::Disconnected { rank: dst })?;
                    self.stats
                        .send_wait_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    true
                }
                MessageOutcome::Deliver => {
                    let t0 = Instant::now();
                    tx.send(envelope.clone())
                        .map_err(|_| RcceError::Disconnected { rank: dst })?;
                    self.stats
                        .send_wait_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    true
                }
            };
            let _ = transmitted; // a dropped attempt still burns its window
            let window = self
                .reliability
                .timeout
                .checked_mul(1 << attempt.min(16))
                .unwrap_or(Duration::MAX);
            let deadline = Instant::now() + window;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                match ack_rx.recv_timeout(remaining) {
                    Ok(acked) if acked == seq => {
                        self.acked_streams[dst].fetch_add(1, Ordering::Relaxed);
                        self.stats.sent_messages.fetch_add(1, Ordering::Relaxed);
                        self.stats
                            .sent_bytes
                            .fetch_add(payload.len() as u64, Ordering::Relaxed);
                        return Ok(());
                    }
                    // A stale ack from an earlier message; keep waiting.
                    Ok(_) => continue,
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(RcceError::Disconnected { rank: dst });
                    }
                }
            }
        }
        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        self.tel.count(names::ARQ_TIMEOUTS_TOTAL, &[], 1);
        Err(RcceError::RetriesExhausted {
            rank: dst,
            attempts,
        })
    }

    /// Reliable blocking receive from `src`: verifies the CRC, discards
    /// corrupt or duplicate deliveries (re-acknowledging duplicates so the
    /// sender can make progress), and acknowledges the first intact copy.
    pub fn recv_reliable(&self, src: usize) -> Result<Bytes, RcceError> {
        if src >= self.size || src == self.rank {
            return Err(RcceError::InvalidRank {
                rank: src,
                size: self.size,
            });
        }
        let rx = self.ins[src].as_ref().expect("channel matrix hole");
        let ack_tx = self.ack_outs[src].as_ref().expect("ack matrix hole");
        let expected = self.recv_seq[src].load(Ordering::Relaxed);
        let t0 = Instant::now();
        let deadline = t0 + self.reliability.receiver_patience();
        let mut saw_corrupt = false;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                self.tel.count(names::ARQ_TIMEOUTS_TOTAL, &[], 1);
                return Err(if saw_corrupt {
                    RcceError::Corrupt { rank: src }
                } else {
                    RcceError::Timeout { rank: src }
                });
            }
            let envelope = match rx.recv_timeout(remaining) {
                Ok(e) => e,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(RcceError::Disconnected { rank: src });
                }
            };
            let (seq, payload) = match decode_envelope(&envelope) {
                Some(ok) => ok,
                None => {
                    // Corrupt in flight: no ack, the sender will retry.
                    self.stats.corrupt_drops.fetch_add(1, Ordering::Relaxed);
                    self.tel.count(names::ARQ_CORRUPT_DROPS_TOTAL, &[], 1);
                    saw_corrupt = true;
                    continue;
                }
            };
            if seq < expected {
                // Duplicate of an already-delivered message (our ack was
                // lost or late); re-acknowledge and keep waiting.
                let _ = ack_tx.try_send(seq);
                continue;
            }
            // Stop-and-wait over a FIFO channel cannot reorder, so an
            // intact envelope from the stream's future is a protocol
            // bug, not a transport fault — fail closed in every build.
            if seq != expected {
                return Err(RcceError::Protocol {
                    rank: src,
                    detail: "reliable stream reordered",
                });
            }
            let _ = ack_tx.try_send(seq);
            self.recv_seq[src].store(seq + 1, Ordering::Relaxed);
            let waited = t0.elapsed();
            self.stats
                .recv_wait_ns
                .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
            self.wait_samples.lock().push(waited);
            self.stats.recv_messages.fetch_add(1, Ordering::Relaxed);
            self.stats
                .recv_bytes
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            return Ok(payload);
        }
    }

    /// ARQ state-machine legality audit for a quiesced endpoint (no
    /// sends in flight, reliability policy unchanged since creation):
    ///
    /// * acked streams never exceed started streams, per destination;
    /// * every started-but-unacked stream burned a recorded timeout;
    /// * retransmissions stay within the per-stream retry budget.
    pub fn audit_arq(&self) -> Result<(), String> {
        let mut started_total = 0u64;
        let mut unacked_total = 0u64;
        for dst in 0..self.size {
            let started = self.send_seq[dst].load(Ordering::Relaxed);
            let acked = self.acked_streams[dst].load(Ordering::Relaxed);
            if acked > started {
                return Err(format!(
                    "rank {}: {acked} acked streams to {dst} but only {started} started",
                    self.rank
                ));
            }
            started_total += started;
            unacked_total += started - acked;
        }
        let timeouts = self.stats.timeouts.load(Ordering::Relaxed);
        if unacked_total > timeouts {
            return Err(format!(
                "rank {}: {unacked_total} reliable streams died without an ack \
                 yet only {timeouts} timeouts were recorded",
                self.rank
            ));
        }
        let retrans = self.stats.retransmissions.load(Ordering::Relaxed);
        let budget = started_total * self.reliability.retries as u64;
        if retrans > budget {
            return Err(format!(
                "rank {}: {retrans} retransmissions exceed the budget of {budget} \
                 ({} streams x {} retries)",
                self.rank, started_total, self.reliability.retries
            ));
        }
        Ok(())
    }

    /// Drain the recorded recv-wait samples (for idle-time statistics).
    pub fn take_wait_samples(&self) -> Vec<Duration> {
        std::mem::take(&mut *self.wait_samples.lock())
    }
}

/// Reliable-path wire format: `[seq: u64][crc32(payload): u32][payload]`,
/// big-endian. The CRC covers only the payload; a corrupted header makes
/// `decode_envelope` fail closed (seq/crc mismatch against the payload).
const ENVELOPE_HEADER: usize = 12;

fn encode_envelope(seq: u64, payload: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(ENVELOPE_HEADER + payload.len());
    buf.put_u64(seq);
    buf.put_u32(crc32(payload));
    buf.put_slice(payload);
    buf.freeze()
}

fn decode_envelope(envelope: &Bytes) -> Option<(u64, Bytes)> {
    if envelope.len() < ENVELOPE_HEADER {
        return None;
    }
    // A clone shares the storage; consuming the header leaves the payload.
    let mut payload = envelope.clone();
    let seq = payload.get_u64();
    let crc = payload.get_u32();
    if crc32(&payload) != crc {
        return None;
    }
    Some((seq, payload))
}

/// Apply an injected single-byte corruption to a copy of `envelope`.
/// Payload bytes are preferred (exercising the CRC); an empty payload
/// corrupts the CRC field itself, which fails the check just the same.
fn corrupt_envelope(envelope: &Bytes, offset: u64, xor: u8) -> Bytes {
    let mut raw: Vec<u8> = envelope.to_vec();
    let idx = if raw.len() > ENVELOPE_HEADER {
        ENVELOPE_HEADER + (offset as usize % (raw.len() - ENVELOPE_HEADER))
    } else {
        8 + (offset as usize % 4)
    };
    raw[idx] ^= xor;
    Bytes::from(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn comm(n: usize) -> Vec<Endpoint> {
        communicator(n, 2, MpbConfig::default())
    }

    #[test]
    fn ping_pong() {
        let mut eps = comm(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t = thread::spawn(move || {
            let m = b.recv(0).unwrap();
            assert_eq!(&m[..], b"ping");
            b.send(0, Bytes::from_static(b"pong")).unwrap();
        });
        a.send(1, Bytes::from_static(b"ping")).unwrap();
        assert_eq!(&a.recv(1).unwrap()[..], b"pong");
        t.join().unwrap();
        assert_eq!(a.stats().sent_messages.load(Ordering::Relaxed), 1);
        assert_eq!(a.stats().recv_bytes.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn selective_receive_by_source() {
        let mut eps = comm(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let tb = thread::spawn(move || b.send(2, Bytes::from_static(b"from-b")).unwrap());
        let ta = thread::spawn(move || a.send(2, Bytes::from_static(b"from-a")).unwrap());
        // Receive from rank 1 first regardless of arrival order.
        assert_eq!(&c.recv(1).unwrap()[..], b"from-b");
        assert_eq!(&c.recv(0).unwrap()[..], b"from-a");
        ta.join().unwrap();
        tb.join().unwrap();
    }

    #[test]
    fn messages_from_same_source_keep_order() {
        let mut eps = comm(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t = thread::spawn(move || {
            for i in 0u8..100 {
                a.send(1, Bytes::copy_from_slice(&[i])).unwrap();
            }
        });
        for i in 0u8..100 {
            assert_eq!(b.recv(0).unwrap()[0], i);
        }
        t.join().unwrap();
    }

    #[test]
    fn bounded_window_applies_backpressure() {
        let mut eps = communicator(2, 1, MpbConfig::default());
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t = thread::spawn(move || {
            // Fill the single-slot window, then block on the second send
            // until the receiver drains.
            a.send(1, Bytes::from_static(b"1")).unwrap();
            a.send(1, Bytes::from_static(b"2")).unwrap();
            a.stats().send_wait_ns.load(Ordering::Relaxed)
        });
        thread::sleep(Duration::from_millis(50));
        b.recv(0).unwrap();
        b.recv(0).unwrap();
        let wait_ns = t.join().unwrap();
        assert!(
            wait_ns > 10_000_000,
            "sender should have blocked ~50 ms, waited {wait_ns} ns"
        );
    }

    #[test]
    fn invalid_ranks_rejected() {
        let eps = comm(2);
        assert!(matches!(
            eps[0].send(0, Bytes::new()),
            Err(RcceError::InvalidRank { .. })
        ));
        assert!(matches!(
            eps[0].send(5, Bytes::new()),
            Err(RcceError::InvalidRank { .. })
        ));
        assert!(matches!(eps[1].recv(1), Err(RcceError::InvalidRank { .. })));
    }

    #[test]
    fn disconnected_peer_errors() {
        let mut eps = comm(2);
        let b = eps.pop().unwrap();
        drop(eps); // drop rank 0 entirely
        assert!(matches!(b.recv(0), Err(RcceError::Disconnected { .. })));
        assert!(matches!(
            b.send(0, Bytes::new()),
            Err(RcceError::Disconnected { .. })
        ));
    }

    #[test]
    fn try_recv_does_not_block() {
        let mut eps = comm(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert!(b.try_recv(0).unwrap().is_none());
        a.send(1, Bytes::from_static(b"x")).unwrap();
        // Poll until visible (bounded channel send is synchronous here,
        // so it must be immediately visible).
        assert_eq!(&b.try_recv(0).unwrap().unwrap()[..], b"x");
    }

    fn fast_reliability() -> Reliability {
        Reliability {
            timeout: Duration::from_millis(40),
            retries: 3,
        }
    }

    fn lossy_plan(seed: u64, drop: f64, corrupt: f64) -> Arc<scc_sim::FaultPlan> {
        Arc::new(scc_sim::FaultPlan::new(scc_sim::FaultConfig {
            seed,
            drop_rate: drop,
            corrupt_rate: corrupt,
            ..scc_sim::FaultConfig::default()
        }))
    }

    #[test]
    fn envelope_roundtrip_and_corruption_detection() {
        let payload = Bytes::copy_from_slice(&[7u8; 1000]);
        let env = encode_envelope(42, &payload);
        let (seq, out) = decode_envelope(&env).expect("intact envelope decodes");
        assert_eq!(seq, 42);
        assert_eq!(&out[..], &payload[..]);
        for offset in [0u64, 13, 999, 5000] {
            assert!(
                decode_envelope(&corrupt_envelope(&env, offset, 0x40)).is_none(),
                "corruption at offset {offset} must fail the CRC"
            );
        }
        // Empty payload: corruption hits the header and still fails closed.
        let empty = encode_envelope(1, &Bytes::new());
        assert!(decode_envelope(&corrupt_envelope(&empty, 0, 1)).is_none());
    }

    #[test]
    fn reliable_roundtrip_without_faults() {
        let mut eps = comm(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t = thread::spawn(move || {
            let m = b.recv_reliable(0).unwrap();
            assert_eq!(&m[..], b"ping");
            b.send_reliable(0, Bytes::from_static(b"pong")).unwrap();
        });
        a.send_reliable(1, Bytes::from_static(b"ping")).unwrap();
        assert_eq!(&a.recv_reliable(1).unwrap()[..], b"pong");
        t.join().unwrap();
        assert_eq!(a.stats().retransmissions.load(Ordering::Relaxed), 0);
        assert_eq!(a.stats().sent_messages.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reliable_stream_survives_drops_and_corruption() {
        let mut eps = comm(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        // 25% drops + 25% corruption: roughly half of all attempts fail,
        // yet a retry budget of 3 recovers every message.
        a.set_fault_plan(lossy_plan(77, 0.25, 0.25));
        a.set_reliability(fast_reliability());
        b.set_reliability(fast_reliability());
        let t = thread::spawn(move || {
            for i in 0u8..30 {
                a.send_reliable(1, Bytes::copy_from_slice(&[i; 64]))
                    .unwrap();
            }
            a.stats().retransmissions.load(Ordering::Relaxed)
        });
        for i in 0u8..30 {
            let m = b.recv_reliable(0).unwrap();
            assert_eq!(&m[..], &[i; 64][..], "message {i} intact and in order");
        }
        let retransmissions = t.join().unwrap();
        assert!(
            retransmissions > 0,
            "a 50% fault rate must force at least one retransmission"
        );
        assert!(
            b.stats().corrupt_drops.load(Ordering::Relaxed) > 0,
            "some corrupted deliveries should have been caught by CRC"
        );
    }

    #[test]
    fn arq_audit_passes_after_lossy_traffic() {
        let mut eps = comm(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.set_fault_plan(lossy_plan(99, 0.2, 0.2));
        a.set_reliability(fast_reliability());
        b.set_reliability(fast_reliability());
        let t = thread::spawn(move || {
            for i in 0u8..20 {
                a.send_reliable(1, Bytes::copy_from_slice(&[i; 32]))
                    .unwrap();
            }
            a
        });
        for _ in 0..20 {
            b.recv_reliable(0).unwrap();
        }
        let a = t.join().unwrap();
        a.audit_arq().expect("sender ledger legal");
        b.audit_arq().expect("receiver ledger legal");
    }

    #[test]
    fn arq_audit_catches_an_unaccounted_stream() {
        let eps = comm(2);
        let a = &eps[0];
        // A stream that was started but neither acked nor timed out is
        // exactly the state a lost state machine would leave behind.
        a.send_seq[1].fetch_add(1, Ordering::Relaxed);
        let err = a.audit_arq().unwrap_err();
        assert!(err.contains("without an ack"), "unexpected detail: {err}");
    }

    #[test]
    fn out_of_order_envelope_is_a_protocol_violation() {
        let mut eps = comm(2);
        let mut b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        b.set_reliability(fast_reliability());
        // Hand-craft an intact envelope from the stream's future (seq 5
        // while 0 is expected) and push it down the raw channel.
        a.send(1, encode_envelope(5, &Bytes::from_static(b"rogue")))
            .unwrap();
        assert_eq!(
            b.recv_reliable(0).unwrap_err(),
            RcceError::Protocol {
                rank: 0,
                detail: "reliable stream reordered",
            }
        );
    }

    #[test]
    fn certain_drop_exhausts_retries() {
        let mut eps = comm(2);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.set_fault_plan(lossy_plan(5, 1.0, 0.0));
        a.set_reliability(Reliability {
            timeout: Duration::from_millis(5),
            retries: 2,
        });
        let err = a
            .send_reliable(1, Bytes::from_static(b"doomed"))
            .unwrap_err();
        assert_eq!(
            err,
            RcceError::RetriesExhausted {
                rank: 1,
                attempts: 3
            }
        );
        assert_eq!(a.stats().timeouts.load(Ordering::Relaxed), 1);
        drop(b);
    }

    #[test]
    fn silent_peer_times_out_receiver() {
        let mut eps = comm(2);
        let mut b = eps.pop().unwrap();
        let _a = eps.pop().unwrap();
        b.set_reliability(Reliability {
            timeout: Duration::from_millis(2),
            retries: 1,
        });
        assert_eq!(
            b.recv_reliable(0).unwrap_err(),
            RcceError::Timeout { rank: 0 }
        );
    }

    #[test]
    fn wait_samples_recorded() {
        let mut eps = comm(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            a.send(1, Bytes::from_static(b"late")).unwrap();
        });
        b.recv(0).unwrap();
        t.join().unwrap();
        let samples = b.take_wait_samples();
        assert_eq!(samples.len(), 1);
        assert!(samples[0] >= Duration::from_millis(10));
        assert!(b.take_wait_samples().is_empty(), "drained");
    }
}
