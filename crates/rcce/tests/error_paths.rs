//! Integration tests for the communicator's failure surfaces: every way a
//! reliable operation can give up must end in the *right* [`RcceError`]
//! variant, in bounded time — the ARQ never spins forever, a corrupted
//! stream is distinguishable from a silent one. The self-healing
//! supervisor builds on exactly these guarantees.

use bytes::Bytes;
use scc_rcce::{
    communicator, decode_claim_ack, decode_steal_grant, decode_steal_request, decode_task_claim,
    encode_claim_ack, encode_steal_grant, encode_steal_request, encode_task_claim, ClaimAck,
    ClaimReject, ClaimTable, ClaimVerdict, Endpoint, MpbConfig, RcceError, Reliability, StealGrant,
    StealRequest, TaskClaim, TaskId,
};
use scc_sim::{FaultConfig, FaultPlan};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn fast() -> Reliability {
    Reliability {
        timeout: Duration::from_millis(10),
        retries: 2,
    }
}

fn plan(seed: u64, drop: f64, corrupt: f64) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::new(FaultConfig {
        seed,
        drop_rate: drop,
        corrupt_rate: corrupt,
        ..FaultConfig::default()
    }))
}

/// Run `send` on its own thread and hand the endpoint back with the
/// result, so it outlives the call. The sender gives up after the same
/// backoff budget the receiver waits out; dropping its endpoint then
/// would disconnect the channel and race the receiver's verdict.
fn spawn_keeping_endpoint<T: Send + 'static>(
    ep: Endpoint,
    send: impl FnOnce(&Endpoint) -> T + Send + 'static,
) -> thread::JoinHandle<(T, Endpoint)> {
    thread::spawn(move || (send(&ep), ep))
}

/// A stream whose every envelope is mangled in flight: the receiver sees
/// traffic but never an intact CRC, so it must report `Corrupt` (not
/// `Timeout`), while the sender — acknowledged by nobody — exhausts its
/// retry budget.
#[test]
fn corrupted_stream_surfaces_corrupt_on_both_ends() {
    let mut eps = communicator(2, 4, MpbConfig::default());
    let mut b = eps.pop().unwrap();
    let mut a = eps.pop().unwrap();
    a.set_reliability(fast());
    b.set_reliability(fast());
    a.set_fault_plan(plan(11, 0.0, 1.0));
    let sender =
        spawn_keeping_endpoint(a, |a| a.send_reliable(1, Bytes::from_static(&[0xAB; 256])));
    assert_eq!(b.recv_reliable(0), Err(RcceError::Corrupt { rank: 0 }));
    assert_eq!(
        sender.join().expect("sender thread").0,
        Err(RcceError::RetriesExhausted {
            rank: 1,
            attempts: 3
        })
    );
}

/// A stream whose every envelope is dropped outright: the receiver sees
/// nothing at all and must report `Timeout`, not `Corrupt`.
#[test]
fn dropped_stream_surfaces_timeout_at_the_receiver() {
    let mut eps = communicator(2, 4, MpbConfig::default());
    let mut b = eps.pop().unwrap();
    let mut a = eps.pop().unwrap();
    a.set_reliability(fast());
    b.set_reliability(fast());
    a.set_fault_plan(plan(23, 1.0, 0.0));
    let sender = spawn_keeping_endpoint(a, |a| a.send_reliable(1, Bytes::from_static(b"gone")));
    assert_eq!(b.recv_reliable(0), Err(RcceError::Timeout { rank: 0 }));
    assert_eq!(
        sender.join().expect("sender thread").0,
        Err(RcceError::RetriesExhausted {
            rank: 1,
            attempts: 3
        })
    );
}

/// An unacknowledged send gives up after its exponential-backoff budget
/// rather than retrying forever: the error carries the attempt count and
/// the call returns within a small multiple of the worst-case patience
/// (sum of all backoff windows).
#[test]
fn unacknowledged_send_gives_up_in_bounded_time() {
    let mut eps = communicator(2, 4, MpbConfig::default());
    let _b = eps.pop().unwrap(); // alive but never receiving: no acks.
    let mut a = eps.pop().unwrap();
    a.set_reliability(fast());
    let t0 = Instant::now();
    let got = a.send_reliable(1, Bytes::from_static(&[1; 64]));
    let elapsed = t0.elapsed();
    assert_eq!(
        got,
        Err(RcceError::RetriesExhausted {
            rank: 1,
            attempts: 3
        })
    );
    // Windows: 10 + 20 + 40 = 70 ms of patience; anything wildly past
    // that means the ARQ looped instead of giving up.
    assert!(
        elapsed < Duration::from_millis(700),
        "ARQ did not give up promptly: {elapsed:?}"
    );
}

/// Addressing errors fail fast on every reliable entry point.
#[test]
fn invalid_ranks_are_rejected_up_front() {
    let mut eps = communicator(2, 4, MpbConfig::default());
    let _b = eps.pop().unwrap();
    let a = eps.pop().unwrap();
    let invalid = |rank| RcceError::InvalidRank { rank, size: 2 };
    assert_eq!(
        a.send_reliable(0, Bytes::from_static(b"self")),
        Err(invalid(0))
    );
    assert_eq!(
        a.send_reliable(9, Bytes::from_static(b"oob")),
        Err(invalid(9))
    );
    assert_eq!(a.recv_reliable(0).unwrap_err(), invalid(0));
}

// ---- steal/claim wire messages (the task runtime's control plane) ----

fn steal_task() -> TaskId {
    TaskId {
        frame: 3,
        strip: 1,
        group: 2,
    }
}

/// A truncated steal frame — any prefix of any of the four messages —
/// decodes to `None` rather than a bogus message.
#[test]
fn truncated_steal_frames_are_rejected() {
    let frames: Vec<Bytes> = vec![
        encode_steal_request(StealRequest {
            thief: 1,
            epoch: 0,
            nonce: 5,
        }),
        encode_steal_grant(StealGrant {
            victim: 2,
            epoch: 0,
            nonce: 5,
            task: steal_task(),
        }),
        encode_task_claim(TaskClaim {
            thief: 1,
            epoch: 0,
            nonce: 5,
        }),
        encode_claim_ack(ClaimAck {
            accepted: true,
            nonce: 5,
        }),
    ];
    for wire in frames {
        for cut in 0..wire.len() {
            let short = &wire[..cut];
            assert_eq!(decode_steal_request(short), None, "cut {cut}");
            assert_eq!(decode_steal_grant(short), None, "cut {cut}");
            assert_eq!(decode_task_claim(short), None, "cut {cut}");
            assert_eq!(decode_claim_ack(short), None, "cut {cut}");
        }
    }
}

/// A single flipped bit anywhere in a steal frame trips the embedded
/// CRC: the frame decodes to `None` instead of smuggling a wrong nonce,
/// epoch, or task identity into the handshake.
#[test]
fn corrupt_crc_rejects_every_steal_frame() {
    let wire = encode_steal_grant(StealGrant {
        victim: 2,
        epoch: 1,
        nonce: 77,
        task: steal_task(),
    });
    assert!(decode_steal_grant(&wire).is_some(), "intact frame decodes");
    for byte in 0..wire.len() {
        let mut bad = wire.to_vec();
        bad[byte] ^= 0x01;
        assert_eq!(
            decode_steal_grant(&bad),
            None,
            "bit flip at byte {byte} undetected"
        );
    }
    let wire = encode_task_claim(TaskClaim {
        thief: 1,
        epoch: 1,
        nonce: 77,
    });
    for byte in 0..wire.len() {
        let mut bad = wire.to_vec();
        bad[byte] ^= 0x80;
        assert_eq!(decode_task_claim(&bad), None, "flip at byte {byte}");
    }
}

/// A claim whose epoch does not match the victim's offer — the thief is
/// working from a pre-fence grant — is rejected, and after the fence the
/// nonce is gone entirely; the task went back to the victim's queue
/// either way.
#[test]
fn claim_for_unknown_or_fenced_epoch_is_rejected() {
    let mut table = ClaimTable::new();
    table.offer(10, 1, steal_task());
    // Thief claims with a made-up future epoch: rejected as stale.
    assert_eq!(
        table.claim(TaskClaim {
            thief: 1,
            epoch: 99,
            nonce: 10
        }),
        ClaimVerdict::Rejected(ClaimReject::StaleEpoch)
    );
    // Supervisor fences the victim: the offer's task is reclaimed...
    assert_eq!(table.fence(1), vec![steal_task()]);
    // ...and the straggling claim for the old epoch finds nothing.
    assert_eq!(
        table.claim(TaskClaim {
            thief: 1,
            epoch: 0,
            nonce: 10
        }),
        ClaimVerdict::Rejected(ClaimReject::UnknownNonce)
    );
}

/// Two thieves racing for the same grant: exactly one wins ownership.
/// The winner's retransmitted claim stays accepted (idempotence), the
/// loser is rejected every time — a task is never handed out twice.
#[test]
fn double_claim_is_rejected_exactly_once_semantics() {
    let mut table = ClaimTable::new();
    table.offer(42, 1, steal_task());
    let won = table.claim(TaskClaim {
        thief: 1,
        epoch: 0,
        nonce: 42,
    });
    assert_eq!(won, ClaimVerdict::Accepted(steal_task()));
    // A different thief replaying the same nonce never gets the task.
    for _ in 0..3 {
        assert_eq!(
            table.claim(TaskClaim {
                thief: 2,
                epoch: 0,
                nonce: 42
            }),
            ClaimVerdict::Rejected(ClaimReject::ForeignThief)
        );
    }
    // The winner's duplicate (lost-ack retransmit) is answered the same.
    assert_eq!(
        table.claim(TaskClaim {
            thief: 1,
            epoch: 0,
            nonce: 42,
        }),
        ClaimVerdict::Accepted(steal_task())
    );
    // And the victim can no longer cancel what it no longer owns.
    assert_eq!(table.cancel(42), None);
}

/// Steal control frames survive a real (lossless) channel round trip and
/// a cross-decode attempt: a grant never parses as a request and vice
/// versa, so a misrouted frame cannot corrupt the handshake state.
#[test]
fn steal_frames_cross_decode_as_none_over_a_channel() {
    let mut eps = communicator(2, 4, MpbConfig::default());
    let b = eps.pop().unwrap();
    let a = eps.pop().unwrap();
    a.send(
        1,
        encode_steal_request(StealRequest {
            thief: 0,
            epoch: 0,
            nonce: 1,
        }),
    )
    .unwrap();
    let raw = b.recv(0).unwrap();
    assert_eq!(decode_steal_grant(&raw), None, "request is not a grant");
    assert_eq!(decode_claim_ack(&raw), None, "request is not an ack");
    assert_eq!(
        decode_steal_request(&raw),
        Some(StealRequest {
            thief: 0,
            epoch: 0,
            nonce: 1
        })
    );
}
