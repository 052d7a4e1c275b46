//! Work-stealing control messages and the idempotent task-claim
//! handshake.
//!
//! The task runtime (scc-core's `taskrt` module) balances load by
//! stealing strips between per-core deques. Steal traffic rides the same
//! lossy transport as frames, so the protocol must survive any single
//! message being dropped, delayed, or corrupted without ever executing a
//! task twice or losing one. The design is a two-phase handshake with
//! victim-side bookkeeping:
//!
//! 1. thief → victim: [`StealRequest`] (carries the thief's rank, its
//!    view of the victim's fence *epoch*, and a fresh *nonce*);
//! 2. victim → thief: [`StealGrant`] naming one task, recorded in the
//!    victim's [`ClaimTable`] as an outstanding offer;
//! 3. thief → victim: [`TaskClaim`] echoing the nonce — only an
//!    *accepted* claim transfers ownership;
//! 4. victim → thief: [`ClaimAck`] with the verdict.
//!
//! Loss at any step is safe: an unclaimed offer times out on the victim
//! and the task returns to its deque; a re-sent claim for an
//! already-accepted nonce is answered identically (idempotence), so a
//! lost ack cannot double-execute; a claim for a nonce the victim never
//! offered — or offered under an older epoch, or to a different thief —
//! is rejected and the thief backs off. Epochs advance when the
//! supervisor fences a core, instantly invalidating every offer that
//! predates the fence (stale-steal rejection).
//!
//! Every message carries its own CRC-32 in addition to the transport's
//! frame checksum: steal control frames are small and load-bearing, so
//! they self-validate even when handed around outside an ARQ channel
//! (e.g. the simulator's virtual-time wire).

use crate::crc::crc32;
use std::collections::BTreeMap;

/// Wire size of a [`StealRequest`] (magic, thief, epoch, nonce, crc).
pub const STEAL_REQUEST_WIRE_BYTES: usize = 28;
/// Wire size of a [`StealGrant`] (magic, victim, epoch, nonce, task
/// triple, crc).
pub const STEAL_GRANT_WIRE_BYTES: usize = 40;
/// Wire size of a [`TaskClaim`] (magic, thief, epoch, nonce, crc).
pub const TASK_CLAIM_WIRE_BYTES: usize = 28;
/// Wire size of a [`ClaimAck`] (magic, verdict, nonce, crc).
pub const CLAIM_ACK_WIRE_BYTES: usize = 20;

const STEAL_REQUEST_MAGIC: u32 = 0x5354_4C31; // "STL1"
const STEAL_GRANT_MAGIC: u32 = 0x5354_4C32; // "STL2"
const TASK_CLAIM_MAGIC: u32 = 0x5354_4C33; // "STL3"
const CLAIM_ACK_MAGIC: u32 = 0x5354_4C34; // "STL4"

/// The unit of stolen work: one strip of one frame at one stage group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TaskId {
    /// Frame index within the film.
    pub frame: u32,
    /// Strip index within the frame.
    pub strip: u32,
    /// Stage-group index within the `StagePlan`.
    pub group: u32,
}

/// Phase 1: a hungry thief asks a victim for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealRequest {
    /// Rank of the requesting core.
    pub thief: u32,
    /// The thief's view of the victim's fence epoch.
    pub epoch: u64,
    /// Fresh per-request nonce; echoed through the whole handshake.
    pub nonce: u64,
}

/// Phase 2: the victim offers one task (ownership not yet transferred).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealGrant {
    /// Rank of the granting core.
    pub victim: u32,
    /// Victim's current fence epoch at grant time.
    pub epoch: u64,
    /// Nonce copied from the request.
    pub nonce: u64,
    /// The offered task.
    pub task: TaskId,
}

/// Phase 3: the thief commits to the offered task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskClaim {
    /// Rank of the claiming core.
    pub thief: u32,
    /// Epoch copied from the grant.
    pub epoch: u64,
    /// Nonce copied from the grant.
    pub nonce: u64,
}

/// Phase 4: the victim's verdict on a claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClaimAck {
    /// Whether ownership transferred to the claiming thief.
    pub accepted: bool,
    /// Nonce the verdict is about.
    pub nonce: u64,
}

fn finish(mut raw: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&raw);
    raw.extend_from_slice(&crc.to_le_bytes());
    raw
}

/// Check length, magic, and trailing CRC; return the body between them.
fn open(raw: &[u8], want_len: usize, want_magic: u32) -> Option<&[u8]> {
    if raw.len() != want_len {
        return None;
    }
    let magic = u32::from_le_bytes(raw[0..4].try_into().unwrap());
    if magic != want_magic {
        return None;
    }
    let body_end = want_len - 4;
    let crc = u32::from_le_bytes(raw[body_end..].try_into().unwrap());
    if crc32(&raw[..body_end]) != crc {
        return None;
    }
    Some(&raw[4..body_end])
}

fn u32_at(body: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(body[off..off + 4].try_into().unwrap())
}

fn u64_at(body: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(body[off..off + 8].try_into().unwrap())
}

/// Serialise a steal request to its 28-byte wire form.
pub fn encode_steal_request(msg: StealRequest) -> Vec<u8> {
    let mut raw = Vec::with_capacity(STEAL_REQUEST_WIRE_BYTES);
    raw.extend_from_slice(&STEAL_REQUEST_MAGIC.to_le_bytes());
    raw.extend_from_slice(&msg.thief.to_le_bytes());
    raw.extend_from_slice(&msg.epoch.to_le_bytes());
    raw.extend_from_slice(&msg.nonce.to_le_bytes());
    finish(raw)
}

/// Parse a wire payload as a steal request; `None` on wrong length,
/// magic, or CRC.
pub fn decode_steal_request(raw: &[u8]) -> Option<StealRequest> {
    let body = open(raw, STEAL_REQUEST_WIRE_BYTES, STEAL_REQUEST_MAGIC)?;
    Some(StealRequest {
        thief: u32_at(body, 0),
        epoch: u64_at(body, 4),
        nonce: u64_at(body, 12),
    })
}

/// Serialise a steal grant to its 40-byte wire form.
pub fn encode_steal_grant(msg: StealGrant) -> Vec<u8> {
    let mut raw = Vec::with_capacity(STEAL_GRANT_WIRE_BYTES);
    raw.extend_from_slice(&STEAL_GRANT_MAGIC.to_le_bytes());
    raw.extend_from_slice(&msg.victim.to_le_bytes());
    raw.extend_from_slice(&msg.epoch.to_le_bytes());
    raw.extend_from_slice(&msg.nonce.to_le_bytes());
    raw.extend_from_slice(&msg.task.frame.to_le_bytes());
    raw.extend_from_slice(&msg.task.strip.to_le_bytes());
    raw.extend_from_slice(&msg.task.group.to_le_bytes());
    finish(raw)
}

/// Parse a wire payload as a steal grant; `None` on wrong length,
/// magic, or CRC.
pub fn decode_steal_grant(raw: &[u8]) -> Option<StealGrant> {
    let body = open(raw, STEAL_GRANT_WIRE_BYTES, STEAL_GRANT_MAGIC)?;
    Some(StealGrant {
        victim: u32_at(body, 0),
        epoch: u64_at(body, 4),
        nonce: u64_at(body, 12),
        task: TaskId {
            frame: u32_at(body, 20),
            strip: u32_at(body, 24),
            group: u32_at(body, 28),
        },
    })
}

/// Serialise a task claim to its 28-byte wire form.
pub fn encode_task_claim(msg: TaskClaim) -> Vec<u8> {
    let mut raw = Vec::with_capacity(TASK_CLAIM_WIRE_BYTES);
    raw.extend_from_slice(&TASK_CLAIM_MAGIC.to_le_bytes());
    raw.extend_from_slice(&msg.thief.to_le_bytes());
    raw.extend_from_slice(&msg.epoch.to_le_bytes());
    raw.extend_from_slice(&msg.nonce.to_le_bytes());
    finish(raw)
}

/// Parse a wire payload as a task claim; `None` on wrong length,
/// magic, or CRC.
pub fn decode_task_claim(raw: &[u8]) -> Option<TaskClaim> {
    let body = open(raw, TASK_CLAIM_WIRE_BYTES, TASK_CLAIM_MAGIC)?;
    Some(TaskClaim {
        thief: u32_at(body, 0),
        epoch: u64_at(body, 4),
        nonce: u64_at(body, 12),
    })
}

/// Serialise a claim ack to its 20-byte wire form.
pub fn encode_claim_ack(msg: ClaimAck) -> Vec<u8> {
    let mut raw = Vec::with_capacity(CLAIM_ACK_WIRE_BYTES);
    raw.extend_from_slice(&CLAIM_ACK_MAGIC.to_le_bytes());
    raw.extend_from_slice(&u32::from(msg.accepted).to_le_bytes());
    raw.extend_from_slice(&msg.nonce.to_le_bytes());
    finish(raw)
}

/// Parse a wire payload as a claim ack; `None` on wrong length, magic,
/// CRC, or a verdict byte that is neither 0 nor 1.
pub fn decode_claim_ack(raw: &[u8]) -> Option<ClaimAck> {
    let body = open(raw, CLAIM_ACK_WIRE_BYTES, CLAIM_ACK_MAGIC)?;
    let verdict = u32_at(body, 0);
    if verdict > 1 {
        return None;
    }
    Some(ClaimAck {
        accepted: verdict == 1,
        nonce: u64_at(body, 4),
    })
}

/// Why a claim was turned down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimReject {
    /// The victim never offered this nonce (or already cancelled it).
    UnknownNonce,
    /// The offer predates the victim's current fence epoch.
    StaleEpoch,
    /// The nonce was offered (or already granted) to a different thief.
    ForeignThief,
}

/// The victim's answer to one [`TaskClaim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimVerdict {
    /// Ownership transferred (or had already transferred to this same
    /// thief — re-sent claims are answered identically).
    Accepted(TaskId),
    /// Ownership did not transfer; the task stays with the victim.
    Rejected(ClaimReject),
}

#[derive(Debug, Clone, Copy)]
struct Offer {
    thief: u32,
    epoch: u64,
    task: TaskId,
    accepted: bool,
}

/// Victim-side ledger of outstanding and settled steal offers.
///
/// The table is what makes the handshake *exactly-once*: a task leaves
/// the victim only through [`ClaimTable::claim`] accepting it, every
/// other path (timeout via [`ClaimTable::cancel`], fence via
/// [`ClaimTable::fence`]) returns the task to the victim's deque, and a
/// duplicate claim from the accepted thief is answered with the same
/// verdict instead of a second task.
#[derive(Debug, Default)]
pub struct ClaimTable {
    epoch: u64,
    offers: BTreeMap<u64, Offer>,
}

impl ClaimTable {
    /// An empty table at epoch 0.
    pub fn new() -> ClaimTable {
        ClaimTable::default()
    }

    /// The current fence epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Record an outstanding grant of `task` to `thief` under `nonce`.
    /// Panics on nonce reuse — nonces are the handshake's identity and
    /// the runtime draws them from a monotone counter.
    pub fn offer(&mut self, nonce: u64, thief: u32, task: TaskId) {
        let prev = self.offers.insert(
            nonce,
            Offer {
                thief,
                epoch: self.epoch,
                task,
                accepted: false,
            },
        );
        assert!(prev.is_none(), "steal nonce {nonce} reused");
    }

    /// Judge one claim. Accepting marks the offer settled; claiming an
    /// already-accepted nonce from the same thief re-returns `Accepted`
    /// (idempotent retransmit), from any other thief returns
    /// [`ClaimReject::ForeignThief`].
    pub fn claim(&mut self, claim: TaskClaim) -> ClaimVerdict {
        let Some(offer) = self.offers.get_mut(&claim.nonce) else {
            return ClaimVerdict::Rejected(ClaimReject::UnknownNonce);
        };
        if offer.thief != claim.thief {
            return ClaimVerdict::Rejected(ClaimReject::ForeignThief);
        }
        if offer.epoch < self.epoch || claim.epoch != offer.epoch {
            return ClaimVerdict::Rejected(ClaimReject::StaleEpoch);
        }
        offer.accepted = true;
        ClaimVerdict::Accepted(offer.task)
    }

    /// Withdraw an unaccepted offer (victim-side claim timeout) and get
    /// its task back for re-queueing. `None` if the nonce is unknown or
    /// the claim already transferred ownership.
    pub fn cancel(&mut self, nonce: u64) -> Option<TaskId> {
        match self.offers.get(&nonce) {
            Some(offer) if !offer.accepted => {
                let task = offer.task;
                self.offers.remove(&nonce);
                Some(task)
            }
            _ => None,
        }
    }

    /// Advance the fence epoch, invalidating every unaccepted offer made
    /// before it. Returns the reclaimed tasks for re-queueing.
    pub fn fence(&mut self, new_epoch: u64) -> Vec<TaskId> {
        assert!(new_epoch > self.epoch, "fence epoch must advance");
        self.epoch = new_epoch;
        let stale: Vec<u64> = self
            .offers
            .iter()
            .filter(|(_, o)| !o.accepted && o.epoch < new_epoch)
            .map(|(&n, _)| n)
            .collect();
        stale
            .into_iter()
            .map(|n| self.offers.remove(&n).expect("stale nonce present").task)
            .collect()
    }

    /// Number of offers the victim is still waiting on.
    pub fn outstanding(&self) -> usize {
        self.offers.values().filter(|o| !o.accepted).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TASK: TaskId = TaskId {
        frame: 7,
        strip: 2,
        group: 1,
    };

    #[test]
    fn all_four_codecs_round_trip() {
        let req = StealRequest {
            thief: 9,
            epoch: 3,
            nonce: 0xDEAD,
        };
        assert_eq!(decode_steal_request(&encode_steal_request(req)), Some(req));
        let grant = StealGrant {
            victim: 4,
            epoch: 3,
            nonce: 0xDEAD,
            task: TASK,
        };
        assert_eq!(decode_steal_grant(&encode_steal_grant(grant)), Some(grant));
        let claim = TaskClaim {
            thief: 9,
            epoch: 3,
            nonce: 0xDEAD,
        };
        assert_eq!(decode_task_claim(&encode_task_claim(claim)), Some(claim));
        for accepted in [true, false] {
            let ack = ClaimAck {
                accepted,
                nonce: 0xDEAD,
            };
            assert_eq!(decode_claim_ack(&encode_claim_ack(ack)), Some(ack));
        }
    }

    #[test]
    fn wire_sizes_are_pinned() {
        assert_eq!(
            encode_steal_request(StealRequest {
                thief: 0,
                epoch: 0,
                nonce: 0
            })
            .len(),
            STEAL_REQUEST_WIRE_BYTES
        );
        assert_eq!(
            encode_steal_grant(StealGrant {
                victim: 0,
                epoch: 0,
                nonce: 0,
                task: TASK
            })
            .len(),
            STEAL_GRANT_WIRE_BYTES
        );
        assert_eq!(
            encode_task_claim(TaskClaim {
                thief: 0,
                epoch: 0,
                nonce: 0
            })
            .len(),
            TASK_CLAIM_WIRE_BYTES
        );
        assert_eq!(
            encode_claim_ack(ClaimAck {
                accepted: true,
                nonce: 0
            })
            .len(),
            CLAIM_ACK_WIRE_BYTES
        );
    }

    #[test]
    fn claim_table_happy_path() {
        let mut table = ClaimTable::new();
        table.offer(1, 9, TASK);
        assert_eq!(table.outstanding(), 1);
        let verdict = table.claim(TaskClaim {
            thief: 9,
            epoch: 0,
            nonce: 1,
        });
        assert_eq!(verdict, ClaimVerdict::Accepted(TASK));
        assert_eq!(table.outstanding(), 0);
        // Retransmitted claim (lost ack) answered identically.
        let again = table.claim(TaskClaim {
            thief: 9,
            epoch: 0,
            nonce: 1,
        });
        assert_eq!(again, ClaimVerdict::Accepted(TASK), "idempotent re-claim");
    }

    #[test]
    fn foreign_unknown_and_stale_claims_are_rejected() {
        let mut table = ClaimTable::new();
        table.offer(1, 9, TASK);
        assert_eq!(
            table.claim(TaskClaim {
                thief: 8,
                epoch: 0,
                nonce: 1
            }),
            ClaimVerdict::Rejected(ClaimReject::ForeignThief)
        );
        assert_eq!(
            table.claim(TaskClaim {
                thief: 9,
                epoch: 0,
                nonce: 99
            }),
            ClaimVerdict::Rejected(ClaimReject::UnknownNonce)
        );
        assert_eq!(
            table.claim(TaskClaim {
                thief: 9,
                epoch: 7,
                nonce: 1
            }),
            ClaimVerdict::Rejected(ClaimReject::StaleEpoch),
            "claim epoch must match the offer's"
        );
    }

    #[test]
    fn cancel_reclaims_only_unaccepted_offers() {
        let mut table = ClaimTable::new();
        table.offer(1, 9, TASK);
        assert_eq!(table.cancel(1), Some(TASK));
        assert_eq!(table.cancel(1), None, "second cancel finds nothing");
        table.offer(2, 9, TASK);
        table.claim(TaskClaim {
            thief: 9,
            epoch: 0,
            nonce: 2,
        });
        assert_eq!(table.cancel(2), None, "accepted offers cannot be recalled");
    }

    #[test]
    fn fence_reclaims_stale_offers_and_blocks_their_claims() {
        let mut table = ClaimTable::new();
        table.offer(1, 9, TASK);
        let reclaimed = table.fence(1);
        assert_eq!(reclaimed, vec![TASK]);
        assert_eq!(table.epoch(), 1);
        assert_eq!(
            table.claim(TaskClaim {
                thief: 9,
                epoch: 0,
                nonce: 1
            }),
            ClaimVerdict::Rejected(ClaimReject::UnknownNonce),
            "fenced offers are gone entirely"
        );
        // Accepted offers survive a fence (ownership already moved).
        table.offer(2, 9, TASK);
        table.claim(TaskClaim {
            thief: 9,
            epoch: 1,
            nonce: 2,
        });
        assert!(table.fence(2).is_empty());
    }
}
