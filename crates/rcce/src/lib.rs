//! # scc-rcce — RCCE-style message passing
//!
//! The paper programs the SCC with Intel's RCCE library ("similar to the
//! familiar MPI libraries", §VI). This crate reproduces the part of its
//! programming model the macro pipeline uses — point-to-point messages
//! between ranked cores — for the native (real threads) execution path:
//!
//! * [`comm`] — ranked endpoints with blocking, source-matched
//!   `send`/`recv`, bounded windows for MPB backpressure, a CRC-framed
//!   reliable (ARQ) path, and per-endpoint traffic counters and wait
//!   samples (feeding the Figure 15 idle-time measurements);
//! * [`crc`] — the CRC-32 that seals frames and reliable envelopes;
//! * [`health`] — the phi-style accrual failure detector the supervision
//!   control plane's detection rule is checked against;
//! * [`steal`] — work-stealing control messages (request / grant /
//!   claim / ack) and the victim-side [`ClaimTable`] that makes task
//!   hand-off idempotent under message loss;
//! * [`mpb`] — the Message Passing Buffer chunking model shared with the
//!   simulator's timing path.
//!
//! The *simulated* timing of SCC messaging (payload landing in the
//! receiver's DRAM partition) lives in `scc-sim::platform`; this crate is
//! the functional/parallel counterpart.

#![deny(unsafe_code)]

pub mod comm;
pub mod crc;
pub mod error;
pub mod health;
pub mod mpb;
pub mod steal;

pub use comm::{communicator, CommStats, Endpoint, Reliability};
pub use crc::crc32;
pub use error::RcceError;
pub use health::PhiDetector;
pub use mpb::MpbConfig;
pub use steal::{
    decode_claim_ack, decode_steal_grant, decode_steal_request, decode_task_claim,
    encode_claim_ack, encode_steal_grant, encode_steal_request, encode_task_claim, ClaimAck,
    ClaimReject, ClaimTable, ClaimVerdict, StealGrant, StealRequest, TaskClaim, TaskId,
    CLAIM_ACK_WIRE_BYTES, STEAL_GRANT_WIRE_BYTES, STEAL_REQUEST_WIRE_BYTES, TASK_CLAIM_WIRE_BYTES,
};
