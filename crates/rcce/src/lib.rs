//! # scc-rcce — RCCE-style message passing
//!
//! The paper programs the SCC with Intel's RCCE library ("similar to the
//! familiar MPI libraries", §VI). This crate reproduces its programming
//! model for the native (real threads) execution path of the macro
//! pipeline:
//!
//! * [`comm`] — ranked endpoints with blocking, source-matched
//!   `send`/`recv`, bounded windows for MPB backpressure, barriers, and
//!   per-endpoint wait-time instrumentation (feeding the Figure 15
//!   idle-time measurements);
//! * [`onesided`] — RCCE's actual core layer: one-sided `put`/`get`
//!   into MPB windows with flag handshakes, plus the chunked two-sided
//!   protocol built on them (the origin of the per-chunk costs in
//!   [`mpb`]);
//! * [`collective`] — broadcast / gather / scatter built over send/recv;
//! * [`health`] — heartbeat datagrams and the phi-style accrual failure
//!   detector feeding the supervision control plane;
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

pub mod collective;
pub mod comm;
pub mod crc;
pub mod error;
pub mod health;
pub mod mpb;
pub mod onesided;
pub mod steal;

pub use collective::{broadcast, gather, scatter};
pub use comm::{communicator, CommStats, Endpoint, Reliability};
pub use crc::crc32;
pub use error::RcceError;
pub use health::{
    await_heartbeat, decode_heartbeat, encode_heartbeat, poll_heartbeat, record_heartbeat_miss,
    send_heartbeat, Heartbeat, PhiDetector, HEARTBEAT_WIRE_BYTES,
};
pub use mpb::MpbConfig;
pub use onesided::{one_sided, recv_via_get, send_via_put, OneSided};
pub use steal::{
    decode_claim_ack, decode_steal_grant, decode_steal_request, decode_task_claim,
    encode_claim_ack, encode_steal_grant, encode_steal_request, encode_task_claim, ClaimAck,
    ClaimReject, ClaimTable, ClaimVerdict, StealGrant, StealRequest, TaskClaim, TaskId,
    CLAIM_ACK_WIRE_BYTES, STEAL_GRANT_WIRE_BYTES, STEAL_REQUEST_WIRE_BYTES, TASK_CLAIM_WIRE_BYTES,
};
