//! # scc-sim — a deterministic simulator of the Intel SCC many-core platform
//!
//! This crate is the hardware substrate for the reproduction of *"Parallel
//! Macro Pipelining on the Intel SCC Many-Core Computer"* (Süß et al.,
//! IPDPSW 2013). The real SCC is an experimental 48-core chip that no
//! longer exists outside museums, so everything the paper's evaluation
//! touches is modelled here:
//!
//! * [`topology`] — 24 tiles × 2 P54C cores on a 6×4 mesh, four DDR3
//!   memory controllers on the corners, XY routing;
//! * [`noc`] — per-link FIFO contention on the mesh;
//! * [`memctrl`] — bandwidth/latency queueing at the four controllers;
//! * [`cache`] — the L2 geometry and the streaming analytic model (why
//!   Figure 12 shows no cache-size cliff);
//! * [`dvfs`] — per-tile frequency, per-island (2×2 tiles) voltage;
//! * [`power`] — analytic chip power calibrated to the paper's numbers;
//! * [`hostlink`] — the chunked MCPC↔SCC UDP/PCIe path;
//! * [`platform`] — the façade the macro-pipeline runner drives;
//! * [`bucket`] — the time-bucketed busy ledger every contended resource
//!   books into, so bookings need not arrive in time order;
//! * [`time`] — the virtual clock.
//!
//! The crate keeps no event queue: each executor in `scc-core` owns its
//! event order and books its work here.
//!
//! Nothing in this crate measures host time: identical inputs produce
//! identical virtual-time results on any machine.

#![forbid(unsafe_code)]

pub mod bucket;
pub mod cache;
pub mod dvfs;
pub mod fault;
pub mod hostlink;
pub mod memctrl;
pub mod noc;
pub mod platform;
pub mod power;
pub mod stats;
pub mod time;
pub mod topology;

pub use dvfs::{DvfsState, FreqMHz, IslandId};
pub use fault::{CoreKill, CoreStall, FaultConfig, FaultPlan, MessageOutcome};
pub use platform::{MemOp, SccConfig, SccPlatform, HEARTBEAT_BYTES};
pub use power::{PowerConfig, PowerMeter, PowerSample};
pub use time::SimTime;
pub use topology::{CoreId, McId, TileId, NUM_CORES, NUM_MCS, NUM_TILES};
