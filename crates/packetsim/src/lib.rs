//! # axcc-packetsim — event-driven packet-level simulator
//!
//! The paper validates Table 1 on Emulab with Linux-kernel TCPs; this crate
//! is that testbed's stand-in (see DESIGN.md §2 for the substitution
//! argument). It simulates, at per-packet granularity and in virtual time:
//!
//! * a **bottleneck link** serializing 1-MSS packets at bandwidth `B` with
//!   one-way propagation delay `Θ` (carried on the ACK path, so the
//!   loss-free RTT of an unqueued packet is exactly `2Θ + 1/B`);
//! * a **FIFO droptail queue** of capacity `τ` MSS in front of the link;
//! * **ACK-clocked window senders**: a sender keeps
//!   `⌊cwnd⌋` packets in flight, learns per-packet outcomes via
//!   SACK-style feedback (ACKs and loss notifications arrive one RTT after
//!   transmission), and hands its congestion-control [`Protocol`](axcc_core::Protocol)
//!   one observation per *epoch* — a window's worth of feedback, the
//!   packet-level realization of the fluid model's RTT step and of
//!   Robust-AIMD's "monitor interval";
//! * **flow churn**: every flow has optional start/stop times, and
//!   [`PacketScenario::churn`] expands the same deterministic seeded
//!   [`ChurnPlan`](axcc_topo::ChurnPlan) the fluid engine uses into a
//!   packet-level flow population — identical arrival patterns in both
//!   engines;
//! * composable **fault injection** ([`faults`]): Bernoulli or
//!   Gilbert–Elliott bursty wire loss (non-congestion loss, Metric VI),
//!   ACK-path loss, feedback jitter and reordering, link outages, and
//!   capacity flaps — all drawn from a seeded ChaCha8 RNG.
//!
//! The engine is single-threaded and fully deterministic: events at equal
//! timestamps are ordered by insertion sequence, virtual time is integer
//! nanoseconds, and all randomness flows from the scenario seed.
//!
//! Output is the same [`RunTrace`](axcc_core::RunTrace) the fluid simulator
//! produces (sampled on a fixed grid, default one minimum-RTT), plus
//! per-flow packet accounting ([`stats::FlowStats`]) with a conservation
//! invariant (`sent = acked + lost + in flight`) the test-suite enforces.
//!
//! ```
//! use axcc_core::{units::Bandwidth, LinkParams};
//! use axcc_packetsim::{PacketScenario, PacketSenderConfig};
//! use axcc_protocols::Aimd;
//!
//! // One of the paper's Emulab configurations: 20 Mbps, 42 ms RTT,
//! // 100-MSS buffer, two Reno flows.
//! let link = LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0);
//! let out = PacketScenario::new(link)
//!     .sender(PacketSenderConfig::new(Box::new(Aimd::reno())))
//!     .sender(PacketSenderConfig::new(Box::new(Aimd::reno())))
//!     .duration_secs(30.0)
//!     .run();
//! let tail = out.trace.tail_start(0.5);
//! let fair = axcc_core::axioms::fairness::measured_fairness(&out.trace, tail);
//! assert!(fair > 0.5, "two Renos share fairly, got {fair}");
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

mod engine;
pub mod event;
pub mod faults;
pub mod queue;
pub mod red;
pub mod sender;
pub mod stats;
pub mod time;

pub use engine::{PacketScenario, PacketSenderConfig, SimOutput};
pub use event::{Event, EventQueue};
pub use faults::{FaultPlan, FaultState, WireLoss};
pub use queue::DropTailQueue;
pub use red::{Red, RedConfig, RedVerdict};
pub use sender::{SendMode, Sender};
pub use stats::{FlowStats, QueueStats};
pub use time::Time;

pub use axcc_core::{LinkParams, RunTrace};
