//! # ea-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the lowest substrate of the E-Android reproduction. It
//! provides everything the simulated Android framework needs from a "kernel":
//!
//! * a millisecond-resolution simulated clock ([`SimTime`], [`SimDuration`],
//!   [`Clock`]),
//! * a deterministic event queue with stable FIFO ordering among same-time
//!   events ([`EventQueue`]),
//! * a seeded random number generator ([`SimRng`]) so every experiment is
//!   reproducible bit-for-bit,
//! * a process table with user IDs and death notification, mirroring the role
//!   of the Linux process layer underneath Android ([`ProcessTable`]),
//! * a Binder-like IPC bus with transaction records and *link-to-death*
//!   tokens, which Android's `PowerManagerService` relies on to release
//!   wakelocks held by dead processes ([`BinderBus`]),
//! * a proportional-share CPU scheduler that turns per-process demand into
//!   utilization figures, the quantity consumed by utilization-based energy
//!   models ([`CpuScheduler`]).
//!
//! Nothing in this crate knows about activities, wakelocks or energy; those
//! concepts live in `ea-framework`, `ea-power` and `ea-core`.
//!
//! ## Example
//!
//! ```
//! use ea_sim::{Clock, EventQueue, SimTime};
//!
//! let mut clock = Clock::new();
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule(SimTime::from_millis(10), "first");
//! queue.schedule(SimTime::from_millis(10), "second");
//! queue.schedule(SimTime::from_millis(5), "zeroth");
//!
//! let mut order = Vec::new();
//! while let Some(event) = queue.pop_next() {
//!     clock.advance_to(event.at).unwrap();
//!     order.push(event.payload);
//! }
//! assert_eq!(order, ["zeroth", "first", "second"]);
//! assert_eq!(clock.now(), SimTime::from_millis(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binder;
mod clock;
mod error;
mod event;
mod process;
pub mod rng;
mod sched;
mod time;

pub use binder::{BinderBus, BinderStats, DeathLink, Transaction, TransactionKind};
pub use clock::Clock;
pub use error::SimError;
pub use event::{EventQueue, ScheduledEvent};
pub use process::{DeathNotice, Pid, ProcessInfo, ProcessState, ProcessTable, Uid};
pub use rng::{splitmix64, splitmix64_lane, splitmix64_stream, SimRng, SPLITMIX64_GAMMA};
pub use sched::{CpuScheduler, CpuSlice};
pub use time::{SimDuration, SimTime};
