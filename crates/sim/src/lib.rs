//! # fxnet-sim
//!
//! Deterministic discrete-event simulation substrate for the `fxnet`
//! reproduction of *"The Measured Network Traffic of Compiler-Parallelized
//! Programs"* (Dinda, Garcia, Leung; CMU-CS-98-144 / ICPP).
//!
//! The paper's testbed was nine DEC 3000/400 Alpha workstations sharing a
//! single bridged 10 Mb/s Ethernet collision domain, with one workstation
//! capturing every frame in promiscuous mode. This crate provides the
//! corresponding simulated substrate:
//!
//! * [`SimTime`] — nanosecond-resolution simulated time (one 10 Mb/s bit
//!   time is exactly 100 ns, so all MAC-layer quantities are exact).
//! * [`SimRng`] — a seeded, reproducible random number generator; every
//!   run of the simulator with the same seed produces an identical packet
//!   trace.
//! * [`Frame`] / [`FrameRecord`] — Ethernet frames and the promiscuous
//!   trace records derived from them (timestamp, wire size including all
//!   headers and the trailer, protocol, source and destination host), the
//!   exact record schema of the paper's §5.3 tcpdump methodology;
//!   [`TraceRows`] reads a trace row by row, whatever holds it.
//! * [`EtherBus`] — a single shared collision domain with CSMA/CD:
//!   carrier sense, deference, inter-frame gap, collisions among stations
//!   that attempt transmission simultaneously, jam, and truncated binary
//!   exponential backoff.
//! * [`EventQueue`] — a time-ordered event queue (a binary heap) with
//!   stable FIFO ordering among simultaneous events; `fxnet-proto`'s
//!   TCP timers run on it. [`LaneQueue`] is the compiled fabric's event
//!   list and [`KeyedQueue`] its oracle (see [`queue`]).
//! * [`CauseId`] / [`CausalEvent`] — compact causal provenance ids and
//!   the tagged delivery stream the protocol layer can optionally emit
//!   (one event per trace row, zero perturbation of timing or trace).
//!
//! Layering is pull-based rather than callback-based: the bus exposes
//! [`EtherBus::next_event_time`] and [`EtherBus::advance`], and the owner
//! (the protocol stack in `fxnet-proto`) interleaves bus events with its
//! own timers. This keeps each layer independently testable. The bus
//! hands back deliveries and keeps no trace; the owner captures each
//! one as a [`FrameRecord`].
//!
//! ```
//! use fxnet_sim::{EtherBus, EtherConfig, Frame, FrameKind, FrameRecord, HostId, SimRng, SimTime};
//!
//! let mut bus = EtherBus::new(EtherConfig::default(), SimRng::new(7));
//! let a = bus.attach();
//! let _b = bus.attach();
//! bus.enqueue(a, Frame::tcp(HostId(0), HostId(1), FrameKind::Data, 1460, 1), SimTime::ZERO);
//! let delivered = bus.run_to_idle();
//! assert_eq!(delivered.len(), 1);
//! let record = FrameRecord::capture(delivered[0].time, &delivered[0].frame);
//! assert_eq!(record.wire_len, 1518);
//! ```

pub mod cause;
pub mod error;
pub mod ethernet;
pub mod frame;
pub mod linkstats;
pub mod queue;
pub mod rates;
pub mod rng;
pub mod time;

pub use cause::{AppCause, CausalEvent, Cause, CauseId, FrameMeta, ProtoCause};
pub use error::{FxnetError, FxnetResult};
pub use ethernet::{EtherBus, EtherConfig, EtherStats, NicId, TxError};
pub use frame::{
    Frame, FrameKind, FrameRecord, FrameTap, HostId, Proto, TraceRows, ETHER_OVERHEAD, MAX_FRAME,
    MIN_FRAME,
};
pub use linkstats::{LinkProbe, LinkSeries, LinkStats, LinkWindow, BUS_LINK, LINK_WINDOW_NS};
pub use queue::{EventKey, EventQueue, KeyedQueue, LaneQueue};
pub use rates::{RATE_100M, RATE_10M, RATE_1G};
pub use rng::SimRng;
pub use time::SimTime;
