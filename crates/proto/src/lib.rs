//! # fxnet-proto
//!
//! A reduced TCP/UDP stack over the simulated shared Ethernet of
//! [`fxnet_sim`], reproducing the wire behaviour that shapes the packet
//! populations in the paper (Figures 3, 4, 8, 9):
//!
//! * **TCP** — each application write (a PVM fragment) is segmented
//!   independently into MSS-sized (1460 B) segments plus a remainder, as a
//!   `TCP_NODELAY` socket would; this is what makes single-fragment PVM
//!   messages *trimodal* (1518 B full segments, one remainder packet, and
//!   58 B pure ACKs) while T2DFFT's multi-fragment messages produce a broad
//!   size mix. Receivers acknowledge every second segment immediately and
//!   otherwise arm a 200 ms delayed-ACK timer (4.3BSD-derived stacks such
//!   as OSF/1). Connections are established with a SYN / SYN-ACK / ACK
//!   handshake. A fixed send window models the era's default socket
//!   buffers; congestion control is deliberately absent — the paper's LAN
//!   is a single uncongested collision domain where the MAC layer, not
//!   TCP, arbitrates (documented substitution, DESIGN.md §2).
//! * **Go-back-N retransmission** — only exercised in the lossy-bus
//!   extension; the measured environment is lossless.
//! * **UDP** — datagram service used by the PVM daemons.
//!
//! The stack is pull-driven like the bus beneath it: the owner interleaves
//! [`Network::advance`] with its own logic, injecting writes at simulated
//! times of its choosing and consuming in-order byte deliveries.
//!
//! ```
//! use fxnet_proto::{AppEvent, NetConfig, Network};
//! use fxnet_sim::{HostId, SimTime};
//!
//! let mut net = Network::new(NetConfig::default(), 2);
//! let conn = net.connect(HostId(0), HostId(1), SimTime::ZERO);
//! net.tcp_write(conn, HostId(0), bytes::Bytes::from(vec![7u8; 4000]), SimTime::ZERO);
//! let delivered: usize = net
//!     .run_to_idle()
//!     .iter()
//!     .filter_map(|e| match e {
//!         AppEvent::TcpData { data, .. } => Some(data.len()),
//!         _ => None,
//!     })
//!     .sum();
//! assert_eq!(delivered, 4000);
//! ```

// Nothing in this crate uses `fxnet-shard`; Cargo.toml declares it only
// because `benchmark/Cargo.lock` pins this crate's dependency list and the
// benchmark runs `--locked` (ROADMAP item 3 drops it at the next re-lock).
pub mod network;
pub mod tcp;

pub use network::{AppEvent, LinkKind, NetConfig, Network, TcpStats};
pub use tcp::{ConnId, Dir};
