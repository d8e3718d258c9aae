//! # fxnet-pvm
//!
//! A PVM-style message-passing presentation layer (§4 of the paper) over
//! the simulated TCP/UDP stack of [`fxnet_proto`].
//!
//! PVM semantics reproduced here, because they shape the measured traffic:
//!
//! * **Pack/unpack with fragment lists.** Data is "packed" into a message
//!   with typed calls; PVM stores the message as a *list of fragments*
//!   which are written to the socket independently. Programs that assemble
//!   their message in a copy loop and pack once (SOR, 2DFFT, SEQ, HIST,
//!   AIRSHED) produce a single large fragment → one large TCP write →
//!   trimodal packet sizes. T2DFFT packs many times per message → many
//!   fragments → many independent writes → the broad packet-size mix of
//!   Figure 3.
//! * **Routing.** The default *direct route* sends task-to-task over a
//!   lazily established TCP connection (what all six measured programs
//!   used). The *daemon route* relays through per-host daemons over UDP
//!   with stop-and-wait reliability — "better scalability, but tends to be
//!   somewhat slow" — provided as an ablation.
//! * **Daemon chatter.** The per-host daemons exchange periodic UDP state
//!   datagrams; the paper's connection definition explicitly includes
//!   "UDP traffic between the PVM daemons".
//!
//! Like the layers below, the system is pull-driven: the SPMD engine in
//! `fxnet-fx` interleaves [`PvmSystem::advance`] with rank execution.
//!
//! ```
//! use fxnet_pvm::{MessageBuilder, PvmConfig, PvmSystem, TaskId};
//! use fxnet_sim::SimTime;
//!
//! let cfg = PvmConfig { heartbeat: None, ..PvmConfig::default() };
//! let mut vm = PvmSystem::new(cfg, 2, 2);
//! let mut b = MessageBuilder::new(42);
//! b.pack_f64(&[1.0, 2.0, 3.0]);
//! vm.send(SimTime::ZERO, TaskId(0), TaskId(1), b.finish());
//! let delivered = vm.finish();
//! assert_eq!(delivered[0].msg.tag, 42);
//! assert_eq!(delivered[0].msg.reader().f64s(3), vec![1.0, 2.0, 3.0]);
//! ```

pub mod message;
pub mod system;
pub mod tenancy;

pub use message::{Message, MessageBuilder, MessageReader, OutMessage, WireMessage, FRAG_HEADER};
pub use system::{MsgDelivery, PvmConfig, PvmStats, PvmSystem, Route, TaskId};
pub use tenancy::{TenantMap, TenantSlice};
