//! # fxnet-trace
//!
//! Analysis of promiscuous-mode packet traces, following the paper's
//! methodology (§5.3, §6) record for record:
//!
//! * **Statistics** — min/max/average/standard deviation of packet sizes
//!   and interarrival times (Figures 3, 4, 8, 9), for the aggregate trace
//!   and for single *connections*. A connection is "a kernel-specific
//!   simplex channel between a source machine and a destination machine":
//!   all frames from one host to another, which captures message-passing
//!   TCP data, PVM-daemon UDP traffic, and the TCP ACKs of the symmetric
//!   reverse channel.
//! * **Bandwidth** — the lifetime average (Figure 5), the instantaneous
//!   bandwidth over a 10 ms window sliding one packet at a time
//!   (Figures 6, 10), and the 10 ms statically binned series the spectra
//!   are computed from.
//! * **Power spectra** — the periodogram `|FFT|²` of the binned
//!   bandwidth (Figures 7, 11), with spike extraction: the sparse,
//!   "spiky" spectra are what §7.2 truncates into analytic traffic
//!   models.
//! * **Size populations** — exact packet-size histograms, used to verify
//!   the trimodal distributions the paper describes for SOR/2DFFT/HIST.
//!
//! The store of record is the columnar [`TraceStore`] —
//! structure-of-arrays columns with a one-pass connection index, whose
//! [`TraceView`]s make `connection()`, tenant demux, and per-connection
//! statistics zero-copy. The view kernels ([`TraceView::packet_sizes`],
//! [`TraceView::binned_bandwidth`], [`TraceView::detect_bursts`], …) are
//! the analysis API; a run's `Vec<FrameRecord>` becomes one store with
//! [`TraceStore::from_records`]. Each quantity has one rule, one
//! accumulator that the view kernel, the report fold and the traffic
//! estimator in `fxnet-qos` (which the live watcher feeds) all push
//! into: one burst segmenter ([`BurstSegmenter`]), one anchored binner
//! ([`StreamBinner`]), one sliding window ([`SlidingBandwidth`]). The per-trace report (sizes,
//! interarrivals, bandwidth, bursts, spectrum summary) is
//! [`StreamingReport`], a fold over `(time_ns, wire_len)` samples that
//! runs identically whether it is fed a whole view
//! ([`TraceReport::analyze_view`]) or the chunks of a file too large to
//! load. Traces persist in one format: the chunked binary container in
//! [`io`].
//!
//! ```
//! use fxnet_sim::{Frame, FrameKind, FrameRecord, HostId, SimTime};
//! use fxnet_trace::{Periodogram, TraceStore};
//!
//! // A 2 Hz burst train of full frames: 20-packet bursts spanning
//! // 200 ms, repeating every 500 ms.
//! let trace: Vec<FrameRecord> = (0..2000)
//!     .map(|i| {
//!         let t = SimTime::from_millis((i / 20) * 500 + (i % 20) * 10);
//!         let f = Frame::tcp(HostId(0), HostId(1), FrameKind::Data, 1460, i as u64);
//!         FrameRecord::capture(t, &f)
//!     })
//!     .collect();
//! let store = TraceStore::from_records(&trace);
//! let sizes = store.view().packet_sizes().unwrap();
//! assert_eq!(sizes.max, 1518.0);
//! let spectrum = Periodogram::compute(
//!     &store.view().binned_bandwidth(SimTime::from_millis(10)),
//!     SimTime::from_millis(10),
//! );
//! let f0 = spectrum.dominant_frequency(0.5).unwrap();
//! assert!((f0 - 2.0).abs() < 0.1);
//! ```

mod bandwidth;
pub mod bursts;
pub mod coherence;
pub mod demux;
pub mod interference;
pub mod io;
pub mod phases;
pub mod report;
pub mod spectrum;
pub mod stats;
pub mod store;
pub mod stream;
pub mod streaming;

pub use bursts::{Burst, BurstProfile, BurstSegmenter};
pub use coherence::{correlation, mean_connection_correlation};
pub use demux::{demux_store, DemuxedStore};
pub use interference::{burst_collisions, slowdown, spectral_concentration, SpectralInterference};
pub use io::{
    load_store, read_chunk, read_chunk_directory, save_store_chunked, ChunkBuf, ChunkCursor,
    ChunkDirectory, ChunkMeta, ChunkedWriter, TraceIoError,
};
pub use phases::{PhaseBreakdown, PhaseRow};
pub use report::{markdown_table_views, ReportOptions, TraceReport};
pub use spectrum::{autocorrelation, Periodogram, Spike};
pub use stats::Stats;
pub use store::{TraceStore, TraceView};
pub use stream::{SlidingBandwidth, StreakLatch, StreamBinner};
pub use streaming::{SlidingPeak, StreamingReport};
