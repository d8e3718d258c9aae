//! The watcher's fixed parameters: window geometry, compliance
//! thresholds, and event-capture bounds.
//!
//! Each is a constant because every run uses the one value: the paper
//! reads bandwidth through one 10 ms window (§6.1), and every threshold
//! is expressed against the *admitted contract*
//! ([`crate::TenantContract`]), so the same values work across programs
//! of very different scales — tolerances are multiples of what the
//! tenant claimed, not absolute byte counts.

use fxnet_sim::SimTime;

/// Sliding bandwidth window: the paper's 10 ms measurement window.
pub const WINDOW: SimTime = SimTime::from_millis(10);

/// Bandwidth bin width of the online spectral/compliance signal: the
/// same 10 ms, so a bin is one window's worth of traffic.
pub const BIN: SimTime = SimTime::from_millis(10);

/// Sliding-DFT window length in bins (a power of two, as the sliding
/// DFT requires): 256 bins of 10 ms see periods up to 2.56 s.
pub const DFT_WINDOW: usize = 256;

/// Harmonics of each tenant's contract fundamental `1/t_bi` tracked
/// live by the sliding DFT (the "top-K admitted peaks").
pub const HARMONICS: usize = 3;

/// Flight-recorder capacity: frames preceding each event that are
/// dumped alongside it, enough to show what led up to the event while
/// keeping each event's dump small.
pub const FLIGHT_RECORDER: usize = 32;

/// Closed bins ignored per tenant before compliance checks begin
/// (startup chatter: PVM enrollment, first-touch traffic), 200 ms.
pub const WARMUP_BINS: usize = 20;

/// Length of the rolling-mean window, in closed bins, that the
/// sustained-bandwidth check smooths over: 1 s, so it spans at least
/// one full burst cycle and bursty-but-compliant tenants stay clean.
pub const MEAN_WINDOW_BINS: usize = 100;

/// Consecutive over-threshold rolling-mean evaluations required before
/// a sustained-bandwidth violation fires: half a second.
pub const BREACH_BINS: usize = 50;

/// Sustained violation threshold: rolling mean bandwidth above
/// `MEAN_TOLERANCE × contract mean_load`.
pub const MEAN_TOLERANCE: f64 = 2.0;

/// Burst-volume violation threshold: one detected burst carrying more
/// than `BURST_TOLERANCE × claimed cycle volume` bytes.
pub const BURST_TOLERANCE: f64 = 2.0;

/// Quiet gap that separates bursts, for both the tenant-aggregate
/// `[l, b, c]` estimator and per-connection burst detection.
pub const BURST_GAP: SimTime = SimTime::from_millis(10);

/// Cap on recorded `BurstAnomaly` events per tenant (violations are
/// latched to one per tenant; anomalies are merely capped).
pub const MAX_ANOMALIES: usize = 4;

const _: () = {
    assert!(WINDOW.as_nanos() > 0 && BIN.as_nanos() > 0);
    assert!(DFT_WINDOW.is_power_of_two());
    assert!(MEAN_TOLERANCE > 0.0 && BURST_TOLERANCE > 0.0);
};
