//! The streaming watcher: frames in, structured events and metrics out.
//!
//! [`StreamWatch`] hangs off the simulator's frame tap
//! (`fxnet_sim::FrameTap`) and folds every delivered frame into O(1)
//! amortized state: a sliding 10 ms bandwidth window, a static binner
//! feeding a sliding DFT at the admitted tenants' contract frequencies,
//! a per-tenant `[l, b, c]` estimator, per-connection burst detection,
//! and the compliance checks that compare all of it against what each
//! tenant *claimed* at admission. The watcher never touches the
//! simulation — it only reads the records the tracer already captures —
//! so the trace is byte-identical with and without it, and its state is
//! a pure function of the frame stream (deterministic under `--seed`).

use crate::config::{
    BIN, BREACH_BINS, BURST_GAP, BURST_TOLERANCE, DFT_WINDOW, FLIGHT_RECORDER, HARMONICS,
    MAX_ANOMALIES, MEAN_TOLERANCE, MEAN_WINDOW_BINS, WARMUP_BINS, WINDOW,
};
use crate::estimator::{BurstEstimator, LiveEstimate};
use crate::event::{EventKind, WatchEvent};
use crate::recorder::FlightRecorder;
use fxnet_qos::ContractTerms;
use fxnet_sim::{FrameRecord, SimTime};
use fxnet_spectral::{goertzel_power, padded_bin, SlidingDft};
use fxnet_telemetry::TelemetryRegistry;
use fxnet_trace::{Burst, SlidingPeak, StreakLatch, StreamBinner};
use std::collections::BTreeMap;

/// What one tenant promised the admission controller, in plain numbers.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantContract {
    /// Tenant display name.
    pub name: String,
    /// The admitted descriptor evaluated at the negotiated operating
    /// point (the *claimed* terms — an over-driving tenant's actual
    /// traffic will exceed them).
    pub terms: ContractTerms,
}

/// One tracked spectral peak: a harmonic of a tenant's contract
/// fundamental `1/t_bi`, with its live sliding-DFT power and the batch
/// (Goertzel-over-the-whole-series) power computed at finalize.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpectralPeak {
    pub tenant: String,
    /// Harmonic number (1 = fundamental).
    pub harmonic: u32,
    /// Tracked frequency, Hz.
    pub freq_hz: f64,
    /// Sliding-DFT bin index inside the watcher's window.
    pub dft_bin: usize,
    /// `|X_k|²` of the last sliding window (0 if the run ended before
    /// the window filled).
    pub live_power: f64,
    /// `|X_k|²` of the full aggregate binned series, batch definition.
    pub batch_power: f64,
}

/// Everything the watcher measured about one tenant.
#[derive(Debug, Clone)]
pub struct TenantReport {
    pub name: String,
    /// The claimed contract.
    pub terms: ContractTerms,
    /// Live `[l, b, c]` estimate, when at least two bursts completed.
    pub estimate: Option<LiveEstimate>,
    pub frames: u64,
    pub bytes: u64,
    /// Peak of the sliding 10 ms window, bytes/s.
    pub peak_bw: f64,
    /// Lifetime mean bandwidth over the tenant's active span, bytes/s.
    pub mean_bw: f64,
    /// Tenant-aggregate bursts completed.
    pub bursts: u64,
    /// Distinct (src, dst) connections observed.
    pub connections: usize,
    /// `ContractViolation` events emitted (latched: 0 or 1).
    pub violations: u64,
    /// `BurstAnomaly` events recorded (capped at [`MAX_ANOMALIES`]).
    pub anomalies: u64,
    /// Anomalous bursts observed, including beyond the recording cap.
    pub anomalies_total: u64,
}

/// Final output of a watched run.
#[derive(Debug, Clone)]
pub struct WatchReport {
    /// Emitted events in order, each with its flight-recorder dump.
    pub events: Vec<WatchEvent>,
    /// Per-tenant measurements, in contract order.
    pub tenants: Vec<TenantReport>,
    /// Tracked spectral peaks with live and batch powers.
    pub peaks: Vec<SpectralPeak>,
    /// All frames observed (tenant + background).
    pub frames: u64,
    /// Frames attributable to no single tenant.
    pub background_frames: u64,
    /// Peak aggregate sliding-window bandwidth, bytes/s.
    pub peak_bw: f64,
    /// The watcher's own counters/gauges, ready for Prometheus export.
    pub registry: TelemetryRegistry,
}

impl WatchReport {
    /// Events rendered as JSON Lines.
    pub fn events_jsonl(&self) -> String {
        fxnet_telemetry::to_jsonl(&self.events)
    }

    /// `ContractViolation` events for `tenant`.
    pub fn violations_for(&self, tenant: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::ContractViolation && e.tenant == tenant)
            .count()
    }

    /// Human-readable compliance table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "watch: {} frames ({} background), peak {:.0} B/s, {} events\n",
            self.frames,
            self.background_frames,
            self.peak_bw,
            self.events.len()
        ));
        out.push_str(
            "| tenant | claimed mean B/s | live mean B/s | claimed b(P) B | live b(P) B | bursts | viol | anom |\n",
        );
        out.push_str(
            "|--------|------------------|---------------|----------------|-------------|--------|------|------|\n",
        );
        for t in &self.tenants {
            let (live_mean, live_b) = t
                .estimate
                .map_or((0.0, 0.0), |e| (e.mean_bw, e.burst_bytes));
            out.push_str(&format!(
                "| {} | {:.0} | {:.0} | {} | {:.0} | {} | {} | {} |\n",
                t.name,
                t.terms.mean_load,
                live_mean,
                t.terms.burst_bytes,
                live_b,
                t.bursts,
                t.violations,
                t.anomalies_total,
            ));
        }
        for e in &self.events {
            out.push_str(&format!(
                "  {} {} {}: {} (measured {:.0}, limit {:.0}) at {:.3} s, {} frames recorded\n",
                e.kind,
                e.tenant,
                e.check,
                e.detail,
                e.measured,
                e.limit,
                e.time.as_secs_f64(),
                e.flight_recorder.len(),
            ));
        }
        out
    }
}

/// Everything the watcher tracks per tenant.
struct TenantState {
    contract: TenantContract,
    bw: SlidingPeak,
    binner: StreamBinner,
    binned_count: u64,
    rolling: std::collections::VecDeque<f64>,
    rolling_sum: f64,
    /// Shared latched-breach rule (`fxnet_trace::StreakLatch`): one
    /// violation per tenant, fired after `breach_bins` consecutive
    /// over-threshold bins or an over-limit burst.
    latch: StreakLatch,
    violations: u64,
    anomalies: u64,
    anomalies_total: u64,
    estimator: BurstEstimator,
    /// Per-connection streaming burst detection.
    conns: BTreeMap<(u32, u32), BurstEstimator>,
    bytes: u64,
    frames: u64,
    first_time: Option<SimTime>,
    last_time: SimTime,
}

/// A compliance decision made while a tenant's state was borrowed; the
/// caller turns it into a [`WatchEvent`] once the borrow ends.
struct Pending {
    kind: EventKind,
    check: &'static str,
    measured: f64,
    limit: f64,
    detail: String,
}

/// The streaming observer. Feed it every captured frame (in time order,
/// as the tap delivers them) via [`StreamWatch::observe`], then call
/// [`StreamWatch::finalize`].
pub struct StreamWatch {
    /// `host_owner[h]` = index into `tenants` owning host `h`.
    host_owner: Vec<Option<usize>>,
    tenants: Vec<TenantState>,
    recorder: FlightRecorder,
    events: Vec<WatchEvent>,
    agg_bw: SlidingPeak,
    agg_binner: StreamBinner,
    agg_binned: Vec<f64>,
    dft: SlidingDft,
    /// (tenant, harmonic, freq_hz, index into the DFT's bin list).
    tracked: Vec<(usize, u32, f64, usize)>,
    frames: u64,
    background_frames: u64,
    last_time: SimTime,
}

impl StreamWatch {
    /// A watcher for `contracts`, attributing frames through
    /// `host_owner` (host id → tenant index, the ownership map the
    /// engine packs). Harmonics of each contract's `1/t_bi` that fit
    /// under the DFT window's Nyquist are tracked live.
    pub fn new(contracts: Vec<TenantContract>, host_owner: Vec<Option<usize>>) -> StreamWatch {
        let bin_s = BIN.as_secs_f64();
        let m = DFT_WINDOW;
        // Contract fundamentals and harmonics → deduplicated DFT bins.
        let mut bins: Vec<usize> = Vec::new();
        let mut tracked = Vec::new();
        for (ti, c) in contracts.iter().enumerate() {
            if c.terms.t_interval <= 0.0 {
                continue;
            }
            let f0 = 1.0 / c.terms.t_interval;
            for h in 1..=HARMONICS {
                let freq = f0 * h as f64;
                let k = (freq * m as f64 * bin_s).round() as usize;
                if k == 0 || k > m / 2 {
                    continue;
                }
                let pos = bins.iter().position(|&b| b == k).unwrap_or_else(|| {
                    bins.push(k);
                    bins.len() - 1
                });
                tracked.push((ti, h as u32, freq, pos));
            }
        }
        let tenants = contracts
            .into_iter()
            .map(|contract| TenantState {
                contract,
                bw: SlidingPeak::new(WINDOW),
                binner: StreamBinner::new(BIN),
                binned_count: 0,
                rolling: std::collections::VecDeque::new(),
                rolling_sum: 0.0,
                latch: StreakLatch::new(BREACH_BINS),
                violations: 0,
                anomalies: 0,
                anomalies_total: 0,
                estimator: BurstEstimator::new(BURST_GAP),
                conns: BTreeMap::new(),
                bytes: 0,
                frames: 0,
                first_time: None,
                last_time: SimTime::ZERO,
            })
            .collect();
        StreamWatch {
            recorder: FlightRecorder::new(FLIGHT_RECORDER),
            agg_bw: SlidingPeak::new(WINDOW),
            agg_binner: StreamBinner::new(BIN),
            agg_binned: Vec::new(),
            dft: SlidingDft::new(m, &bins),
            tracked,
            host_owner,
            tenants,
            events: Vec::new(),
            frames: 0,
            background_frames: 0,
            last_time: SimTime::ZERO,
        }
    }

    /// Tenant index owning both endpoints of `r`, if any — the same
    /// attribution rule as the offline `fxnet_trace::demux`.
    fn owner_of(&self, r: &FrameRecord) -> Option<usize> {
        let of = |h: u32| self.host_owner.get(h as usize).copied().flatten();
        match (of(r.src.0), of(r.dst.0)) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        }
    }

    /// Fold one captured frame into the watcher. O(1) amortized.
    pub fn observe(&mut self, r: &FrameRecord) {
        self.frames += 1;
        self.last_time = r.time;
        self.recorder.push(*r);

        // Aggregate signal: sliding window, binner, sliding DFT.
        self.agg_bw.push(r.time, r.wire_len);
        self.agg_binner.push(r.time, r.wire_len);
        while let Some(b) = self.agg_binner.pop_closed() {
            self.agg_binned.push(b);
            self.dft.push(b);
        }

        let Some(ti) = self.owner_of(r) else {
            self.background_frames += 1;
            return;
        };
        let mut pending: Vec<Pending> = Vec::new();
        {
            let t = &mut self.tenants[ti];
            t.frames += 1;
            t.bytes += u64::from(r.wire_len);
            t.first_time.get_or_insert(r.time);
            t.last_time = r.time;
            t.bw.push(r.time, r.wire_len);

            t.binner.push(r.time, r.wire_len);
            while let Some(bin) = t.binner.pop_closed() {
                tenant_bin(t, bin, &mut pending);
            }
            if let Some((index, burst)) = t.estimator.push(r.time, r.wire_len) {
                tenant_burst(t, index, &burst, &mut pending);
            }

            let closed = t
                .conns
                .entry((r.src.0, r.dst.0))
                .or_insert_with(|| BurstEstimator::new(BURST_GAP))
                .push(r.time, r.wire_len);
            if let Some((index, b)) = closed {
                conn_burst(t, index, &b, &mut pending);
            }
        }
        self.flush(ti, r.time, pending);
    }

    /// Turn pending decisions into recorded events.
    fn flush(&mut self, ti: usize, time: SimTime, pending: Vec<Pending>) {
        for p in pending {
            self.events.push(WatchEvent {
                kind: p.kind,
                tenant: self.tenants[ti].contract.name.clone(),
                time,
                check: p.check.to_string(),
                measured: p.measured,
                limit: p.limit,
                detail: p.detail,
                flight_recorder: self.recorder.snapshot(),
            });
        }
    }

    /// Events emitted so far.
    pub fn events(&self) -> &[WatchEvent] {
        &self.events
    }

    /// Close every open structure, reconcile the tracked spectral peaks
    /// against the batch definition, and produce the report.
    pub fn finalize(mut self) -> WatchReport {
        // Flush the aggregate binner through the DFT.
        let binner = std::mem::replace(&mut self.agg_binner, StreamBinner::new(BIN));
        for b in binner.finish() {
            self.agg_binned.push(b);
            self.dft.push(b);
        }
        // Flush tenants: trailing bins, trailing aggregate burst,
        // trailing per-connection bursts.
        let end = self.last_time;
        for ti in 0..self.tenants.len() {
            let mut pending = Vec::new();
            {
                let t = &mut self.tenants[ti];
                let binner = std::mem::replace(&mut t.binner, StreamBinner::new(BIN));
                for bin in binner.finish() {
                    tenant_bin(t, bin, &mut pending);
                }
                if let Some((index, b)) = t.estimator.finish() {
                    tenant_burst(t, index, &b, &mut pending);
                }
                let closed: Vec<(u64, Burst)> =
                    t.conns.values_mut().filter_map(|c| c.finish()).collect();
                for (index, b) in closed {
                    conn_burst(t, index, &b, &mut pending);
                }
            }
            self.flush(ti, end, pending);
        }

        // Spectral reconciliation: live sliding-DFT power next to the
        // batch (whole-series Goertzel) power at each tracked peak.
        let peaks: Vec<SpectralPeak> = self
            .tracked
            .iter()
            .map(|&(ti, harmonic, freq_hz, pos)| SpectralPeak {
                tenant: self.tenants[ti].contract.name.clone(),
                harmonic,
                freq_hz,
                dft_bin: self.dft.bins()[pos],
                live_power: if self.dft.warm() {
                    self.dft.power(pos)
                } else {
                    0.0
                },
                batch_power: if self.agg_binned.is_empty() {
                    0.0
                } else {
                    let bin = padded_bin(freq_hz, self.agg_binned.len(), BIN);
                    goertzel_power(&self.agg_binned, bin)
                },
            })
            .collect();

        let mut registry = TelemetryRegistry::new();
        registry.set_counter("watch.frames", self.frames);
        registry.set_counter("watch.frames.background", self.background_frames);
        registry.set_counter("watch.bins", self.agg_binned.len() as u64);
        let agg_peak_bw = self.agg_bw.peak().unwrap_or(0.0);
        registry.set_gauge("watch.bw.peak", agg_peak_bw);
        let violations: u64 = self.tenants.iter().map(|t| t.violations).sum();
        let anomalies: u64 = self.tenants.iter().map(|t| t.anomalies).sum();
        registry.set_counter("watch.events.contract_violation", violations);
        registry.set_counter("watch.events.burst_anomaly", anomalies);

        let tenants: Vec<TenantReport> = self
            .tenants
            .iter()
            .map(|t| {
                let span = t
                    .first_time
                    .map_or(0.0, |f| (t.last_time.saturating_sub(f)).as_secs_f64());
                let estimate = t.estimator.estimate(t.contract.terms.connections);
                let name = &t.contract.name;
                registry.set_counter(format!("watch.tenant.{name}.frames"), t.frames);
                registry.set_counter(format!("watch.tenant.{name}.bytes"), t.bytes);
                registry.set_counter(format!("watch.tenant.{name}.bursts"), t.estimator.bursts());
                registry.set_counter(format!("watch.tenant.{name}.violations"), t.violations);
                registry.set_counter(format!("watch.tenant.{name}.anomalies"), t.anomalies_total);
                let peak_bw = t.bw.peak().unwrap_or(0.0);
                registry.set_gauge(format!("watch.tenant.{name}.bw.peak"), peak_bw);
                registry.set_gauge(
                    format!("watch.tenant.{name}.contract.mean_load"),
                    t.contract.terms.mean_load,
                );
                if let Some(e) = &estimate {
                    registry.set_gauge(format!("watch.tenant.{name}.live.mean_bw"), e.mean_bw);
                    registry.set_gauge(
                        format!("watch.tenant.{name}.live.burst_bytes"),
                        e.burst_bytes,
                    );
                    registry
                        .set_gauge(format!("watch.tenant.{name}.live.t_interval"), e.t_interval);
                }
                TenantReport {
                    name: name.clone(),
                    terms: t.contract.terms,
                    estimate,
                    frames: t.frames,
                    bytes: t.bytes,
                    peak_bw,
                    mean_bw: if span > 0.0 {
                        t.bytes as f64 / span
                    } else {
                        0.0
                    },
                    bursts: t.estimator.bursts(),
                    connections: t.conns.len(),
                    violations: t.violations,
                    anomalies: t.anomalies,
                    anomalies_total: t.anomalies_total,
                }
            })
            .collect();

        WatchReport {
            events: self.events,
            tenants,
            peaks,
            frames: self.frames,
            background_frames: self.background_frames,
            peak_bw: agg_peak_bw,
            registry,
        }
    }
}

/// Sustained-bandwidth compliance on one closed tenant bin.
fn tenant_bin(t: &mut TenantState, bin: f64, pending: &mut Vec<Pending>) {
    t.binned_count += 1;
    t.rolling.push_back(bin);
    t.rolling_sum += bin;
    if t.rolling.len() > MEAN_WINDOW_BINS {
        t.rolling_sum -= t.rolling.pop_front().expect("nonempty rolling window");
    }
    if t.binned_count as usize <= WARMUP_BINS || t.rolling.len() < MEAN_WINDOW_BINS {
        return;
    }
    let mean = t.rolling_sum / t.rolling.len() as f64;
    let limit = MEAN_TOLERANCE * t.contract.terms.mean_load;
    if t.latch.update(mean > limit) {
        t.violations += 1;
        pending.push(Pending {
            kind: EventKind::ContractViolation,
            check: "mean-bandwidth",
            measured: mean,
            limit,
            detail: format!(
                "rolling mean {:.0} B/s exceeded {:.1}x the admitted mean load {:.0} B/s for {} consecutive bins",
                mean, MEAN_TOLERANCE, t.contract.terms.mean_load, t.latch.streak()
            ),
        });
    }
}

/// Claimed cycles a burst of duration `d` seconds can span: contention
/// on the shared medium stretches a compliant tenant's exchanges until
/// consecutive cycles merge into one detected burst, so the volume
/// allowance must grow with the burst's span measured in claimed
/// intervals — otherwise honest-but-slowed tenants false-positive.
fn cycles_spanned(d: f64, t_interval: f64) -> f64 {
    if t_interval > 0.0 {
        (d / t_interval).ceil().max(1.0)
    } else {
        1.0
    }
}

/// Cycle-volume compliance on one closed tenant-aggregate burst.
fn tenant_burst(t: &mut TenantState, index: u64, b: &Burst, pending: &mut Vec<Pending>) {
    // The first burst carries enrollment/startup chatter; skip it.
    if index == 0 {
        return;
    }
    let claimed_cycle =
        t.contract.terms.burst_bytes as f64 * f64::from(t.contract.terms.connections);
    let cycles = cycles_spanned(b.duration(), t.contract.terms.t_interval);
    let limit = BURST_TOLERANCE * claimed_cycle * cycles;
    if b.bytes as f64 > limit && t.latch.latch_now() {
        t.violations += 1;
        pending.push(Pending {
            kind: EventKind::ContractViolation,
            check: "burst-volume",
            measured: b.bytes as f64,
            limit,
            detail: format!(
                "burst {} carried {} B over {:.0} claimed cycle(s) of {:.0} B ({} conns x {} B, tolerance {:.1}x)",
                index,
                b.bytes,
                cycles,
                claimed_cycle,
                t.contract.terms.connections,
                t.contract.terms.burst_bytes,
                BURST_TOLERANCE
            ),
        });
    }
}

/// Per-connection burst anomaly check on one closed connection burst.
fn conn_burst(t: &mut TenantState, index: u64, b: &Burst, pending: &mut Vec<Pending>) {
    if index == 0 {
        return;
    }
    let cycles = cycles_spanned(b.duration(), t.contract.terms.t_interval);
    let limit = BURST_TOLERANCE * t.contract.terms.burst_bytes as f64 * cycles;
    if b.bytes as f64 > limit {
        t.anomalies_total += 1;
        if (t.anomalies as usize) < MAX_ANOMALIES {
            t.anomalies += 1;
            pending.push(Pending {
                kind: EventKind::BurstAnomaly,
                check: "connection-burst",
                measured: b.bytes as f64,
                limit,
                detail: format!(
                    "connection burst {} of {} B exceeds {:.1}x the claimed b(P) = {} B",
                    index, b.bytes, BURST_TOLERANCE, t.contract.terms.burst_bytes
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::{Frame, FrameKind, HostId};

    fn contract(name: &str, mean_load: f64, burst_bytes: u64, conns: u32) -> TenantContract {
        TenantContract {
            name: name.to_string(),
            terms: ContractTerms {
                p: 2,
                connections: conns,
                concurrent_connections: conns,
                burst_bytes,
                local_s: 0.1,
                burst_bw: 500_000.0,
                t_burst: burst_bytes as f64 / 500_000.0,
                t_interval: 0.1 + burst_bytes as f64 / 500_000.0,
                mean_load,
            },
        }
    }

    fn rec(t_us: u64, src: u32, dst: u32, payload: u32) -> FrameRecord {
        let f = Frame::tcp(HostId(src), HostId(dst), FrameKind::Data, payload, t_us);
        FrameRecord::capture(SimTime::from_micros(t_us), &f)
    }

    /// Hosts 0,1 → tenant 0; hosts 2,3 → tenant 1.
    fn owner2() -> Vec<Option<usize>> {
        vec![Some(0), Some(0), Some(1), Some(1)]
    }

    #[test]
    fn attribution_follows_the_demux_rule() {
        let mut w = StreamWatch::new(
            vec![
                contract("a", 1e6, 100_000, 2),
                contract("b", 1e6, 100_000, 2),
            ],
            owner2(),
        );
        w.observe(&rec(0, 0, 1, 1000)); // tenant a
        w.observe(&rec(10, 2, 3, 1000)); // tenant b
        w.observe(&rec(20, 1, 2, 1000)); // cross-tenant → background
        w.observe(&rec(30, 9, 0, 1000)); // unknown host → background
        let r = w.finalize();
        assert_eq!(r.frames, 4);
        assert_eq!(r.background_frames, 2);
        assert_eq!(r.tenants[0].frames, 1);
        assert_eq!(r.tenants[1].frames, 1);
    }

    #[test]
    fn overdriving_burst_volume_latches_one_violation() {
        // Claimed: 10 KB per connection per cycle over 2 connections.
        let mut w = StreamWatch::new(vec![contract("hog", 50_000.0, 10_000, 2)], owner2());
        // Five bursts of ~300 KB each (15x the 20 KB claimed cycle),
        // 50 ms apart: burst 0 is skipped as warmup, burst 1 violates,
        // later bursts are silenced by the latch.
        for cycle in 0..5u64 {
            for j in 0..200u64 {
                w.observe(&rec(cycle * 50_000 + j * 10, 0, 1, 1460));
            }
        }
        let r = w.finalize();
        assert_eq!(r.violations_for("hog"), 1, "latched to exactly one");
        assert_eq!(r.tenants[0].violations, 1);
        let e = r
            .events
            .iter()
            .find(|e| e.kind == EventKind::ContractViolation)
            .unwrap();
        assert_eq!(e.check, "burst-volume");
        assert!(e.measured > e.limit);
        assert!(!e.flight_recorder.is_empty());
    }

    #[test]
    fn compliant_tenant_stays_clean() {
        // Claimed 40 KB cycles; actual 30 KB cycles — within tolerance.
        let mut w = StreamWatch::new(vec![contract("ok", 400_000.0, 20_000, 2)], owner2());
        for cycle in 0..30u64 {
            for j in 0..20u64 {
                w.observe(&rec(cycle * 100_000 + j * 100, 0, 1, 1460));
            }
        }
        let r = w.finalize();
        assert_eq!(r.events.len(), 0);
        assert_eq!(r.tenants[0].violations, 0);
        assert!(r.tenants[0].estimate.is_some());
    }

    #[test]
    fn sustained_mean_bandwidth_breach_fires() {
        // Claimed 10 KB/s mean; actual a steady ~1.5 MB/s stream for 3 s:
        // the rolling mean fills after WARMUP_BINS + MEAN_WINDOW_BINS
        // bins and breaches for BREACH_BINS more. Frames 1 ms apart never
        // leave a BURST_GAP, so no burst closes before the stream ends.
        let mut w = StreamWatch::new(vec![contract("steady", 10_000.0, 1, 1)], owner2());
        for i in 0..3000u64 {
            w.observe(&rec(i * 1_000, 0, 1, 1460));
        }
        let r = w.finalize();
        assert_eq!(r.violations_for("steady"), 1);
        assert_eq!(r.events[0].check, "mean-bandwidth");
    }

    #[test]
    fn flight_recorder_dump_holds_the_frames_preceding_the_event() {
        let mut w = StreamWatch::new(vec![contract("hog", 50_000.0, 1_000, 1)], owner2());
        let mut all = Vec::new();
        for cycle in 0..3u64 {
            for j in 0..50u64 {
                let r = rec(cycle * 50_000 + j * 10, 0, 1, 1460);
                all.push(r);
                w.observe(&r);
            }
        }
        let r = w.finalize();
        let e = &r.events[0];
        assert_eq!(e.flight_recorder.len(), FLIGHT_RECORDER);
        // The dump is exactly the FLIGHT_RECORDER frames up to and
        // including the trigger, in order.
        let trigger = all.iter().position(|f| f.time == e.time).unwrap();
        let first = trigger + 1 - FLIGHT_RECORDER;
        assert_eq!(e.flight_recorder, all[first..=trigger].to_vec());
    }

    #[test]
    fn watcher_is_a_pure_function_of_the_stream() {
        let run = || {
            let mut w = StreamWatch::new(vec![contract("hog", 50_000.0, 1_000, 1)], owner2());
            for cycle in 0..4u64 {
                for j in 0..100u64 {
                    w.observe(&rec(cycle * 60_000 + j * 20, 0, 1, 1200));
                }
            }
            w.finalize()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.events, b.events);
        assert_eq!(a.events_jsonl(), b.events_jsonl());
        assert_eq!(
            fxnet_telemetry::prometheus_text(&a.registry),
            fxnet_telemetry::prometheus_text(&b.registry)
        );
    }
}
