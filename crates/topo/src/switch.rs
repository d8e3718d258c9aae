//! The switch counterfactual ([`TopologySpec::single_switch`], DESIGN.md
//! §8) against its closed forms: a frame occupies its source's uplink
//! for one transmission, waits the forwarding latency, then occupies the
//! destination's downlink for another, FIFO behind earlier arrivals for
//! the same port. `tests/invariants.rs` holds the same fabric to an
//! independent reference model over random loads.

#[cfg(test)]
mod tests {
    use crate::{CompositeFabric, TopologySpec};
    use fxnet_sim::ethernet::Delivery;
    use fxnet_sim::{EtherConfig, Frame, FrameKind, HostId, NicId, SimTime, RATE_10M};

    fn data(src: u32, dst: u32, payload: u32, token: u64) -> Frame {
        Frame::tcp(HostId(src), HostId(dst), FrameKind::Data, payload, token)
    }

    fn fabric(hosts: u32) -> CompositeFabric {
        let spec = TopologySpec::single_switch(hosts, RATE_10M);
        CompositeFabric::new(spec, &EtherConfig::default(), 1)
    }

    /// Offer `load` (tokens are indices into it) and drain, holding every
    /// delivery to DESIGN.md §11's exact sum: the forwarding latency is
    /// part of `queue_ns`.
    fn run(fab: &mut CompositeFabric, load: &[(Frame, SimTime)]) -> Vec<Delivery> {
        for &(f, at) in load {
            fab.enqueue(NicId(f.src.0), f, at);
        }
        let out = fab.run_to_idle();
        assert_eq!(out.len(), load.len());
        for d in &out {
            let entered = load[d.frame.token as usize].1;
            assert_eq!(
                d.meta.queue_ns + d.meta.backoff_ns + d.meta.tx_ns,
                (d.time - entered).as_nanos(),
                "token {}",
                d.frame.token
            );
        }
        out
    }

    #[test]
    fn single_frame_latency_is_two_transmissions() {
        let out = run(&mut fabric(2), &[(data(0, 1, 1460, 0), SimTime::ZERO)]);
        // Store-and-forward: 2 × 1.2208 ms + 10 µs forwarding.
        assert_eq!(out[0].time, SimTime::from_nanos(2 * 1_220_800 + 10_000));
        assert_eq!(out[0].meta.tx_ns, 2 * 1_220_800);
    }

    #[test]
    fn disjoint_pairs_transfer_in_parallel() {
        let load = [
            (data(0, 1, 1460, 0), SimTime::ZERO),
            (data(2, 3, 1460, 1), SimTime::ZERO),
        ];
        let out = run(&mut fabric(4), &load);
        // Both complete at the same instant: no shared-medium serialization.
        assert_eq!(out[0].time, out[1].time);
    }

    #[test]
    fn output_port_contention_serializes() {
        let load = [
            (data(0, 2, 1460, 0), SimTime::ZERO),
            (data(1, 2, 1460, 1), SimTime::ZERO),
        ];
        let out = run(&mut fabric(3), &load);
        // Second frame waits exactly one downlink transmission.
        assert_eq!(out[1].time - out[0].time, load[0].0.tx_time(RATE_10M));
    }

    #[test]
    fn uplink_serializes_one_senders_frames() {
        let load = [
            (data(0, 1, 1460, 0), SimTime::ZERO),
            (data(0, 2, 1460, 1), SimTime::ZERO),
        ];
        let out = run(&mut fabric(3), &load);
        // Different destinations, same source: staggered by one uplink tx.
        assert_eq!(out[1].time - out[0].time, load[0].0.tx_time(RATE_10M));
    }

    #[test]
    fn aggregate_throughput_exceeds_bus_line_rate() {
        // Two disjoint saturated pairs → ~2× the shared bus's capacity.
        let load: Vec<_> = (0..200u64)
            .map(|i| {
                (
                    data(2 * (i % 2) as u32, 2 * (i % 2) as u32 + 1, 1460, i),
                    SimTime::ZERO,
                )
            })
            .collect();
        let out = run(&mut fabric(4), &load);
        let span = out.last().unwrap().time.as_secs_f64();
        let bytes: u64 = out.iter().map(|d| u64::from(d.frame.wire_len())).sum();
        let rate = bytes as f64 / span;
        assert!(rate > 2_000_000.0, "aggregate {rate:.0} B/s");
    }

    #[test]
    fn trace_captured_in_delivery_order() {
        let mut f = fabric(4);
        let load: Vec<_> = (0..20u64)
            .map(|i| {
                (
                    data((i % 3) as u32, 3, 500, i),
                    SimTime::from_micros(i * 37),
                )
            })
            .collect();
        let out = run(&mut f, &load);
        assert_eq!(out.len(), 20);
        assert!(out.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(f.stats().frames_delivered, 20);
    }
}
