//! The compute-phase cost model.
//!
//! The applications run their numerics *for real*; what the simulator
//! needs is how long each local computation phase would have taken on the
//! paper's testbed — a DEC 3000/400 (Alpha 21064 at 133 MHz, 64 MB). The
//! model maps operation counts to simulated time with two rates:
//!
//! * `flops_per_sec` — effective sustained scalar floating-point rate for
//!   cache-resident dense kernels. The 21064 could issue one FP op per
//!   cycle in ideal code; compiled Fortran at `-O` on this workload class
//!   sustained single-digit MFLOP/s. This is the calibration knob of
//!   DESIGN.md §5: it is chosen so the 2DFFT aggregate fundamental lands
//!   near the paper's 0.5 Hz, and all other periodicities follow.
//! * `mem_bytes_per_sec` — streaming copy bandwidth, governing both the
//!   message-assembly "copy loop" (§4) and memory-bound sweeps.
//!
//! Software messaging overheads (`per_message`, `per_write`) model the
//! PVM library and socket syscall path.

use fxnet_pvm::OutMessage;
use fxnet_sim::SimTime;

/// Operation-count → simulated-duration model for one workstation.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Effective sustained FLOP/s for dense arithmetic.
    pub flops_per_sec: f64,
    /// Streaming memory bandwidth (bytes/s) for copies and memory-bound
    /// sweeps.
    pub mem_bytes_per_sec: f64,
    /// Fixed software cost per message sent or received (PVM call,
    /// buffer management, kernel crossing).
    pub per_message: SimTime,
    /// Cost per socket write (one per PVM fragment).
    pub per_write: SimTime,
}

impl Default for CostModel {
    /// The calibrated 133 MHz Alpha 21064 workstation model.
    fn default() -> Self {
        CostModel {
            flops_per_sec: 8.0e6,
            mem_bytes_per_sec: 25.0e6,
            per_message: SimTime::from_micros(120),
            per_write: SimTime::from_micros(45),
        }
    }
}

impl CostModel {
    /// Duration of `n` floating-point operations.
    pub fn flops(&self, n: u64) -> SimTime {
        SimTime::from_secs_f64(n as f64 / self.flops_per_sec)
    }

    /// Duration of moving `n` bytes through memory.
    pub fn mem(&self, n: u64) -> SimTime {
        SimTime::from_secs_f64(n as f64 / self.mem_bytes_per_sec)
    }

    /// Sender-side software time for a message.
    ///
    /// Copy-loop messages (single fragment) pay the assembly copy over the
    /// whole payload plus one write; multi-pack messages (T2DFFT) skip the
    /// copy but pay one write per fragment.
    pub fn send_overhead(&self, msg: &OutMessage) -> SimTime {
        let writes = SimTime(self.per_write.as_nanos() * msg.frag_count() as u64);
        if msg.frag_count() == 1 {
            self.per_message + writes + self.mem(msg.payload_len() as u64)
        } else {
            self.per_message + writes
        }
    }

    /// Receiver-side software time for a delivered message of `len`
    /// payload bytes (socket read plus unpack copy).
    pub fn recv_overhead(&self, len: usize) -> SimTime {
        self.per_message + self.mem(len as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_pvm::MessageBuilder;

    #[test]
    fn flops_duration() {
        let m = CostModel {
            flops_per_sec: 1e6,
            ..CostModel::default()
        };
        assert_eq!(m.flops(1_000_000), SimTime::from_secs(1));
        assert_eq!(m.flops(0), SimTime::ZERO);
    }

    #[test]
    fn copy_loop_message_pays_assembly_copy() {
        let m = CostModel::default();
        let mut b = MessageBuilder::new(0);
        b.pack_f64(&vec![0.0; 125_000]); // 1 MB
        let single = b.finish();
        let t = m.send_overhead(&single);
        // 1 MB at 25 MB/s = 40 ms, dominating the fixed costs.
        assert!(t > SimTime::from_millis(40));
        assert!(t < SimTime::from_millis(41));
    }

    #[test]
    fn multi_pack_skips_copy_but_pays_per_write() {
        let m = CostModel::default();
        let mut b = MessageBuilder::new(0).multi_pack();
        for _ in 0..100 {
            b.pack_f64(&vec![0.0; 1250]); // 100 × 10 KB = 1 MB total
        }
        let multi = b.finish();
        let t = m.send_overhead(&multi);
        // 100 writes at 45 µs each + 120 µs ≈ 4.6 ms: far below the 40 ms copy.
        assert!(t < SimTime::from_millis(5));
        assert!(t > SimTime::from_millis(4));
    }

    #[test]
    fn recv_overhead_scales_with_length() {
        let m = CostModel::default();
        assert!(m.recv_overhead(1_000_000) > m.recv_overhead(1_000));
        assert!(m.recv_overhead(0) >= m.per_message);
    }

    #[test]
    fn calibration_lands_2dfft_period_near_half_hz() {
        // Per-processor 2DFFT work at N=512, P=4: two stages of N/P
        // length-N FFTs = 2 × 128 × 5·512·9 flops ≈ 5.9 MFLOP.
        let m = CostModel::default();
        let per_stage = 128u64 * 5 * 512 * 9;
        let compute = m.flops(2 * per_stage);
        // Compute phase ≈ 0.74 s; with ~1.3 s of wire time per transpose
        // the period is ~2 s → fundamental ≈ 0.5 Hz.
        let s = compute.as_secs_f64();
        assert!(s > 0.5 && s < 1.1, "compute phase {s}s");
    }
}
