//! SEQ — sequential I/O, the *broadcast* pattern kernel.
//!
//! An N×N matrix distributed over the processors is initialized
//! element-wise from data produced on processor 0: processor 0 broadcasts
//! each element to each of the other processors, which collect the
//! elements they need. The program performs no computation; processor 0
//! sends N² O(1)-size messages to every other processor (paper §3.1).
//! Each element message is 8 B of data + 24 B PVM header + 58 B protocol
//! overhead = the 90-byte frames of Figure 3.
//!
//! The production loop is record-buffered, as Fortran sequential READs
//! are: producing one row of elements costs one I/O record time, and the
//! burst of element broadcasts that follows it is what gives SEQ its
//! strong low-harmonic periodicity (the paper's dominant 4 Hz component).

use crate::checksum;
use fxnet_fx::{BlockDist, RankCtx};
use fxnet_pvm::MessageBuilder;
use fxnet_sim::SimTime;

/// SEQ kernel parameters.
#[derive(Debug, Clone)]
pub struct SeqParams {
    /// Matrix dimension N.
    pub n: usize,
    /// Outer iterations (the paper iterated SEQ five times).
    pub iters: usize,
    /// Record I/O time to produce one row of elements on processor 0.
    pub row_io: SimTime,
}

impl SeqParams {
    /// The measured configuration. The paper does not state SEQ's N; we
    /// use N=48 with a 230 ms per-row record read so the packet rate,
    /// average bandwidth (≈58 KB/s) and ≈4 Hz row period match the
    /// reported statistics (DESIGN.md §5 documents this inference).
    pub fn paper() -> SeqParams {
        SeqParams {
            n: 48,
            iters: 5,
            row_io: SimTime::from_millis(230),
        }
    }

    /// A CI-sized configuration.
    pub fn tiny() -> SeqParams {
        SeqParams {
            n: 8,
            iters: 1,
            row_io: SimTime::from_millis(5),
        }
    }
}

/// The deterministic element value "read from disk" at (r, c).
pub fn element(n: usize, r: usize, c: usize) -> f64 {
    ((r * n + c) % 97) as f64 * 0.25 - 10.0
}

/// The per-rank SPMD program. Returns a checksum of the rank's collected
/// row block.
pub fn seq_rank(ctx: &mut RankCtx, p: &SeqParams) -> u64 {
    let (me, np) = (ctx.rank() as usize, ctx.nprocs() as usize);
    let dist = BlockDist::new(p.n, np);
    let mut block = vec![0.0f64; dist.size(me) * p.n];

    for _iter in 0..p.iters {
        if me == 0 {
            for r in 0..p.n {
                // One sequential-I/O record read per row.
                ctx.compute_time(p.row_io);
                ctx.phase_begin("element_broadcast");
                for c in 0..p.n {
                    let v = element(p.n, r, c);
                    if dist.owner(r) == 0 {
                        block[dist.local(r) * p.n + c] = v;
                    }
                    for dst in 1..np {
                        let mut b = MessageBuilder::new((r * p.n + c) as i32);
                        b.pack_f64(&[v]);
                        ctx.send(dst as u32, b.finish());
                    }
                }
                ctx.phase_end();
            }
        } else {
            for r in 0..p.n {
                ctx.phase_begin("element_broadcast");
                for c in 0..p.n {
                    let m = ctx.recv(0);
                    let v = m.reader().f64s(1)[0];
                    // Collect only the elements this rank needs.
                    if dist.owner(r) == me {
                        block[dist.local(r) * p.n + c] = v;
                    }
                }
                ctx.phase_end();
            }
        }
    }
    checksum(&block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_fx::{run_single, RunOptions, SpmdConfig};
    use fxnet_sim::FrameKind;

    /// Sequential reference: per-rank block checksums.
    fn seq_sequential(p: &SeqParams, np: usize) -> Vec<u64> {
        let dist = BlockDist::new(p.n, np);
        (0..np)
            .map(|rank| {
                let mut block = vec![0.0f64; dist.size(rank) * p.n];
                for r in dist.lo(rank)..dist.hi(rank) {
                    for c in 0..p.n {
                        block[(r - dist.lo(rank)) * p.n + c] = element(p.n, r, c);
                    }
                }
                checksum(&block)
            })
            .collect()
    }

    fn cfg(p: u32) -> SpmdConfig {
        let mut c = SpmdConfig {
            p,
            hosts: p,
            ..SpmdConfig::default()
        };
        c.pvm.heartbeat = None;
        c
    }

    #[test]
    fn all_ranks_collect_their_blocks() {
        let params = SeqParams::tiny();
        let want = seq_sequential(&params, 4);
        let pp = params.clone();
        let res = run_single(cfg(4), move |ctx| seq_rank(ctx, &pp), RunOptions::default()).unwrap();
        assert_eq!(res.results, want);
    }

    #[test]
    fn element_frames_are_90_bytes() {
        let params = SeqParams::tiny();
        let res = run_single(
            cfg(4),
            move |ctx| seq_rank(ctx, &params),
            RunOptions::default(),
        )
        .unwrap();
        let data: Vec<u32> = res
            .trace
            .iter()
            .filter(|r| r.kind == FrameKind::Data)
            .map(|r| r.wire_len)
            .collect();
        assert!(!data.is_empty());
        assert!(
            data.iter().all(|&s| s == 90),
            "SEQ data frames must be 90 B"
        );
    }

    #[test]
    fn only_root_sends_data() {
        let params = SeqParams::tiny();
        let res = run_single(
            cfg(3),
            move |ctx| seq_rank(ctx, &params),
            RunOptions::default(),
        )
        .unwrap();
        for r in &res.trace {
            if r.kind == FrameKind::Data {
                assert_eq!(r.src.0, 0, "only processor 0 produces data");
            }
        }
    }

    #[test]
    fn message_count_scales_with_n_squared() {
        let params = SeqParams {
            n: 4,
            iters: 2,
            row_io: SimTime::from_millis(1),
        };
        let res = run_single(
            cfg(2),
            move |ctx| seq_rank(ctx, &params),
            RunOptions::default(),
        )
        .unwrap();
        let data = res
            .trace
            .iter()
            .filter(|r| r.kind == FrameKind::Data)
            .count();
        // n² × (p−1) × iters = 16 × 1 × 2.
        assert_eq!(data, 32);
    }
}
