//! T2DFFT — the pipelined, task-parallel 2-D FFT (*partition* pattern).
//!
//! Half the processors perform the row FFTs and send the result to the
//! other half, which perform the column FFTs; the communication doubles
//! as the distribution transpose. Unlike every other kernel, T2DFFT
//! avoids the message-assembly copy loop by issuing *multiple packs per
//! message* — PVM stores the message as a fragment list and writes each
//! fragment to the socket independently, which is why T2DFFT's packet
//! sizes are not trimodal (paper §4, §6.1) and its spectra are the least
//! clean.

use crate::checksum_f32;
use crate::fft2d::{initial_block, scatter_transposed};
use fxnet_fx::{BlockDist, RankCtx};
use fxnet_numerics::fft::{fft_flops, fft_rows};
use fxnet_pvm::MessageBuilder;

/// T2DFFT kernel parameters.
#[derive(Debug, Clone)]
pub struct T2dfftParams {
    /// Matrix dimension N.
    pub n: usize,
    /// Pipeline iterations.
    pub iters: usize,
}

impl T2dfftParams {
    /// The measured configuration.
    pub fn paper() -> T2dfftParams {
        T2dfftParams { n: 512, iters: 100 }
    }

    /// A CI-sized configuration.
    pub fn tiny() -> T2dfftParams {
        T2dfftParams { n: 16, iters: 2 }
    }
}

/// The per-rank SPMD program.
///
/// Ranks `0..P/2` are senders (row FFTs); ranks `P/2..P` are receivers
/// (column FFTs). Returns 0 for senders and the final block checksum for
/// receivers.
pub fn t2dfft_rank(ctx: &mut RankCtx, p: &T2dfftParams) -> u64 {
    let (me, np) = (ctx.rank() as usize, ctx.nprocs() as usize);
    assert!(np >= 2 && np % 2 == 0, "T2DFFT needs an even rank count");
    let h = np / 2;
    let dist = BlockDist::new(p.n, h);
    assert_eq!(p.n % h, 0);

    if me < h {
        // Sender half: row FFTs over owned rows, then ship column blocks.
        let (lo, hi) = (dist.lo(me), dist.hi(me));
        let rows = hi - lo;
        let initial = initial_block(p.n, lo, hi);
        let mut local = initial.clone();
        let mut acc = 0u64;
        for iter in 0..p.iters {
            local.copy_from_slice(&initial);
            fft_rows(&mut local, p.n);
            ctx.compute_flops(rows as u64 * fft_flops(p.n));
            // Shift schedule across the partition: round r sends to
            // receiver h + (me + r) mod h.
            ctx.phase_begin("pipeline_transpose");
            for r in 0..h {
                let dst = h + (me + r) % h;
                let (clo, chi) = (dist.lo(dst - h), dist.hi(dst - h));
                // Multiple packs per message: PVM stores each pack as a
                // fragment and sizes its fragment buffers to fit one MSS
                // (1436 B of data + 24 B header = 1460 B), so the column
                // block is packed in MSS-fitted pieces — this is what
                // makes T2DFFT's connection packets uniformly near the
                // 1518 B maximum (Figure 3's 1442 B average).
                let mut gathered = Vec::with_capacity(rows * (chi - clo) * 2);
                for row in 0..rows {
                    let base = (row * p.n + clo) * 2;
                    gathered.extend_from_slice(&local[base..base + (chi - clo) * 2]);
                }
                let mut b = MessageBuilder::new((iter * h + r) as i32).multi_pack();
                for chunk in gathered.chunks(359) {
                    b.pack_f32(chunk);
                }
                ctx.send(dst as u32, b.finish());
            }
            ctx.phase_end();
            acc = acc.wrapping_add(local.len() as u64);
        }
        acc
    } else {
        // Receiver half: assemble transposed columns, run column FFTs.
        let col_rank = me - h;
        let (lo, hi) = (dist.lo(col_rank), dist.hi(col_rank));
        let width = hi - lo; // columns owned, i.e. rows of the transposed block
        if p.iters == 0 {
            return 0;
        }
        // Every iteration overwrites the whole block, so one allocation
        // serves them all and only the last result needs a checksum.
        let mut block = vec![0.0f32; width * p.n * 2];
        for _iter in 0..p.iters {
            ctx.phase_begin("pipeline_transpose");
            for r in 0..h {
                // Inverse of the sender schedule: in round r, sender
                // (col_rank − r) mod h targets me.
                let src = (col_rank + h - r) % h;
                let (slo, shi) = (dist.lo(src), dist.hi(src));
                let m = ctx.recv(src as u32);
                let vals = m.reader().f32s((shi - slo) * width * 2);
                scatter_transposed(&mut block, p.n, slo, shi, &vals, width);
            }
            ctx.phase_end();
            fft_rows(&mut block, p.n);
            ctx.compute_flops(width as u64 * fft_flops(p.n));
        }
        checksum_f32(&block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_fx::{run_single, RunOptions, SpmdConfig};
    use fxnet_sim::FrameKind;

    /// Sequential reference: the receiver-half checksums for one pipeline
    /// iteration (every iteration computes the same thing).
    fn t2dfft_sequential(p: &T2dfftParams, np: usize) -> Vec<u64> {
        let h = np / 2;
        let n = p.n;
        let mut m = initial_block(n, 0, n);
        fft_rows(&mut m, n);
        let mut t = vec![0.0f32; n * n * 2];
        for r in 0..n {
            for c in 0..n {
                t[(c * n + r) * 2] = m[(r * n + c) * 2];
                t[(c * n + r) * 2 + 1] = m[(r * n + c) * 2 + 1];
            }
        }
        fft_rows(&mut t, n);
        let dist = BlockDist::new(n, h);
        let mut out = vec![0u64; np];
        for cr in 0..h {
            out[h + cr] = checksum_f32(&t[dist.lo(cr) * n * 2..dist.hi(cr) * n * 2]);
        }
        // Senders return their accumulated block length.
        for (sr, slot) in out.iter_mut().take(h).enumerate() {
            *slot = (dist.size(sr) * n * 2 * p.iters) as u64;
        }
        out
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
    fn distributed_matches_sequential() {
        let params = T2dfftParams { n: 16, iters: 1 };
        let want = t2dfft_sequential(&params, 4);
        let pp = params.clone();
        let res = run_single(
            cfg(4),
            move |ctx| t2dfft_rank(ctx, &pp),
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(res.results, want);
    }

    #[test]
    fn repeated_iterations_stay_consistent() {
        let params = T2dfftParams::tiny();
        let want = t2dfft_sequential(&params, 4);
        let pp = params.clone();
        let res = run_single(
            cfg(4),
            move |ctx| t2dfft_rank(ctx, &pp),
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(res.results, want);
    }

    #[test]
    fn traffic_crosses_the_partition_only() {
        let params = T2dfftParams::tiny();
        let res = run_single(
            cfg(4),
            move |ctx| t2dfft_rank(ctx, &params),
            RunOptions::default(),
        )
        .unwrap();
        for r in &res.trace {
            if r.kind == FrameKind::Data {
                assert!(
                    r.src.0 < 2 && r.dst.0 >= 2,
                    "data must flow sender half → receiver half, saw {}->{}",
                    r.src,
                    r.dst
                );
            }
        }
    }

    #[test]
    fn messages_are_multi_fragment() {
        // The defining T2DFFT behaviour: many packs → many fragments →
        // a broad mix of packet sizes rather than a trimodal one.
        let params = T2dfftParams { n: 32, iters: 1 };
        let res = run_single(
            cfg(4),
            move |ctx| t2dfft_rank(ctx, &params),
            RunOptions::default(),
        )
        .unwrap();
        let data_sizes: std::collections::HashSet<u32> = res
            .trace
            .iter()
            .filter(|r| r.kind == FrameKind::Data)
            .map(|r| r.wire_len)
            .collect();
        // 16×16 complex f32 blocks = 2048 B → MSS-fitted 1436 B fragment
        // plus a remainder; a mix of sizes, none exceeding a full frame.
        assert!(data_sizes.iter().all(|&s| s <= 1518));
        assert!(
            data_sizes.len() >= 2,
            "expected a size mix, got {data_sizes:?}"
        );
    }
}
