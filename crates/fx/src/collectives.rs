//! Collective communication phases over a [`RankCtx`].
//!
//! The Fx compiler emits communication phases as whole collectives; these
//! helpers run one complete pattern (Figure 1) as a phase, using the same
//! schedules as [`crate::Pattern`], so user programs written against this
//! runtime produce the same wire behaviour as the measured kernels.
//!
//! All collectives are synchronous with respect to the data (every rank
//! returns with the bytes it is owed) but sends are buffered, so the
//! schedules are deadlock-free on any rank count.

use crate::engine::RankCtx;
use crate::pattern::Pattern;
use fxnet_pvm::{Message, MessageBuilder, OutMessage};

fn msg(tag: i32, payload: &[u8]) -> OutMessage {
    let mut b = MessageBuilder::new(tag);
    b.pack_bytes(payload);
    b.finish()
}

/// Neighbor exchange (SOR's phase): send `up`/`down` to ranks `me−1` /
/// `me+1` and return what they sent back, `(from_above, from_below)`.
/// Ends of the chain exchange on one side only.
pub fn neighbor_exchange(
    ctx: &mut RankCtx,
    tag: i32,
    up: &[u8],
    down: &[u8],
) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
    ctx.phase("neighbor_exchange", |ctx| {
        let me = ctx.rank();
        let np = ctx.nprocs();
        if me > 0 {
            ctx.send(me - 1, msg(tag, up));
        }
        if me + 1 < np {
            ctx.send(me + 1, msg(tag, down));
        }
        let above = (me > 0).then(|| {
            let m = ctx.recv(me - 1);
            m.body.to_vec()
        });
        let below = (me + 1 < np).then(|| {
            let m = ctx.recv(me + 1);
            m.body.to_vec()
        });
        (above, below)
    })
}

/// All-to-all (the distribution transpose): `blocks[d]` goes to rank `d`
/// (`blocks[me]` stays local); returns the blocks received, indexed by
/// source rank. Uses the shift schedule: round `r` sends to `(me+r) mod P`
/// and receives from `(me−r) mod P`, tightly synchronizing the ranks.
pub fn all_to_all(ctx: &mut RankCtx, tag: i32, blocks: &[Vec<u8>]) -> Vec<Vec<u8>> {
    ctx.phase("all_to_all", |ctx| {
        let me = ctx.rank() as usize;
        let np = ctx.nprocs() as usize;
        assert_eq!(blocks.len(), np, "one block per destination rank");
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); np];
        out[me] = blocks[me].clone();
        for r in 1..np {
            let dst = (me + r) % np;
            let src = (me + np - r) % np;
            ctx.send(dst as u32, msg(tag, &blocks[dst]));
            let m = ctx.recv(src as u32);
            out[src] = m.body.to_vec();
        }
        out
    })
}

/// Broadcast from `root` (SEQ's pattern, message-granular): the root's
/// `payload` is returned on every rank.
pub fn broadcast(ctx: &mut RankCtx, tag: i32, root: u32, payload: &[u8]) -> Vec<u8> {
    ctx.phase("broadcast", |ctx| {
        let me = ctx.rank();
        let np = ctx.nprocs();
        if me == root {
            for d in 0..np {
                if d != root {
                    ctx.send(d, msg(tag, payload));
                }
            }
            payload.to_vec()
        } else {
            ctx.recv(root).body.to_vec()
        }
    })
}

/// Tree reduction to rank 0 (HIST's up-sweep): combine message bodies
/// pairwise with `combine`; returns `Some(total)` on rank 0, `None`
/// elsewhere. Works for any rank count.
pub fn reduce_tree(
    ctx: &mut RankCtx,
    tag: i32,
    mine: Vec<u8>,
    mut combine: impl FnMut(Vec<u8>, &Message) -> Vec<u8>,
) -> Option<Vec<u8>> {
    ctx.phase("reduce_tree", |ctx| {
        let me = ctx.rank();
        let np = ctx.nprocs();
        let mut acc = mine;
        for round in Pattern::TreeUp.schedule(np) {
            for (src, dst) in round {
                if src == me {
                    ctx.send(dst, msg(tag, &acc));
                } else if dst == me {
                    let m = ctx.recv(src);
                    acc = combine(acc, &m);
                }
            }
        }
        (me == 0).then_some(acc)
    })
}

/// Scatter from `root`: rank `d` receives `blocks[d]`; the root keeps its
/// own block locally (the distribution step of an Fx array assignment).
/// `blocks` is only read on the root.
pub fn scatter(ctx: &mut RankCtx, tag: i32, root: u32, blocks: &[Vec<u8>]) -> Vec<u8> {
    ctx.phase("scatter", |ctx| {
        let me = ctx.rank();
        let np = ctx.nprocs();
        if me == root {
            assert_eq!(blocks.len(), np as usize, "one block per rank");
            for d in 0..np {
                if d != root {
                    ctx.send(d, msg(tag, &blocks[d as usize]));
                }
            }
            blocks[root as usize].clone()
        } else {
            ctx.recv(root).body.to_vec()
        }
    })
}

/// Gather to `root`: returns `Some(blocks)` (indexed by source rank) on
/// the root, `None` elsewhere — the inverse of [`scatter`], e.g. for
/// collecting a distributed result for output.
pub fn gather(ctx: &mut RankCtx, tag: i32, root: u32, mine: &[u8]) -> Option<Vec<Vec<u8>>> {
    ctx.phase("gather", |ctx| {
        let me = ctx.rank();
        let np = ctx.nprocs();
        if me == root {
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); np as usize];
            out[root as usize] = mine.to_vec();
            for s in 0..np {
                if s != root {
                    out[s as usize] = ctx.recv(s).body.to_vec();
                }
            }
            Some(out)
        } else {
            ctx.send(root, msg(tag, mine));
            None
        }
    })
}

/// Shift: send `payload` to `(me+k) mod P`, return what arrives from
/// `(me−k) mod P` (§7.3's example pattern).
pub fn shift(ctx: &mut RankCtx, tag: i32, k: u32, payload: &[u8]) -> Vec<u8> {
    ctx.phase("shift", |ctx| {
        let me = ctx.rank();
        let np = ctx.nprocs();
        assert!(
            !k.is_multiple_of(np),
            "shift by a multiple of P is a self-send"
        );
        ctx.send((me + k) % np, msg(tag, payload));
        ctx.recv((me + np - k % np) % np).body.to_vec()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, GroupSpec, RunOptions, RunResult, SpmdConfig};

    fn cfg(p: u32) -> SpmdConfig {
        let mut c = SpmdConfig {
            p,
            hosts: p,
            ..SpmdConfig::default()
        };
        c.pvm.heartbeat = None;
        c
    }

    fn run_spmd<T: Send + 'static>(
        cfg: SpmdConfig,
        f: impl Fn(&mut RankCtx) -> T + Send + Sync + 'static,
    ) -> RunResult<T> {
        let p = cfg.p;
        run(cfg, vec![GroupSpec::single(p, f)], RunOptions::default()).expect("valid config")
    }

    #[test]
    fn neighbor_exchange_swaps_edges() {
        let res = run_spmd(cfg(4), |ctx| {
            let me = ctx.rank() as u8;
            let (above, below) = neighbor_exchange(ctx, 0, &[me, 1], &[me, 2]);
            (above, below)
        });
        // Rank 1 receives rank 0's "down" edge and rank 2's "up" edge.
        assert_eq!(res.results[1].0, Some(vec![0, 2]));
        assert_eq!(res.results[1].1, Some(vec![2, 1]));
        // Chain ends see one side only.
        assert_eq!(res.results[0].0, None);
        assert_eq!(res.results[3].1, None);
    }

    #[test]
    fn all_to_all_routes_every_block() {
        let res = run_spmd(cfg(4), |ctx| {
            let me = ctx.rank() as u8;
            let blocks: Vec<Vec<u8>> = (0..4).map(|d| vec![me, d as u8]).collect();
            all_to_all(ctx, 7, &blocks)
        });
        for (me, got) in res.results.iter().enumerate() {
            for (src, block) in got.iter().enumerate() {
                assert_eq!(block, &vec![src as u8, me as u8], "rank {me} from {src}");
            }
        }
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let res = run_spmd(cfg(5), |ctx| broadcast(ctx, 1, 2, &[9, 8, 7]));
        for r in &res.results {
            assert_eq!(r, &vec![9, 8, 7]);
        }
    }

    #[test]
    fn reduce_tree_sums_on_root() {
        let res = run_spmd(cfg(6), |ctx| {
            let mine = vec![ctx.rank() as u8];
            reduce_tree(ctx, 3, mine, |mut acc, m| {
                acc[0] += m.body[0];
                acc
            })
        });
        assert_eq!(res.results[0], Some(vec![1 + 2 + 3 + 4 + 5]));
        for r in &res.results[1..] {
            assert!(r.is_none());
        }
    }

    #[test]
    fn shift_rotates_payloads() {
        let res = run_spmd(cfg(4), |ctx| shift(ctx, 0, 1, &[ctx.rank() as u8]));
        for (me, got) in res.results.iter().enumerate() {
            assert_eq!(got, &vec![((me + 3) % 4) as u8]);
        }
    }

    #[test]
    fn scatter_distributes_root_blocks() {
        let res = run_spmd(cfg(4), |ctx| {
            let blocks: Vec<Vec<u8>> = (0..4).map(|d| vec![d as u8 * 10]).collect();
            scatter(ctx, 4, 1, &blocks)
        });
        for (me, got) in res.results.iter().enumerate() {
            assert_eq!(got, &vec![me as u8 * 10]);
        }
    }

    #[test]
    fn gather_collects_on_root_only() {
        let res = run_spmd(cfg(4), |ctx| {
            let mine = vec![ctx.rank() as u8 + 100];
            gather(ctx, 5, 2, &mine)
        });
        let collected = res.results[2].as_ref().expect("root has the blocks");
        for (s, b) in collected.iter().enumerate() {
            assert_eq!(b, &vec![s as u8 + 100]);
        }
        assert!(res.results[0].is_none());
        assert!(res.results[3].is_none());
    }

    #[test]
    fn scatter_gather_round_trip() {
        let res = run_spmd(cfg(3), |ctx| {
            let blocks: Vec<Vec<u8>> = (0..3).map(|d| vec![d as u8; 64]).collect();
            let mine = scatter(ctx, 1, 0, &blocks);
            gather(ctx, 2, 0, &mine)
        });
        let back = res.results[0].as_ref().expect("root");
        for (d, b) in back.iter().enumerate() {
            assert_eq!(b, &vec![d as u8; 64]);
        }
    }

    #[test]
    fn collectives_compose_into_a_phase_program() {
        // Exchange, reduce, broadcast back: every rank ends with the sum.
        let res = run_spmd(cfg(4), |ctx| {
            let mine = vec![ctx.rank() as u8 + 1];
            let total = reduce_tree(ctx, 1, mine, |mut acc, m| {
                acc[0] += m.body[0];
                acc
            });
            let out = broadcast(ctx, 2, 0, &total.unwrap_or_default());
            out[0]
        });
        assert!(res.results.iter().all(|&v| v == 10));
    }
}
