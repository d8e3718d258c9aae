//! Topology partitioning for the sharded parallel DES core.
//!
//! A [`Partition`] splits the nodes of a [`TopologySpec`] into contiguous
//! node-index blocks balanced by attached host count. Builders number
//! nodes in subtree order (leaf segments/switches first, parents after),
//! so contiguous blocks honor the "one shard per switch subtree" default:
//! `trunk2` splits into its two switches, `tree2` into `{leaf0}` and
//! `{leaf1, root}` at two shards and one node per shard at three.
//!
//! Every trunk whose endpoints land on different shards becomes a *cut
//! trunk*: its two directions turn into inter-shard channels, each with a
//! conservative lookahead — the earliest a frame leaving the sending
//! shard "now" can possibly finish arriving at the far node:
//!
//! ```text
//! lookahead = tx_time(minimum frame at trunk rate)   // wire occupancy
//!           + trunk propagation delay                // spec'd per trunk
//!           + store-and-forward latency of far node  // switch/router
//! ```
//!
//! All three terms are strictly positive (rates are validated nonzero,
//! the default propagation delay is 1 µs, switch/router latency 10/50 µs),
//! so the drain protocol in `fxnet-shard` always has slack to advance a
//! channel's clock.
//!
//! The lookahead says how long a crossing takes once a frame starts to
//! leave. *When* a frame can start to leave is the other half of the
//! bound a shard publishes, and it is not a property of the partition
//! alone: a scoped [`crate::CompositeFabric`] derives, from the same
//! forwarding tables, which cut-trunk direction each frame it holds will
//! leave through and which inbound directions can feed which outbound
//! ones (`pending_exit`, `exit_fed_by`). A 10 Mb/s trunk's lookahead is
//! 64 µs; the exit-aware bound built on it is usually a whole burst
//! round, or infinite.

use crate::spec::TopologySpec;
use fxnet_sim::frame::PREAMBLE;
use fxnet_sim::{SimTime, MIN_FRAME};

/// One directed inter-shard channel over a cut trunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardChannel {
    /// Sending shard (owner of the trunk end the frame leaves from).
    pub from: usize,
    /// Receiving shard (owner of the far node).
    pub to: usize,
    /// Trunk index in the spec.
    pub trunk: usize,
    /// Direction on that trunk: 0 = a→b, 1 = b→a.
    pub dir: usize,
    /// Conservative lookahead: no frame sent on this channel after the
    /// sending shard's clock reads `t` can arrive before `t + lookahead`.
    pub lookahead: SimTime,
}

/// A shard assignment of a topology's nodes, hosts, and trunks.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Actual shard count after clamping to `[1, node count]`.
    pub shards: usize,
    /// Node index → shard.
    pub node_shard: Vec<usize>,
    /// Host index → shard (the shard of its attachment node).
    pub host_shard: Vec<usize>,
    /// Trunks whose endpoints live on different shards.
    pub cut_trunks: Vec<usize>,
    /// Directed channels, two per cut trunk, in (trunk, dir) order.
    pub channels: Vec<ShardChannel>,
}

/// Wire time of a minimum frame (pure ACK) at `bps`, preamble included —
/// the transmission term of the channel lookahead.
pub fn min_frame_tx(bps: u64) -> SimTime {
    let bits = u64::from(MIN_FRAME + PREAMBLE) * 8;
    SimTime::from_nanos(bits * 1_000_000_000 / bps)
}

impl Partition {
    /// Partition `spec` into at most `requested` shards (clamped to the
    /// node count; 0 means 1). The assignment is deterministic: identical
    /// specs and counts always produce identical partitions.
    pub fn new(spec: &TopologySpec, requested: usize) -> Partition {
        let n = spec.nodes.len();
        let shards = requested.clamp(1, n);
        let mut node_hosts = vec![0usize; n];
        for &a in &spec.attachments {
            node_hosts[a] += 1;
        }
        let total: usize = spec.attachments.len();
        // Contiguous blocks, closed when the cumulative host quota for
        // the block is met — or when only one node per remaining block is
        // left, so every shard owns at least one node.
        let mut node_shard = vec![0usize; n];
        let mut s = 0usize;
        let mut assigned_hosts = 0usize;
        for (i, &h) in node_hosts.iter().enumerate() {
            node_shard[i] = s;
            assigned_hosts += h;
            let blocks_left = shards - s - 1;
            let nodes_left = n - i - 1;
            if blocks_left > 0 {
                let quota = (s + 1) * total / shards;
                if assigned_hosts >= quota || nodes_left == blocks_left {
                    s += 1;
                }
            }
        }
        let host_shard: Vec<usize> = spec
            .attachments
            .iter()
            .map(|&node| node_shard[node])
            .collect();
        let mut cut_trunks = Vec::new();
        let mut channels = Vec::new();
        for (ti, t) in spec.trunks.iter().enumerate() {
            let (sa, sb) = (node_shard[t.a], node_shard[t.b]);
            if sa == sb {
                continue;
            }
            cut_trunks.push(ti);
            for (dir, from, to, far) in [(0, sa, sb, t.b), (1, sb, sa, t.a)] {
                let lookahead = min_frame_tx(t.rate_bps) + t.prop_delay + spec.latency(far);
                assert!(
                    lookahead > SimTime::ZERO,
                    "channel lookahead must be strictly positive"
                );
                channels.push(ShardChannel {
                    from,
                    to,
                    trunk: ti,
                    dir,
                    lookahead,
                });
            }
        }
        Partition {
            shards,
            node_shard,
            host_shard,
            cut_trunks,
            channels,
        }
    }

    /// Owned-node mask for `shard`.
    pub fn owned_mask(&self, shard: usize) -> Vec<bool> {
        self.node_shard.iter().map(|&s| s == shard).collect()
    }

    /// Channels received by `shard`, as indices into [`Partition::channels`].
    pub fn incoming(&self, shard: usize) -> Vec<usize> {
        (0..self.channels.len())
            .filter(|&c| self.channels[c].to == shard)
            .collect()
    }

    /// Channels sent by `shard`, as indices into [`Partition::channels`].
    pub fn outgoing(&self, shard: usize) -> Vec<usize> {
        (0..self.channels.len())
            .filter(|&c| self.channels[c].from == shard)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::RATE_10M;

    #[test]
    fn single_segment_never_splits() {
        let spec = TopologySpec::single_segment(9, RATE_10M);
        for req in [0, 1, 2, 4, 16] {
            let p = Partition::new(&spec, req);
            assert_eq!(p.shards, 1);
            assert!(p.cut_trunks.is_empty() && p.channels.is_empty());
            assert!(p.host_shard.iter().all(|&s| s == 0));
        }
    }

    #[test]
    fn trunk2_splits_per_switch_subtree() {
        let spec = TopologySpec::two_switches_trunk(9, RATE_10M);
        let p = Partition::new(&spec, 4);
        assert_eq!(p.shards, 2, "two nodes clamp four shards to two");
        assert_eq!(p.node_shard, vec![0, 1]);
        assert_eq!(p.cut_trunks, vec![0]);
        assert_eq!(p.channels.len(), 2);
        // Hosts follow their switch.
        for (h, &node) in spec.attachments.iter().enumerate() {
            assert_eq!(p.host_shard[h], p.node_shard[node]);
        }
    }

    #[test]
    fn tree2_balances_leaves_then_isolates_root() {
        let spec = TopologySpec::two_level_tree(9, RATE_10M);
        let p2 = Partition::new(&spec, 2);
        assert_eq!(p2.node_shard, vec![0, 1, 1], "leaf0 | leaf1+root");
        assert_eq!(p2.cut_trunks, vec![0], "only leaf0-root is cut");
        let p3 = Partition::new(&spec, 4);
        assert_eq!(p3.shards, 3);
        assert_eq!(p3.node_shard, vec![0, 1, 2]);
        assert_eq!(p3.cut_trunks, vec![0, 1], "both uplinks are cut");
        assert_eq!(p3.channels.len(), 4);
    }

    #[test]
    fn lookahead_is_tx_plus_prop_plus_latency() {
        let spec = TopologySpec::two_switches_trunk(4, RATE_10M);
        let p = Partition::new(&spec, 2);
        let t = spec.trunks[0];
        for c in &p.channels {
            let far = if c.dir == 0 { t.b } else { t.a };
            let expect = min_frame_tx(t.rate_bps) + t.prop_delay + spec.latency(far);
            assert_eq!(c.lookahead, expect);
            assert!(c.lookahead > SimTime::ZERO);
        }
    }

    #[test]
    fn channel_endpoints_are_consistent() {
        let spec = TopologySpec::two_level_tree(6, RATE_10M);
        let p = Partition::new(&spec, 3);
        for (ci, c) in p.channels.iter().enumerate() {
            assert_ne!(c.from, c.to);
            assert!(p.outgoing(c.from).contains(&ci));
            assert!(p.incoming(c.to).contains(&ci));
            let t = spec.trunks[c.trunk];
            let (near, far) = if c.dir == 0 { (t.a, t.b) } else { (t.b, t.a) };
            assert_eq!(p.node_shard[near], c.from);
            assert_eq!(p.node_shard[far], c.to);
        }
    }
}
