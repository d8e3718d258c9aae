//! Declarative topology graphs.
//!
//! A [`TopologySpec`] is a plain data description of a LAN fabric: nodes
//! (shared-bus collision domains, store-and-forward switches, routers),
//! trunk links between nodes, and the attachment of every host to one
//! node. The spec is *compiled* by [`crate::CompositeFabric`] into a
//! running fabric; everything here is pure graph bookkeeping so it can be
//! validated, serialized into experiment artifacts, and unit-tested
//! without any simulation.

use fxnet_sim::{rates, SimTime};
use serde::{Deserialize, Serialize};

/// What a topology node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A shared CSMA/CD collision domain (compiled to an `EtherBus`).
    /// Hosts on it contend for the medium; a bridge NIC per trunk
    /// interface carries off-segment frames.
    Segment,
    /// A store-and-forward switch: every attached host gets a dedicated
    /// full-duplex port at the node rate.
    Switch,
    /// A router: switch discipline with a larger per-hop forwarding
    /// latency, marking a subnet boundary.
    Router,
}

/// One node of the graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// Display name ("seg0", "sw1", "rt0", ...).
    pub name: String,
    pub kind: NodeKind,
    /// Access rate in bits/s: the bus signalling rate of a segment, or
    /// the per-host port rate of a switch/router.
    pub rate_bps: u64,
}

/// A trunk (inter-node) link: full-duplex, one independent queue per
/// direction.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Trunk {
    /// Endpoint node indices.
    pub a: usize,
    pub b: usize,
    /// Link rate in bits/s.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: SimTime,
}

/// A complete declarative topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Stable identifier for artifacts and ledgers ("single", "switch",
    /// "trunk2", "tree2", "routed2", or anything a custom builder
    /// chooses).
    pub id: String,
    pub nodes: Vec<Node>,
    pub trunks: Vec<Trunk>,
    /// `attachments[h]` is the node host `h` lives on; its length is the
    /// LAN's host count.
    pub attachments: Vec<usize>,
    /// Store-and-forward latency per switch (and per segment bridge) hop.
    pub switch_latency: SimTime,
    /// Store-and-forward latency per router hop.
    pub router_latency: SimTime,
}

/// Default one-way trunk propagation delay (a few hundred meters of
/// cable plus PHY latency).
pub const DEFAULT_PROP_DELAY: SimTime = SimTime::from_micros(1);

/// Default switch forwarding latency: the gap between the end of a
/// frame's arrival at a switch and the start of its next transmission.
pub const DEFAULT_SWITCH_LATENCY: SimTime = SimTime::from_micros(10);

/// Default router forwarding latency (software forwarding path).
pub const DEFAULT_ROUTER_LATENCY: SimTime = SimTime::from_micros(50);

impl TopologySpec {
    /// The paper's fabric: every host on one shared collision domain at
    /// `rate_bps`. Compiles to exactly the legacy `EtherBus` path.
    pub fn single_segment(hosts: u32, rate_bps: u64) -> TopologySpec {
        TopologySpec {
            id: "single".to_string(),
            nodes: vec![Node {
                name: "seg0".to_string(),
                kind: NodeKind::Segment,
                rate_bps,
            }],
            trunks: Vec::new(),
            attachments: vec![0; hosts as usize],
            switch_latency: DEFAULT_SWITCH_LATENCY,
            router_latency: DEFAULT_ROUTER_LATENCY,
        }
    }

    /// The switch counterfactual (DESIGN.md §8): every host on a
    /// dedicated full-duplex port of one store-and-forward switch at
    /// `rate_bps`. No collisions, no trunks; transfers between disjoint
    /// host pairs proceed in parallel.
    pub fn single_switch(hosts: u32, rate_bps: u64) -> TopologySpec {
        TopologySpec {
            id: "switch".to_string(),
            nodes: vec![Node {
                name: "sw0".to_string(),
                kind: NodeKind::Switch,
                rate_bps,
            }],
            trunks: Vec::new(),
            attachments: vec![0; hosts as usize],
            switch_latency: DEFAULT_SWITCH_LATENCY,
            router_latency: DEFAULT_ROUTER_LATENCY,
        }
    }

    /// Two switches joined by one trunk, hosts split evenly (first half
    /// on `sw0`). Port and trunk rates are both `rate_bps`, so the trunk
    /// is oversubscribed whenever more than one cross-switch transfer is
    /// active.
    pub fn two_switches_trunk(hosts: u32, rate_bps: u64) -> TopologySpec {
        let sw = |i: usize| Node {
            name: format!("sw{i}"),
            kind: NodeKind::Switch,
            rate_bps,
        };
        TopologySpec {
            id: "trunk2".to_string(),
            nodes: vec![sw(0), sw(1)],
            trunks: vec![Trunk {
                a: 0,
                b: 1,
                rate_bps,
                prop_delay: DEFAULT_PROP_DELAY,
            }],
            attachments: (0..hosts)
                .map(|h| usize::from(h >= hosts.div_ceil(2)))
                .collect(),
            switch_latency: DEFAULT_SWITCH_LATENCY,
            router_latency: DEFAULT_ROUTER_LATENCY,
        }
    }

    /// A two-level tree: two leaf switches with the hosts, one root
    /// switch with no hosts, uplinks at `rate_bps`. Cross-leaf traffic
    /// crosses two trunks.
    pub fn two_level_tree(hosts: u32, rate_bps: u64) -> TopologySpec {
        let sw = |name: &str| Node {
            name: name.to_string(),
            kind: NodeKind::Switch,
            rate_bps,
        };
        let up = |leaf: usize| Trunk {
            a: leaf,
            b: 2,
            rate_bps,
            prop_delay: DEFAULT_PROP_DELAY,
        };
        TopologySpec {
            id: "tree2".to_string(),
            nodes: vec![sw("leaf0"), sw("leaf1"), sw("root")],
            trunks: vec![up(0), up(1)],
            attachments: (0..hosts)
                .map(|h| usize::from(h >= hosts.div_ceil(2)))
                .collect(),
            switch_latency: DEFAULT_SWITCH_LATENCY,
            router_latency: DEFAULT_ROUTER_LATENCY,
        }
    }

    /// Two shared segments joined through a router: `seg0 — rt0 — seg1`,
    /// all links at `rate_bps`. Cross-subnet frames contend on both
    /// collision domains and pay two routed trunk hops.
    pub fn routed_two_subnets(hosts: u32, rate_bps: u64) -> TopologySpec {
        let seg = |i: usize| Node {
            name: format!("seg{i}"),
            kind: NodeKind::Segment,
            rate_bps,
        };
        let link = |a: usize, b: usize| Trunk {
            a,
            b,
            rate_bps,
            prop_delay: DEFAULT_PROP_DELAY,
        };
        TopologySpec {
            id: "routed2".to_string(),
            nodes: vec![
                seg(0),
                seg(1),
                Node {
                    name: "rt0".to_string(),
                    kind: NodeKind::Router,
                    rate_bps,
                },
            ],
            trunks: vec![link(0, 2), link(2, 1)],
            attachments: (0..hosts)
                .map(|h| usize::from(h >= hosts.div_ceil(2)))
                .collect(),
            switch_latency: DEFAULT_SWITCH_LATENCY,
            router_latency: DEFAULT_ROUTER_LATENCY,
        }
    }

    /// The four canonical fabric-sweep topologies at one rate, in sweep
    /// order. (`single_switch` is the §8 ablation's fabric, not a sweep
    /// member: the set feeds `fabric_sweep.json`.)
    pub fn sweep_set(hosts: u32, rate_bps: u64) -> Vec<TopologySpec> {
        vec![
            TopologySpec::single_segment(hosts, rate_bps),
            TopologySpec::two_switches_trunk(hosts, rate_bps),
            TopologySpec::two_level_tree(hosts, rate_bps),
            TopologySpec::routed_two_subnets(hosts, rate_bps),
        ]
    }

    /// Number of hosts on the LAN.
    pub fn host_count(&self) -> usize {
        self.attachments.len()
    }

    /// Artifact label: topology id plus the slowest link rate ("trunk2@10M").
    pub fn label(&self) -> String {
        let min_rate = self
            .nodes
            .iter()
            .map(|n| n.rate_bps)
            .chain(self.trunks.iter().map(|t| t.rate_bps))
            .min()
            .unwrap_or(0);
        format!("{}@{}", self.id, rates::rate_label(min_rate))
    }

    /// Per-hop store-and-forward latency of `node`.
    pub fn latency(&self, node: usize) -> SimTime {
        match self.nodes[node].kind {
            NodeKind::Router => self.router_latency,
            NodeKind::Segment | NodeKind::Switch => self.switch_latency,
        }
    }

    /// Validate the graph: endpoints in range, every host on a real node,
    /// rates nonzero, and every pair of host-bearing nodes connected.
    ///
    /// # Errors
    /// A human-readable description of the first defect found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("topology has no nodes".to_string());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.rate_bps == 0 {
                return Err(format!("node {i} ({}) has zero rate", n.name));
            }
        }
        for (i, t) in self.trunks.iter().enumerate() {
            if t.a >= self.nodes.len() || t.b >= self.nodes.len() || t.a == t.b {
                return Err(format!("trunk {i} endpoints ({}, {}) invalid", t.a, t.b));
            }
            if t.rate_bps == 0 {
                return Err(format!("trunk {i} has zero rate"));
            }
        }
        for (h, &n) in self.attachments.iter().enumerate() {
            if n >= self.nodes.len() {
                return Err(format!("host {h} attached to missing node {n}"));
            }
        }
        let fwd = self.forwarding();
        for &src in &self.attachments {
            for &dst in &self.attachments {
                if src != dst && fwd[src][dst].is_none() {
                    return Err(format!("no path between nodes {src} and {dst}"));
                }
            }
        }
        Ok(())
    }

    /// Forwarding tables derived from the graph: `table[n][d]` is the
    /// trunk index a frame at node `n` takes toward destination node `d`
    /// (`None` when `n == d` or `d` is unreachable). Shortest paths by
    /// hop count; ties broken by lowest trunk index, so the tables are
    /// deterministic.
    pub fn forwarding(&self) -> Vec<Vec<Option<usize>>> {
        let n = self.nodes.len();
        // Adjacency: (neighbor, trunk index), in trunk order.
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (ti, t) in self.trunks.iter().enumerate() {
            adj[t.a].push((t.b, ti));
            adj[t.b].push((t.a, ti));
        }
        let mut table = vec![vec![None; n]; n];
        for dst in 0..n {
            // BFS from the destination; the trunk a node first reaches
            // the frontier through is its next hop toward `dst`.
            let mut dist = vec![usize::MAX; n];
            dist[dst] = 0;
            let mut frontier = vec![dst];
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for &u in &frontier {
                    for &(v, ti) in &adj[u] {
                        if dist[v] == usize::MAX {
                            dist[v] = dist[u] + 1;
                            table[v][dst] = Some(ti);
                            next.push(v);
                        }
                    }
                }
                frontier = next;
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::RATE_10M;

    #[test]
    fn canonical_topologies_validate() {
        for spec in TopologySpec::sweep_set(9, RATE_10M) {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.id));
            assert_eq!(spec.host_count(), 9);
        }
    }

    #[test]
    fn single_segment_is_one_bus_no_trunks() {
        let s = TopologySpec::single_segment(4, RATE_10M);
        assert_eq!(s.nodes.len(), 1);
        assert!(s.trunks.is_empty());
        assert_eq!(s.label(), "single@10M");
    }

    #[test]
    fn single_switch_is_one_switch_no_trunks() {
        let s = TopologySpec::single_switch(4, RATE_10M);
        assert_eq!((s.nodes.len(), s.nodes[0].kind), (1, NodeKind::Switch));
        assert!(s.trunks.is_empty() && s.validate().is_ok());
        assert_eq!(s.label(), "switch@10M");
    }

    #[test]
    fn split_puts_first_half_on_node_zero() {
        let s = TopologySpec::two_switches_trunk(5, RATE_10M);
        assert_eq!(s.attachments, vec![0, 0, 0, 1, 1]);
    }

    #[test]
    fn tree_forwarding_goes_through_the_root() {
        let s = TopologySpec::two_level_tree(4, RATE_10M);
        let fwd = s.forwarding();
        // leaf0 → leaf1 exits on trunk 0 (leaf0-root), then trunk 1.
        assert_eq!(fwd[0][1], Some(0));
        assert_eq!(fwd[2][1], Some(1));
        assert_eq!(fwd[0][0], None);
    }

    #[test]
    fn routed_path_crosses_the_router() {
        let s = TopologySpec::routed_two_subnets(4, RATE_10M);
        let fwd = s.forwarding();
        assert_eq!(fwd[0][1], Some(0)); // seg0 → rt0
        assert_eq!(fwd[2][1], Some(1)); // rt0 → seg1
        assert_eq!(s.latency(2), DEFAULT_ROUTER_LATENCY);
        assert_eq!(s.latency(0), DEFAULT_SWITCH_LATENCY);
    }

    #[test]
    fn validation_catches_disconnection_and_bad_indices() {
        let mut s = TopologySpec::two_switches_trunk(4, RATE_10M);
        s.trunks.clear();
        assert!(s.validate().unwrap_err().contains("no path"));
        let mut s = TopologySpec::single_segment(2, RATE_10M);
        s.attachments.push(7);
        assert!(s.validate().unwrap_err().contains("missing node"));
        let mut s = TopologySpec::two_switches_trunk(4, RATE_10M);
        s.trunks[0].b = 0;
        assert!(s.validate().is_err());
    }
}
