//! The collective communication patterns of Figure 1.
//!
//! A communication phase is classified by its pattern of message exchange.
//! Each pattern here yields an explicit *schedule*: a sequence of rounds,
//! each round a set of `(src, dst)` rank pairs that exchange in parallel.
//! The schedule determines both which connections carry traffic and how
//! tightly the pattern synchronizes the processors — load-bearing facts
//! for the per-connection analyses (§6.1) and the QoS model (§7).

/// A global collective communication pattern over `P` SPMD ranks: the
/// special cases of §2's many-to-many exchange that dense-matrix codes
/// exhibit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Each rank exchanges with its lattice neighbors `p±1` (SOR).
    Neighbor,
    /// Every rank sends to every other rank, scheduled as `P−1` shift
    /// rounds (2DFFT's distribution transpose).
    AllToAll,
    /// Ranks split in half; each sender sends to every receiver
    /// (T2DFFT's pipeline hand-off).
    Partition,
    /// One root sends to every other rank (SEQ's sequential I/O).
    Broadcast { root: u32 },
    /// Up-sweep reduction: at step `i`, odd multiples of `2^i` send to the
    /// even multiples `2^i` below them (HIST's histogram merge).
    TreeUp,
    /// Down-sweep: the reverse of [`Pattern::TreeUp`].
    TreeDown,
    /// Each rank sends to the rank `k` ahead, mod `P` (§7.3's example).
    Shift { k: u32 },
}

impl Pattern {
    /// The round schedule for `p` ranks. Every inner `Vec` is one round of
    /// concurrent simplex transfers.
    pub fn schedule(&self, p: u32) -> Vec<Vec<(u32, u32)>> {
        assert!(p >= 1);
        match *self {
            Pattern::Neighbor => {
                let mut round = Vec::new();
                for i in 0..p {
                    if i + 1 < p {
                        round.push((i, i + 1));
                        round.push((i + 1, i));
                    }
                }
                vec![round]
            }
            Pattern::AllToAll => (1..p)
                .map(|r| (0..p).map(|i| (i, (i + r) % p)).collect())
                .collect(),
            Pattern::Partition => {
                let h = p / 2;
                if h == 0 {
                    return Vec::new();
                }
                (0..h)
                    .map(|r| (0..h).map(|i| (i, h + (i + r) % h)).collect())
                    .collect()
            }
            Pattern::Broadcast { root } => {
                assert!(root < p);
                vec![(0..p).filter(|&i| i != root).map(|i| (root, i)).collect()]
            }
            Pattern::TreeUp => {
                let mut rounds = Vec::new();
                let mut step = 1;
                while step < p {
                    let mut round = Vec::new();
                    let mut src = step;
                    while src < p {
                        round.push((src, src - step));
                        src += 2 * step;
                    }
                    rounds.push(round);
                    step *= 2;
                }
                rounds
            }
            Pattern::TreeDown => {
                let mut rounds = Pattern::TreeUp.schedule(p);
                rounds.reverse();
                for round in &mut rounds {
                    for pair in round.iter_mut() {
                        *pair = (pair.1, pair.0);
                    }
                }
                rounds
            }
            Pattern::Shift { k } => {
                if k % p == 0 {
                    // Degenerate: every rank would send to itself.
                    return Vec::new();
                }
                vec![(0..p).map(|i| (i, (i + k) % p)).collect()]
            }
        }
    }

    /// Number of distinct simplex connections the pattern uses — the
    /// quantity §7.1 calls out: all-to-all uses `P(P−1)`, neighbor at most
    /// `2P`, an equal partition `P²/4`.
    pub fn connection_count(&self, p: u32) -> usize {
        let mut pairs: Vec<(u32, u32)> = self.schedule(p).into_iter().flatten().collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.len()
    }

    /// Human-readable name matching Figure 2's table.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::Neighbor => "neighbor",
            Pattern::AllToAll => "all-to-all",
            Pattern::Partition => "partition",
            Pattern::Broadcast { .. } => "broadcast",
            Pattern::TreeUp => "tree (up)",
            Pattern::TreeDown => "tree (down)",
            Pattern::Shift { .. } => "shift",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn neighbor_connection_count() {
        // 2(P−1) simplex connections.
        assert_eq!(Pattern::Neighbor.connection_count(4), 6);
        assert_eq!(Pattern::Neighbor.connection_count(8), 14);
    }

    #[test]
    fn all_to_all_covers_every_pair() {
        let p = 5;
        let mut seen = HashSet::new();
        for round in Pattern::AllToAll.schedule(p) {
            // Within a round no rank sends twice and no rank receives twice.
            let srcs: HashSet<u32> = round.iter().map(|&(s, _)| s).collect();
            let dsts: HashSet<u32> = round.iter().map(|&(_, d)| d).collect();
            assert_eq!(srcs.len(), round.len());
            assert_eq!(dsts.len(), round.len());
            seen.extend(round);
        }
        assert_eq!(seen.len(), (p * (p - 1)) as usize);
        assert_eq!(Pattern::AllToAll.connection_count(p), 20);
    }

    #[test]
    fn partition_is_p_squared_over_four() {
        assert_eq!(Pattern::Partition.connection_count(4), 4);
        assert_eq!(Pattern::Partition.connection_count(8), 16);
        for round in Pattern::Partition.schedule(8) {
            for (s, d) in round {
                assert!(s < 4 && d >= 4, "sender half to receiver half only");
            }
        }
    }

    #[test]
    fn broadcast_from_root() {
        let sched = Pattern::Broadcast { root: 2 }.schedule(4);
        assert_eq!(sched.len(), 1);
        let dsts: HashSet<u32> = sched[0].iter().map(|&(_, d)| d).collect();
        assert_eq!(dsts, HashSet::from([0, 1, 3]));
        assert!(sched[0].iter().all(|&(s, _)| s == 2));
    }

    #[test]
    fn tree_up_reduces_to_rank_zero() {
        // P = 8: steps (1,3,5,7)→(0,2,4,6), (2,6)→(0,4), (4)→(0).
        let sched = Pattern::TreeUp.schedule(8);
        assert_eq!(sched.len(), 3);
        assert_eq!(sched[0], vec![(1, 0), (3, 2), (5, 4), (7, 6)]);
        assert_eq!(sched[1], vec![(2, 0), (6, 4)]);
        assert_eq!(sched[2], vec![(4, 0)]);
    }

    #[test]
    fn tree_down_mirrors_tree_up() {
        let up = Pattern::TreeUp.schedule(8);
        let down = Pattern::TreeDown.schedule(8);
        assert_eq!(down.len(), up.len());
        assert_eq!(down[0], vec![(0, 4)]);
        assert_eq!(down[2], vec![(0, 1), (2, 3), (4, 5), (6, 7)]);
    }

    #[test]
    fn tree_handles_non_power_of_two() {
        let sched = Pattern::TreeUp.schedule(6);
        // Steps: (1,3,5)→(0,2,4), (2,6? no)→... step2: (2)→(0); step4: (4)→(0).
        assert_eq!(sched[0], vec![(1, 0), (3, 2), (5, 4)]);
        assert_eq!(sched[1], vec![(2, 0)]);
        assert_eq!(sched[2], vec![(4, 0)]);
    }

    #[test]
    fn shift_rotates() {
        let sched = Pattern::Shift { k: 1 }.schedule(4);
        assert_eq!(sched, vec![vec![(0, 1), (1, 2), (2, 3), (3, 0)]]);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Pattern::AllToAll.name(), "all-to-all");
        assert_eq!(Pattern::Broadcast { root: 0 }.name(), "broadcast");
    }

    proptest! {
        #[test]
        fn no_self_sends_and_valid_ranks(p in 2u32..33) {
            for pat in [
                Pattern::Neighbor,
                Pattern::AllToAll,
                Pattern::Broadcast { root: p - 1 },
                Pattern::TreeUp,
                Pattern::TreeDown,
                Pattern::Shift { k: 1 },
            ] {
                for round in pat.schedule(p) {
                    for (s, d) in round {
                        prop_assert!(s != d, "{pat:?} self-send");
                        prop_assert!(s < p && d < p);
                    }
                }
            }
        }

        #[test]
        fn tree_up_message_count_is_p_minus_one(p in 2u32..65) {
            let total: usize = Pattern::TreeUp.schedule(p).iter().map(Vec::len).sum();
            prop_assert_eq!(total, (p - 1) as usize);
        }

        #[test]
        fn all_to_all_rounds_are_permutation_free(p in 2u32..17) {
            // Each rank appears exactly once as src and once as dst per round.
            for round in Pattern::AllToAll.schedule(p) {
                prop_assert_eq!(round.len(), p as usize);
            }
        }
    }
}
