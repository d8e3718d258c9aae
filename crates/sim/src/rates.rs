//! Named link rates.
//!
//! Every layer that prices a link — the MAC (`EtherConfig`), the
//! topology compiler (`fxnet-topo`), the protocol stack's one-switch
//! counterfactual, the QoS admission model, and the experiment harness —
//! used to repeat the same `10_000_000`-style literals. They live here
//! once, under the names the paper and its successors use for the
//! Ethernet generations.

/// 10 Mb/s — classic shared Ethernet, the paper's measured fabric (§5.1).
pub const RATE_10M: u64 = 10_000_000;

/// 100 Mb/s — Fast Ethernet, the first sweep point above the paper.
pub const RATE_100M: u64 = 100_000_000;

/// 1000 Mb/s — Gigabit Ethernet, the top of the fabric sweep.
pub const RATE_1G: u64 = 1_000_000_000;

/// The three generations the fabric sweep crosses, slowest first.
pub const SWEEP_RATES: [u64; 3] = [RATE_10M, RATE_100M, RATE_1G];

/// Raw byte capacity of a link, bytes/second (the QoS layer's unit: the
/// paper's 10 Mb/s Ethernet is "an aggregate 1.25 MB/s of bandwidth").
#[must_use]
pub fn bytes_per_sec(bps: u64) -> f64 {
    bps as f64 / 8.0
}

/// Human label for a rate ("10M", "100M", "1G", else the raw bps value).
#[must_use]
pub fn rate_label(bps: u64) -> String {
    match bps {
        RATE_10M => "10M".to_string(),
        RATE_100M => "100M".to_string(),
        RATE_1G => "1G".to_string(),
        other => format!("{other}bps"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_capacity_of_the_paper_fabric() {
        assert_eq!(bytes_per_sec(RATE_10M), 1_250_000.0);
        assert_eq!(bytes_per_sec(RATE_100M), 12_500_000.0);
        assert_eq!(bytes_per_sec(RATE_1G), 125_000_000.0);
    }

    #[test]
    fn labels_round_trip_the_generations() {
        assert_eq!(rate_label(RATE_10M), "10M");
        assert_eq!(rate_label(RATE_100M), "100M");
        assert_eq!(rate_label(RATE_1G), "1G");
        assert_eq!(rate_label(42), "42bps");
    }
}
