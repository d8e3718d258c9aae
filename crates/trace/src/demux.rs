//! Per-program trace demultiplexing.
//!
//! The paper's tracer is promiscuous: it captures *every* frame on the
//! shared medium. With one program running, the whole trace is that
//! program's traffic (plus daemon chatter). With several programs
//! sharing the LAN (`fxnet-mix`), recovering per-program statistics
//! requires splitting the single capture by tenant. The split uses the
//! host-ownership map of [`fxnet_pvm::TenantMap`]: a frame belongs to
//! tenant *t* iff both its source and destination hosts are owned by
//! *t* — which captures the tenant's message-passing TCP data, its
//! reverse-channel ACKs, and its intra-tenant daemon datagrams. Frames
//! crossing ownership boundaries (master-daemon heartbeats from hosts
//! of other tenants, chatter from idle hosts) land in `background`.
//!
//! Every frame goes to exactly one bucket, so conservation —
//! `Σ per-tenant + background = total` — holds by construction and is
//! re-checked by [`DemuxedStore::check_conservation`].

use crate::store::{TraceStore, TraceView};
use fxnet_pvm::TenantMap;

/// A columnar trace split by tenant: row-index buckets over one shared
/// [`TraceStore`] instead of per-tenant frame copies. Each bucket keeps
/// capture order, and [`DemuxedStore::tenant`] hands back a zero-copy
/// [`TraceView`] ready for the fused analysis kernels.
#[derive(Debug)]
pub struct DemuxedStore<'a> {
    store: &'a TraceStore,
    /// Per-tenant row numbers, indexed like the map's slices.
    pub per_tenant: Vec<Vec<u32>>,
    /// Rows attributable to no single tenant.
    pub background: Vec<u32>,
    /// Total frames in the store.
    pub total: usize,
}

impl DemuxedStore<'_> {
    /// Zero-copy view of tenant `i`'s rows.
    pub fn tenant(&self, i: usize) -> TraceView<'_> {
        self.store.select(&self.per_tenant[i])
    }

    /// Number of tenant buckets.
    pub fn tenants(&self) -> usize {
        self.per_tenant.len()
    }

    /// Verify that no row was lost or double-attributed; returns the
    /// total so callers can print it.
    pub fn check_conservation(&self) -> usize {
        let attributed: usize =
            self.per_tenant.iter().map(Vec::len).sum::<usize>() + self.background.len();
        assert_eq!(
            attributed, self.total,
            "demux lost or double-attributed frames"
        );
        self.total
    }
}

/// Split a columnar `store` by tenant ownership in one pass over the
/// host-id columns. The buckets are row indices — no frame is copied.
pub fn demux_store<'a>(store: &'a TraceStore, map: &TenantMap) -> DemuxedStore<'a> {
    let mut per_tenant: Vec<Vec<u32>> = vec![Vec::new(); map.len()];
    let mut background = Vec::new();
    for i in 0..store.len() {
        let (src, dst) = (
            fxnet_sim::HostId(store.src[i]),
            fxnet_sim::HostId(store.dst[i]),
        );
        match (map.owner_of_host(src), map.owner_of_host(dst)) {
            (Some(a), Some(b)) if a == b => per_tenant[a].push(i as u32),
            _ => background.push(i as u32),
        }
    }
    DemuxedStore {
        store,
        per_tenant,
        background,
        total: store.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::{Frame, FrameKind, FrameRecord, HostId, SimTime};

    fn rec(src: u32, dst: u32, t_us: u64) -> FrameRecord {
        let f = Frame::tcp(HostId(src), HostId(dst), FrameKind::Data, 400, 0);
        FrameRecord::capture(SimTime::from_micros(t_us), &f)
    }

    fn two_tenants() -> TenantMap {
        TenantMap::pack([("A".to_string(), 2), ("B".to_string(), 2)])
    }

    /// Interleave two tenants' bidirectional exchanges frame by frame.
    fn interleaved_trace() -> Vec<FrameRecord> {
        let mut tr = Vec::new();
        for i in 0..50u64 {
            tr.push(rec(0, 1, 4 * i)); // A forward
            tr.push(rec(2, 3, 4 * i + 1)); // B forward
            tr.push(rec(1, 0, 4 * i + 2)); // A reverse (ACK channel)
            tr.push(rec(3, 2, 4 * i + 3)); // B reverse
        }
        tr
    }

    #[test]
    fn interleaved_tenants_demux_into_disjoint_connection_sets() {
        let store = TraceStore::from_records(&interleaved_trace());
        let d = demux_store(&store, &two_tenants());
        assert_eq!(d.check_conservation(), 200);
        assert_eq!(d.tenant(0).len(), 100);
        assert_eq!(d.tenant(1).len(), 100);
        assert!(d.background.is_empty());
        // The connection sets are disjoint: every host pair of tenant A
        // is absent from tenant B's sub-trace and vice versa.
        let pairs_of = |i: usize| -> Vec<_> {
            d.tenant(i)
                .host_pairs()
                .into_iter()
                .map(|(p, _)| p)
                .collect()
        };
        let (pairs_a, pairs_b) = (pairs_of(0), pairs_of(1));
        assert!(pairs_a.iter().all(|p| !pairs_b.contains(p)));
        assert_eq!(
            pairs_a,
            vec![(HostId(0), HostId(1)), (HostId(1), HostId(0))]
        );
    }

    #[test]
    fn connection_extraction_from_demuxed_equals_whole_trace_extraction() {
        // The connection of the full interleaved capture must agree
        // with extraction from the tenant's own sub-trace: no frame of a
        // foreign tenant can alias into the connection.
        let tr = interleaved_trace();
        let store = TraceStore::from_records(&tr);
        let d = demux_store(&store, &two_tenants());
        for (src, dst) in [(0u32, 1u32), (1, 0), (2, 3), (3, 2)] {
            let whole = store.connection(HostId(src), HostId(dst)).to_records();
            let owner = two_tenants().owner_of_host(HostId(src)).unwrap();
            let sub = TraceStore::from_records(&d.tenant(owner).to_records())
                .connection(HostId(src), HostId(dst))
                .to_records();
            assert_eq!(whole, sub, "connection {src}->{dst}");
            assert_eq!(whole.len(), 50);
        }
    }

    #[test]
    fn no_frame_double_counted_under_conservation() {
        // The buckets partition the row numbers: concatenated and
        // sorted they are exactly 0..n.
        let store = TraceStore::from_records(&interleaved_trace());
        let d = demux_store(&store, &two_tenants());
        let mut rows: Vec<u32> = d.per_tenant.concat();
        rows.extend_from_slice(&d.background);
        rows.sort_unstable();
        assert_eq!(rows, (0..store.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn cross_boundary_frames_are_background() {
        let map = two_tenants();
        let tr = vec![
            rec(0, 1, 0), // A
            rec(2, 0, 1), // B's host → A's host 0 (heartbeat-like): background
            rec(4, 0, 2), // unowned idle host → A: background
            rec(2, 3, 3), // B
        ];
        let store = TraceStore::from_records(&tr);
        let d = demux_store(&store, &map);
        assert_eq!(d.tenant(0).to_records(), [tr[0]]);
        assert_eq!(d.tenant(1).to_records(), [tr[3]]);
        assert_eq!(store.select(&d.background).to_records(), tr[1..3]);
        d.check_conservation();
    }

    #[test]
    fn demux_store_matches_record_demux() {
        // Against the rule written out over records: tenant `i` gets,
        // in capture order, the frames whose two ends it both owns.
        let tr = interleaved_trace();
        let map = two_tenants();
        let store = TraceStore::from_records(&tr);
        let cols = demux_store(&store, &map);
        assert_eq!(cols.tenants(), 2);
        for i in 0..2 {
            let want: Vec<FrameRecord> = tr
                .iter()
                .filter(|r| {
                    map.owner_of_host(r.src) == Some(i) && map.owner_of_host(r.dst) == Some(i)
                })
                .copied()
                .collect();
            assert_eq!(cols.tenant(i).to_records(), want, "tenant {i}");
        }
        assert!(cols.background.is_empty());
    }

    #[test]
    fn demux_store_cross_boundary_rows_are_background() {
        let map = two_tenants();
        let tr = vec![rec(0, 1, 0), rec(2, 0, 1), rec(4, 0, 2), rec(2, 3, 3)];
        let store = TraceStore::from_records(&tr);
        let d = demux_store(&store, &map);
        assert_eq!(d.tenant(0).len(), 1);
        assert_eq!(d.tenant(1).len(), 1);
        assert_eq!(d.background.len(), 2);
        d.check_conservation();
    }

    #[test]
    fn empty_trace_and_empty_map() {
        let empty = TraceStore::from_records(&[]);
        assert_eq!(demux_store(&empty, &two_tenants()).check_conservation(), 0);
        let store = TraceStore::from_records(&interleaved_trace());
        let d = demux_store(&store, &TenantMap::default());
        assert_eq!(d.background.len(), 200);
        d.check_conservation();
    }
}
