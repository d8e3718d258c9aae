//! Multi-tenant task-id and host namespacing.
//!
//! When several SPMD programs share one virtual machine (the `fxnet-mix`
//! subsystem), each tenant receives a contiguous block of global task
//! ids — and therefore of hosts, since task `t` lives on host `t`. The
//! [`TenantMap`] records that ownership so that higher layers can
//! translate between a tenant's local rank space and the global task-id
//! space, and so the trace analyzer can attribute each captured frame to
//! the tenant whose hosts exchanged it.

use crate::system::TaskId;
use fxnet_sim::HostId;

/// One tenant's slice of the global task-id/host space.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TenantSlice {
    /// Display name of the tenant ("SOR", "tenant-3", ...).
    pub name: String,
    /// First global task id owned by the tenant.
    pub base: u32,
    /// Number of ranks (and hosts) the tenant owns.
    pub p: u32,
}

impl TenantSlice {
    /// Whether the tenant owns global task id `t`.
    pub fn owns_task(&self, t: TaskId) -> bool {
        t.0 >= self.base && t.0 < self.base + self.p
    }

    /// Whether the tenant owns host `h` (task `t` lives on host `t`).
    pub fn owns_host(&self, h: HostId) -> bool {
        h.0 >= self.base && h.0 < self.base + self.p
    }
}

/// Ownership map of the global task-id/host space across tenants.
///
/// Built by assigning each tenant a contiguous block in declaration
/// order; blocks are disjoint by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TenantMap {
    slices: Vec<TenantSlice>,
}

impl TenantMap {
    /// Build a map from `(name, p)` pairs, packing tenants into
    /// contiguous blocks starting at task 0.
    pub fn pack(tenants: impl IntoIterator<Item = (String, u32)>) -> TenantMap {
        let mut slices = Vec::new();
        let mut base = 0u32;
        for (name, p) in tenants {
            assert!(p >= 1, "tenant {name} must have at least one rank");
            slices.push(TenantSlice { name, base, p });
            base += p;
        }
        TenantMap { slices }
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether the map holds no tenants.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// The tenant slices in declaration order.
    pub fn slices(&self) -> &[TenantSlice] {
        &self.slices
    }

    /// Total ranks across all tenants.
    pub fn total_ranks(&self) -> u32 {
        self.slices.iter().map(|s| s.p).sum()
    }

    /// Index of the tenant owning global task id `t`, if any.
    pub fn owner_of_task(&self, t: TaskId) -> Option<usize> {
        self.slices.iter().position(|s| s.owns_task(t))
    }

    /// Index of the tenant owning host `h`, if any.
    pub fn owner_of_host(&self, h: HostId) -> Option<usize> {
        self.slices.iter().position(|s| s.owns_host(h))
    }

    /// Translate a global task id to `(tenant index, local rank)`.
    pub fn local(&self, t: TaskId) -> Option<(usize, u32)> {
        let i = self.owner_of_task(t)?;
        Some((i, t.0 - self.slices[i].base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map3() -> TenantMap {
        TenantMap::pack([
            ("A".to_string(), 4),
            ("B".to_string(), 2),
            ("C".to_string(), 3),
        ])
    }

    #[test]
    fn packing_is_contiguous_and_disjoint() {
        let m = map3();
        assert_eq!(m.len(), 3);
        assert_eq!(m.total_ranks(), 9);
        let bases: Vec<u32> = m.slices().iter().map(|s| s.base).collect();
        assert_eq!(bases, vec![0, 4, 6]);
        // Every global task id has exactly one owner.
        for t in 0..9 {
            let owners = (0..3)
                .filter(|&i| m.slices()[i].owns_task(TaskId(t)))
                .count();
            assert_eq!(owners, 1, "task {t}");
        }
        assert_eq!(m.owner_of_task(TaskId(9)), None);
    }

    #[test]
    fn translation_round_trips() {
        let m = map3();
        for tenant in 0..m.len() {
            let s = &m.slices()[tenant];
            for local in 0..s.p {
                assert_eq!(m.local(TaskId(s.base + local)), Some((tenant, local)));
            }
        }
        assert_eq!(m.local(TaskId(4)), Some((1, 0)));
        assert_eq!(m.local(TaskId(8)), Some((2, 2)));
        assert_eq!(m.local(TaskId(9)), None);
    }

    #[test]
    fn host_ownership_follows_task_ownership() {
        let m = map3();
        assert_eq!(m.owner_of_host(HostId(0)), Some(0));
        assert_eq!(m.owner_of_host(HostId(5)), Some(1));
        assert_eq!(m.owner_of_host(HostId(8)), Some(2));
        // An idle/tracer host beyond the packed blocks is unowned.
        assert_eq!(m.owner_of_host(HostId(12)), None);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_rank_tenant_rejected() {
        let _ = TenantMap::pack([("X".to_string(), 0)]);
    }
}
