//! Shard placement for the sharded Name Service.
//!
//! [`ShardMap`] is the client's static view of the service: which replica
//! group is authoritative for a name (FNV-1a hash of the name, mod shard
//! count) or for a UAdd (the shard that generated it, recovered from the
//! UAdd's embedded server id). Placement is **total** (every name maps to
//! exactly one shard) and **stable** (changing anything but the shard count
//! never moves a name).
//!
//! Client-side location caching is not here: the Nucleus's
//! [`ntcs_nucleus::StaticResolver`] holds the one leased table, and a
//! [`crate::protocol::NsInvalidate`] push drops an entry from it before
//! its lease runs out.

use ntcs_addr::UAdd;

/// Server-id stride between shards: shard `s` owns server ids
/// `s * SHARD_STRIDE ..= s * SHARD_STRIDE + (SHARD_STRIDE - 1)` (primary at
/// the base, replicas above it). Shard 0 keeps the classic single-shard
/// layout (primary server id 0, replicas 1..).
pub const SHARD_STRIDE: u16 = 16;

/// Well-known UAdd of shard `s`'s primary. Shard 0 is
/// [`UAdd::NAME_SERVER`]; higher shards continue the well-known block in
/// strides of 0x20 raw values, staying ≤ `WELL_KNOWN_MAX`.
#[must_use]
pub fn shard_primary_uadd(shard: usize) -> UAdd {
    if shard == 0 {
        UAdd::NAME_SERVER
    } else {
        UAdd::from_raw(0x20 * shard as u64)
    }
}

/// Well-known UAdd of replica `i` (0-based) of shard `s`.
#[must_use]
pub fn shard_replica_uadd(shard: usize, replica: usize) -> UAdd {
    UAdd::from_raw(shard_primary_uadd(shard).raw() + 1 + replica as u64)
}

/// Server id of shard `s`'s primary.
#[must_use]
pub fn shard_primary_server_id(shard: usize) -> u16 {
    shard as u16 * SHARD_STRIDE
}

/// Server id of replica `i` (0-based) of shard `s`.
#[must_use]
pub fn shard_replica_server_id(shard: usize, replica: usize) -> u16 {
    shard_primary_server_id(shard) + 1 + replica as u16
}

/// FNV-1a hash of a name — the shard placement function. Stable by
/// construction (pure function of the bytes); never reseeded.
#[must_use]
pub fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The client's static shard map: per-shard server preference lists.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// `groups[s]` lists shard `s`'s servers in preference order
    /// (primary first).
    groups: Vec<Vec<UAdd>>,
}

impl ShardMap {
    /// A map over explicit replica groups. Panics on an empty group list —
    /// a Name Service with zero shards cannot resolve anything.
    #[must_use]
    pub fn new(groups: Vec<Vec<UAdd>>) -> Self {
        assert!(!groups.is_empty(), "shard map needs at least one group");
        ShardMap { groups }
    }

    /// The classic unsharded layout: one group, servers in preference order.
    #[must_use]
    pub fn single(servers: Vec<UAdd>) -> Self {
        ShardMap::new(vec![servers])
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.groups.len()
    }

    /// The shard authoritative for `name` (total: every name maps to
    /// exactly one shard).
    #[must_use]
    pub fn shard_for_name(&self, name: &str) -> usize {
        (name_hash(name) % self.groups.len() as u64) as usize
    }

    /// The shard that generated `uadd`, recovered from its embedded server
    /// id (`server_id / SHARD_STRIDE`). Temporary addresses carry no server
    /// id and fall back to shard 0; ids past the configured groups clamp to
    /// the last shard so a stale map still routes somewhere answerable.
    #[must_use]
    pub fn shard_for_uadd(&self, uadd: UAdd) -> usize {
        match uadd.server_id() {
            Ok(sid) => ((sid / SHARD_STRIDE) as usize).min(self.groups.len() - 1),
            Err(_) => 0,
        }
    }

    /// Shard `s`'s servers in preference order.
    #[must_use]
    pub fn group(&self, shard: usize) -> &[UAdd] {
        &self.groups[shard]
    }

    /// All groups, shard order.
    #[must_use]
    pub fn groups(&self) -> &[Vec<UAdd>] {
        &self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_placement_is_total_and_stable() {
        let map = ShardMap::new(vec![
            vec![shard_primary_uadd(0)],
            vec![shard_primary_uadd(1)],
            vec![shard_primary_uadd(2)],
        ]);
        for i in 0..1000 {
            let name = format!("module-{i}");
            let s = map.shard_for_name(&name);
            assert!(s < 3);
            // Stable: same name, same shard, every time.
            assert_eq!(map.shard_for_name(&name), s);
        }
    }

    #[test]
    fn uadd_shard_recovers_generating_shard() {
        let map = ShardMap::new(vec![
            vec![shard_primary_uadd(0)],
            vec![shard_primary_uadd(1)],
        ]);
        let from_s0 = ntcs_addr::UAddGenerator::new(shard_primary_server_id(0)).generate();
        let from_s1 = ntcs_addr::UAddGenerator::new(shard_replica_server_id(1, 0)).generate();
        assert_eq!(map.shard_for_uadd(from_s0), 0);
        assert_eq!(map.shard_for_uadd(from_s1), 1);
        // Temporary addresses fall back to shard 0.
        let tadd = ntcs_addr::TAddGenerator::new(7).generate();
        assert_eq!(map.shard_for_uadd(tadd), 0);
    }

    #[test]
    fn well_known_shard_addresses_stay_well_known() {
        for s in 0..6 {
            assert!(shard_primary_uadd(s).is_well_known(), "shard {s}");
            for r in 0..3 {
                assert!(shard_replica_uadd(s, r).is_well_known(), "shard {s}/{r}");
            }
        }
    }
}
