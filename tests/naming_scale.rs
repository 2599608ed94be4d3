//! Naming at scale (§3.2, §7): the sharded Name Service keeps per-shard
//! load balanced over a million registrations, survives relocation churn
//! with forwarding chains intact, and the leased client-side cache keeps
//! hit-rate invariants observable through the metrics registry.

use std::time::Duration;

use ntcs::{AttrSet, MachineType, NetKind};
use ntcs_naming::cache::{shard_primary_server_id, shard_primary_uadd};
use ntcs_naming::{NameDb, ShardMap};
use ntcs_repro::messages::Ask;
use ntcs_repro::scenarios::sharded_net;

const T: Option<Duration> = Some(Duration::from_secs(10));

/// Registers 1M+ names into a 4-shard database set, checks both routings
/// (by name hash and by minted UAdd) agree, per-shard balance stays within
/// 5% of even, and a churned subset keeps resolvable forwarding chains.
#[test]
fn million_names_balance_across_shards_and_survive_churn() {
    const SHARDS: usize = 4;
    const NAMES: usize = 1_000_000;

    let map = ShardMap::new(
        (0..SHARDS)
            .map(|s| vec![shard_primary_uadd(s)])
            .collect::<Vec<_>>(),
    );
    let mut dbs: Vec<NameDb> = (0..SHARDS)
        .map(|s| NameDb::new(shard_primary_server_id(s)))
        .collect();

    let mut uadds = Vec::with_capacity(NAMES);
    for i in 0..NAMES {
        let name = format!("mod-{i}");
        let shard = map.shard_for_name(&name);
        let (uadd, _gen) = dbs[shard].register(
            AttrSet::named(&name).unwrap(),
            MachineType::Sun,
            Vec::new(),
            false,
            Vec::new(),
            None,
        );
        // UAdds are minted by the shard the name hashes to, so routing a
        // later UAdd lookup lands on the same shard as the registration.
        assert_eq!(map.shard_for_uadd(uadd), shard, "routing split for {name}");
        uadds.push(uadd);
    }

    // Per-shard balance: FNV-1a placement stays within 5% of even.
    let mean = NAMES / SHARDS;
    let tolerance = mean / 20;
    for (s, db) in dbs.iter().enumerate() {
        let count = db.len();
        assert!(
            count.abs_diff(mean) <= tolerance,
            "shard {s} holds {count} records, outside {mean}±{tolerance}"
        );
    }

    // Relocation churn on a spread-out subset: move each twice, then check
    // the forwarding chain points at the live incarnation and resolution
    // prefers it.
    for i in (0..NAMES).step_by(997) {
        let name = format!("mod-{i}");
        let shard = map.shard_for_name(&name);
        let first = uadds[i];
        let (second, _) = dbs[shard].register(
            AttrSet::named(&name).unwrap(),
            MachineType::Vax,
            Vec::new(),
            false,
            Vec::new(),
            Some(first),
        );
        let (third, _) = dbs[shard].register(
            AttrSet::named(&name).unwrap(),
            MachineType::Apollo,
            Vec::new(),
            false,
            Vec::new(),
            Some(second),
        );
        let db = &dbs[shard];
        assert!(!db.lookup(first).unwrap().alive, "{name}: old stayed alive");
        assert!(!db.lookup(second).unwrap().alive);
        assert!(db.lookup(third).unwrap().alive);
        // Forwarding from any stale incarnation reaches the newest.
        assert_eq!(db.forwarding(first).unwrap(), third, "{name}");
        assert_eq!(db.forwarding(second).unwrap(), third, "{name}");
        // Name resolution returns only the live incarnation.
        let query = ntcs::AttrQuery::by_name(&name).unwrap();
        assert_eq!(db.resolve(&query), Some(third), "{name}");
    }
}

/// End to end on a live 3-shard testbed: lookups route to the right shard,
/// relocation churn never strands a client, and the leased cache's
/// hit/miss/invalidation counters surface through the metrics registry.
#[test]
fn sharded_lookups_survive_relocation_churn_with_cache_metrics() {
    const N: usize = 12;
    let lab = sharded_net(4, 3, 0, NetKind::Mbx).unwrap();
    let tb = &lab.testbed;
    assert_eq!(tb.shard_count(), 3);

    let mut handles = Vec::new();
    for i in 0..N {
        handles.push(tb.module(lab.machines[i % 4], &format!("svc-{i}")).unwrap());
    }
    let client = tb.module(lab.machines[0], "cli").unwrap();

    // Every name resolves through its home shard; the FNV placement of
    // svc-0..svc-11 over 3 shards is perfectly even (4 names per shard),
    // so every shard must hold records.
    let map = tb.shard_map();
    let mut per_shard = vec![0usize; 3];
    for (i, h) in handles.iter().enumerate() {
        let name = format!("svc-{i}");
        assert_eq!(client.locate(&name).unwrap(), h.my_uadd(), "{name}");
        per_shard[map.shard_for_name(&name)] += 1;
    }
    assert_eq!(per_shard, vec![4, 4, 4], "FNV placement drifted");
    let counts = tb.shard_record_counts();
    assert_eq!(counts.len(), 3);
    for (s, count) in counts.iter().enumerate() {
        assert!(*count >= 4, "shard {s} holds only {count} records");
    }

    // Warm the client's leased cache: two sends per service — the second
    // rides the open circuit, and the resolver cache absorbs the NS-server
    // resolutions themselves (each shard primary resolves as a lease hit
    // off its preload; each service costs exactly one cold miss).
    for (i, h) in handles.iter().enumerate() {
        let dst = h.my_uadd();
        for n in 0..2 {
            client
                .send(
                    dst,
                    &Ask {
                        n,
                        body: format!("warm-{i}"),
                    },
                )
                .unwrap();
            assert_eq!(
                h.receive(T).unwrap().decode::<Ask>().unwrap().body,
                format!("warm-{i}")
            );
        }
    }
    let warm = client.metrics();
    assert!(
        warm.ns_cache_hits >= tb.shard_count() as u64,
        "leases never served: {warm:?}"
    );
    assert!(
        warm.ns_cache_misses >= N as u64,
        "cold resolves unaccounted: {warm:?}"
    );
    // The registry renders the cache counters for operators.
    let rendered: Vec<&str> = warm.counters().iter().map(|(k, _)| *k).collect();
    for key in ["ns_cache_hits", "ns_cache_misses", "ns_invalidations"] {
        assert!(rendered.contains(&key), "registry missing {key}");
    }

    // Leased lookups: repeated resolutions of a warm destination are served
    // by its lease (or revalidate an expired one) and never go cold; with
    // the lease dropped, every resolution is a shard round trip.
    const LEASED: u64 = 500;
    const COLD: u64 = 20;
    // A service the churn below leaves in place.
    let dst = handles[N - 1].my_uadd();
    let nucleus = client.nucleus();
    let before = client.metrics();
    for _ in 0..LEASED {
        nucleus.resolve(dst).unwrap();
    }
    let leased = client.metrics();
    assert!(
        (leased.ns_cache_hits + leased.ns_cache_stale)
            - (before.ns_cache_hits + before.ns_cache_stale)
            >= LEASED,
        "leased loop not served by the lease: {before:?} -> {leased:?}"
    );
    for _ in 0..COLD {
        nucleus.statics().invalidate(dst);
        nucleus.resolve(dst).unwrap();
    }
    let cold = client.metrics();
    assert!(
        cold.ns_cache_misses - leased.ns_cache_misses >= COLD,
        "cold loop served from a cache: {leased:?} -> {cold:?}"
    );

    // Relocation churn: move half the services to the next machine. The
    // shard primary must push lease invalidations to the client, and
    // post-churn lookups must land on the live incarnation.
    let invalidations_before = client.metrics().ns_invalidations;
    let mut churned = Vec::new();
    let mut stale = Vec::new();
    for (i, h) in handles.into_iter().enumerate() {
        if i < N / 2 {
            let old = h.my_uadd();
            let moved = h.relocate_to(lab.machines[(i + 1) % 4]).unwrap();
            assert_ne!(moved.my_uadd(), old);
            stale.push(old);
            churned.push(moved);
        } else {
            churned.push(h);
        }
    }
    for (i, h) in churned.iter().enumerate() {
        let name = format!("svc-{i}");
        assert_eq!(
            client.locate(&name).unwrap(),
            h.my_uadd(),
            "post-churn {name}"
        );
    }
    // Invalidations were pushed for the leases the client held; give the
    // pump a bounded moment to drain them.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if client.metrics().ns_invalidations >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no lease invalidation ever arrived: {:?}",
            client.metrics()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Messages to the relocated services flow again (forwarding + fresh
    // resolution after invalidation).
    for (i, h) in churned.iter().enumerate().take(N / 2) {
        client
            .send(
                h.my_uadd(),
                &Ask {
                    n: 99,
                    body: format!("post-churn-{i}"),
                },
            )
            .unwrap();
        assert_eq!(h.receive(T).unwrap().decode::<Ask>().unwrap().n, 99);
    }
    // The stale addresses reach the moved services too, and every such
    // recovery invalidated a lease: by the shard's push or by the §3.5
    // forwarding query after an address fault. A send that raced the
    // move may be lost, so resend until the new incarnation confirms.
    for (i, (&old, h)) in stale.iter().zip(&churned).enumerate() {
        let msg = Ask {
            n: 100 + i as u32,
            body: String::new(),
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            assert!(
                std::time::Instant::now() < deadline,
                "svc-{i} never reached through its stale address"
            );
            let _ = client.send(old, &msg);
            let got = h.receive(Some(Duration::from_millis(50)));
            if matches!(got, Ok(m) if m.decode::<Ask>().is_ok_and(|a| a.n == msg.n)) {
                break;
            }
        }
    }
    let invalidations = client.metrics().ns_invalidations - invalidations_before;
    assert!(
        invalidations >= stale.len() as u64,
        "{} stale-address recoveries but {invalidations} lease invalidations",
        stale.len()
    );
}
