//! Property-based tests over the NTCS core data structures and invariants:
//! wire codecs (shift/packed/image/header), naming structures, the name
//! database, and route computation on random topologies.

use std::collections::HashMap;

use proptest::prelude::*;

use ntcs::{AttrQuery, AttrSet, MachineType, NetworkId, PhysAddr, UAdd};
use ntcs_naming::cache::{shard_primary_server_id, shard_primary_uadd, shard_replica_uadd};
use ntcs_naming::protocol::NsInvalidate;
use ntcs_naming::{NameDb, ShardMap};
use ntcs_nucleus::{LeaseProbe, ResolvedModule, StaticResolver};
use ntcs_wire::bytes::Bytes;
use ntcs_wire::pack::{pack_to_vec, unpack_from_slice, Blob};
use ntcs_wire::{
    encode_payload, image, ConvMode, Frame, FrameHeader, FrameType, InboundPayload, Message,
    PackReader, PackWriter, ShiftReader, ShiftWriter,
};

/// A resolved module on network 0 at MBX path `path`.
fn module_at(uadd: UAdd, path: &str) -> ResolvedModule {
    ResolvedModule {
        uadd,
        machine_type: MachineType::Sun,
        addrs: vec![PhysAddr::Mbx {
            network: NetworkId(0),
            path: path.into(),
        }],
    }
}

fn machine_type() -> impl Strategy<Value = MachineType> {
    prop_oneof![
        Just(MachineType::Vax),
        Just(MachineType::Sun),
        Just(MachineType::Apollo),
        Just(MachineType::M68k),
    ]
}

fn frame_type() -> impl Strategy<Value = FrameType> {
    prop_oneof![
        Just(FrameType::LvcOpen),
        Just(FrameType::LvcOpenAck),
        Just(FrameType::IvcOpen),
        Just(FrameType::IvcOpenAck),
        Just(FrameType::Data),
        Just(FrameType::Close),
        Just(FrameType::Datagram),
        Just(FrameType::Ping),
        Just(FrameType::Pong),
        Just(FrameType::IvcAbort),
    ]
}

/// Attribute tokens: non-empty, free of the reserved characters.
fn token() -> impl Strategy<Value = String> {
    "[a-z0-9_.:-]{1,12}"
}

/// A complete random frame of any type.
fn random_frame() -> impl Strategy<Value = Frame> {
    (
        frame_type(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        machine_type(),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(ft, src, dst, msg_id, mt, payload)| {
            let mut h = FrameHeader::new(ft, UAdd::from_raw(src), UAdd::from_raw(dst), mt);
            h.msg_id = msg_id;
            Frame::new(h, Bytes::from(payload))
        })
}

proptest! {
    #[test]
    fn shift_u32_round_trips(values in proptest::collection::vec(any::<u32>(), 0..64)) {
        let mut w = ShiftWriter::new();
        for &v in &values {
            w.put_u32(v);
        }
        let bytes = w.into_bytes();
        prop_assert_eq!(bytes.len(), values.len() * 4);
        let mut r = ShiftReader::new(&bytes);
        for &v in &values {
            prop_assert_eq!(r.get_u32().unwrap(), v);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn shift_u64_round_trips(values in proptest::collection::vec(any::<u64>(), 0..32)) {
        let mut w = ShiftWriter::new();
        for &v in &values {
            w.put_u64(v);
        }
        let bytes = w.into_bytes();
        let mut r = ShiftReader::new(&bytes);
        for &v in &values {
            prop_assert_eq!(r.get_u64().unwrap(), v);
        }
    }

    #[test]
    fn bit_fields_round_trip(a in 0u32..16, b in 0u32..2, c in 0u32..1024, d in 0u32..65536) {
        let mut w = ShiftWriter::new();
        w.put_bit_fields(&[(a, 4), (b, 1), (c, 10), (d, 16)]).unwrap();
        let bytes = w.into_bytes();
        let mut r = ShiftReader::new(&bytes);
        let out = r.get_bit_fields(&[4, 1, 10, 16]).unwrap();
        prop_assert_eq!(out, vec![a, b, c, d]);
    }

    #[test]
    fn packed_scalars_round_trip(
        u in any::<u64>(),
        i in any::<i64>(),
        f in any::<f64>(),
        b in any::<bool>(),
        s in "\\PC{0,40}",
        blob in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assert_eq!(unpack_from_slice::<u64>(&pack_to_vec(&u)).unwrap(), u);
        prop_assert_eq!(unpack_from_slice::<i64>(&pack_to_vec(&i)).unwrap(), i);
        let g = unpack_from_slice::<f64>(&pack_to_vec(&f)).unwrap();
        prop_assert_eq!(g.to_bits(), f.to_bits());
        prop_assert_eq!(unpack_from_slice::<bool>(&pack_to_vec(&b)).unwrap(), b);
        prop_assert_eq!(unpack_from_slice::<String>(&pack_to_vec(&s.clone())).unwrap(), s);
        prop_assert_eq!(
            unpack_from_slice::<Blob>(&pack_to_vec(&Blob(blob.clone()))).unwrap(),
            Blob(blob)
        );
    }

    #[test]
    fn packed_vectors_and_options_round_trip(
        v in proptest::collection::vec(any::<u32>(), 0..32),
        o in proptest::option::of(any::<i32>()),
    ) {
        prop_assert_eq!(unpack_from_slice::<Vec<u32>>(&pack_to_vec(&v)).unwrap(), v);
        prop_assert_eq!(unpack_from_slice::<Option<i32>>(&pack_to_vec(&o)).unwrap(), o);
    }

    #[test]
    fn packed_truncation_never_panics(
        s in "\\PC{0,20}",
        cut in 0usize..100,
    ) {
        let bytes = pack_to_vec(&s);
        let cut = cut.min(bytes.len());
        // Any prefix either fails cleanly or (cut == len) succeeds.
        let _ = unpack_from_slice::<String>(&bytes[..cut]);
    }

    #[test]
    fn image_round_trips_between_compatible_machines(
        a in machine_type(),
        b in machine_type(),
        v in any::<u64>(),
        s in "\\PC{0,24}",
        vec in proptest::collection::vec(any::<i32>(), 0..16),
    ) {
        prop_assume!(a.image_compatible(b));
        prop_assert_eq!(
            image::image_from_slice::<u64>(&image::image_to_vec(&v, a), b).unwrap(), v);
        prop_assert_eq!(
            image::image_from_slice::<String>(&image::image_to_vec(&s.clone(), a), b).unwrap(), s);
        prop_assert_eq!(
            image::image_from_slice::<Vec<i32>>(&image::image_to_vec(&vec.clone(), a), b).unwrap(),
            vec);
    }

    #[test]
    fn image_across_incompatible_machines_swaps_u32(v in any::<u32>()) {
        let img = image::image_to_vec(&v, MachineType::Vax);
        let got = image::image_from_slice::<u32>(&img, MachineType::Sun).unwrap();
        prop_assert_eq!(got, v.swap_bytes());
    }

    #[test]
    fn conversion_mode_matches_compatibility(a in machine_type(), b in machine_type()) {
        let mode = ConvMode::select(a, b);
        prop_assert_eq!(mode == ConvMode::Image, a.image_compatible(b));
        // Symmetry.
        prop_assert_eq!(mode, ConvMode::select(b, a));
    }

    #[test]
    fn frame_header_round_trips(
        ft in frame_type(),
        src in any::<u64>(),
        dst in any::<u64>(),
        msg_id in any::<u64>(),
        reply_to in any::<u64>(),
        mt in machine_type(),
        error_code in any::<u32>(),
        aux in any::<u32>(),
        packed in any::<bool>(),
        reply_expected in any::<bool>(),
        connectionless in any::<bool>(),
    ) {
        let mut h = FrameHeader::new(ft, UAdd::from_raw(src), UAdd::from_raw(dst), mt);
        h.msg_id = msg_id;
        h.reply_to = reply_to;
        h.error_code = error_code;
        h.aux = aux;
        h.flags.set_conv_mode(if packed { ConvMode::Packed } else { ConvMode::Image });
        h.flags.reply_expected = reply_expected;
        h.flags.connectionless = connectionless;
        let bytes = h.to_shift();
        prop_assert_eq!(bytes.len(), ntcs_wire::HEADER_LEN);
        prop_assert_eq!(FrameHeader::from_shift(&bytes).unwrap(), h.clone());
        // The character-format baseline agrees semantically.
        prop_assert_eq!(FrameHeader::from_packed(&h.to_packed()).unwrap(), h);
    }

    #[test]
    fn frame_round_trips(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let h = FrameHeader::new(
            FrameType::Data,
            UAdd::from_raw(1),
            UAdd::from_raw(2),
            MachineType::Sun,
        );
        let f = Frame::new(h, payload.into());
        prop_assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn frame_decode_never_panics_on_garbage(garbage in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Frame::decode(&garbage);
        let _ = FrameHeader::from_shift(&garbage);
        let _ = FrameHeader::from_packed(&garbage);
    }

    #[test]
    fn attrs_wire_round_trips(pairs in proptest::collection::btree_map(token(), token(), 0..6)) {
        let mut a = AttrSet::new();
        for (k, v) in &pairs {
            a.set(k, v).unwrap();
        }
        prop_assert_eq!(AttrSet::from_wire(&a.to_wire()).unwrap(), a);
    }

    #[test]
    fn attr_query_semantics(
        pairs in proptest::collection::btree_map(token(), token(), 1..5),
    ) {
        let mut a = AttrSet::new();
        for (k, v) in &pairs {
            a.set(k, v).unwrap();
        }
        // A query built from any subset of the attributes matches.
        let mut q = AttrQuery::any();
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i % 2 == 0 {
                q = q.and_equals(k, v).unwrap();
            } else {
                q = q.and_exists(k).unwrap();
            }
        }
        prop_assert!(q.matches(&a));
        prop_assert_eq!(AttrQuery::from_wire(&q.to_wire()).unwrap(), q.clone());
        // Adding a constraint on an absent key breaks the match.
        let q2 = q.and_exists("definitely.absent.key").unwrap();
        prop_assert!(!q2.matches(&a));
    }

    #[test]
    fn phys_addr_opaque_round_trips(
        net in 0u32..64,
        path in "/[a-z0-9/:._-]{1,30}",
        host_octet in 1u8..255,
        port in any::<u16>(),
    ) {
        let m = PhysAddr::Mbx { network: NetworkId(net), path };
        prop_assert_eq!(PhysAddr::from_opaque(&m.to_opaque()).unwrap(), m);
        let t = PhysAddr::Tcp {
            network: NetworkId(net),
            host: format!("127.0.0.{host_octet}"),
            port,
        };
        prop_assert_eq!(PhysAddr::from_opaque(&t.to_opaque()).unwrap(), t);
    }

    #[test]
    fn name_db_invariants_under_random_ops(
        ops in proptest::collection::vec((0u8..4, 0usize..4, token()), 1..40),
    ) {
        let mut db = NameDb::new(0);
        let mut registered: Vec<UAdd> = Vec::new();
        for (op, idx, name) in ops {
            match op {
                // Register a fresh module under `name`.
                0 => {
                    let attrs = AttrSet::named(&name).unwrap();
                    let (u, _) = db.register(
                        attrs,
                        MachineType::Vax,
                        vec![PhysAddr::Mbx { network: NetworkId(0), path: format!("/m/{name}") }],
                        false,
                        vec![],
                        None,
                    );
                    registered.push(u);
                }
                // Relocate a previously registered module.
                1 if !registered.is_empty() => {
                    let prev = registered[idx % registered.len()];
                    let attrs = db.lookup(prev).unwrap().attrs.clone();
                    let (u, _) = db.register(
                        attrs,
                        MachineType::Sun,
                        vec![PhysAddr::Mbx { network: NetworkId(0), path: format!("/m2/{name}") }],
                        false,
                        vec![],
                        Some(prev),
                    );
                    registered.push(u);
                }
                // Deregister.
                2 if !registered.is_empty() => {
                    let u = registered[idx % registered.len()];
                    db.deregister(u);
                }
                _ => {}
            }
            // Invariant 1: resolve always returns a live record matching the query.
            let q = AttrQuery::by_name(&name).unwrap();
            if let Some(u) = db.resolve(&q) {
                let rec = db.lookup(u).unwrap();
                prop_assert!(rec.alive);
                prop_assert!(q.matches(&rec.attrs));
                // Invariant 2: it is the newest live generation of that name.
                for other in db.records() {
                    if other.alive && other.name() == rec.name() {
                        prop_assert!(other.generation <= rec.generation
                            || (other.generation == rec.generation));
                    }
                }
            }
            // Invariant 3: forwarding never returns a dead or older module.
            for &u in &registered {
                if let Ok(new) = db.forwarding(u) {
                    let old_gen = db.lookup(u).unwrap().generation;
                    let rec = db.lookup(new).unwrap();
                    prop_assert!(rec.alive);
                    prop_assert!(rec.generation > old_gen);
                }
            }
        }
    }

    #[test]
    fn routes_on_random_topologies_are_valid(
        n_nets in 2u32..7,
        gateways in proptest::collection::vec((0u32..7, 0u32..7), 0..8),
        src_net in 0u32..7,
        dst_net in 0u32..7,
    ) {
        let src_net = NetworkId(src_net % n_nets);
        let dst_net = NetworkId(dst_net % n_nets);
        let mut db = NameDb::new(0);
        for (i, (a, b)) in gateways.iter().enumerate() {
            let (a, b) = (NetworkId(a % n_nets), NetworkId(b % n_nets));
            if a == b {
                continue;
            }
            db.register(
                AttrSet::named(&format!("gw{i}")).unwrap(),
                MachineType::Apollo,
                vec![
                    PhysAddr::Mbx { network: a, path: format!("/gw{i}/a") },
                    PhysAddr::Mbx { network: b, path: format!("/gw{i}/b") },
                ],
                true,
                vec![a, b],
                None,
            );
        }
        let (dst, _) = db.register(
            AttrSet::named("target").unwrap(),
            MachineType::Vax,
            vec![PhysAddr::Mbx { network: dst_net, path: "/t".into() }],
            false,
            vec![],
            None,
        );
        match db.route(&[src_net], dst) {
            Ok((hops, dst_phys, _mt)) => {
                prop_assert_eq!(dst_phys.network(), dst_net);
                // Walk the chain: each hop's entry must be on the current
                // network, and the gateway must join it to the next one.
                let mut cur = src_net;
                for hop in &hops {
                    prop_assert_eq!(hop.entry.network(), cur);
                    let gw = db.lookup(hop.gateway).unwrap();
                    prop_assert!(gw.is_gateway && gw.alive);
                    prop_assert!(gw.gateway_networks.contains(&cur));
                    // Advance to some other network this gateway joins that
                    // continues the chain (BFS guarantees a simple path; the
                    // next hop's entry network tells us where we land).
                    cur = if let Some(next_hop) = hops.iter().skip_while(|h| *h != hop).nth(1) {
                        next_hop.entry.network()
                    } else {
                        dst_net
                    };
                    prop_assert!(gw.gateway_networks.contains(&cur));
                }
                if hops.is_empty() {
                    prop_assert_eq!(cur, dst_net);
                }
            }
            Err(_) => {
                // No route claimed: verify by reachability that none exists.
                let mut reach = vec![src_net];
                let mut changed = true;
                while changed {
                    changed = false;
                    for gw in db.gateways() {
                        if gw.gateway_networks.iter().any(|n| reach.contains(n)) {
                            for &n in &gw.gateway_networks {
                                if !reach.contains(&n) {
                                    reach.push(n);
                                    changed = true;
                                }
                            }
                        }
                    }
                }
                prop_assert!(!reach.contains(&dst_net), "route missed but reachable");
            }
        }
    }

    #[test]
    fn boolean_queries_agree_with_brute_force(
        seed in 0u64..1000,
        q_and in prop_oneof![Just("AND"), Just(""), Just("OR")],
        t1 in prop_oneof![Just("retrieval"), Just("network"), Just("system"), Just("zzz")],
        t2 in prop_oneof![Just("index"), Just("gateway"), Just("query"), Just("module")],
        neg in any::<bool>(),
    ) {
        use ntcs_ursa::{BoolExpr, Corpus, InvertedIndex};
        let corpus = Corpus::generate(seed, 60, 15);
        let idx = InvertedIndex::build(corpus.docs());
        let q = if neg {
            format!("{t1} {q_and} NOT {t2}")
        } else {
            format!("{t1} {q_and} {t2}")
        };
        let expr = BoolExpr::parse(&q).unwrap();
        // Round-trips through the query language.
        prop_assert_eq!(&BoolExpr::parse(&expr.to_query()).unwrap(), &expr);
        let fast = idx.search_boolean(&expr);
        let slow: Vec<u32> = corpus
            .docs()
            .iter()
            .filter(|d| expr.matches_doc(d))
            .map(|d| d.id)
            .collect();
        prop_assert_eq!(fast, slow, "query {}", q);
    }

    #[test]
    fn boolean_parser_never_panics(input in "\\PC{0,60}") {
        let _ = ntcs_ursa::BoolExpr::parse(&input);
    }

    #[test]
    fn uadd_structure(server in 0u16..0x8000, raw in any::<u64>()) {
        let g = ntcs_addr::UAddGenerator::new(server);
        let u = g.generate();
        prop_assert!(u.is_permanent());
        prop_assert_eq!(u.server_id().unwrap(), server);
        // TAdd flag is the top bit, always.
        let v = UAdd::from_raw(raw);
        prop_assert_eq!(v.is_temporary(), raw >> 63 == 1);
    }

    #[test]
    fn backoff_schedules_are_monotone_and_jitter_bounded(
        max_attempts in 1u32..24,
        base_ms in 1u64..200,
        cap_ms in 1u64..2_000,
        jitter in 0.0f64..1.0,
        deadline_ms in 1u64..20_000,
        seed in any::<u64>(),
    ) {
        use std::time::Duration;
        let p = ntcs::RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_millis(base_ms),
            max_backoff: Duration::from_millis(cap_ms),
            jitter,
            deadline: Duration::from_millis(deadline_ms),
            seed,
        };
        let delays: Vec<Duration> = p.schedule().collect();
        // Never more inter-attempt delays than retries.
        prop_assert!(delays.len() <= max_attempts.saturating_sub(1) as usize);
        // Monotone non-decreasing, except that the deadline cap may truncate
        // the final delay — and only the final one: a capped emit exhausts
        // the budget, so the iterator ends right after it.
        for (i, w) in delays.windows(2).enumerate() {
            let is_last = i + 2 == delays.len();
            let total: Duration = delays.iter().sum();
            prop_assert!(
                w[1] >= w[0] || (is_last && total == p.deadline),
                "schedule not monotone at {i}: {delays:?}"
            );
        }
        // Each delay lies within the jitter bounds of its nominal value —
        // jitter only ever *adds* — except where the deadline cap cuts the
        // tail short (only ever downward, and only once the budget is gone).
        let mut spent = Duration::ZERO;
        for (i, d) in delays.iter().enumerate() {
            let nominal = p.nominal_backoff(i as u32);
            let ceil = nominal.mul_f64(1.0 + jitter) + Duration::from_nanos(1);
            prop_assert!(*d <= ceil, "attempt {i}: {d:?} above jitter ceiling {ceil:?}");
            let capped_by_deadline = spent + *d >= p.deadline;
            prop_assert!(
                *d >= nominal || capped_by_deadline,
                "attempt {i}: {d:?} below nominal {nominal:?} without a deadline cap"
            );
            spent += *d;
        }
        // Total sleep time never exceeds the deadline budget.
        let total: Duration = delays.iter().sum();
        prop_assert!(total <= p.deadline, "{total:?} exceeds deadline {:?}", p.deadline);
    }

    #[test]
    fn header_v2_trace_words_round_trip(
        ft in frame_type(),
        trace_id in any::<u64>(),
        span in any::<u32>(),
        sent_at_us in any::<i64>(),
        reliable in any::<bool>(),
        aux in any::<u32>(),
    ) {
        let mut h = FrameHeader::new(ft, UAdd::from_raw(3), UAdd::from_raw(4), MachineType::Vax);
        h.trace_id = trace_id;
        h.span = span;
        h.sent_at_us = sent_at_us;
        h.flags.reliable = reliable;
        h.aux = aux;
        let bytes = h.to_shift();
        prop_assert_eq!(bytes.len(), ntcs_wire::HEADER_LEN);
        prop_assert_eq!(FrameHeader::from_shift(&bytes).unwrap(), h);
    }

    #[test]
    fn truncated_frames_always_err(f in random_frame(), cut in any::<usize>()) {
        let bytes = f.encode();
        let cut = cut % bytes.len();
        prop_assert!(Frame::decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn corrupted_pack_streams_never_panic(
        u in any::<u64>(),
        s in "\\PC{0,24}",
        blob in proptest::collection::vec(any::<u8>(), 0..32),
        idx in any::<usize>(),
        bit in 0u8..8,
        mode in 0u8..3,
    ) {
        let mut w = PackWriter::new();
        w.put_unsigned(u).put_str(&s).put_bytes(&blob);
        let mut bytes = w.into_bytes();
        let i = idx % bytes.len();
        match mode {
            0 => bytes.truncate(i),
            1 => bytes[i] ^= 1 << bit,
            _ => {
                let b = bytes[i];
                bytes.insert(i, b);
            }
        }
        // Reads either reproduce a value or fail cleanly; the strict tag
        // discipline never panics on garbage.
        let mut r = PackReader::new(&bytes);
        let _ = r
            .get_unsigned()
            .and_then(|_| r.get_str())
            .and_then(|_| r.get_bytes());
    }

    #[test]
    fn pack_duplicated_tag_always_errs(s in "\\PC{0,16}") {
        let mut w = PackWriter::new();
        w.put_str(&s);
        let bytes = w.into_bytes();
        // Reading with the wrong tag expectation fails cleanly.
        prop_assert!(PackReader::new(&bytes).get_unsigned().is_err());
        // A duplicated tag byte leaves the spare tag where the length
        // digits should start — rejected, not misparsed.
        let mut dup = bytes.clone();
        dup.insert(0, dup[0]);
        prop_assert!(PackReader::new(&dup).get_str().is_err());
    }

    #[test]
    fn shard_placement_is_total_and_stable(
        shards in 1usize..6,
        replicas in 0usize..3,
        name in token(),
        raw in any::<u64>(),
    ) {
        let groups: Vec<Vec<UAdd>> = (0..shards)
            .map(|s| {
                let mut g = vec![shard_primary_uadd(s)];
                g.extend((0..replicas).map(|r| shard_replica_uadd(s, r)));
                g
            })
            .collect();
        let map = ShardMap::new(groups);
        // Total over all names, and pure: the same name always lands on the
        // same shard, independent of group composition.
        let by_name = map.shard_for_name(&name);
        prop_assert!(by_name < shards);
        prop_assert_eq!(map.shard_for_name(&name), by_name);
        let solo = ShardMap::new((0..shards).map(|s| vec![shard_primary_uadd(s)]).collect());
        prop_assert_eq!(solo.shard_for_name(&name), by_name);
        // Total over the full UAdd space — arbitrary raw addresses (even
        // garbage) route to *some* shard, and temporaries pin to shard 0.
        let by_uadd = map.shard_for_uadd(UAdd::from_raw(raw));
        prop_assert!(by_uadd < shards);
        if UAdd::from_raw(raw).is_temporary() {
            prop_assert_eq!(by_uadd, 0);
        }
        // Round trip: a UAdd minted by shard s's generator routes back to s.
        for s in 0..shards {
            let minted = ntcs_addr::UAddGenerator::new(shard_primary_server_id(s)).generate();
            prop_assert_eq!(map.shard_for_uadd(minted), s);
        }
    }

    #[test]
    fn name_cache_never_serves_past_ttl(
        ops in proptest::collection::vec(
            (0u8..4, 0u64..8, 1u64..5_000, 0u64..10_000),
            1..50,
        ),
    ) {
        // Model-checked lease table: `model` is (uadd -> (expires_us, path)),
        // `None` expiry for a preload. The resolver must agree with it at
        // every step: a lease is never `Fresh` at or after its expiry, a
        // preload is always `Fresh`, and a leased write never demotes a
        // preload.
        let table = StaticResolver::new();
        let mut model: HashMap<u64, (Option<u64>, String)> = HashMap::new();
        let mut now: u64 = 0;
        for (op, slot, ttl_us, advance_us) in ops {
            let uadd = UAdd::from_raw(0x100 + slot);
            match op {
                0 => {
                    let path = format!("/m/{slot}/{ttl_us}");
                    table.cache_leased(module_at(uadd, &path), now + ttl_us);
                    let expiry = match model.get(&uadd.raw()) {
                        Some((None, _)) => None,
                        _ => Some(now + ttl_us),
                    };
                    model.insert(uadd.raw(), (expiry, path));
                }
                1 => {
                    let path = format!("/wk/{slot}");
                    table.preload(uadd, module_at(uadd, &path).addrs, MachineType::Sun);
                    model.insert(uadd.raw(), (None, path));
                }
                2 => {
                    table.invalidate(uadd);
                    model.remove(&uadd.raw());
                }
                _ => now += advance_us,
            }
            // Check every slot against the model at the current instant.
            for slot in 0..8u64 {
                let u = UAdd::from_raw(0x100 + slot);
                let probe = table.probe(u, now);
                match model.get(&u.raw()) {
                    Some((None, path)) => {
                        prop_assert_eq!(&probe, &LeaseProbe::Fresh(module_at(u, path)));
                        prop_assert_eq!(table.probe(u, u64::MAX), probe);
                    }
                    Some((Some(exp), path)) => {
                        let m = module_at(u, path);
                        let want = if now < *exp {
                            LeaseProbe::Fresh(m.clone())
                        } else {
                            LeaseProbe::Stale(m.clone())
                        };
                        prop_assert_eq!(probe, want);
                        prop_assert_eq!(table.probe(u, *exp), LeaseProbe::Stale(m.clone()));
                        prop_assert_eq!(table.probe(u, exp - 1), LeaseProbe::Fresh(m));
                    }
                    None => prop_assert_eq!(probe, LeaseProbe::Miss),
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
    }

    #[test]
    fn ns_invalidate_codec_round_trips_and_rejects_garbage(
        uadd in any::<u64>(),
        replacement in any::<u64>(),
        generation in any::<u32>(),
        src in machine_type(),
        dst in machine_type(),
        cut in any::<usize>(),
        bit in 0u8..8,
        idx in any::<usize>(),
    ) {
        let msg = NsInvalidate { uadd, replacement, generation };
        for mode in [ConvMode::Packed, ConvMode::Image] {
            // The stack only ever selects Image between image-compatible
            // machines (§5); don't ask the codec for a conversion the
            // negotiation forbids.
            if mode == ConvMode::Image && !src.image_compatible(dst) {
                continue;
            }
            let bytes = encode_payload(&msg, mode, src);
            let inbound = InboundPayload {
                type_id: NsInvalidate::TYPE_ID,
                mode,
                src_machine: src,
                bytes: bytes.clone(),
            };
            let got: NsInvalidate = inbound.decode(dst).unwrap();
            prop_assert_eq!(&got, &msg);

            // Truncated frames fail cleanly — never panic, never a
            // half-decoded invalidation.
            let cut = cut % (bytes.len() + 1);
            if cut < bytes.len() {
                let trunc = InboundPayload {
                    type_id: NsInvalidate::TYPE_ID,
                    mode,
                    src_machine: src,
                    bytes: bytes.slice(0..cut),
                };
                let _ = trunc.decode::<NsInvalidate>(dst);
            }

            // A flipped bit either still decodes to *some* well-formed
            // triple or errors cleanly; nothing panics.
            let mut corrupt = bytes.to_vec();
            if !corrupt.is_empty() {
                let i = idx % corrupt.len();
                corrupt[i] ^= 1 << bit;
                let mangled = InboundPayload {
                    type_id: NsInvalidate::TYPE_ID,
                    mode,
                    src_machine: src,
                    bytes: corrupt.into(),
                };
                let _ = mangled.decode::<NsInvalidate>(dst);
            }
        }
    }

    #[test]
    fn backoff_schedules_are_deterministic_per_seed(
        seed in any::<u64>(),
        max_attempts in 2u32..16,
    ) {
        use std::time::Duration;
        let p = ntcs::RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_millis(7),
            max_backoff: Duration::from_millis(500),
            jitter: 0.5,
            deadline: Duration::from_secs(30),
            seed,
        };
        let a: Vec<_> = p.schedule().collect();
        let b: Vec<_> = p.schedule().collect();
        prop_assert_eq!(a, b);
    }

    // The SHM ring is strict FIFO under any interleaving of produce and
    // consume, including wraparound: values pop in push order, none lost,
    // none duplicated, and a full ring refuses (never overwrites).
    #[test]
    fn shm_ring_is_fifo_under_arbitrary_interleaving(
        cap_pow in 1u32..6,
        ops in proptest::collection::vec(any::<bool>(), 1..300),
    ) {
        let ring = ntcs_ipcs::ShmRing::new(1usize << cap_pow);
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for push in ops {
            if push {
                match ring.try_push(next_push) {
                    Ok(()) => next_push += 1,
                    Err(v) => {
                        prop_assert_eq!(v, next_push);
                        prop_assert_eq!(ring.len(), ring.capacity());
                    }
                }
            } else if let Some(v) = ring.try_pop() {
                prop_assert_eq!(v, next_pop);
                next_pop += 1;
            }
            prop_assert!(ring.len() <= ring.capacity());
        }
        while let Some(v) = ring.try_pop() {
            prop_assert_eq!(v, next_pop);
            next_pop += 1;
        }
        prop_assert_eq!(next_pop, next_push);
    }

    // A concurrent producer/consumer pair over a small ring (forcing many
    // wraparounds) observes every multi-word value intact and in order —
    // no torn reads, no reordering.
    #[test]
    fn shm_ring_never_tears_across_threads(
        n in 1usize..400,
        cap_pow in 1u32..5,
    ) {
        let ring = std::sync::Arc::new(ntcs_ipcs::ShmRing::new(1usize << cap_pow));
        let producer_ring = std::sync::Arc::clone(&ring);
        let producer = std::thread::spawn(move || {
            for i in 0..n as u64 {
                // The payload's halves must always agree: a torn slot
                // would surface as a mismatched pair on the consumer.
                let mut v = (i, !i);
                while let Err(back) = producer_ring.try_push(v) {
                    v = back;
                    std::thread::yield_now();
                }
            }
        });
        let mut popped = 0u64;
        while popped < n as u64 {
            if let Some((a, b)) = ring.try_pop() {
                prop_assert_eq!(a, popped);
                prop_assert_eq!(b, !popped);
                popped += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        prop_assert!(ring.try_pop().is_none());
    }

    // The UDP datagram codec round-trips: every fragment decodes, indices
    // and totals are consistent, and concatenating payloads in index
    // order reconstructs the original frame.
    #[test]
    fn udp_codec_round_trips(
        seq in any::<u32>(),
        frame in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        let datagrams = ntcs_ipcs::encode_datagrams(seq, &frame);
        prop_assert!(!datagrams.is_empty());
        let total = datagrams.len() as u16;
        let mut rebuilt = Vec::new();
        for (ix, d) in datagrams.iter().enumerate() {
            let frag = ntcs_ipcs::decode_datagram(d)
                .expect("well-formed datagram must decode");
            prop_assert_eq!(frag.seq, seq);
            prop_assert_eq!(frag.index as usize, ix);
            prop_assert_eq!(frag.total, total);
            rebuilt.extend_from_slice(&frag.payload);
        }
        prop_assert_eq!(rebuilt, frame);
    }

    // Truncating a valid datagram at any point, or flipping any single
    // bit in it, never panics the decoder; a flip inside the checksummed
    // region (length word or payload) is always rejected.
    #[test]
    fn udp_decoder_survives_truncation_and_bit_flips(
        seq in any::<u32>(),
        frame in proptest::collection::vec(any::<u8>(), 0..256),
        cut in any::<usize>(),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let d = ntcs_ipcs::encode_datagrams(seq, &frame).remove(0);
        let truncated = &d[..cut % (d.len() + 1)];
        let _ = ntcs_ipcs::decode_datagram(truncated);

        let mut flipped = d.clone();
        let at = flip_at % flipped.len();
        flipped[at] ^= 1 << flip_bit;
        let decoded = ntcs_ipcs::decode_datagram(&flipped);
        // Bytes 0..4 are the magic (flip ⇒ not a datagram at all); byte 12
        // onward is the length word, the checksum word, and the payload —
        // a flip in any of them breaks the length or checksum match and
        // must be rejected. Flips in the seq / index / total words may
        // decode (loss shows up as reassembly mismatch, handled a layer
        // up), but must never panic.
        if !(4..12).contains(&at) {
            prop_assert!(decoded.is_none(), "flip at byte {} accepted", at);
        }
    }

    // Garbage bytes never panic the UDP decoder.
    #[test]
    fn udp_decoder_never_panics_on_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let _ = ntcs_ipcs::decode_datagram(&garbage);
    }
}
