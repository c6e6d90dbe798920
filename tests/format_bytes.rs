//! Byte pins for the three on-disk / on-wire formats: a segment file, a
//! sealed checkpoint, and every wire-frame envelope. Each test builds its
//! bytes from fixed inputs and asserts their FNV-1a 64 digest, so a change
//! that moves a single written byte — a reordered field, a different
//! header, a new codec choice — fails here even when every round trip
//! still succeeds. The digest is computed locally so the pins do not
//! depend on the codecs under test.

use std::sync::Arc;

use skyweb::core::{
    encode_error_reply, encode_hello, encode_plan, encode_responses, encode_welcome, Discoverer,
    DiscoveryDriver, DriverConfig, Hello, MqDbSky, QueryPlan, StepOutcome, Welcome, WIRE_PROTOCOL,
};
use skyweb::hidden_db::{
    HiddenDb, InterfaceType, Predicate, PrefixGroup, Query, QueryError, QueryResponse,
    SchemaBuilder, SegmentError, SegmentWriter, Tuple,
};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn pin(what: &str, bytes: &[u8], len: usize, digest: u64) {
    assert_eq!(
        (bytes.len(), fnv1a64(bytes)),
        (len, digest),
        "{what}: got len {} digest {:#018x}",
        bytes.len(),
        fnv1a64(bytes)
    );
}

/// 150 tuples over two ranking attributes and one filter, top-4 by sum.
fn small_db() -> HiddenDb {
    let schema = SchemaBuilder::new()
        .ranking("a", 10, InterfaceType::Rq)
        .ranking("b", 10, InterfaceType::Sq)
        .filtering("f", 3)
        .build();
    let tuples: Vec<Tuple> = (0..150u64)
        .map(|i| {
            let v = u32::try_from(i).unwrap();
            Tuple::new(i, vec![v % 10, (v * 7) % 10, v % 3])
        })
        .collect();
    HiddenDb::with_sum_ranking(schema, tuples, 4)
}

#[test]
fn segment_bytes_are_pinned() {
    let bytes = SegmentWriter::new()
        .with_chunk_size(64)
        .write(&small_db())
        .unwrap();
    pin("segment", &bytes, 4090, 0x9a4e_0228_28e5_88b0);
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let db = small_db();
    let machine = MqDbSky::new().machine(&db).unwrap();
    let mut driver = DiscoveryDriver::new(&db, machine, DriverConfig::new().with_max_batch(1));
    for _ in 0..3 {
        assert!(matches!(
            driver.step().unwrap(),
            StepOutcome::Progressed { .. }
        ));
    }
    let bytes = driver.pause().to_bytes().unwrap();
    pin("checkpoint", &bytes, 298, 0x5875_4986_077d_8e27);
}

#[test]
fn wire_frame_bytes_are_pinned() {
    let queries = vec![
        Query::select_all(),
        Query::new(vec![Predicate::lt(0, 5), Predicate::ge(1, 2)]),
        Query::new(vec![Predicate::eq(2, 1)]),
    ];
    pin(
        "plan",
        &encode_plan(&QueryPlan::new(queries.clone())),
        95,
        0x9e93_54b6_905b_14ec,
    );
    pin(
        "grouped plan",
        &encode_plan(&QueryPlan::with_groups(
            queries,
            vec![PrefixGroup {
                len: 3,
                prefix_len: 0,
            }],
        )),
        119,
        0xcb92_d48c_5de0_08c3,
    );

    let responses = vec![
        QueryResponse {
            tuples: vec![
                Arc::new(Tuple::new(3, vec![1, 2, 0])),
                Arc::new(Tuple::new(9, vec![0, 7, 2])),
            ],
            overflowed: true,
        },
        QueryResponse {
            tuples: Vec::new(),
            overflowed: false,
        },
    ];
    pin(
        "responses",
        &encode_responses(&responses),
        105,
        0xa692_930b_5a27_e794,
    );

    let hello = Hello {
        protocol: WIRE_PROTOCOL,
        label: "tenant-rq".to_string(),
    };
    pin("hello", &encode_hello(&hello), 44, 0x1643_7c25_26f8_30f6);

    let welcome = Welcome {
        protocol: WIRE_PROTOCOL,
        ranker: "sum".to_string(),
        k: 4,
        tuple_count: 150,
        schema: small_db().schema().clone(),
    };
    pin(
        "welcome",
        &encode_welcome(&welcome),
        107,
        0x7c56_3fac_4b36_3c6c,
    );

    pin(
        "error reply",
        &encode_error_reply(&responses[..1], &QueryError::Throttled),
        97,
        0x6913_75e5_f025_5be3,
    );
    pin(
        "storage error reply",
        &encode_error_reply(
            &[],
            &QueryError::Storage {
                error: SegmentError::UnsupportedVersion { found: 1 },
            },
        ),
        35,
        0xb88b_ef6e_23ca_26de,
    );
}
