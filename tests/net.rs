//! Network front-end integration tests: the wire codec must round-trip
//! and reject hostile bytes without panicking, a live server must answer
//! garbage with typed error frames (or close cleanly) while staying
//! available to well-behaved clients, a slow reader must surface as
//! `overloaded` sheds without stalling other connections, and every
//! answer over the socket must stay bit-identical to the offline scan —
//! the serving.rs linearizability property, now across TCP.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use proptest::prelude::*;
use simpim::core::executor::ExecutorConfig;
use simpim::mining::knn::standard::knn_standard;
use simpim::net::wire::{
    decode_request, decode_response, encode_request, encode_response, Envelope, Request, Response,
    HEADER_LEN,
};
use simpim::net::{ErrorCode, NetClient, NetConfig, NetServer};
use simpim::reram::{CrossbarConfig, PimConfig};
use simpim::serve::{ServeConfig, ServeEngine};
use simpim::similarity::{Dataset, Measure};

/// A small platform that fits the tiny test datasets quickly (the
/// serving.rs harness configuration).
fn exec_cfg() -> ExecutorConfig {
    ExecutorConfig {
        pim: PimConfig {
            crossbar: CrossbarConfig {
                size: 16,
                adc_bits: 12,
                ..Default::default()
            },
            num_crossbars: 4096,
            ..Default::default()
        },
        alpha: 1e6,
        operand_bits: 32,
        double_buffer: false,
        parallel_regions: true,
        faults: None,
        scrub_interval: 0,
    }
}

fn serve_cfg(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        max_batch: 4,
        queue_depth: 64,
        spare_rows: 8,
        executor: exec_cfg(),
        ..Default::default()
    }
}

fn grid_rows(n: usize, d: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((i * 11 + j * 17) % 89) as f64 / 88.0)
                .collect()
        })
        .collect()
}

fn open_server(rows: &[Vec<f64>], shards: usize, net_cfg: NetConfig) -> NetServer {
    let data = Dataset::from_rows(rows).unwrap();
    let engine = ServeEngine::open(serve_cfg(shards), &data).unwrap();
    NetServer::bind("127.0.0.1:0", net_cfg, engine).unwrap()
}

/// The offline truth over live `(id, row)` pairs, as in tests/serving.rs.
fn offline_truth(live: &[(usize, Vec<f64>)], query: &[f64], k: usize) -> Vec<(usize, f64)> {
    let ds = Dataset::from_rows(&live.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>()).unwrap();
    let res = knn_standard(&ds, query, k.min(ds.len()), Measure::EuclideanSq).unwrap();
    res.neighbors
        .iter()
        .map(|&(pos, v)| (live[pos].0, v))
        .collect()
}

// ---------------------------------------------------------------------
// Satellite: frame-codec round-trip + adversarial decoding (proptest).
// ---------------------------------------------------------------------

/// Printable-ASCII strings up to 64 bytes (the stub has no regex
/// strategies, so build them from a byte-vector strategy).
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..=0x7e, 0..64)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            0u32..=64,
            0u32..=10_000,
            prop::collection::vec(prop::num::f64::ANY, 0..32)
        )
            .prop_map(|(k, timeout_ms, vector)| Request::Query {
                k,
                timeout_ms,
                vector
            }),
        prop::collection::vec(prop::num::f64::ANY, 0..32).prop_map(|row| Request::Insert { row }),
        any::<u64>().prop_map(|id| Request::Delete { id }),
        Just(Request::Stats),
        Just(Request::Flush),
        Just(Request::Flight),
        Just(Request::Ping),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        prop::collection::vec((any::<u64>(), prop::num::f64::ANY), 0..32).prop_map(Response::Query),
        any::<u64>().prop_map(Response::Insert),
        any::<bool>().prop_map(Response::Delete),
        arb_text().prop_map(Response::Stats),
        Just(Response::Flush),
        arb_text().prop_map(Response::Flight),
        Just(Response::Pong),
        (0u16..=12, arb_text()).prop_map(|(c, message)| Response::Error {
            code: ErrorCode::from_u16(c),
            message
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Round-trip over every opcode with arbitrary payloads, including
    // NaN and infinities: compare re-encoded bytes, which is exactly the
    // bit-identity the serving path promises.
    #[test]
    fn request_frames_roundtrip_bit_identically(
        ids in (any::<u64>(), any::<u64>(), any::<u64>()),
        msg in arb_request(),
    ) {
        let env = Envelope { request_id: ids.0, trace_id: ids.1, span_id: ids.2, msg };
        let frame = encode_request(&env);
        let back = decode_request(&frame[4..]).unwrap();
        prop_assert_eq!(encode_request(&back), frame);
        prop_assert_eq!(back.request_id, env.request_id);
        prop_assert_eq!(back.trace_id, env.trace_id);
        prop_assert_eq!(back.span_id, env.span_id);
    }

    #[test]
    fn response_frames_roundtrip_bit_identically(
        ids in (any::<u64>(), any::<u64>(), any::<u64>()),
        msg in arb_response(),
    ) {
        let env = Envelope { request_id: ids.0, trace_id: ids.1, span_id: ids.2, msg };
        let frame = encode_response(&env);
        let back = decode_response(&frame[4..]).unwrap();
        prop_assert_eq!(encode_response(&back), frame);
    }

    // Decoding is total: arbitrary bytes either decode or return a
    // structured error — never a panic, never an allocation balloon.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = decode_request(&payload);
        let _ = decode_response(&payload);
    }

    // A valid frame corrupted at any single byte position still decodes
    // or fails structurally — and truncation at every length fails.
    #[test]
    fn corrupted_and_truncated_frames_fail_structurally(
        msg in arb_request(),
        corrupt_at in 0usize..1_000_000,
        xor in 1u8..=255,
    ) {
        let frame = encode_request(&Envelope {
            request_id: 1, trace_id: 2, span_id: 3, msg,
        });
        let payload = &frame[4..];
        let mut bent = payload.to_vec();
        let pos = corrupt_at % bent.len();
        bent[pos] ^= xor;
        let _ = decode_request(&bent); // must not panic
        for cut in 0..payload.len() {
            prop_assert!(decode_request(&payload[..cut]).is_err());
        }
    }
}

// ---------------------------------------------------------------------
// Satellite: adversarial bytes against a live server.
// ---------------------------------------------------------------------

/// Reads one length-prefixed frame with a read deadline; panics on a
/// malformed prefix so a hung server fails the test instead of wedging.
fn read_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match stream.read(&mut len[got..]) {
            Ok(0) => return None,
            Ok(n) => got += n,
            Err(e) => panic!("reading frame length: {e}"),
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    assert!(
        (HEADER_LEN..(1 << 24)).contains(&len),
        "hostile length {len}"
    );
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("frame body");
    Some(payload)
}

#[test]
fn garbage_frames_get_typed_errors_and_never_kill_the_server() {
    let rows = grid_rows(12, 4);
    let server = open_server(&rows, 2, NetConfig::default());
    let addr = server.local_addr();

    // 1. A structurally valid frame with an unknown opcode: the server
    //    must answer a typed bad_frame error carrying our request id,
    //    and keep the connection alive for the next (valid) request.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut bad = encode_request(&Envelope {
        request_id: 77,
        trace_id: 5,
        span_id: 6,
        msg: Request::Ping,
    });
    bad[5] = 0x5A; // opcode byte
    raw.write_all(&bad).unwrap();
    let reply = decode_response(&read_frame(&mut raw).unwrap()).unwrap();
    assert_eq!(reply.request_id, 77, "error frame must echo the request id");
    assert!(matches!(
        reply.msg,
        Response::Error {
            code: ErrorCode::BadFrame,
            ..
        }
    ));
    let ping = encode_request(&Envelope {
        request_id: 78,
        trace_id: 0,
        span_id: 0,
        msg: Request::Ping,
    });
    raw.write_all(&ping).unwrap();
    let reply = decode_response(&read_frame(&mut raw).unwrap()).unwrap();
    assert!(
        matches!(reply.msg, Response::Pong),
        "connection must survive a request-scoped bad frame"
    );

    // 2. A wrong version byte: typed unsupported_version error, then the
    //    server closes (nothing after an alien header can be trusted).
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut alien = ping.clone();
    alien[4] = 9; // version byte
    raw.write_all(&alien).unwrap();
    let reply = decode_response(&read_frame(&mut raw).unwrap()).unwrap();
    assert!(matches!(
        reply.msg,
        Response::Error {
            code: ErrorCode::UnsupportedVersion,
            ..
        }
    ));
    assert!(
        read_frame(&mut raw).is_none(),
        "server must close after version skew"
    );

    // 3. A hostile length prefix: typed error frame, then close — and
    //    no multi-gigabyte allocation happened server-side.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.write_all(&[0u8; 64]).unwrap();
    let reply = decode_response(&read_frame(&mut raw).unwrap()).unwrap();
    assert!(matches!(
        reply.msg,
        Response::Error {
            code: ErrorCode::BadFrame,
            ..
        }
    ));
    assert!(read_frame(&mut raw).is_none());

    // 4. Pure garbage bytes then hangup: the server just closes.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
    drop(raw);

    // 5. A frame whose body contradicts its counts: typed error, alive.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut lying = encode_request(&Envelope {
        request_id: 99,
        trace_id: 0,
        span_id: 0,
        msg: Request::Query {
            k: 3,
            timeout_ms: 0,
            vector: vec![0.5; 4],
        },
    });
    // Bump the declared dimension without adding bytes.
    let dim_off = 4 + HEADER_LEN + 8;
    lying[dim_off] = lying[dim_off].wrapping_add(1);
    raw.write_all(&lying).unwrap();
    let reply = decode_response(&read_frame(&mut raw).unwrap()).unwrap();
    assert_eq!(reply.request_id, 99);
    assert!(matches!(
        reply.msg,
        Response::Error {
            code: ErrorCode::BadFrame,
            ..
        }
    ));

    // Through all of it, a well-behaved client still gets exact answers.
    let client = NetClient::connect(addr).unwrap();
    let live: Vec<(usize, Vec<f64>)> = rows.iter().cloned().enumerate().collect();
    let got = client.knn(&rows[0], 3, Duration::from_secs(5)).unwrap();
    let truth = offline_truth(&live, &rows[0], 3);
    assert_eq!(
        got,
        truth
            .iter()
            .map(|&(id, v)| (id as u64, v))
            .collect::<Vec<_>>()
    );
    assert!(server.stats().decode_errors >= 4);
}

// ---------------------------------------------------------------------
// Satellite: slow reader -> shed path, no cross-connection stalls.
// ---------------------------------------------------------------------

#[test]
fn slow_reader_is_shed_and_does_not_stall_other_connections() {
    let rows = grid_rows(16, 4);
    let cfg = NetConfig {
        window: 2,
        write_timeout: Duration::from_secs(2),
        ..Default::default()
    };
    let server = open_server(&rows, 2, cfg);
    let addr = server.local_addr();

    // The abuser: floods 40 pipelined queries and reads nothing. With a
    // window of 2, almost all must be shed with typed overloaded frames
    // — the transport edge of the admission-control path.
    let mut abuser = TcpStream::connect(addr).unwrap();
    for i in 0..40u64 {
        let frame = encode_request(&Envelope {
            request_id: i,
            trace_id: 0,
            span_id: 0,
            msg: Request::Query {
                k: 3,
                timeout_ms: 5_000,
                vector: rows[0].clone(),
            },
        });
        abuser.write_all(&frame).unwrap();
    }

    // Meanwhile a polite client on its own connection must make normal
    // progress, answering bit-identically to the offline scan.
    let client = NetClient::connect(addr).unwrap();
    let live: Vec<(usize, Vec<f64>)> = rows.iter().cloned().enumerate().collect();
    for q in rows.iter().take(8) {
        let got = client.knn(q, 3, Duration::from_secs(5)).unwrap();
        let truth = offline_truth(&live, q, 3);
        assert_eq!(
            got,
            truth
                .iter()
                .map(|&(id, v)| (id as u64, v))
                .collect::<Vec<_>>()
        );
    }

    // Now drain the abuser's socket: every request got a frame back —
    // answered or typed-overloaded, never silence, never a hang.
    // Shed frames are written by the same queue as answers, so responses
    // come back in request order whatever mix of the two they are.
    let mut answered = 0u64;
    let mut shed = 0u64;
    for i in 0..40u64 {
        let payload = read_frame(&mut abuser).expect("every request gets a response frame");
        let reply = decode_response(&payload).unwrap();
        assert_eq!(reply.request_id, i, "responses must keep request order");
        match reply.msg {
            Response::Query(_) => answered += 1,
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            } => shed += 1,
            other => panic!("unexpected response to the abuser: {other:?}"),
        }
    }
    assert_eq!(answered + shed, 40);
    assert!(shed > 0, "a window of 2 must shed a 40-deep flood");

    // A pipelined mix of all seven opcodes on the same connection, two
    // of them refused by the engine (a row outside [0, 1] after
    // admission, a query of the wrong width at admission): one response
    // per request, in request order, each of a kind its request allows.
    // Nothing here changes the rows (the insert is refused, the delete
    // misses).
    let mixed = |i: u64| match i % 8 {
        0 => Request::Query {
            k: 3,
            timeout_ms: 5_000,
            vector: rows[1].clone(),
        },
        1 => Request::Ping,
        2 => Request::Insert {
            row: vec![0.5, 0.5, 0.5, 1.5],
        },
        3 => Request::Stats,
        4 => Request::Delete { id: 10_000 },
        5 => Request::Flight,
        6 => Request::Flush,
        _ => Request::Query {
            k: 3,
            timeout_ms: 5_000,
            vector: vec![0.5; 3],
        },
    };
    let send = |stream: &mut TcpStream, request_id: u64, msg: Request| {
        let frame = encode_request(&Envelope {
            request_id,
            trace_id: 0,
            span_id: 0,
            msg,
        });
        stream.write_all(&frame).unwrap();
    };
    for i in 0..24u64 {
        send(&mut abuser, 100 + i, mixed(i));
    }
    for i in 0..24u64 {
        let reply = decode_response(&read_frame(&mut abuser).unwrap()).unwrap();
        assert_eq!(
            reply.request_id,
            100 + i,
            "responses must keep request order"
        );
        let allowed = match (i % 8, &reply.msg) {
            (_, Response::Error { code, .. }) if *code == ErrorCode::Overloaded => {
                shed += 1;
                !matches!(i % 8, 1 | 3 | 5) // control frames are never shed
            }
            (0, Response::Query(_))
            | (1, Response::Pong)
            | (3, Response::Stats(_))
            | (4, Response::Delete(false))
            | (5, Response::Flight(_))
            | (6, Response::Flush) => true,
            (2 | 7, Response::Error { code, .. }) => *code == ErrorCode::InvalidArgument,
            _ => false,
        };
        assert!(allowed, "request {i} ({:?}) got {:?}", mixed(i), reply.msg);
    }

    // No window slot leaked through any shed or engine-error reply: three
    // refused inserts one after another (more than the window holds)
    // each reach the engine, and the connection still answers exactly.
    for i in 0..3u64 {
        send(&mut abuser, 200 + i, mixed(2));
        let reply = decode_response(&read_frame(&mut abuser).unwrap()).unwrap();
        assert!(
            matches!(&reply.msg, Response::Error { code, .. } if *code == ErrorCode::InvalidArgument),
            "{:?}",
            reply.msg
        );
    }
    send(&mut abuser, 300, mixed(0));
    let reply = decode_response(&read_frame(&mut abuser).unwrap()).unwrap();
    let truth: Vec<(u64, f64)> = offline_truth(&live, &rows[1], 3)
        .iter()
        .map(|&(id, v)| (id as u64, v))
        .collect();
    assert!(matches!(reply.msg, Response::Query(got) if got == truth));

    // Every frame read was answered by exactly one frame written (the
    // write counter trails the socket by an instant, hence the poll).
    let mut stats = server.stats();
    for _ in 0..200 {
        if stats.frames_tx == stats.frames_rx {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        stats = server.stats();
    }
    assert_eq!(stats.frames_tx, stats.frames_rx);
    assert!(
        stats.sheds() >= shed,
        "server accounting must see the sheds"
    );
    assert_eq!(stats.transport_errors, 0);
}

// ---------------------------------------------------------------------
// Satellite: socket-path linearizability — concurrent net mutations vs
// the offline scan, bit-identical (the serving.rs harness over TCP).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn networked_mutations_and_queries_match_the_offline_scan(
        shape in ((6usize..=12, 2usize..=4), (1usize..=2, 1usize..=4)),
        flat in prop::collection::vec(0.0f64..=1.0, 12 * 4),
        inserts in prop::collection::vec(prop::collection::vec(0.0f64..=1.0, 4), 0..3),
        delete_picks in prop::collection::vec(0usize..1000, 0..3),
        queries in prop::collection::vec(prop::collection::vec(0.0f64..=1.0, 4), 1..3),
    ) {
        let ((n, d), (shards, k)) = shape;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| flat[i * d..(i + 1) * d].to_vec()).collect();
        let shards = shards.min(n);
        let server = open_server(&rows, shards, NetConfig::default());
        let client = NetClient::connect(server.local_addr()).unwrap();

        // Mirror model, as in tests/serving.rs — but every mutation goes
        // over the socket.
        let mut live: Vec<(usize, Vec<f64>)> = rows.iter().cloned().enumerate().collect();
        for (next_id, row) in (n..).zip(inserts.iter()) {
            let row: Vec<f64> = row[..d].to_vec();
            let id = client.insert(&row).unwrap();
            prop_assert_eq!(id, next_id as u64);
            live.push((id as usize, row));
        }
        for pick in &delete_picks {
            if live.len() <= shards {
                break; // keep every shard non-empty
            }
            let pos = pick % live.len();
            let (id, _) = live.remove(pos);
            prop_assert!(client.delete(id as u64).unwrap());
            prop_assert!(!client.delete(id as u64).unwrap(), "double delete must miss");
        }

        // Pipelined queries: submit all, then resolve — the responses
        // must each equal the offline truth bit-for-bit.
        let handles: Vec<_> = queries
            .iter()
            .map(|q| {
                client
                    .submit(Request::Query {
                        k: k as u32,
                        timeout_ms: 5_000,
                        vector: q[..d].to_vec(),
                    })
                    .unwrap()
            })
            .collect();
        for (q, h) in queries.iter().zip(handles) {
            let got = h.wait_query().unwrap();
            let truth = offline_truth(&live, &q[..d], k);
            let truth: Vec<(u64, f64)> = truth.iter().map(|&(id, v)| (id as u64, v)).collect();
            prop_assert_eq!(&got, &truth);
        }

        // Compaction over the wire must not change any answer.
        client.flush().unwrap();
        for q in &queries {
            let got = client.knn(&q[..d], k, Duration::from_secs(5)).unwrap();
            let truth = offline_truth(&live, &q[..d], k);
            let truth: Vec<(u64, f64)> = truth.iter().map(|&(id, v)| (id as u64, v)).collect();
            prop_assert_eq!(&got, &truth);
        }
    }
}

// ---------------------------------------------------------------------
// Cross-wire trace propagation: the trace id a client mints must appear
// as the flight-recorder trace id server-side, with a valid span tree.
// ---------------------------------------------------------------------

#[test]
fn client_trace_ids_reconstruct_in_the_server_flight_dump() {
    let rows = grid_rows(12, 4);
    let server = open_server(&rows, 2, NetConfig::default());
    let client = NetClient::connect(server.local_addr()).unwrap();

    let handle = client
        .submit(Request::Query {
            k: 3,
            timeout_ms: 5_000,
            vector: rows[1].clone(),
        })
        .unwrap();
    let minted = handle.trace.trace_id;
    assert_ne!(minted, 0);
    handle.wait_query().unwrap();

    let dump = client.flight_dump().unwrap();
    let traces = simpim::serve::flight::parse_dump(&dump).unwrap();
    let ours = traces
        .iter()
        .find(|t| t.trace_id == minted)
        .expect("the client-minted trace id must appear in the server flight dump");
    ours.validate_tree().unwrap();
    assert!(!ours.spans.is_empty());

    // The stats opcode reports both sections of the taxonomy.
    let stats = client.stats_json().unwrap();
    let v = simpim::obs::Json::parse(&stats).unwrap();
    assert!(v.get("engine").is_some());
    assert!(v.get("net").is_some());
}
