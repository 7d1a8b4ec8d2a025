//! Serve-protocol conformance: every request variant round-trips through
//! its canonical wire encoding byte-identically, two bodies parse to equal
//! requests exactly when their canonical encodings are equal (what batch
//! dedup keys on), malformed or oversized lines are rejected with an error
//! response (never a panic, never daemon death), and batch answers are
//! byte-identical to serial answers, whether a query was a cache hit or
//! had to be planned.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use fusecu::dataflow::CostModel;
use fusecu::models::zoo;
use fusecu::server::{ParseError, Request, Server, MAX_WORK};
use fusecu_search::Parallelism;

fn model_token(rw: bool) -> &'static str {
    if rw {
        "rw"
    } else {
        "paper"
    }
}

const ORDERS: [&str; 6] = ["mkl", "mlk", "kml", "klm", "lmk", "lkm"];

/// A valid canonical body of verb `verb` (0..5), each field drawn from
/// `raw` reduced into its range. Bodies built from two draws that differ
/// in one entry differ in at most the fields that entry sets.
fn body_from(verb: usize, raw: &[u64]) -> String {
    let dim = |i: usize| 1 + raw[i] % 48;
    let bs = |i: usize| 3 + raw[i] % 4096;
    let model = |i: usize| model_token(raw[i] % 2 == 1);
    match verb {
        0 => "ping".to_string(),
        1 => format!(
            "optimize-op {} {} {} {} {}",
            dim(0),
            dim(1),
            dim(2),
            bs(3),
            model(4)
        ),
        2 => {
            let (m, k, l) = (dim(0), dim(1), dim(2));
            format!(
                "score {m} {k} {l} {} {} {} {} {}",
                ORDERS[(raw[3] % 6) as usize],
                1 + raw[4] % m,
                1 + raw[5] % k,
                1 + raw[6] % l,
                model(7)
            )
        }
        3 => {
            let (m, k, l1, l2) = (dim(2), dim(3), dim(4), dim(5));
            format!(
                "plan-chain {} {} 2 {m} {k} {l1} {m} {l1} {l2}",
                bs(0),
                model(1)
            )
        }
        _ => {
            // Node 0 feeds nodes 1 and 2; `raw[8]` picks which links exist.
            let (m, k, mid, l1, l2) = (dim(2), dim(3), dim(4), dim(5), dim(6));
            let count = 1 + raw[7] % 4;
            let links = ["0", "1 0 1", "1 0 2", "2 0 1 0 2"][(raw[8] % 4) as usize];
            format!(
                "plan-graph {} {} 3 0 {m} {k} {mid} {count} 1 {m} {mid} {l1} {count} 2 {m} {mid} {l2} {count} {links}",
                bs(0),
                model(1)
            )
        }
    }
}

fn hash_of(req: &Request) -> u64 {
    let mut h = DefaultHasher::new();
    req.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `optimize-op` bodies round-trip: parse -> canonical -> parse is the
    /// identity and the canonical encoding reproduces the input bytes.
    #[test]
    fn optimize_op_round_trips(
        m in 1u64..4096,
        k in 1u64..4096,
        l in 1u64..4096,
        bs in 3u64..10_000_000,
        rw in any::<bool>(),
    ) {
        let body = format!("optimize-op {m} {k} {l} {bs} {}", model_token(rw));
        let req = Request::parse(&body).expect("valid body");
        prop_assert_eq!(&req.canonical(), &body);
        prop_assert_eq!(Request::parse(&req.canonical()).expect("canonical parses"), req);
    }

    /// `score` bodies round-trip across every loop order and in-range
    /// tiling.
    #[test]
    fn score_round_trips(
        m in 1u64..1024,
        k in 1u64..1024,
        l in 1u64..1024,
        order_ix in 0u64..6,
        seed in any::<u64>(),
        rw in any::<bool>(),
    ) {
        let (tm, tk, tl) = (1 + seed % m, 1 + (seed >> 16) % k, 1 + (seed >> 32) % l);
        let body = format!(
            "score {m} {k} {l} {} {tm} {tk} {tl} {}",
            ORDERS[order_ix as usize],
            model_token(rw)
        );
        let req = Request::parse(&body).expect("valid body");
        prop_assert_eq!(&req.canonical(), &body);
        prop_assert_eq!(Request::parse(&req.canonical()).expect("canonical parses"), req);
    }

    /// `plan-chain` bodies round-trip: chains built left-to-right so every
    /// producer/consumer pair composes.
    #[test]
    fn plan_chain_round_trips(
        m in 1u64..512,
        k0 in 1u64..512,
        dims in proptest::collection::vec(1u64..512, 1..5),
        bs in 3u64..10_000_000,
        rw in any::<bool>(),
    ) {
        let mut body = format!("plan-chain {bs} {} {}", model_token(rw), dims.len());
        let mut k = k0;
        for &l in &dims {
            body.push_str(&format!(" {m} {k} {l}"));
            k = l;
        }
        let req = Request::parse(&body).expect("valid body");
        prop_assert_eq!(&req.canonical(), &body);
        prop_assert_eq!(Request::parse(&req.canonical()).expect("canonical parses"), req);
    }

    /// `plan-graph` bodies round-trip on generated two-chain DAGs with a
    /// shared producer (the smallest graph exercising both node and link
    /// encodings).
    #[test]
    fn plan_graph_round_trips(
        m in 1u64..256,
        k in 1u64..256,
        mid in 1u64..256,
        l1 in 1u64..256,
        l2 in 1u64..256,
        count in 1u64..32,
        bs in 3u64..10_000_000,
        rw in any::<bool>(),
    ) {
        // Node 0 feeds nodes 1 and 2: consumer m/k must equal producer m/l.
        let body = format!(
            "plan-graph {bs} {} 3 0 {m} {k} {mid} {count} 1 {m} {mid} {l1} {count} 2 {m} {mid} {l2} {count} 2 0 1 0 2",
            model_token(rw)
        );
        let req = Request::parse(&body).expect("valid body");
        prop_assert_eq!(&req.canonical(), &body);
        prop_assert_eq!(Request::parse(&req.canonical()).expect("canonical parses"), req);
    }

    /// Dedup on the parsed request is dedup on the canonical body: over
    /// pairs of valid bodies that are equal or differ in one field, the
    /// requests are equal (and hash equal) exactly when their canonical
    /// encodings are, and those are the bodies themselves.
    #[test]
    fn parsed_equality_is_canonical_equality(
        verb in 0usize..5,
        raw in proptest::collection::vec(any::<u64>(), 9..10),
        which in 0usize..9,
        bump in 0u64..3,
    ) {
        let mut other = raw.clone();
        other[which] = other[which].wrapping_add(bump);
        let (a, b) = (body_from(verb, &raw), body_from(verb, &other));
        let ra = Request::parse(&a).expect("valid body");
        let rb = Request::parse(&b).expect("valid body");
        prop_assert_eq!(&ra.canonical(), &a);
        prop_assert_eq!(&rb.canonical(), &b);
        prop_assert_eq!(ra == rb, ra.canonical() == rb.canonical());
        prop_assert_eq!(ra == rb, a == b);
        prop_assert!(ra != rb || hash_of(&ra) == hash_of(&rb));
    }

    /// A batch answers byte for byte as serial evaluation does when it
    /// mixes queries warmed into the caches beforehand (answered on the
    /// batch thread), cold ones (planned through the parallel engine), a
    /// duplicate and a malformed line.
    #[test]
    fn batch_equals_serial_over_warm_and_cold_queries(
        draws in proptest::collection::vec(
            (0usize..5, proptest::collection::vec(any::<u64>(), 9..10), any::<bool>()),
            1..24,
        ),
        dup in any::<usize>(),
    ) {
        let bodies: Vec<String> = draws
            .iter()
            .map(|(verb, raw, _)| body_from(*verb, raw))
            .collect();
        let warmer = Server::new(Parallelism::Serial);
        for (body, (_, _, warm)) in bodies.iter().zip(&draws) {
            if *warm {
                warmer.answer_line(&format!("w {body}"));
            }
        }
        let mut lines: Vec<String> = bodies
            .iter()
            .enumerate()
            .map(|(i, body)| format!("{i} {body}"))
            .collect();
        lines.insert(dup % lines.len(), format!("d {}", bodies[dup % bodies.len()]));
        lines.push("x frobnicate".to_string());
        let batch = Server::new(Parallelism::Auto).answer_batch(&lines);
        let serial = Server::new(Parallelism::Serial);
        let want: Vec<String> = lines.iter().map(|line| serial.answer_line(line)).collect();
        prop_assert_eq!(batch, want);
    }

    /// Arbitrary junk never panics the parser: it either parses (and then
    /// must round-trip) or yields a typed error.
    #[test]
    fn arbitrary_lines_never_panic(
        junk in proptest::collection::vec(any::<u64>(), 1..12),
        verb_ix in 0u64..8,
    ) {
        let verb = [
            "ping", "optimize-op", "plan-chain", "plan-graph", "score",
            "", "quantum-leap", "optimize-op\u{7}",
        ][verb_ix as usize];
        let mut body = verb.to_string();
        for j in &junk {
            body.push_str(&format!(" {j}"));
        }
        match Request::parse(&body) {
            Ok(req) => {
                prop_assert_eq!(Request::parse(&req.canonical()).expect("canonical parses"), req);
            }
            Err(e) => {
                // The wire code is stable and non-empty.
                prop_assert!(!e.code().is_empty());
            }
        }
    }
}

/// What request lines are drawn from: digits, letters and `-`, every
/// ASCII whitespace byte (`\x0B` included, which
/// `split_ascii_whitespace` does not split on), non-ASCII spaces, and
/// characters that are not whitespace (U+001F, U+200B, `é`).
const LINE_CHARS: [char; 21] = [
    '0', '7', '9', 'a', 'k', 'z', 'Q', '-', ' ', '\t', '\n', '\x0B', '\x0C', '\r', '\u{85}',
    '\u{A0}', '\u{2003}', '\u{3000}', '\u{1F}', '\u{200B}', '\u{E9}',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A reply echoes the id that `trim()` then
    /// `split_once(char::is_whitespace)` splits off the line, answered at
    /// read time or not.
    #[test]
    fn reply_id_is_the_lines_first_token(
        picks in proptest::collection::vec(0usize..LINE_CHARS.len(), 0..48),
    ) {
        let line: String = picks.iter().map(|&i| LINE_CHARS[i]).collect();
        let trimmed = line.trim();
        let id = match trimmed.split_once(char::is_whitespace) {
            Some((id, _)) => id,
            None if trimmed.is_empty() => "-",
            None => trimmed,
        };
        let server = Server::new(Parallelism::Serial);
        let reply = server.answer_line(&line);
        prop_assert_eq!(reply.split_once(' ').map(|(head, _)| head), Some(id));
        prop_assert_eq!(server.answer_now(&line), Some(reply));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A line is answered at read time, then the same body under a second
    /// id, which the reply memo answers; both replies equal `answer_line`'s.
    /// Ids are drawn from the characters of `LINE_CHARS` that are not
    /// whitespace, and the gaps around and between tokens from those that
    /// are.
    #[test]
    fn a_repeated_body_is_answered_from_the_memo_as_serially(
        verb in 0usize..5,
        raw in proptest::collection::vec(any::<u64>(), 9..10),
        ids in proptest::collection::vec(
            proptest::collection::vec(0usize..LINE_CHARS.len(), 1..6),
            2..3,
        ),
        gaps in proptest::collection::vec(
            proptest::collection::vec(0usize..LINE_CHARS.len(), 1..4),
            32..33,
        ),
    ) {
        let (spaces, marks): (Vec<char>, Vec<char>) =
            LINE_CHARS.iter().partition(|c| c.is_whitespace());
        let id = |i: usize| -> String { ids[i].iter().map(|&c| marks[c % marks.len()]).collect() };
        let mut gaps = gaps
            .iter()
            .map(|gap| gap.iter().map(|&c| spaces[c % spaces.len()]).collect::<String>());
        let mut first = gaps.next().unwrap_or_default() + &id(0);
        for token in body_from(verb, &raw).split(' ') {
            first += &gaps.next().unwrap_or_else(|| " ".to_string());
            first += token;
        }
        first += &gaps.next().unwrap_or_default();
        let (_, body) = first.trim().split_once(char::is_whitespace).expect("a body");
        let second = format!("{} {}", id(1), body.trim_start());

        let reference = Server::new(Parallelism::Serial);
        let want = [reference.answer_line(&first), reference.answer_line(&second)];
        let server = Server::new(Parallelism::Serial);
        prop_assert_eq!(server.answer_now(&first), Some(want[0].clone()));
        let filled = server.replies().stats;
        prop_assert_eq!(server.answer_now(&second), Some(want[1].clone()));
        prop_assert_eq!(filled.misses, 1);
        prop_assert_eq!(server.replies().stats.hits, filled.hits + 1);
    }
}

/// Every Unicode space separates an id from its verb, as it did when the
/// line was split with `char::is_whitespace`.
#[test]
fn every_whitespace_char_separates_tokens() {
    let server = Server::new(Parallelism::Serial);
    for sep in ["\x0B", "\x0C", "\u{85}", "\u{A0}", "\u{2003}", "\u{3000}"] {
        assert_eq!(server.answer_line(&format!("1{sep}ping{sep}")), "1 ok pong", "{sep:?}");
        assert_eq!(server.answer_now(&format!("2{sep}ping")).as_deref(), Some("2 ok pong"));
    }
}

#[test]
fn error_codes_are_specific() {
    for (body, want) in [
        ("", ParseError::Empty),
        ("frobnicate 1 2", ParseError::BadVerb),
        ("optimize-op 8 8", ParseError::BadToken),
        ("optimize-op 0 8 8 1024 paper", ParseError::BadRange),
        ("optimize-op 8 8 8 2 paper", ParseError::BadRange),
        ("optimize-op 8 8 8 1024 quantum", ParseError::BadModel),
        ("score 8 8 8 mmm 1 1 1 paper", ParseError::BadOrder),
        ("plan-chain 1024 paper 2 8 8 8 9 9 9", ParseError::BadChain),
        ("plan-graph 1024 paper 1 0 8 8 8 1 1 0 0", ParseError::BadGraph),
        ("plan-chain 1024 paper 100", ParseError::TooLarge),
        ("optimize-op 65536 65536 65537 3 paper", ParseError::TooLarge),
        ("ping pong", ParseError::BadToken),
    ] {
        assert_eq!(Request::parse(body).unwrap_err(), want, "{body:?}");
    }
}

/// The server survives a firehose of malformed lines interleaved with
/// valid ones, and the valid ones still answer correctly afterwards.
#[test]
fn malformed_flood_leaves_server_alive() {
    let server = Server::new(Parallelism::Serial);
    let lines: Vec<String> = (0..200)
        .map(|i| match i % 4 {
            0 => format!("{i} optimize-op {} {} {} 32768 paper", 1 + i, 2 + i, 3 + i),
            1 => format!("{i} optimize-op what is this"),
            2 => format!("{i} plan-graph 1024 paper 999999999999999999999"),
            _ => format!("{i} \u{0}\u{1}\u{2}"),
        })
        .collect();
    let responses = server.answer_batch(&lines);
    assert_eq!(responses.len(), lines.len());
    for (line, resp) in lines.iter().zip(&responses) {
        let serial = Server::new(Parallelism::Serial).answer_line(line);
        assert_eq!(resp, &serial, "batch and serial answers must agree");
        if line.contains("32768") {
            assert!(resp.contains(" ok ma "), "{resp}");
        } else {
            assert!(resp.contains(" err "), "{resp}");
        }
    }
}

/// `m·k·l` up to 2^72 passes the per-dimension limit, but memory access
/// is a `u64`: past [`MAX_WORK`] a request is refused instead of answered
/// with a wrapped cost (or an overflow panic in a debug build). At the cap
/// every verb answers, and its cost stays below `4·MAX_WORK`.
#[test]
fn work_cap_refuses_overflow_and_answers_at_the_cap() {
    let server = Server::new(Parallelism::Serial);
    for body in [
        "optimize-op 16777216 16777216 16777216 3 paper",
        "score 16777216 16777216 16777216 mkl 1 1 1 rw",
        "optimize-op 65536 65536 65537 3 paper",
        "plan-chain 3 rw 2 65536 65536 32768 65536 32768 65537",
        "plan-graph 3 rw 1 0 4096 4096 4096 4097 0",
    ] {
        assert_eq!(
            server.answer_line(&format!("x {body}")),
            "x err too-large",
            "{body:?}"
        );
    }
    for body in [
        "optimize-op 65536 65536 65536 3 paper",
        "score 65536 65536 65536 mkl 1 1 1 rw",
        "plan-chain 3 rw 2 65536 65536 32768 65536 32768 65536",
        "plan-graph 3 rw 2 0 4096 4096 2048 4096 1 4096 2048 4096 4096 1 0 1",
    ] {
        let reply = server.answer_line(&format!("x {body}"));
        let ma: u64 = reply
            .strip_prefix("x ok ma ")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|ma| ma.parse().ok())
            .unwrap_or_else(|| panic!("{body:?} -> {reply}"));
        assert!(ma < 4 * MAX_WORK, "{body:?} -> {reply}");
    }
}

/// The work cap admits every Table II graph as a `plan-graph` request
/// (LLaMA2's prefill graph, the largest, is about 2^43.5).
#[test]
fn every_zoo_graph_is_a_valid_plan_graph_request() {
    for config in zoo::all() {
        for graph in [config.build_graph(), config.build_branchy_graph()] {
            let req = Request::PlanGraph {
                dag: graph.mm_dag(),
                bs: 1 << 22,
                model: CostModel::paper(),
            };
            assert_eq!(Request::parse(&req.canonical()), Ok(req), "{}", config.name);
        }
    }
}
