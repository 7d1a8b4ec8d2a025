//! The `serve` daemon over stdio, end to end: a real process answering a
//! large pipelined write, then closed-loop pings, then EOF; and a client
//! that sends bytes which are not UTF-8, or a line far over the length
//! cap.
//!
//! The daemon keeps one reply stream per client and coalesces replies
//! that are already answered into one write. This pins what that must
//! not change: every line is answered once, in request order, with the
//! bytes of a serial in-process evaluation, and a reply that is ready is
//! written at once rather than held for more.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

use fusecu::server::{Server, MAX_LINE_BYTES};
use fusecu_search::Parallelism;

const PINGS: usize = 30;
/// Median round-trip bound: far above the time to answer one ping, far
/// below any wait for more replies to coalesce.
const MEDIAN_BOUND: Duration = Duration::from_millis(20);
/// Longest wait for any one reply before the test gives up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Length of each oversized line: four times the cap.
const HUGE_LINE: usize = 4 << 20;
const _: () = assert!(HUGE_LINE > MAX_LINE_BYTES);
/// Peak resident memory the daemon may reach while skipping two
/// [`HUGE_LINE`]s, in KiB. An idle daemon peaks near 3.5 MiB (debug
/// build); reading each huge line whole took it past 10 MiB.
const HWM_BOUND_KIB: u64 = 8 << 10;

/// Kills the daemon if the test ends before it exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `serve` on stdio; its reply lines arrive on the receiver.
fn spawn_daemon() -> (Daemon, ChildStdin, Receiver<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--no-disk-cache")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    (Daemon(child), stdin, rx)
}

/// At least 1,000 request lines over every verb: small distinct queries,
/// exact duplicates (same id and body) and same-body repeats under new
/// ids, malformed and oversized lines, and `stats` admin lines.
fn mixed_script() -> Vec<String> {
    let bodies: Vec<String> = (0..40u64)
        .flat_map(|i| {
            let (m, k, l) = (8 + i % 7 * 8, 16 + i % 5 * 8, 8 + i % 3 * 16);
            let model = if i % 2 == 0 { "paper" } else { "rw" };
            [
                "ping".to_string(),
                format!("optimize-op {m} {k} {l} {} {model}", 256 << (i % 4)),
                format!("score {m} {k} {l} lkm {} {} {} {model}", 1 + i % m, k, 1 + i % l),
                format!("plan-chain 4096 {model} 2 {m} {k} {l} {m} {l} {k}"),
                format!("plan-graph 8192 {model} 3 0 {m} {k} {l} 2 1 {m} {l} {k} 2 2 {m} {l} {m} 2 2 0 1 0 2"),
                "frobnicate 1 2".to_string(),
                format!("optimize-op {m} 0 {l} 1024 paper"),
                "optimize-op 16777216 16777216 16777216 3 paper".to_string(),
                "score 8 8 8 mkl 1 1 1".to_string(),
            ]
        })
        .collect();
    let mut lines = Vec::new();
    for (i, body) in bodies.iter().cycle().take(1_000).enumerate() {
        let line = format!("r{i} {body}");
        if i % 11 == 0 {
            lines.push(line.clone());
        }
        lines.push(line);
        if i % 97 == 0 {
            lines.push(format!("s{i} stats"));
        }
        if i % 31 == 0 {
            lines.push(format!("lone{i}"));
        }
    }
    lines
}

#[test]
fn stdio_replies_in_request_order_match_serial_and_leave_at_once() {
    let (mut daemon, mut stdin, replies) = spawn_daemon();
    let script = mixed_script();
    assert!(script.len() >= 1_000);

    // The whole script in one write, from its own thread: the daemon's
    // replies must be read while the write is still in flight.
    let payload: String = script.iter().map(|line| format!("{line}\n")).collect();
    let writer = std::thread::spawn(move || {
        stdin.write_all(payload.as_bytes()).expect("write script");
        stdin
    });
    let got: Vec<String> = script
        .iter()
        .map(|line| {
            replies
                .recv_timeout(REPLY_TIMEOUT)
                .unwrap_or_else(|_| panic!("no reply to {line:?}"))
        })
        .collect();
    let mut stdin = writer.join().expect("script writer");

    let reference = Server::new(Parallelism::Serial);
    for (line, reply) in script.iter().zip(&got) {
        match line.split_once(' ') {
            Some((id, "stats")) => {
                assert!(
                    reply.starts_with(&format!("{id} ok {{\"server\":")),
                    "{line:?} -> {reply}"
                );
            }
            _ => assert_eq!(reply, &reference.answer_line(line), "reply to {line:?}"),
        }
    }

    // Closed loop: each ping's reply is the only one pending, so it is
    // written as soon as its batch answers it.
    let mut round_trips = Vec::with_capacity(PINGS);
    for i in 0..PINGS {
        let t0 = Instant::now();
        writeln!(stdin, "p{i} ping").expect("send ping");
        stdin.flush().expect("flush ping");
        let reply = replies.recv_timeout(REPLY_TIMEOUT).expect("ping reply");
        round_trips.push(t0.elapsed());
        assert_eq!(reply, format!("p{i} ok pong"));
    }

    drop(stdin);
    let status = daemon.0.wait().expect("wait for serve");
    assert!(status.success(), "serve exited with {status} on EOF");
    assert!(
        replies.recv_timeout(REPLY_TIMEOUT).is_err(),
        "a reply after EOF"
    );

    round_trips.sort_unstable();
    let median = round_trips[PINGS / 2];
    assert!(
        median < MEDIAN_BOUND,
        "median stdio ping round trip {median:?} (sorted: {round_trips:?})"
    );
}

/// A daemon's peak resident set (`VmHWM`) in KiB.
fn vm_hwm_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kib| kib.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/<pid>/status")
}

#[test]
fn a_line_that_is_not_utf8_gets_a_parse_error_and_later_lines_are_answered() {
    let (mut daemon, mut stdin, replies) = spawn_daemon();
    stdin
        .write_all(b"1 ping\n\xff bad\n2 ping\n3 optimize-op 64 64 64 4096 rw\n")
        .expect("write script");
    drop(stdin);
    let got: Vec<String> = (0..4)
        .map(|_| {
            replies
                .recv_timeout(REPLY_TIMEOUT)
                .expect("a reply per line")
        })
        .collect();
    let op = Server::new(Parallelism::Serial).answer_line("3 optimize-op 64 64 64 4096 rw");
    assert_eq!(
        got,
        [
            "1 ok pong",
            "\u{fffd} err bad-verb",
            "2 ok pong",
            op.as_str()
        ]
    );
    let status = daemon.0.wait().expect("wait for serve");
    assert!(status.success(), "serve exited with {status} on EOF");
}

#[test]
fn a_line_over_the_cap_is_refused_in_bounded_memory() {
    let (mut daemon, mut stdin, replies) = spawn_daemon();
    let pid = daemon.0.id();
    writeln!(stdin, "0 ping").expect("send ping");
    stdin.flush().expect("flush ping");
    assert_eq!(
        replies.recv_timeout(REPLY_TIMEOUT).expect("ping reply"),
        "0 ok pong"
    );

    // One huge line after an id, one with no id at all, then a ping.
    let huge = vec![b'x'; HUGE_LINE];
    let writer = std::thread::spawn(move || {
        stdin.write_all(b"big ").expect("write id");
        stdin.write_all(&huge).expect("write huge line");
        stdin.write_all(b"\n").expect("write newline");
        stdin.write_all(&huge).expect("write huge line");
        stdin.write_all(b"\n1 ping\n").expect("write ping");
        stdin.flush().expect("flush");
        stdin
    });
    let got: Vec<String> = (0..3)
        .map(|_| {
            replies
                .recv_timeout(REPLY_TIMEOUT)
                .expect("a reply per line")
        })
        .collect();
    assert_eq!(got, ["big err too-large", "- err too-large", "1 ok pong"]);
    let hwm = vm_hwm_kib(pid);
    assert!(
        hwm < HWM_BOUND_KIB,
        "serve peaked at {hwm} KiB skipping {HUGE_LINE}-byte lines"
    );

    drop(writer.join().expect("huge-line writer"));
    let status = daemon.0.wait().expect("wait for serve");
    assert!(status.success(), "serve exited with {status} on EOF");
}
