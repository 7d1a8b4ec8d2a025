//! The `serve` daemon over stdio, end to end: a real process answering a
//! large pipelined write, then closed-loop pings, then EOF; a client that
//! sends bytes which are not UTF-8, or a line far over the length cap;
//! the split between lines answered as they are read, from the reply
//! memo or not, and lines sent to the batcher, seen through `stats`; and
//! a daemon restarted on the cache directory of the one before it.
//!
//! The daemon answers a line that needs no planning as it reads it, sends
//! only cache misses to the batcher, keeps one reply stream per client
//! and coalesces replies that are already answered into one write. This
//! pins what that must not change: every line is answered once, in
//! request order, with the bytes of a serial in-process evaluation, N
//! identical in-flight misses are computed once, `stats` counts every
//! line before it, and a reply that is ready is written at once rather
//! than held for more.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
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

/// Starts `serve` on stdio without a disk cache; its reply lines arrive
/// on the receiver.
fn spawn_daemon() -> (Daemon, ChildStdin, Receiver<String>) {
    spawn_daemon_at(None)
}

/// [`spawn_daemon`] with its disk cache in `cache_dir`, if given.
fn spawn_daemon_at(cache_dir: Option<&Path>) -> (Daemon, ChildStdin, Receiver<String>) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_serve"));
    match cache_dir {
        Some(dir) => command.env("FUSECU_CACHE_DIR", dir),
        None => command.arg("--no-disk-cache"),
    };
    let mut child = command
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

/// The next `n` replies, waiting at most [`REPLY_TIMEOUT`] for each.
fn recv_n(replies: &Receiver<String>, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            replies
                .recv_timeout(REPLY_TIMEOUT)
                .expect("a reply per line")
        })
        .collect()
}

/// The number at a key path in a `stats` reply's JSON, such as
/// `["server", "requests"]`.
fn counter(stats: &str, path: &[&str]) -> u64 {
    let mut rest = stats;
    for key in path {
        let pat = format!("\"{key}\":");
        let at = rest.find(&pat).unwrap_or_else(|| panic!("no {path:?} in {stats}"));
        rest = &rest[at + pat.len()..];
    }
    let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..digits]
        .parse()
        .unwrap_or_else(|_| panic!("{path:?} is not a count in {stats}"))
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
    let got = recv_n(&replies, 4);
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
    let got = recv_n(&replies, 3);
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

#[test]
fn stats_counts_every_line_before_it() {
    let (mut daemon, mut stdin, replies) = spawn_daemon();
    stdin
        .write_all(b"1 ping\n2 optimize-op 512 512 512 1048576 paper\n3 stats\n")
        .expect("write script");
    stdin.flush().expect("flush script");
    let got = recv_n(&replies, 3);
    assert_eq!(got[0], "1 ok pong");
    assert!(got[1].starts_with("2 ok ma "), "{}", got[1]);
    let stats = &got[2];
    assert!(stats.starts_with("3 ok {"), "{stats}");
    // The ping is answered as it is read, the cold `optimize-op` by a
    // batch; `stats` is made only after both replies are written.
    assert!(counter(stats, &["server", "requests"]) >= 2, "{stats}");
    assert!(counter(stats, &["server", "fanned_out"]) >= 1, "{stats}");

    // A `stats` read while a miss is still being planned sees all of that
    // planning: it equals a `stats` sent after the miss's reply arrived.
    // (The 16-matmul chain takes milliseconds to plan; the line behind it
    // is read within microseconds.)
    let nodes: String = (0..16)
        .map(|i| format!(" {i} 256 {} {} 1", 64 + 32 * (i % 5), 64 + 32 * ((i + 1) % 5)))
        .collect();
    let links: String = (0..15).map(|i| format!(" {i} {}", i + 1)).collect();
    writeln!(stdin, "4 plan-graph 65536 paper 16{nodes} 15{links}\n5 stats").expect("write miss");
    stdin.flush().expect("flush miss");
    let got = recv_n(&replies, 2);
    assert!(got[0].starts_with("4 ok ma "), "{}", got[0]);
    writeln!(stdin, "6 stats").expect("write stats");
    drop(stdin);
    let after = recv_n(&replies, 1);
    assert_eq!(
        got[1].strip_prefix("5 "),
        after[0].strip_prefix("6 "),
        "counters moved after the `stats` behind the miss"
    );
    let status = daemon.0.wait().expect("wait for serve");
    assert!(status.success(), "serve exited with {status} on EOF");
}

#[test]
fn a_warm_round_is_answered_as_it_is_read_without_a_batch() {
    let (mut daemon, mut stdin, replies) = spawn_daemon();
    let bodies: Vec<String> = (0..12u64)
        .flat_map(|i| {
            let (m, k, l) = (8 + i * 8, 16 + i % 5 * 8, 8 + i % 3 * 16);
            let model = if i % 2 == 0 { "paper" } else { "rw" };
            [
                format!("optimize-op {m} {k} {l} {} {model}", 256 << (i % 4)),
                format!("plan-chain 4096 {model} 2 {m} {k} {l} {m} {l} {k}"),
                format!("plan-graph 8192 {model} 3 0 {m} {k} {l} 2 1 {m} {l} {k} 2 2 {m} {l} {m} 2 2 0 1 0 2"),
                format!("score {m} {k} {l} lkm {} {k} {} {model}", 1 + i % m, 1 + i % l),
            ]
        })
        .chain(["ping".to_string()])
        .collect();
    let reference = Server::new(Parallelism::Serial);
    // One round of `bodies` under the id prefix `p` in one write, then
    // `stats`; returns the `stats` reply after checking every other one.
    let mut round = |p: &str| -> String {
        let lines: Vec<String> = bodies.iter().map(|body| format!("{p}{body}")).collect();
        let script: String = lines.iter().map(|line| format!("{line}\n")).collect();
        writeln!(stdin, "{script}{p}stats").expect("write round");
        stdin.flush().expect("flush round");
        let got = recv_n(&replies, lines.len() + 1);
        for (line, reply) in lines.iter().zip(&got) {
            assert_eq!(reply, &reference.answer_line(line), "reply to {line:?}");
        }
        got[lines.len()].clone()
    };
    let cold = round("c ");
    let warm = round("w ");
    let again = round("a ");
    let moved = |from: &str, to: &str, path: &[&str]| counter(to, path) - counter(from, path);
    let n = bodies.len() as u64;
    let planned = counter(&cold, &["server", "fanned_out"]);
    assert!(planned > 0, "{cold}");
    for to in [&warm, &again] {
        assert_eq!(moved(&cold, to, &["server", "batches"]), 0, "{cold}\n{to}");
    }
    for (from, to) in [(&cold, &warm), (&warm, &again)] {
        assert_eq!(moved(from, to, &["server", "inline"]), n, "{from}\n{to}");
        assert_eq!(moved(from, to, &["server", "requests"]), n, "{from}\n{to}");
    }
    // The batcher fills no reply memo: the second round parses each body
    // it planned, and memoizes it; the third round parses nothing.
    assert_eq!(
        moved(&cold, &warm, &["replies", "misses"]),
        planned,
        "{warm}"
    );
    assert_eq!(
        moved(&cold, &warm, &["replies", "hits"]),
        n - planned,
        "{warm}"
    );
    assert_eq!(moved(&warm, &again, &["replies", "hits"]), n, "{again}");
    assert_eq!(moved(&warm, &again, &["replies", "misses"]), 0, "{again}");

    drop(stdin);
    let status = daemon.0.wait().expect("wait for serve");
    assert!(status.success(), "serve exited with {status} on EOF");
}

#[test]
fn two_identical_cold_lines_in_one_write_are_computed_once() {
    let (mut daemon, mut stdin, replies) = spawn_daemon();
    let body = "optimize-op 96 80 72 8192 rw";
    write!(stdin, "1 {body}\n2 {body}\n3 stats\n").expect("write script");
    drop(stdin);
    let got = recv_n(&replies, 3);
    let reference = Server::new(Parallelism::Serial);
    assert_eq!(got[0], reference.answer_line(&format!("1 {body}")));
    assert_eq!(got[1], reference.answer_line(&format!("2 {body}")));
    let stats = &got[2];
    assert_eq!(
        counter(stats, &["cache", "sections", "principle", "misses"]),
        1,
        "{stats}"
    );
    let status = daemon.0.wait().expect("wait for serve");
    assert!(status.success(), "serve exited with {status} on EOF");
}

/// Each file of `dir` with its bytes and modification time, by name.
fn dir_state(dir: &Path) -> Vec<(String, Vec<u8>, std::time::SystemTime)> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let mtime = entry.metadata().unwrap().modified().unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, fs::read(entry.path()).unwrap(), mtime)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn a_daemon_restarted_on_its_cache_dir_rewrites_nothing() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-restart");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    // The first daemon plans one query of each cacheable verb and writes
    // them out on `shutdown`.
    let (mut first, mut stdin, replies) = spawn_daemon_at(Some(&dir));
    stdin
        .write_all(
            b"1 optimize-op 8 16 8 256 paper\n\
              2 plan-chain 4096 paper 2 8 16 8 8 8 16\n\
              3 plan-graph 8192 paper 3 0 8 16 8 2 1 8 8 16 2 2 8 8 8 2 2 0 1 0 2\n\
              4 shutdown\n",
        )
        .unwrap();
    let got = recv_n(&replies, 4);
    assert!(got[..3].iter().all(|r| r.contains(" ok ")), "{got:?}");
    assert_eq!(got[3], "4 ok bye");
    assert!(first.0.wait().unwrap().success());
    let written = dir_state(&dir);
    let names: Vec<&str> = written.iter().map(|(name, ..)| name.as_str()).collect();
    assert_eq!(names, ["dataflow.cache", "graphs.cache", "plans.cache"]);

    // The second preloads them all and computes nothing new, so nothing
    // is dirty. `stats` is made when its turn to be written comes, and a
    // `shutdown` read before then would flush first: wait for it.
    let (mut second, mut stdin, replies) = spawn_daemon_at(Some(&dir));
    stdin.write_all(b"1 ping\n2 stats\n").unwrap();
    let got = recv_n(&replies, 2);
    assert_eq!(got[0], "1 ok pong");
    assert!(counter(&got[1], &["cache", "preloaded"]) > 0, "{}", got[1]);
    assert_eq!(counter(&got[1], &["cache", "dirty"]), 0, "{}", got[1]);
    stdin.write_all(b"3 shutdown\n").unwrap();
    assert_eq!(recv_n(&replies, 1), ["3 ok bye"]);
    assert!(second.0.wait().unwrap().success());
    assert!(dir_state(&dir) == written, "the restarted daemon rewrote a cache file");
}

#[test]
fn a_snapshot_interval_of_zero_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--no-disk-cache", "--snapshot-interval-secs", "0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run serve");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--snapshot-interval-secs"), "{stderr}");
}
