//! The `serve` daemon over TCP, end to end: a real process on a loopback
//! port, answering closed-loop pings, running out of file descriptors,
//! and shutting down while other clients are connected, one of them with
//! replies it never reads.
//!
//! A reply must leave as soon as it is answered. When the payload and its
//! newline went out as two writes with Nagle's algorithm on, the second
//! segment waited for the client's delayed ACK, and every closed-loop
//! round trip took about 44 ms instead of about 1 ms.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

const PINGS: usize = 30;
/// Median round-trip bound: well above the time to answer one ping, well
/// below a delayed-ACK stall.
const MEDIAN_BOUND: Duration = Duration::from_millis(20);
/// Descriptors the daemon may open in the exhaustion test: its four at
/// start (stdio and the listener) and two connections.
const FD_LIMIT: u32 = 6;
/// Clients of the exhaustion test, more than the limit leaves room for.
const CLIENTS: usize = 5;
/// CPU time an idle daemon may use per second of wall time. Retrying
/// `accept` at once on "too many open files" used a whole core.
const IDLE_CPU_BOUND: f64 = 0.5;
/// Longest a client that is answered waits for its reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest the daemon may take to exit after answering `shutdown`.
const EXIT_DEADLINE: Duration = Duration::from_secs(5);
/// Longest the daemon may take to read a pipeline of a few million lines.
const READ_DEADLINE: Duration = Duration::from_secs(120);

/// Kills the daemon if the test ends before shutting it down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `serve` on an ephemeral loopback port and returns it with the
/// address from its "listening on" line.
fn spawn_daemon() -> (Daemon, SocketAddr) {
    let mut serve = Command::new(env!("CARGO_BIN_EXE_serve"));
    serve.args(["--listen", "tcp:127.0.0.1:0", "--no-disk-cache"]);
    listen(serve)
}

/// [`spawn_daemon`] with the daemon's descriptor limit lowered to `fds` by
/// the shell that then becomes the daemon.
fn spawn_daemon_with_fd_limit(fds: u32) -> (Daemon, SocketAddr) {
    let mut shell = Command::new("sh");
    shell
        .arg("-c")
        .arg(format!(
            "ulimit -n {fds} && exec \"$0\" --listen tcp:127.0.0.1:0 --no-disk-cache"
        ))
        .arg(env!("CARGO_BIN_EXE_serve"));
    listen(shell)
}

/// Runs `serve` and waits for its "listening on" line.
fn listen(mut serve: Command) -> (Daemon, SocketAddr) {
    let child = serve
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut daemon = Daemon(child);
    let stderr = daemon.0.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before listening")
            .expect("read serve stderr");
        if let Some((_, addr)) = line.split_once("listening on ") {
            break addr.trim().parse().expect("listening address");
        }
    };
    // Keep draining stderr so the daemon never blocks on a full pipe.
    std::thread::spawn(move || lines.for_each(drop));
    (daemon, addr)
}

/// The daemon's exit status, or `None` if it is still running after
/// `deadline`.
fn exit_within(daemon: &mut Daemon, deadline: Duration) -> Option<ExitStatus> {
    let t0 = Instant::now();
    loop {
        if let Some(status) = daemon.0.try_wait().expect("poll serve") {
            return Some(status);
        }
        if t0.elapsed() > deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A connection to `addr` that has sent `line`.
fn send(addr: SocketAddr, line: &str) -> BufReader<TcpStream> {
    let mut stream = TcpStream::connect(addr).expect("connect to serve");
    writeln!(stream, "{line}").expect("send request");
    BufReader::new(stream)
}

/// The next reply line on `conn`, waiting at most `timeout`.
fn reply(conn: &mut BufReader<TcpStream>, timeout: Duration) -> std::io::Result<String> {
    conn.get_ref().set_read_timeout(Some(timeout))?;
    let mut line = String::new();
    conn.read_line(&mut line)?;
    Ok(line.trim_end().to_string())
}

/// CPU time, user plus system, the process `pid` has used, in seconds.
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
    let (_, fields) = stat.rsplit_once(')').expect("stat fields");
    // `utime` and `stime`, the 14th and 15th fields, in units of USER_HZ
    // (100 per second on Linux).
    let ticks: u64 = fields
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|t| t.parse::<u64>().expect("cpu ticks"))
        .sum();
    ticks as f64 / 100.0
}

#[test]
fn closed_loop_tcp_pings_are_answered_in_order_without_delay() {
    let (mut daemon, addr) = spawn_daemon();
    let stream = TcpStream::connect(addr).expect("connect to serve");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    let mut round_trips = Vec::with_capacity(PINGS);
    let mut reply = String::new();
    for id in 0..PINGS {
        let t0 = Instant::now();
        writer
            .write_all(format!("{id} ping\n").as_bytes())
            .expect("send ping");
        reply.clear();
        reader.read_line(&mut reply).expect("read reply");
        round_trips.push(t0.elapsed());
        assert_eq!(reply.trim_end(), format!("{id} ok pong"), "reply {id}");
    }

    writer.write_all(b"bye shutdown\n").expect("send shutdown");
    reply.clear();
    reader.read_line(&mut reply).expect("read shutdown reply");
    assert_eq!(reply.trim_end(), "bye ok bye");
    let status = daemon.0.wait().expect("wait for serve");
    assert!(status.success(), "serve exited with {status}");

    round_trips.sort_unstable();
    let median = round_trips[PINGS / 2];
    assert!(
        median < MEDIAN_BOUND,
        "median TCP ping round trip {median:?} (sorted: {round_trips:?})"
    );
}

#[test]
fn out_of_descriptors_the_daemon_idles_and_answers_waiting_clients_later() {
    let (mut daemon, addr) = spawn_daemon_with_fd_limit(FD_LIMIT);
    let pid = daemon.0.id();
    let clients: Vec<BufReader<TcpStream>> = (0..CLIENTS)
        .map(|i| send(addr, &format!("c{i} ping")))
        .collect();
    // The clients the daemon has descriptors for are answered at once;
    // the rest wait in the listen backlog.
    let (mut served, mut waiting) = (Vec::new(), Vec::new());
    for (i, mut conn) in clients.into_iter().enumerate() {
        match reply(&mut conn, Duration::from_millis(500)) {
            Ok(got) => {
                assert_eq!(got, format!("c{i} ok pong"));
                served.push(conn);
            }
            Err(_) => waiting.push((i, conn)),
        }
    }
    assert!(!served.is_empty(), "no client was answered");
    assert!(
        !waiting.is_empty(),
        "every client was answered under the limit"
    );

    let (cpu, t0) = (cpu_seconds(pid), Instant::now());
    std::thread::sleep(Duration::from_secs(1));
    let per_s = (cpu_seconds(pid) - cpu) / t0.elapsed().as_secs_f64();
    assert!(
        per_s < IDLE_CPU_BOUND,
        "serve used {per_s:.2} s of CPU per idle second out of descriptors"
    );

    // Each client that closes frees a descriptor for a waiting one.
    drop(served);
    for (i, mut conn) in waiting {
        let got = reply(&mut conn, REPLY_TIMEOUT).expect("a waiting client is answered");
        assert_eq!(got, format!("c{i} ok pong"));
    }
    let mut admin = send(addr, "x shutdown");
    assert_eq!(
        reply(&mut admin, REPLY_TIMEOUT).expect("shutdown reply"),
        "x ok bye"
    );
    let status = exit_within(&mut daemon, EXIT_DEADLINE).expect("serve exits after shutdown");
    assert!(status.success(), "serve exited with {status}");
}

/// The largest size the kernel lets a TCP socket buffer grow to: the third
/// field of `/proc/sys/net/ipv4/<name>` (`tcp_rmem` or `tcp_wmem`).
fn tcp_buffer_max(name: &str) -> usize {
    let sizes = std::fs::read_to_string(format!("/proc/sys/net/ipv4/{name}"))
        .expect("read TCP buffer sizes");
    let max = sizes.split_whitespace().nth(2).expect("three sizes");
    max.parse().expect("buffer size")
}

/// The daemon's `requests` counter, from a `stats` sent on `admin`.
fn requests_counted(admin: &mut BufReader<TcpStream>) -> usize {
    writeln!(admin.get_mut(), "s stats").expect("send stats");
    let stats = reply(admin, REPLY_TIMEOUT).expect("stats reply");
    let (_, rest) = stats.split_once("\"requests\":").expect("requests counter");
    let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
    digits.and_then(|n| n.parse().ok()).expect("request count")
}

#[test]
fn shutdown_ends_the_daemon_while_a_client_leaves_its_replies_unread() {
    // More replies than both socket buffers hold at their largest, with a
    // MiB to spare for what the daemon buffers itself, so its writer for
    // this client blocks.
    let owed = tcp_buffer_max("tcp_rmem") + tcp_buffer_max("tcp_wmem") + (1 << 20);
    let lines = owed / "p ok pong\n".len() + 1;
    let (mut daemon, addr) = spawn_daemon();
    let mut unread = TcpStream::connect(addr).expect("connect to serve");
    unread
        .write_all(&b"p ping\n".repeat(lines))
        .expect("send the pipeline");
    // Once the daemon has read every line, it owes this client more
    // replies than the sockets can take.
    let mut admin = send(addr, "i ping");
    assert_eq!(
        reply(&mut admin, REPLY_TIMEOUT).expect("ping reply"),
        "i ok pong"
    );
    let t0 = Instant::now();
    while requests_counted(&mut admin) < lines + 1 {
        assert!(
            t0.elapsed() < READ_DEADLINE,
            "serve did not read the pipeline"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    writeln!(admin.get_mut(), "x shutdown").expect("send shutdown");
    assert_eq!(
        reply(&mut admin, REPLY_TIMEOUT).expect("shutdown reply"),
        "x ok bye"
    );
    let status = exit_within(&mut daemon, EXIT_DEADLINE)
        .expect("serve still running with a client's replies unread");
    assert!(status.success(), "serve exited with {status}");
    drop(unread);
}

#[test]
fn shutdown_ends_the_daemon_while_another_client_is_connected() {
    let (mut daemon, addr) = spawn_daemon();
    let mut idle = send(addr, "i ping");
    assert_eq!(
        reply(&mut idle, REPLY_TIMEOUT).expect("ping reply"),
        "i ok pong"
    );
    let mut admin = send(addr, "x shutdown");
    assert_eq!(
        reply(&mut admin, REPLY_TIMEOUT).expect("shutdown reply"),
        "x ok bye"
    );
    let status = exit_within(&mut daemon, EXIT_DEADLINE)
        .expect("serve still running with an idle client connected");
    assert!(status.success(), "serve exited with {status}");
    // The idle client's connection was closed, not dropped mid-reply.
    assert_eq!(reply(&mut idle, REPLY_TIMEOUT).expect("end of stream"), "");
}
