//! The `serve` daemon over TCP, end to end: a real process on a loopback
//! port, answering closed-loop pings.
//!
//! A reply must leave as soon as it is answered. When the payload and its
//! newline went out as two writes with Nagle's algorithm on, the second
//! segment waited for the client's delayed ACK, and every closed-loop
//! round trip took about 44 ms instead of about 1 ms.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PINGS: usize = 30;
/// Median round-trip bound: well above the time to answer one ping, well
/// below a delayed-ACK stall.
const MEDIAN_BOUND: Duration = Duration::from_millis(20);

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
    let child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--listen", "tcp:127.0.0.1:0", "--no-disk-cache"])
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
