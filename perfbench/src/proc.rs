//! Child processes: the `serve` daemon over stdio or TCP, fresh-process
//! probes, and process facts (peak RSS, binary digests).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A child killed if it outlives its budget, so a hung daemon turns into
/// missing replies instead of a run that never ends.
struct Guarded {
    child: Arc<Mutex<Child>>,
    watchdog: Option<(Sender<()>, JoinHandle<()>)>,
    waited: bool,
}

impl Guarded {
    fn new(child: Child, budget: Duration) -> Guarded {
        let child = Arc::new(Mutex::new(child));
        let (stop, stopped) = channel::<()>();
        let target = Arc::clone(&child);
        let handle = std::thread::spawn(move || {
            if let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(budget) {
                let _ = target.lock().expect("child lock poisoned").kill();
            }
        });
        Guarded {
            child,
            watchdog: Some((stop, handle)),
            waited: false,
        }
    }

    fn id(&self) -> u32 {
        self.child.lock().expect("child lock poisoned").id()
    }

    /// Waits for exit (killing the child after `grace`), then stops the
    /// watchdog.
    fn wait(&mut self, grace: Duration) -> io::Result<ExitStatus> {
        let deadline = Instant::now() + grace;
        let status = loop {
            let mut child = self.child.lock().expect("child lock poisoned");
            if let Some(status) = child.try_wait()? {
                break status;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                break child.wait()?;
            }
            drop(child);
            std::thread::sleep(Duration::from_millis(1));
        };
        self.waited = true;
        if let Some((stop, handle)) = self.watchdog.take() {
            let _ = stop.send(());
            let _ = handle.join();
        }
        Ok(status)
    }
}

impl Drop for Guarded {
    fn drop(&mut self) {
        if !self.waited {
            let _ = self.child.lock().map(|mut c| c.kill());
            let _ = self.wait(Duration::from_secs(5));
        }
    }
}

/// Longest a single daemon may live before its watchdog kills it; well
/// inside the harness's own 180 s budget.
const DAEMON_BUDGET: Duration = Duration::from_secs(120);
/// How long a daemon may take to exit after its input closes.
const EXIT_GRACE: Duration = Duration::from_secs(20);

/// A `serve` daemon speaking the protocol over its stdin/stdout, with all
/// flags at their defaults.
pub struct Daemon {
    proc: Guarded,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    line: String,
}

impl Daemon {
    /// Starts `bin` with its disk cache in `cache_dir`.
    pub fn spawn(bin: &Path, cache_dir: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .env("FUSECU_CACHE_DIR", cache_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon {
            proc: Guarded::new(child, DAEMON_BUDGET),
            stdin,
            stdout,
            line: String::new(),
        })
    }

    /// Writes `lines` in one write.
    pub fn send(&mut self, lines: &[String]) -> io::Result<()> {
        let mut buf = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for l in lines {
            buf.push_str(l);
            buf.push('\n');
        }
        let stdin = self.stdin.as_mut().expect("stdin open until finish");
        stdin.write_all(buf.as_bytes())?;
        stdin.flush()
    }

    /// Reads one reply line (without its newline).
    pub fn recv(&mut self) -> io::Result<String> {
        self.line.clear();
        if self.stdout.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed stdout",
            ));
        }
        Ok(self.line.trim_end_matches('\n').to_string())
    }

    /// One closed-loop request.
    pub fn ask(&mut self, line: &str) -> io::Result<String> {
        let stdin = self.stdin.as_mut().expect("stdin open until finish");
        stdin.write_all(format!("{line}\n").as_bytes())?;
        stdin.flush()?;
        self.recv()
    }

    /// The daemon's peak resident set (VmHWM), MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(&format!("/proc/{}/status", self.proc.id()))
    }

    /// Closes stdin (the daemon flushes its caches and exits) and waits.
    pub fn finish(mut self) -> io::Result<ExitStatus> {
        drop(self.stdin.take());
        self.proc.wait(EXIT_GRACE)
    }
}

/// A `serve` daemon listening on a loopback TCP port, and one connection
/// to it.
pub struct TcpDaemon {
    proc: Guarded,
    stderr: BufReader<std::process::ChildStderr>,
    conn: BufReader<TcpStream>,
}

impl TcpDaemon {
    /// Starts `bin --listen tcp:127.0.0.1:0` and connects to the port it
    /// reports.
    pub fn spawn(bin: &Path, cache_dir: &Path) -> io::Result<TcpDaemon> {
        let mut child = Command::new(bin)
            .args(["--listen", "tcp:127.0.0.1:0"])
            .env("FUSECU_CACHE_DIR", cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let proc = Guarded::new(child, DAEMON_BUDGET);
        let mut first = String::new();
        stderr.read_line(&mut first)?;
        let addr = first
            .trim()
            .rsplit(' ')
            .next()
            .filter(|_| first.contains("listening on"))
            .ok_or_else(|| io::Error::other(format!("no listen address in {first:?}")))?
            .to_string();
        let conn = BufReader::new(TcpStream::connect(addr)?);
        Ok(TcpDaemon { proc, stderr, conn })
    }

    /// One closed-loop request.
    pub fn ask(&mut self, line: &str) -> io::Result<String> {
        self.conn
            .get_mut()
            .write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        if self.conn.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(reply.trim_end_matches('\n').to_string())
    }

    /// Shuts the whole daemon down and waits for it.
    pub fn finish(mut self) -> io::Result<ExitStatus> {
        let bye = self.ask("x shutdown")?;
        drop(self.conn);
        // Drain stderr to EOF: the daemon reports its cache summary there
        // on exit and must not meet a closed pipe.
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        let status = self.proc.wait(EXIT_GRACE)?;
        if bye != "x ok bye" {
            return Err(io::Error::other(format!("shutdown answered {bye:?}")));
        }
        Ok(status)
    }
}

/// One fresh-process probe: its wall time to the first stdout line, and
/// its whole stdout.
pub struct ProbeRun {
    /// Wall time from spawn to the first stdout line, s.
    pub first_line_s: f64,
    /// Everything the probe printed.
    pub out: String,
}

/// Runs `cmd` to completion with its stdout captured.
pub fn run_probe(cmd: &mut Command) -> io::Result<ProbeRun> {
    let t0 = Instant::now();
    let mut child = cmd.stdout(Stdio::piped()).stderr(Stdio::null()).spawn()?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut proc = Guarded::new(child, Duration::from_secs(60));
    let mut out = String::new();
    stdout.read_line(&mut out)?;
    let first_line_s = t0.elapsed().as_secs_f64();
    stdout.read_to_string(&mut out)?;
    let status = proc.wait(EXIT_GRACE)?;
    if !status.success() {
        return Err(io::Error::other(format!("probe exited with {status}")));
    }
    Ok(ProbeRun { first_line_s, out })
}

/// Peak resident set (VmHWM) from a `/proc/<pid>/status` file, MiB.
pub fn peak_rss_mib(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a 64 of a byte string: a stable digest for recording which
/// binary and which source tree a run measured.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
