//! `fusecu-serve` — the optimizer as a persistent daemon.
//!
//! ```text
//! fusecu-serve [--listen tcp:HOST:PORT] [--max-batch N]
//!              [--snapshot-interval-secs N] [--snapshot-dirty N]
//!              [--serial | --threads N] [--no-disk-cache] [--stats-json]
//! ```
//!
//! Speaks the newline-delimited protocol of [`fusecu::server`] on
//! stdin/stdout (the default) or on a TCP socket; see that module's docs
//! for the request grammar. The thread that reads a line answers it at
//! once when that needs no planning (a parse error, `ping`, `score`, a
//! memo-cache hit); only cache misses go to the batcher, which answers
//! whatever misses are queued when it takes its next batch, deduplicated,
//! without waiting for more. A body answered that way before is answered
//! again from the server's reply memo, without being parsed. Answers
//! preserve per-client request order.
//!
//! Lines are read as bytes. A line that is not UTF-8 is decoded lossily
//! and gets its ordinary parse error; a line longer than
//! [`MAX_LINE_BYTES`] is answered `<id> err too-large` (`- err too-large`
//! when no id was read) and skipped to its newline, so no client can grow
//! the daemon's memory with one endless line.
//!
//! Three admin verbs are handled ahead of the batcher:
//!
//! * `<id> stats` — one-line JSON: server counters, the reply memo's
//!   counters (`replies`) and the per-section cache report, made when
//!   every reply before it has been written, so its counters include
//!   every line the client sent before it;
//! * `<id> flush` — incremental cache snapshot now, answers
//!   `ok flushed <entries>`;
//! * `<id> shutdown` — flush, answer `ok bye`, exit (TCP mode: the whole
//!   daemon, not just the connection: every other connection stops being
//!   read, gets the replies it is owed and is closed).
//!
//! In TCP mode each connection holds one descriptor. When `accept` fails,
//! out of descriptors say, the daemon waits 25 ms before it tries again,
//! so clients it cannot take yet wait in the listen backlog and are
//! served once others close.
//!
//! The disk caches are preloaded at startup and snapshotted incrementally:
//! a background thread flushes whenever `--snapshot-dirty` entries are
//! pending or `--snapshot-interval-secs` has elapsed, whichever comes
//! first, so a crash loses at most one snapshot interval of new entries.
//! On EOF/shutdown the daemon flushes and prints the cache summary (JSON
//! with `--stats-json`) to stderr.

use std::borrow::Cow;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

use fusecu::pipeline::DiskCacheSession;
use fusecu::server::{spawn_frontend, BatchConfig, Server, Submission, MAX_LINE_BYTES};
use fusecu_search::Parallelism;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn arg_u64(name: &str, default: u64) -> u64 {
    arg_value(name)
        .map(|v| v.parse().unwrap_or_else(|_| die(name)))
        .unwrap_or(default)
}

/// Bytes of ready replies coalesced into one write before it is sent
/// regardless; bounds the writer's memory when replies never stop coming.
const REPLY_BUFFER: usize = 64 * 1024;

/// Bytes of replies made at read time at which the pump hands them to the
/// writer as one message. Handing over each reply alone let the writer
/// catch up and flush after almost every line (about 120 `write(2)` calls
/// per 426-line round); holding them until the input ran dry made the
/// early replies of a round wait for its late ones.
const REPLY_GROUP: usize = 2 * 1024;

fn die(flag: &str) -> ! {
    eprintln!("fusecu-serve: bad value for {flag}");
    std::process::exit(2)
}

/// Shared daemon state: the service, the batch sink, the disk session,
/// and the shutdown latch.
struct Daemon {
    server: Arc<Server>,
    sink: Sender<Submission>,
    session: Arc<Mutex<DiskCacheSession>>,
    quit: AtomicBool,
}

impl Daemon {
    /// What the writer emits for an admin verb's line; `None` means the
    /// line is a request. `flush` and `shutdown` act now; `stats` is made
    /// when its turn to be written comes.
    fn try_admin(&self, line: &str) -> Option<Pending> {
        let trimmed = line.trim();
        let (id, verb) = trimmed.split_once(char::is_whitespace)?;
        match verb.trim() {
            "stats" => Some(Pending::Stats(id.to_string())),
            "flush" => {
                let flushed = self.session.lock().unwrap().flush();
                Some(Pending::Inline(match flushed {
                    Ok(n) => format!("{id} ok flushed {n}"),
                    Err(_) => format!("{id} err io"),
                }))
            }
            "shutdown" => {
                let _ = self.session.lock().unwrap().flush();
                self.quit.store(true, Ordering::SeqCst);
                Some(Pending::Inline(format!("{id} ok bye")))
            }
            _ => None,
        }
    }

    /// The `stats` reply: server counters, the reply memo's counters and
    /// the per-section cache report.
    fn stats_reply(&self, id: &str) -> String {
        let cache = self.session.lock().unwrap().stats_json();
        format!(
            "{id} ok {{\"server\":{},\"replies\":{},\"cache\":{cache}}}",
            self.server.stats().json(),
            self.server.replies().json()
        )
    }

    /// Pumps one client: reads request lines from `input`, writes response
    /// lines to `output` in request order while keeping requests pipelined
    /// through the batcher. Returns when the client closes, its stream
    /// fails, or shutdown is requested.
    ///
    /// A line that needs no planning (a parse error, `ping`, `score`, a
    /// memo-cache hit) is answered here, as it is read, by
    /// [`Server::answer_now`]; only cache misses go to the batcher. Every
    /// batched request of the client carries a clone of one reply sender,
    /// and its replies arrive on that one stream in request order: the
    /// client's lines enter the batcher's FIFO queue in request order, a
    /// batch sends its replies in submission order, and the next batch
    /// starts only after that. So the in-order queue holds, in request
    /// order, "the next reply on the stream" for each batched line, the
    /// replies already made for a run of lines answered here, and a
    /// `stats` reply to make once every reply before it is written.
    fn pump(&self, mut input: BufReader<impl Read>, output: impl Write + Send) {
        let (pending_tx, pending_rx) = channel::<Pending>();
        let (reply_tx, reply_rx) = channel::<String>();
        std::thread::scope(|scope| {
            scope.spawn(move || self.write_replies(&pending_rx, &reply_rx, output));
            let mut buf = Vec::new();
            // Replies made at read time, newline-separated, go to the
            // writer as one message: before a read that may block, once
            // they reach `REPLY_GROUP` bytes, and ahead of a line that is
            // not answered here.
            let mut group = String::new();
            let hand_off = |group: &mut String| {
                group.is_empty()
                    || pending_tx
                        .send(Pending::Inline(std::mem::take(group)))
                        .is_ok()
            };
            loop {
                let may_block = !input.buffer().contains(&b'\n');
                if (may_block || group.len() >= REPLY_GROUP) && !hand_off(&mut group) {
                    break;
                }
                let Ok(Some(fits)) = read_line(&mut input, &mut buf) else {
                    break;
                };
                // `from_utf8` checks ASCII a word at a time, where
                // `from_utf8_lossy` walks every byte; only a line that is
                // not UTF-8 needs the lossy decode.
                let line = match std::str::from_utf8(&buf) {
                    Ok(line) => Cow::Borrowed(line),
                    Err(_) => String::from_utf8_lossy(&buf),
                };
                let pending = if !fits {
                    let stats = self.server.stats();
                    stats.requests.fetch_add(1, Ordering::Relaxed);
                    stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                    let id = match line.trim_start().split_once(char::is_whitespace) {
                        Some((id, _)) => id,
                        None => "-",
                    };
                    Pending::Inline(format!("{id} err too-large"))
                } else if line.trim().is_empty() {
                    continue;
                } else if let Some(admin) = self.try_admin(&line) {
                    admin
                } else if let Some(reply) = self.server.answer_now(&line) {
                    Pending::Inline(reply)
                } else {
                    let sub = Submission {
                        line: line.into_owned(),
                        reply: reply_tx.clone(),
                    };
                    if self.sink.send(sub).is_err() {
                        break;
                    }
                    Pending::Batched
                };
                match pending {
                    Pending::Inline(reply) => {
                        if !group.is_empty() {
                            group.push('\n');
                        }
                        group.push_str(&reply);
                    }
                    pending => {
                        if !hand_off(&mut group) || pending_tx.send(pending).is_err() {
                            break;
                        }
                    }
                }
                if self.quit.load(Ordering::SeqCst) {
                    break;
                }
            }
            hand_off(&mut group);
            // Closing both queues lets the writer finish what is pending
            // and return, even if the batcher is gone.
            drop(pending_tx);
            drop(reply_tx);
        });
    }

    /// Writes one client's replies in request order. Replies that are
    /// already answered are coalesced into one buffered write; the buffer
    /// is flushed before every blocking wait, so a ready reply is never
    /// held back.
    fn write_replies(
        &self,
        pending: &Receiver<Pending>,
        replies: &Receiver<String>,
        output: impl Write,
    ) {
        let mut out = BufWriter::with_capacity(REPLY_BUFFER, output);
        while let Some(item) = next_or_flush(pending, &mut out) {
            let reply = match item {
                Pending::Inline(reply) => reply,
                Pending::Stats(id) => self.stats_reply(&id),
                Pending::Batched => match next_or_flush(replies, &mut out) {
                    Some(reply) => reply,
                    None => break,
                },
            };
            if out.write_all(reply.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
                return;
            }
        }
        let _ = out.flush();
    }
}

/// Reads the next line of `input` into `buf` without its newline (or a
/// `\r` before it). `Ok(Some(true))` is a line of at most
/// [`MAX_LINE_BYTES`]; `Ok(Some(false))` a longer one, of which `buf`
/// keeps the first [`MAX_LINE_BYTES`] and the rest is skipped up to and
/// including its newline. `Ok(None)` at end of input.
fn read_line(input: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Option<bool>> {
    buf.clear();
    // One byte past the cap tells a line at the cap from a longer one.
    let limit = MAX_LINE_BYTES as u64 + 1;
    if input.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        input.skip_until(b'\n')?;
        buf.truncate(MAX_LINE_BYTES);
        return Ok(Some(false));
    }
    Ok(Some(true))
}

/// What the writer emits next for one request line, or for a run of
/// lines answered at read time.
enum Pending {
    /// The next reply on the client's reply stream.
    Batched,
    /// Replies made when their lines were read, newline-separated: answers
    /// that needed no planning, `flush`'s or `shutdown`'s, `err too-large`.
    Inline(String),
    /// The `stats` reply for this id, made when every reply before it has
    /// been written, so its counters include every line before it.
    Stats(String),
}

/// The next message on `rx` if one is ready; otherwise flushes `out` and
/// blocks for it. `None` once `rx` is closed or the flush fails.
fn next_or_flush<T>(rx: &Receiver<T>, out: &mut impl Write) -> Option<T> {
    match rx.try_recv() {
        Ok(item) => Some(item),
        Err(TryRecvError::Disconnected) => None,
        Err(TryRecvError::Empty) => {
            out.flush().ok()?;
            rx.recv().ok()
        }
    }
}

fn main() -> ExitCode {
    let parallelism = Parallelism::from_args();
    let stats_json = std::env::args().any(|a| a == "--stats-json");
    let cfg = BatchConfig {
        max_batch: arg_u64("--max-batch", 1024) as usize,
    };
    let snapshot_interval = Duration::from_secs(arg_u64("--snapshot-interval-secs", 30));
    let snapshot_dirty = arg_u64("--snapshot-dirty", 256) as usize;

    let session = Arc::new(Mutex::new(DiskCacheSession::from_args()));
    let server = Arc::new(Server::new(parallelism));
    let (sink, batch_handle) = spawn_frontend(Arc::clone(&server), cfg);
    let daemon = Arc::new(Daemon {
        server,
        sink,
        session: Arc::clone(&session),
        quit: AtomicBool::new(false),
    });

    // Periodic incremental snapshots: dirty-entry threshold or timer,
    // whichever fires first. Holds only the session (not the daemon, whose
    // drop stops the batcher); dies with the process.
    {
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            let tick = Duration::from_millis(200).min(snapshot_interval);
            let mut since_flush = Duration::ZERO;
            loop {
                std::thread::sleep(tick);
                since_flush += tick;
                let mut session = session.lock().unwrap();
                let dirty = session.dirty_entries();
                if dirty >= snapshot_dirty || (since_flush >= snapshot_interval && dirty > 0) {
                    let _ = session.flush();
                    since_flush = Duration::ZERO;
                }
            }
        });
    }

    match arg_value("--listen") {
        None => {
            let stdin = std::io::stdin();
            daemon.pump(BufReader::new(stdin.lock()), std::io::stdout());
        }
        Some(addr) => {
            let Some(hostport) = addr.strip_prefix("tcp:") else {
                eprintln!("fusecu-serve: --listen expects tcp:HOST:PORT, got {addr}");
                return ExitCode::from(2);
            };
            let listener = match std::net::TcpListener::bind(hostport) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("fusecu-serve: cannot bind {hostport}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("fusecu-serve: listening on {}", listener.local_addr().unwrap());
            // Poll the listener so a `shutdown` issued on one connection
            // ends the accept loop without needing another client.
            listener.set_nonblocking(true).expect("nonblocking listener");
            std::thread::scope(|scope| {
                // Every open connection, for `shutdown` to end.
                let mut open: Vec<Weak<TcpStream>> = Vec::new();
                while !daemon.quit.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nonblocking(false).expect("blocking stream");
                            // `pump` coalesces ready replies into one
                            // write and flushes before it waits: what it
                            // flushes must leave at once, not wait for
                            // Nagle's algorithm and the peer's delayed ACK.
                            let _ = stream.set_nodelay(true);
                            let stream = Arc::new(stream);
                            open.retain(|conn| conn.strong_count() > 0);
                            open.push(Arc::downgrade(&stream));
                            let daemon = Arc::clone(&daemon);
                            // One descriptor per connection, read and
                            // written through shared references.
                            scope.spawn(move || daemon.pump(BufReader::new(&*stream), &*stream));
                        }
                        // No connection waiting, or none that can be taken
                        // now (out of descriptors, say): retrying at once
                        // would spin on the same error.
                        Err(_) => std::thread::sleep(Duration::from_millis(25)),
                    }
                }
                // Each other client's pump reads end of input, writes the
                // replies it owes and returns, so the scope can end.
                for conn in open.iter().filter_map(Weak::upgrade) {
                    let _ = conn.shutdown(Shutdown::Read);
                }
            });
        }
    }

    // EOF or shutdown: stop the batcher, flush, report.
    drop(daemon);
    let _ = batch_handle.join();
    let mut session = session.lock().unwrap();
    let _ = session.flush();
    if stats_json {
        eprintln!("{}", session.stats_json());
    } else {
        eprintln!("{}", session.summary());
    }
    ExitCode::SUCCESS
}
