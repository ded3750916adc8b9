//! Shared line-protocol plumbing for `tbaad` and `tbaa-router`.
//!
//! Both the daemon and the router speak the same newline-delimited JSON
//! protocol, so the transport layer lives here once: a duplex [`Conn`]
//! over TCP or a Unix-domain socket, a timeout-surviving [`LineReader`],
//! a [`DualListener`] that polls both listener families, and the
//! accept-loop/worker-pool skeleton [`serve`] parameterized by a
//! [`LineService`]. The bench crate re-exports these types as its wire
//! harness, so the load generator exercises the exact I/O code the
//! daemon runs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How often blocked reads wake up to check shutdown/drain flags.
pub const POLL_TICK: Duration = Duration::from_millis(50);
/// Accept-loop poll interval.
pub const ACCEPT_TICK: Duration = Duration::from_millis(10);
/// Most pipelined lines served per batch before replies are flushed.
const MAX_BATCH: usize = 64;
/// Longest line a [`LineReader`] accepts, in bytes. The largest `load`
/// line any workload in this repository sends is about 150 KB (a ×16
/// synthetic program). A longer request gets a `too_large` error and the
/// connection is closed, so a peer that never sends a newline cannot grow
/// the read buffer without bound.
pub const MAX_LINE: usize = 1 << 20;

/// One duplex peer connection (TCP or Unix).
pub enum Conn {
    /// A TCP stream (nodelay is set by [`Conn::connect_tcp`]).
    Tcp(TcpStream),
    /// A Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Connects over TCP with `TCP_NODELAY` (latency beats batching for
    /// a line protocol).
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Conn::Tcp(stream))
    }

    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<std::path::Path>) -> std::io::Result<Conn> {
        Ok(Conn::Unix(UnixStream::connect(path)?))
    }

    /// Clones the underlying socket (for split read/write halves).
    pub fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    /// Sets the read timeout (None = block forever).
    pub fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }

    /// Sets the write timeout (None = block forever).
    pub fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(d),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(d),
        }
    }

    /// Shuts down the write half: the peer reads EOF after what was sent.
    fn shutdown_write(&self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Write),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(Shutdown::Write),
        }
    }

    /// Writes one request line (appending the newline) and flushes.
    pub fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        debug_assert!(!line.contains('\n'), "requests are single lines");
        self.write_all(line.as_bytes())?;
        self.write_all(b"\n")?;
        self.flush()
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// What one [`LineReader::tick`] produced.
pub enum Tick {
    /// A complete line (without the newline).
    Line(String),
    /// No complete line yet (timeout); `true` if a partial line is pending.
    Idle(bool),
    /// Peer closed the connection.
    Eof,
    /// The line grew past [`MAX_LINE`] bytes without a newline; its
    /// bytes so far are dropped and the rest is left unread.
    TooLarge,
}

/// A buffered line reader that survives read timeouts: partial bytes
/// accumulate across [`tick`](LineReader::tick)s instead of being lost.
pub struct LineReader {
    reader: BufReader<Conn>,
    pending: Vec<u8>,
}

impl LineReader {
    /// Wraps a connection (typically the read half of a
    /// [`Conn::try_clone`] pair).
    pub fn new(conn: Conn) -> LineReader {
        LineReader {
            reader: BufReader::new(conn),
            pending: Vec::new(),
        }
    }

    /// The underlying connection (e.g. to adjust timeouts).
    pub fn get_ref(&self) -> &Conn {
        self.reader.get_ref()
    }

    /// One read attempt, honoring the socket's read timeout.
    ///
    /// A line flushed by EOF without a trailing newline is still served
    /// as a [`Tick::Line`] — the serve loop's lenient behavior for
    /// half-closed clients.
    pub fn tick(&mut self) -> std::io::Result<Tick> {
        // `pending` never holds more than MAX_LINE bytes between ticks, so
        // there is room for at least one more byte.
        let room = (MAX_LINE + 1 - self.pending.len()) as u64;
        match (&mut self.reader)
            .take(room)
            .read_until(b'\n', &mut self.pending)
        {
            Ok(0) => {
                if self.pending.is_empty() {
                    Ok(Tick::Eof)
                } else {
                    // EOF flushed a final unterminated line; serve it.
                    let line = String::from_utf8_lossy(&self.pending).into_owned();
                    self.pending.clear();
                    Ok(Tick::Line(line))
                }
            }
            Ok(_) if self.pending.len() > MAX_LINE && self.pending.last() != Some(&b'\n') => {
                self.pending.clear();
                Ok(Tick::TooLarge)
            }
            Ok(_) => {
                // `read_until` also returns `Ok(n > 0)` when EOF (rather
                // than the delimiter) ends the read — that's the same
                // "final unterminated line" case as above, served leniently.
                if self.pending.last() == Some(&b'\n') {
                    self.pending.pop();
                    if self.pending.last() == Some(&b'\r') {
                        self.pending.pop();
                    }
                }
                let line = String::from_utf8_lossy(&self.pending).into_owned();
                self.pending.clear();
                Ok(Tick::Line(line))
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // `read_until` keeps partial bytes in `pending` across ticks.
                Ok(Tick::Idle(!self.pending.is_empty()))
            }
            Err(e) => Err(e),
        }
    }

    /// Whether a complete line is already sitting in the read buffer —
    /// answerable without touching the socket, so batch collection never
    /// blocks on a peer that has nothing more to say.
    pub fn buffered_line(&self) -> bool {
        self.pending.contains(&b'\n') || self.reader.buffer().contains(&b'\n')
    }

    /// Blocks until a full line arrives, looping over timeouts.
    /// EOF is an `UnexpectedEof` error; a line over [`MAX_LINE`] is an
    /// `InvalidData` error.
    pub fn read_line_blocking(&mut self) -> std::io::Result<String> {
        loop {
            match self.tick()? {
                Tick::Line(line) => return Ok(line),
                Tick::Idle(_) => continue,
                Tick::TooLarge => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("line exceeds {MAX_LINE} bytes"),
                    ))
                }
                Tick::Eof => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed the connection",
                    ))
                }
            }
        }
    }

    /// Reads one *reply* line with strict framing: EOF — even with a
    /// partial line buffered — and read timeouts are errors, never data.
    /// This is what a proxy must use for backend replies: a half-written
    /// reply from a dying backend must fail the exchange (and trigger a
    /// retry), not be forwarded as if complete.
    pub fn read_line_strict(&mut self) -> std::io::Result<String> {
        loop {
            match self.reader.read_until(b'\n', &mut self.pending) {
                Ok(0) => {
                    let what = if self.pending.is_empty() {
                        "peer closed before replying"
                    } else {
                        "peer closed mid-reply"
                    };
                    self.pending.clear();
                    return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, what));
                }
                Ok(_) if self.pending.last() == Some(&b'\n') => {
                    self.pending.pop();
                    if self.pending.last() == Some(&b'\r') {
                        self.pending.pop();
                    }
                    let line = String::from_utf8_lossy(&self.pending).into_owned();
                    self.pending.clear();
                    return Ok(line);
                }
                // read_until returns early only on delimiter or EOF; a
                // short read without either means EOF with a partial.
                Ok(_) => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "timed out waiting for reply",
                    ));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// A nonblocking TCP listener plus, on unix, an optional Unix-domain
/// listener, polled together by one accept loop.
pub struct DualListener {
    tcp: TcpListener,
    local_addr: SocketAddr,
    #[cfg(unix)]
    unix: Option<UnixListener>,
    #[cfg(unix)]
    unix_path: Option<std::path::PathBuf>,
}

impl DualListener {
    /// Binds `addr` (TCP; port 0 picks an ephemeral port) and, when
    /// given, `unix_path` (a stale socket file from a dead process is
    /// removed first).
    pub fn bind(addr: &str, unix_path: Option<&std::path::Path>) -> std::io::Result<DualListener> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let tcp = TcpListener::bind(&addrs[..])?;
        tcp.set_nonblocking(true)?;
        let local_addr = tcp.local_addr()?;
        #[cfg(unix)]
        let unix = match unix_path {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        #[cfg(not(unix))]
        let _ = unix_path;
        Ok(DualListener {
            tcp,
            local_addr,
            #[cfg(unix)]
            unix,
            #[cfg(unix)]
            unix_path: unix_path.map(|p| p.to_path_buf()),
        })
    }

    /// The bound TCP address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Polls both listeners once; returns a connection if one is ready.
    pub fn poll_accept(&self) -> std::io::Result<Option<Conn>> {
        match self.tcp.accept() {
            Ok((stream, _peer)) => return Ok(Some(Conn::Tcp(stream))),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
        #[cfg(unix)]
        if let Some(l) = &self.unix {
            match l.accept() {
                Ok((stream, _peer)) => return Ok(Some(Conn::Unix(stream))),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Removes the Unix socket file, if any (idempotent).
    pub fn cleanup(&self) {
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A line-protocol service plugged into [`serve`]: turns request lines
/// into reply lines. Implementations must be callable from many worker
/// threads at once.
pub trait LineService: Send + Sync + 'static {
    /// Handles one request line, appending the reply line (no newline)
    /// to `out`. The buffer is owned by the connection worker and reused
    /// across requests, so steady-state replies allocate nothing.
    fn handle(&self, line: &str, out: &mut String);

    /// Handles a batch of pipelined request lines in order, appending
    /// one newline-terminated reply per line to `out`. The default
    /// serves them one at a time; a proxy can override this to forward
    /// same-destination runs in one exchange.
    fn handle_batch(&self, lines: &[String], out: &mut String) {
        for l in lines {
            self.handle(l, out);
            out.push('\n');
        }
    }

    /// Whether the service wants the accept loop stopped and
    /// connections drained.
    fn draining(&self) -> bool;

    /// Called when a worker picks up a connection.
    fn on_connect(&self) {}

    /// Called when a worker is done with a connection (any exit path).
    fn on_disconnect(&self) {}
}

/// Timeouts and sizing for [`serve`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Worker count == maximum concurrently served connections.
    pub workers: usize,
    /// Per-request I/O timeout: a peer that stalls mid-line or refuses
    /// its reply for longer than this is disconnected.
    pub io_timeout: Duration,
    /// How long a draining worker waits for already-sent bytes to
    /// surface after shutdown before closing its connection.
    pub drain_grace: Duration,
}

/// Runs the accept loop + bounded worker pool until the service reports
/// draining, then drains every worker and cleans up the listener.
pub fn serve(
    listener: DualListener,
    opts: ServeOptions,
    service: Arc<dyn LineService>,
) -> std::io::Result<()> {
    let (tx, rx) = mpsc::channel::<Conn>();
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(opts.workers);
    for i in 0..opts.workers.max(1) {
        let rx = rx.clone();
        let service = service.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("line-worker-{i}"))
                .spawn(move || loop {
                    // Hold the receiver lock only long enough to claim one
                    // connection (a guard in the match scrutinee would pin
                    // it for the whole serve).
                    let received = {
                        let guard = rx.lock().expect("rx poisoned");
                        guard.recv()
                    };
                    let Ok(conn) = received else {
                        break; // accept loop gone: drain done
                    };
                    serve_connection(conn, &*service, opts);
                })
                .expect("spawn worker"),
        );
    }

    while !service.draining() {
        match listener.poll_accept()? {
            Some(conn) => {
                let _ = tx.send(conn);
            }
            None => std::thread::sleep(ACCEPT_TICK),
        }
    }

    // Graceful drain: stop handing out work, let workers finish.
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
    listener.cleanup();
    Ok(())
}

fn serve_connection(conn: Conn, service: &dyn LineService, opts: ServeOptions) {
    service.on_connect();
    // Balance the disconnect hook on every exit path (early returns too).
    struct DisconnectGuard<'a>(&'a dyn LineService);
    impl Drop for DisconnectGuard<'_> {
        fn drop(&mut self) {
            self.0.on_disconnect();
        }
    }
    let _guard = DisconnectGuard(service);

    let _ = conn.set_read_timeout(Some(POLL_TICK));
    let _ = conn.set_write_timeout(Some(opts.io_timeout));
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let mut reader = LineReader::new(read_half);
    let mut writer = conn;
    // Time of the first byte of a partial line (per-request read timeout).
    let mut partial_since: Option<Instant> = None;
    // When draining after shutdown, the moment of the last served line.
    let mut drain_since: Option<Instant> = None;
    // Reused across iterations: the batch vector and the reply buffer
    // reach steady-state capacity once, then the loop stops allocating.
    let mut batch: Vec<String> = Vec::new();
    let mut out = String::new();

    loop {
        match reader.tick() {
            Ok(Tick::Line(line)) => {
                partial_since = None;
                // Collect whatever the peer has already pipelined into one
                // batch; `buffered_line` never touches the socket, so this
                // adds no latency for one-line-at-a-time clients.
                batch.clear();
                if !line.trim().is_empty() {
                    batch.push(line);
                }
                let mut too_large = false;
                while batch.len() < MAX_BATCH && reader.buffered_line() {
                    match reader.tick() {
                        Ok(Tick::Line(l)) => {
                            if !l.trim().is_empty() {
                                batch.push(l);
                            }
                        }
                        Ok(Tick::TooLarge) => {
                            too_large = true;
                            break;
                        }
                        _ => break,
                    }
                }
                if !batch.is_empty() {
                    out.clear();
                    service.handle_batch(&batch, &mut out);
                    if writer
                        .write_all(out.as_bytes())
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        return; // peer gone mid-reply
                    }
                }
                if too_large {
                    return reject_too_large(&mut reader, &mut writer, opts.drain_grace);
                }
                if batch.is_empty() {
                    continue;
                }
                if service.draining() {
                    // The grace window is measured from the first moment
                    // this connection observed the drain — NOT reset per
                    // served line — so shutdown is bounded even under
                    // continuous traffic (a killed-but-thread-backed
                    // backend must actually stop answering, or fault
                    // injection upstream never sees it die).
                    let since = *drain_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > opts.drain_grace {
                        return;
                    }
                }
            }
            Ok(Tick::Idle(has_partial)) => {
                if has_partial {
                    let since = *partial_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > opts.io_timeout {
                        return; // stalled mid-request
                    }
                } else {
                    partial_since = None;
                }
                if service.draining() {
                    // Drain: anything the peer already sent is either
                    // buffered or arrives within the grace window.
                    let since = *drain_since.get_or_insert_with(Instant::now);
                    if !has_partial && since.elapsed() > opts.drain_grace {
                        return;
                    }
                }
            }
            Ok(Tick::TooLarge) => {
                return reject_too_large(&mut reader, &mut writer, opts.drain_grace)
            }
            Ok(Tick::Eof) | Err(_) => return,
        }
    }
}

/// Answers a request line that outgrew [`MAX_LINE`] with a `too_large`
/// error, then ends the connection. The write half is shut first and the
/// rest of the peer's input is read and dropped for up to `grace`: closing
/// with unread input would reset the connection, and the peer could lose
/// the reply.
fn reject_too_large(reader: &mut LineReader, writer: &mut Conn, grace: Duration) {
    let mut reply = crate::proto::error_reply(
        "too_large",
        &format!("request line exceeds {MAX_LINE} bytes"),
    )
    .encode();
    reply.push('\n');
    if writer
        .write_all(reply.as_bytes())
        .and_then(|()| writer.flush())
        .and_then(|()| writer.shutdown_write())
        .is_err()
    {
        return;
    }
    let deadline = Instant::now() + grace;
    let mut sink = [0u8; 8192];
    while Instant::now() < deadline {
        match reader.reader.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl LineService for Echo {
        fn handle(&self, line: &str, out: &mut String) {
            out.push_str("echo:");
            out.push_str(line);
        }
        fn draining(&self) -> bool {
            false
        }
    }

    #[test]
    fn line_reader_strict_vs_lenient_partial_at_eof() {
        let listener = DualListener::bind("127.0.0.1:0", None).expect("bind");
        let addr = listener.local_addr();
        let t = std::thread::spawn(move || {
            let mut conn = Conn::connect_tcp(addr).expect("connect");
            conn.write_all(b"complete\npart").expect("write");
            // drop: EOF with a partial line pending
        });
        let conn = loop {
            if let Some(c) = listener.poll_accept().expect("accept") {
                break c;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        t.join().unwrap();
        let reader = conn.try_clone().expect("clone");
        // Lenient: the partial is served as a line.
        let mut lenient = LineReader::new(reader);
        assert_eq!(lenient.read_line_blocking().expect("line"), "complete");
        assert!(matches!(lenient.tick().expect("tick"), Tick::Line(l) if l == "part"));
        assert!(matches!(lenient.tick().expect("tick"), Tick::Eof));
        // Strict: a second reader over the same (now-drained) socket
        // reports EOF as an error, never a line.
        let mut strict = LineReader::new(conn);
        let err = strict.read_line_strict().expect_err("eof is an error");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn buffered_line_detects_pipelined_input_without_blocking() {
        let listener = DualListener::bind("127.0.0.1:0", None).expect("bind");
        let addr = listener.local_addr();
        let mut client = Conn::connect_tcp(addr).expect("connect");
        client.write_all(b"a\nb\n").expect("write");
        let conn = loop {
            if let Some(c) = listener.poll_accept().expect("accept") {
                break c;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut reader = LineReader::new(conn);
        assert_eq!(reader.read_line_blocking().expect("first"), "a");
        // "b\n" is already in the BufReader; no socket read needed.
        assert!(reader.buffered_line());
        assert_eq!(reader.read_line_blocking().expect("second"), "b");
        assert!(!reader.buffered_line());
    }

    #[test]
    fn serve_echoes_batches_in_order() {
        let listener = DualListener::bind("127.0.0.1:0", None).expect("bind");
        let addr = listener.local_addr();
        let service = Arc::new(Echo);
        let opts = ServeOptions {
            workers: 2,
            io_timeout: Duration::from_secs(5),
            drain_grace: Duration::from_millis(50),
        };
        // Serve in a scoped fashion: the Echo service never drains, so
        // run the loop on a thread and detach after asserting.
        let svc = service.clone();
        std::thread::spawn(move || {
            let _ = serve(listener, opts, svc);
        });
        let mut conn = Conn::connect_tcp(addr).expect("connect");
        conn.write_all(b"one\ntwo\nthree\n").expect("write");
        let mut reader = LineReader::new(conn.try_clone().expect("clone"));
        assert_eq!(reader.read_line_blocking().unwrap(), "echo:one");
        assert_eq!(reader.read_line_blocking().unwrap(), "echo:two");
        assert_eq!(reader.read_line_blocking().unwrap(), "echo:three");
    }
}
