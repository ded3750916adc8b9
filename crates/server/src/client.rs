//! A blocking client for the `tbaad` protocol.
//!
//! [`Client`] wraps one connection (TCP or, on unix, a Unix-domain
//! socket) and exposes one method per protocol verb, each returning the
//! typed replies of [`crate::reply`]. Raw reply lines stay available —
//! on every typed reply's `raw` field and through
//! [`Client::request_raw`]/[`Client::send_raw`] — so byte-differential
//! harnesses can compare wire bytes, not just decoded values.

use std::net::ToSocketAddrs;
use std::time::Duration;

use crate::json::Value;
use crate::net::{Conn, LineReader, Tick};
use crate::reply::{
    AliasReply, ErrorReply, LoadReply, PairsReply, Reply, RleReply, StatsReply,
};

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The reply was not a valid protocol reply.
    Protocol(String),
    /// The server answered `{"ok":false,...}`.
    Server(ErrorReply),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(e) => {
                write!(f, "server error ({}): {}", e.kind, e.message)
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to a `tbaad` server (or a `tbaa-router` front tier —
/// the wire protocol is identical).
pub struct Client {
    reader: LineReader,
    writer: Conn,
}

impl Client {
    /// Connects over TCP.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Self::over(Conn::connect_tcp(addr)?)
    }

    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<std::path::Path>) -> std::io::Result<Client> {
        Self::over(Conn::connect_unix(path)?)
    }

    fn over(conn: Conn) -> std::io::Result<Client> {
        let reader = LineReader::new(conn.try_clone()?);
        Ok(Client {
            reader,
            writer: conn,
        })
    }

    /// Sets the read timeout for replies (None = block forever).
    pub fn set_timeout(&mut self, d: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(d)
    }

    /// Sends one raw request line and returns the raw reply line
    /// (newlines stripped). The lowest-level entry point; the typed
    /// helpers below are built on it.
    pub fn request_raw(&mut self, line: &str) -> Result<String, ClientError> {
        self.writer.write_line(line)?;
        self.read_reply_line()
    }

    /// Sends several request lines at once, then reads that many
    /// replies. Useful for pipelining independent queries.
    pub fn pipeline_raw(&mut self, lines: &[String]) -> Result<Vec<String>, ClientError> {
        self.send_raw(lines)?;
        lines.iter().map(|_| self.read_reply_line()).collect()
    }

    /// Writes request lines without reading replies (for shutdown-drain
    /// testing). Pair with [`Client::read_reply_line`].
    pub fn send_raw(&mut self, lines: &[String]) -> Result<(), ClientError> {
        use std::io::Write;
        let mut batch = String::new();
        for line in lines {
            debug_assert!(!line.contains('\n'));
            batch.push_str(line);
            batch.push('\n');
        }
        self.writer.write_all(batch.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads one reply line.
    pub fn read_reply_line(&mut self) -> Result<String, ClientError> {
        match self.reader.tick() {
            Ok(Tick::Line(line)) => Ok(line),
            // With no read timeout set, Idle cannot occur; with one
            // set via `set_timeout`, its expiry is an error, matching
            // blocking-read semantics.
            Ok(Tick::Idle(_)) => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "timed out waiting for reply",
            ))),
            Ok(Tick::Eof) => Err(ClientError::Protocol("server closed the connection".into())),
            Ok(Tick::TooLarge) => Err(ClientError::Protocol("reply line too large".into())),
            Err(e) => Err(ClientError::Io(e)),
        }
    }

    /// Sends one request and decodes the typed [`Reply`]. A structured
    /// server error decodes to `Ok(Reply::Err(..))`; use
    /// [`Client::request_ok`] to promote those to [`ClientError`].
    pub fn request(&mut self, request: &Value) -> Result<Reply, ClientError> {
        let raw = self.request_raw(&request.encode())?;
        Reply::decode(&raw).map_err(ClientError::Protocol)
    }

    /// Like [`Client::request`], but a server error reply becomes
    /// [`ClientError::Server`].
    pub fn request_ok(&mut self, request: &Value) -> Result<Reply, ClientError> {
        self.request(request)?.into_result().map_err(ClientError::Server)
    }

    /// Loads a benchsuite program into a (possibly shared) session.
    pub fn load_bench(&mut self, name: &str, scale: u32) -> Result<LoadReply, ClientError> {
        self.load_bench_with(name, scale, false)
    }

    /// Like [`Client::load_bench`], optionally asking the server to list
    /// the session's addressable access paths in the reply.
    pub fn load_bench_with(
        &mut self,
        name: &str,
        scale: u32,
        want_paths: bool,
    ) -> Result<LoadReply, ClientError> {
        let mut fields = vec![
            ("op", Value::Str("load".into())),
            ("bench", Value::Str(name.into())),
            ("scale", Value::Int(scale as i64)),
        ];
        if want_paths {
            fields.push(("paths", Value::Bool(true)));
        }
        self.load_request(Value::object(fields))
    }

    /// Compiles inline MiniM3 source into a session.
    pub fn load_source(&mut self, source: &str) -> Result<LoadReply, ClientError> {
        self.load_source_with(source, false)
    }

    /// Like [`Client::load_source`], optionally asking the server to
    /// list the session's addressable access paths in the reply.
    pub fn load_source_with(
        &mut self,
        source: &str,
        want_paths: bool,
    ) -> Result<LoadReply, ClientError> {
        let mut fields = vec![
            ("op", Value::Str("load".into())),
            ("source", Value::Str(source.into())),
        ];
        if want_paths {
            fields.push(("paths", Value::Bool(true)));
        }
        self.load_request(Value::object(fields))
    }

    fn load_request(&mut self, req: Value<'_>) -> Result<LoadReply, ClientError> {
        match self.request_ok(&req)? {
            Reply::Loaded(r) => Ok(r),
            other => Err(Self::unexpected("load", &other)),
        }
    }

    fn unexpected(verb: &str, reply: &Reply) -> ClientError {
        ClientError::Protocol(format!("unexpected {verb} reply: {}", reply.raw()))
    }

    fn query_base<'a>(
        op: &'a str,
        session: &'a str,
        level: Option<&'a str>,
        world: Option<&'a str>,
    ) -> Vec<(std::borrow::Cow<'a, str>, Value<'a>)> {
        let mut fields = vec![
            ("op".into(), Value::Str(op.into())),
            ("session".into(), Value::Str(session.into())),
        ];
        if let Some(l) = level {
            fields.push(("level".into(), Value::Str(l.into())));
        }
        if let Some(w) = world {
            fields.push(("world".into(), Value::Str(w.into())));
        }
        fields
    }

    /// Runs a batch of `may_alias` queries (a single query is a batch of
    /// one). `level`/`world` default server-side to the paper's most
    /// precise configuration.
    pub fn alias(
        &mut self,
        session: &str,
        level: Option<&str>,
        world: Option<&str>,
        pairs: &[(String, String)],
    ) -> Result<AliasReply, ClientError> {
        let mut fields = Self::query_base("alias", session, level, world);
        fields.push((
            "pairs".into(),
            Value::Array(
                pairs
                    .iter()
                    .map(|(a, b)| {
                        Value::Array(vec![
                            Value::Str(a.as_str().into()),
                            Value::Str(b.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ));
        match self.request_ok(&Value::Object(fields))? {
            Reply::Alias(r) => Ok(r),
            other => Err(Self::unexpected("alias", &other)),
        }
    }

    /// Table-5 style static pair counts for the session's program.
    pub fn pairs(
        &mut self,
        session: &str,
        level: Option<&str>,
        world: Option<&str>,
    ) -> Result<PairsReply, ClientError> {
        match self.request_ok(&Value::Object(Self::query_base("pairs", session, level, world)))? {
            Reply::Pairs(r) => Ok(r),
            other => Err(Self::unexpected("pairs", &other)),
        }
    }

    /// Runs RLE on a scratch copy of the session's program and returns
    /// the static report.
    pub fn rle(
        &mut self,
        session: &str,
        level: Option<&str>,
        world: Option<&str>,
    ) -> Result<RleReply, ClientError> {
        match self.request_ok(&Value::Object(Self::query_base("rle", session, level, world)))? {
            Reply::Rle(r) => Ok(r),
            other => Err(Self::unexpected("rle", &other)),
        }
    }

    /// The server's metrics snapshot.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.request_ok(&Value::object(vec![("op", Value::Str("stats".into()))]))? {
            Reply::Stats(r) => Ok(r),
            other => Err(Self::unexpected("stats", &other)),
        }
    }

    /// Drops a session. Returns whether it was live.
    pub fn unload(&mut self, session: &str) -> Result<bool, ClientError> {
        match self.request_ok(&Value::object(vec![
            ("op", Value::Str("unload".into())),
            ("session", Value::Str(session.into())),
        ]))? {
            Reply::Unloaded { unloaded, .. } => Ok(unloaded),
            other => Err(Self::unexpected("unload", &other)),
        }
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request_ok(&Value::object(vec![("op", Value::Str("shutdown".into()))]))? {
            Reply::Draining { .. } => Ok(()),
            other => Err(Self::unexpected("shutdown", &other)),
        }
    }
}
