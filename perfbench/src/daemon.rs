//! A `tbaad` child process driven over one Unix-socket connection.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tbaa_server::json::{parse, Value};

/// The daemon binary and the directory its sockets live in.
#[derive(Debug, Clone)]
pub struct Env {
    pub tbaad: PathBuf,
    pub run_dir: PathBuf,
}

/// A running `tbaad` at default settings plus one client connection.
/// Dropping it kills and reaps the process.
pub struct Daemon {
    child: Option<Child>,
    sock: PathBuf,
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    out: Vec<u8>,
}

impl Daemon {
    /// Starts `tbaad` (an ephemeral TCP port, plus the Unix socket this
    /// client uses) and waits for its `listening` line.
    pub fn spawn(env: &Env, tag: &str) -> Result<Daemon, String> {
        let sock = env
            .run_dir
            .join(format!("tbaad-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let mut child = Command::new(&env.tbaad)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--socket")
            .arg(&sock)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", env.tbaad.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let ready = BufReader::new(stdout).read_line(&mut line);
        if ready.is_err() || !line.starts_with("tbaad listening on") {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("tbaad did not start (said {line:?})"));
        }
        let stream = match UnixStream::connect(&sock) {
            Ok(s) => s,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("cannot connect to {}: {e}", sock.display()));
            }
        };
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Daemon {
            child: Some(child),
            sock,
            writer: stream,
            reader,
            out: Vec::with_capacity(1 << 16),
        })
    }

    pub fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Sends one request line and reads its reply line into `reply`
    /// (without the newline).
    pub fn request(&mut self, line: &str, reply: &mut String) -> Result<(), String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("write to tbaad: {e}"))?;
        reply.clear();
        match self.reader.read_line(reply) {
            Ok(0) => Err("tbaad closed the connection".into()),
            Ok(_) => {
                if reply.ends_with('\n') {
                    reply.pop();
                }
                Ok(())
            }
            Err(e) => Err(format!("read from tbaad: {e}")),
        }
    }

    /// A parsed `stats` snapshot.
    pub fn stats(&mut self) -> Result<Value<'static>, String> {
        let mut raw = String::new();
        self.request(r#"{"op":"stats"}"#, &mut raw)?;
        parse(&raw)
            .map(|v| v.into_owned())
            .map_err(|e| format!("stats reply is not JSON: {e}"))
    }

    pub fn peak_rss_mb(&self) -> f64 {
        crate::measure::peak_rss_mb(&self.pid())
    }

    /// Graceful shutdown: `shutdown` verb, then wait for the process to
    /// drain and exit (killed after a grace period).
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut reply = String::new();
        let sent = self.request(r#"{"op":"shutdown"}"#, &mut reply);
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        let mut child = self.child.take().expect("daemon running");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    let _ = std::fs::remove_file(&self.sock);
                    sent?;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("tbaad exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let _ = std::fs::remove_file(&self.sock);
                    return Err("tbaad did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&self.sock);
        }
    }
}

/// A counter from a `stats` snapshot (0 when absent).
pub fn counter(stats: &Value, name: &str) -> i64 {
    stats
        .get("stats")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_i64)
        .unwrap_or(0)
}

/// `(count, sum)` of a histogram in a `stats` snapshot.
pub fn histogram(stats: &Value, name: &str) -> (i64, i64) {
    let h = stats
        .get("stats")
        .and_then(|s| s.get("histograms"))
        .and_then(|c| c.get(name));
    let field = |k: &str| {
        h.and_then(|h| h.get(k))
            .and_then(Value::as_i64)
            .unwrap_or(0)
    };
    (field("count"), field("sum"))
}
