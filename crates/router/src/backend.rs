//! Backend shard lifecycles: in-process servers, spawned `tbaad`
//! children, or externally-owned daemons the router merely attaches to.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tbaa_server::net::Conn;
use tbaa_server::{Server, ServerConfig, ServerHandle};

/// How the router obtains its N backends.
#[derive(Debug, Clone)]
pub enum BackendSpec {
    /// Run each shard as an in-process [`Server`] on its own ephemeral
    /// port (tests, single-binary deployments). The config's `addr` and
    /// `unix_path` are overridden per shard.
    InProcess {
        /// Per-shard server configuration (capacity, workers, timeouts).
        config: ServerConfig,
    },
    /// Spawn each shard as a `tbaad` child process.
    Spawn {
        /// Path to the `tbaad` binary.
        bin: PathBuf,
        /// Worker threads per backend.
        workers: usize,
        /// Session capacity per backend.
        capacity: usize,
        /// Base directory for the backends' durable session journals;
        /// each shard journals under `<dir>/shard<i>` and self-recovers
        /// its sessions on respawn ([`tbaa_server::journal`]). `None`
        /// disables journaling (the router falls back to replaying its
        /// in-memory journal after a respawn).
        journal_dir: Option<PathBuf>,
    },
    /// Attach to already-running daemons; the router owns neither their
    /// lifecycle nor their respawn (a dead attached backend stays dead).
    Attach {
        /// One `HOST:PORT` per shard.
        addrs: Vec<String>,
    },
}

impl BackendSpec {
    /// How many shards this spec yields for a requested count:
    /// `Attach` is pinned to its address list.
    pub fn shard_count(&self, requested: usize) -> usize {
        match self {
            BackendSpec::Attach { addrs } => addrs.len(),
            _ => requested.max(1),
        }
    }
}

/// One shard's backend process, behind a uniform lifecycle.
pub(crate) trait BackendHost: Send {
    /// Human-readable identity for logs and stats.
    fn label(&self) -> String;
    /// Current `HOST:PORT`.
    fn addr(&self) -> String;
    /// Replaces a dead backend with a fresh one, returning its address.
    fn respawn(&mut self) -> Result<String, String>;
    /// Forcibly terminates the backend (fault injection).
    fn kill(&mut self);
    /// Gracefully shuts the backend down (router exit).
    fn shutdown(&mut self);
}

/// Builds one host per shard from the spec.
pub(crate) fn build_hosts(
    spec: &BackendSpec,
    shards: usize,
) -> std::io::Result<Vec<Box<dyn BackendHost>>> {
    let mut hosts: Vec<Box<dyn BackendHost>> = Vec::with_capacity(shards);
    match spec {
        BackendSpec::InProcess { config } => {
            for shard in 0..shards {
                // Shards must not share a journal: each gets its own
                // subdirectory, preserved across respawns so a restarted
                // shard recovers its own sessions.
                let mut config = config.clone();
                config.journal_dir = config
                    .journal_dir
                    .map(|base| base.join(format!("shard{shard}")));
                hosts.push(Box::new(InProcessHost::start(config)?));
            }
        }
        BackendSpec::Spawn {
            bin,
            workers,
            capacity,
            journal_dir,
        } => {
            for shard in 0..shards {
                let journal_dir = journal_dir
                    .as_ref()
                    .map(|base| base.join(format!("shard{shard}")));
                hosts.push(Box::new(SpawnHost::start(
                    bin.clone(),
                    *workers,
                    *capacity,
                    journal_dir,
                )?));
            }
        }
        BackendSpec::Attach { addrs } => {
            for addr in addrs {
                hosts.push(Box::new(AttachHost { addr: addr.clone() }));
            }
        }
    }
    Ok(hosts)
}

/// An in-process [`Server`] on an ephemeral port.
struct InProcessHost {
    config: ServerConfig,
    handle: Option<ServerHandle>,
    addr: String,
}

impl InProcessHost {
    fn start(mut config: ServerConfig) -> std::io::Result<InProcessHost> {
        // Each shard needs its own ephemeral port; a shared unix socket
        // path would make shards trample each other.
        config.addr = "127.0.0.1:0".into();
        config.unix_path = None;
        let server = Server::bind(config.clone())?;
        let addr = server.local_addr().to_string();
        Ok(InProcessHost {
            config,
            handle: Some(server.spawn()),
            addr,
        })
    }

    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.state().request_shutdown();
            let _ = handle.join();
        }
    }
}

impl BackendHost for InProcessHost {
    fn label(&self) -> String {
        format!("in-process:{}", self.addr)
    }

    fn addr(&self) -> String {
        self.addr.clone()
    }

    fn respawn(&mut self) -> Result<String, String> {
        self.stop();
        let fresh = InProcessHost::start(self.config.clone())
            .map_err(|e| format!("respawn failed: {e}"))?;
        *self = fresh;
        Ok(self.addr.clone())
    }

    fn kill(&mut self) {
        // Thread-backed servers cannot be killed harder than a drain:
        // the flag stops the accept loop and every pooled connection
        // gets EOF once its worker drains.
        self.stop();
    }

    fn shutdown(&mut self) {
        self.stop();
    }
}

/// A spawned `tbaad` child on an ephemeral port, discovered by scraping
/// the startup banner.
struct SpawnHost {
    bin: PathBuf,
    workers: usize,
    capacity: usize,
    journal_dir: Option<PathBuf>,
    child: Option<Child>,
    addr: String,
}

impl SpawnHost {
    fn start(
        bin: PathBuf,
        workers: usize,
        capacity: usize,
        journal_dir: Option<PathBuf>,
    ) -> std::io::Result<SpawnHost> {
        let mut args = vec![
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--workers".to_string(),
            workers.to_string(),
            "--capacity".to_string(),
            capacity.to_string(),
        ];
        if let Some(dir) = &journal_dir {
            args.push("--journal-dir".to_string());
            args.push(dir.display().to_string());
        }
        let mut child = Command::new(&bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout piped");
        let mut banner = String::new();
        BufReader::new(stdout).read_line(&mut banner)?;
        let addr = banner
            .trim()
            .strip_prefix("tbaad listening on ")
            .map(str::to_string)
            .ok_or_else(|| {
                let _ = child.kill();
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected tbaad banner: {banner:?}"),
                )
            })?;
        Ok(SpawnHost {
            bin,
            workers,
            capacity,
            journal_dir,
            child: Some(child),
            addr,
        })
    }

    fn hard_kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl BackendHost for SpawnHost {
    fn label(&self) -> String {
        format!("spawn:{}", self.addr)
    }

    fn addr(&self) -> String {
        self.addr.clone()
    }

    fn respawn(&mut self) -> Result<String, String> {
        self.hard_kill();
        let fresh = SpawnHost::start(
            self.bin.clone(),
            self.workers,
            self.capacity,
            self.journal_dir.clone(),
        )
        .map_err(|e| format!("respawn failed: {e}"))?;
        *self = fresh;
        Ok(self.addr.clone())
    }

    fn kill(&mut self) {
        self.hard_kill();
    }

    fn shutdown(&mut self) {
        let Some(child) = self.child.as_mut() else {
            return;
        };
        // Ask nicely first so the backend drains in-flight work.
        let asked = Conn::connect_tcp(&self.addr)
            .and_then(|mut c| c.write_line(r#"{"op":"shutdown"}"#))
            .is_ok();
        if asked {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                if matches!(child.try_wait(), Ok(Some(_))) {
                    self.child = None;
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        self.hard_kill();
    }
}

/// An externally-owned daemon: no lifecycle, no respawn.
struct AttachHost {
    addr: String,
}

impl BackendHost for AttachHost {
    fn label(&self) -> String {
        format!("attach:{}", self.addr)
    }

    fn addr(&self) -> String {
        self.addr.clone()
    }

    fn respawn(&mut self) -> Result<String, String> {
        Err(format!(
            "backend {} is attached, not owned; cannot respawn",
            self.addr
        ))
    }

    fn kill(&mut self) {}

    fn shutdown(&mut self) {}
}
