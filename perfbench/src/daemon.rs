//! A `rankd serve` child process: start, connect, measure, stop.

use engine::client::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running daemon. Dropping it kills the child and waits for it.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    /// `HOST:PORT` of the TCP listener, when one was asked for.
    tcp: Option<String>,
    stdout: Option<JoinHandle<()>>,
}

const START_TIMEOUT: Duration = Duration::from_secs(30);

impl Daemon {
    /// Start `rankd serve --workers 2` with `extra` flags; `tcp` adds a
    /// loopback listener on a free port. Returns once the daemon
    /// reports it is listening.
    pub fn start(
        rankd: &Path,
        run_dir: &Path,
        tag: &str,
        tcp: bool,
        extra: &[String],
    ) -> Result<Daemon, String> {
        let socket = run_dir.join(format!("{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let log = std::fs::File::create(run_dir.join(format!("{tag}.stderr")))
            .map_err(|e| format!("daemon log: {e}"))?;
        let mut cmd = Command::new(rankd);
        cmd.arg("serve").arg("--socket").arg(&socket).args(["--workers", "2"]);
        if tcp {
            cmd.args(["--tcp", "127.0.0.1:0"]);
        }
        cmd.args(extra).stdin(Stdio::null()).stdout(Stdio::piped()).stderr(log);
        let mut child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", rankd.display()))?;
        let out = child.stdout.take().expect("stdout is piped");
        // Forward the startup lines, then keep draining so the daemon's
        // exit report never blocks on a full pipe.
        let (tx, rx) = mpsc::channel::<String>();
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon { child, socket, tcp: None, stdout: Some(stdout) };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx.recv_timeout(left).map_err(|_| "daemon did not start".to_string())?;
            if let Some(addr) = line.strip_prefix("rankd serve: tcp listening on ") {
                daemon.tcp = Some(addr.trim().to_string());
            } else if line.starts_with("rankd serve: listening on") {
                return Ok(daemon);
            }
        }
    }

    pub fn connect_unix(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("connect {}: {e}", self.socket.display()))
    }

    pub fn connect_tcp(&self) -> Result<Client, String> {
        let addr = self.tcp.as_deref().ok_or("daemon has no TCP listener")?;
        Client::connect_tcp(addr).map_err(|e| format!("connect tcp {addr}: {e}"))
    }

    /// Peak resident set of the daemon so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::fingerprint::peak_rss_mb(&self.child.id().to_string())
            .ok_or_else(|| "daemon VmHWM unreadable".to_string())
    }

    /// Ask the daemon to drain and exit; kill it if it has not exited
    /// within ten seconds. Waits for the process either way.
    pub fn stop(mut self) {
        if let Ok(c) = self.connect_unix() {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills (a no-op on an exited child) and reaps.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}
