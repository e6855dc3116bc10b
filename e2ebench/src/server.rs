//! `hva serve` as a child process: build it, start it until `/healthz`
//! answers, tell an abort from a slow reply, and stop it.

use crate::client::{self, Conn};
use crate::procfs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Build the release `hva` binary of the repository at `root` and return
/// its path. Cargo's own progress goes to stderr.
pub fn build_hva(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let out = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "hv-cli"])
        .args(["--message-format", "json-render-diagnostics", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building hva failed: {}", out.status));
    }
    // The last compiler-artifact message for the `hva` binary names it.
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| serde_json::from_str::<serde_json::Value>(l).ok())
        .filter(|v| {
            v.get("target").and_then(|t| t.get("name")).and_then(|n| n.as_str()) == Some("hva")
        })
        .filter_map(|v| v.get("executable").and_then(|e| e.as_str()).map(PathBuf::from))
        .next_back()
        .ok_or_else(|| "cargo named no hva executable".to_owned())
}

/// A running `hva serve`.
pub struct ServerChild {
    child: Child,
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
    /// Highest peak RSS seen by [`ServerChild::sample_rss`], MiB.
    pub peak_rss_mib: f64,
}

/// How long a server may take to start before the run gives up.
const START_TIMEOUT: Duration = Duration::from_secs(60);

impl ServerChild {
    /// Start `hva serve` on a free loopback port with `args` appended and
    /// wait until `/healthz` answers 200.
    pub fn start(hva: &Path, args: &[String]) -> Result<ServerChild, String> {
        let mut child = Command::new(hva)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", hva.display()))?;
        // The server names its bound address on stderr; keep draining the
        // pipe afterwards so the child never blocks on it.
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("serving http://") {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut server =
            ServerChild { child, addr: String::new(), stderr: Some(reader), peak_rss_mib: 0.0 };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => server.addr = addr,
            Err(_) => {
                server.stop();
                return Err("hva serve did not report its address".to_owned());
            }
        }
        let deadline = Instant::now() + START_TIMEOUT;
        while !server.healthy() {
            if Instant::now() > deadline || server.exited(Duration::ZERO).is_some() {
                server.stop();
                return Err("hva serve did not answer /healthz".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Whether `/healthz` answers 200 on a fresh connection.
    pub fn healthy(&self) -> bool {
        Conn::connect(&self.addr, Duration::from_secs(5))
            .and_then(|mut c| c.exchange(&client::get("/healthz")))
            .is_ok_and(|r| r.status == 200)
    }

    /// `GET path` on a fresh connection; the body on a 200.
    pub fn get(&self, path: &str) -> Option<Vec<u8>> {
        let mut conn = Conn::connect(&self.addr, Duration::from_secs(10)).ok()?;
        let reply = conn.exchange(&client::get(path)).ok()?;
        (reply.status == 200).then_some(reply.body)
    }

    /// The `shed` and `panics` counters of `/metricsz` (0 when unreadable).
    pub fn shed_and_panics(&self) -> (u64, u64) {
        let m = self
            .get("/metricsz")
            .and_then(|b| serde_json::from_slice::<serde_json::Value>(&b).ok());
        let counter =
            |k: &str| m.as_ref().and_then(|m| m.get(k)).and_then(|v| v.as_u64()).unwrap_or(0);
        (counter("shed"), counter("panics"))
    }

    /// Fold the child's current peak RSS into [`ServerChild::peak_rss_mib`].
    pub fn sample_rss(&mut self) {
        if let Some(mib) = procfs::peak_rss_mib(&self.pid()) {
            self.peak_rss_mib = self.peak_rss_mib.max(mib);
        }
    }

    /// The exit status, if the child ends within `wait`.
    pub fn exited(&mut self, wait: Duration) -> Option<ExitStatus> {
        let deadline = Instant::now() + wait;
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Some(status);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Kill the child (if still running), reap it and join the stderr
    /// reader. Returns the peak RSS seen.
    pub fn stop(&mut self) -> f64 {
        if self.exited(Duration::ZERO).is_none() {
            self.sample_rss();
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        self.peak_rss_mib
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Start the server `repeats` times, timing each start until `/healthz`
/// answers; every start but the last is stopped again. Returns the last
/// server and the start times in seconds.
pub fn timed_starts(
    hva: &Path,
    args: &[String],
    repeats: usize,
) -> Result<(ServerChild, Vec<f64>), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for i in 0..repeats.max(1) {
        let t = Instant::now();
        let mut server = ServerChild::start(hva, args)?;
        times.push(t.elapsed().as_secs_f64());
        if i + 1 < repeats.max(1) {
            server.stop();
        } else {
            last = Some(server);
        }
    }
    Ok((last.expect("at least one start"), times))
}
