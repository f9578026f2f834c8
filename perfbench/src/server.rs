//! The server under test: a child process running `traj_serve::serve`
//! with the default [`ServerConfig`], plus its launch-to-ready timing and
//! the `/proc` readings taken from outside.

use crate::client::{render_request, Conn};
use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use traj_serve::registry::ModelRegistry;
use traj_serve::server::{serve, DurabilityConfig, ServerConfig};

/// `/proc/<pid>/stat` CPU times are in USER_HZ ticks, fixed at 100 by
/// the Linux ABI.
const USER_HZ: f64 = 100.0;

/// Child mode: serves `artifact` on `addr` (with durable ingest under
/// `wal_dir` when given) until standard input closes.
pub fn run_child(artifact: &Path, addr: &str, wal_dir: Option<&Path>) -> Result<(), String> {
    let mut registry = ModelRegistry::new();
    registry.load_file(artifact)?;
    let config = ServerConfig {
        durability: wal_dir.map(DurabilityConfig::new),
        ..ServerConfig::default()
    };
    let _handle = serve(addr, registry, config)?;
    // The parent holds our stdin; EOF means it is gone or done with us.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    std::process::exit(0);
}

/// A running server child.
pub struct ServerProcess {
    child: Child,
    addr: SocketAddr,
    /// Launch until the first 200 from `/readyz`.
    pub setup_s: f64,
}

impl ServerProcess {
    /// Launches the child and waits for `/readyz` to answer 200.
    pub fn launch(artifact: &Path, wal_dir: Option<&Path>) -> Result<ServerProcess, String> {
        let mut last_err = String::new();
        // A port picked free can be taken before the child binds it;
        // retry on a fresh one.
        for _ in 0..3 {
            let port = free_port()?;
            match Self::launch_on(artifact, wal_dir, port) {
                Ok(server) => return Ok(server),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    fn launch_on(
        artifact: &Path,
        wal_dir: Option<&Path>,
        port: u16,
    ) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
        let addr: SocketAddr = ([127, 0, 0, 1], port).into();
        let mut command = Command::new(exe);
        command
            .arg("serve")
            .arg("--artifact")
            .arg(artifact)
            .arg("--addr")
            .arg(addr.to_string());
        if let Some(dir) = wal_dir {
            command.arg("--wal-dir").arg(dir);
        }
        command
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        let started = Instant::now();
        let child = command
            .spawn()
            .map_err(|e| format!("spawning server: {e}"))?;
        let mut server = ServerProcess {
            child,
            addr,
            setup_s: 0.0,
        };
        let probe = render_request("GET", "/readyz", "");
        let deadline = started + Duration::from_secs(120);
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            let ready = Conn::connect(addr)
                .and_then(|mut conn| conn.request(&probe))
                .is_ok_and(|(status, _)| status == 200);
            if ready {
                server.setup_s = started.elapsed().as_secs_f64();
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("server not ready within 120 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// User + system CPU seconds consumed so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| format!("malformed {path}"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64 / USER_HZ)
                .ok_or_else(|| format!("malformed {path}"))
        };
        Ok(tick(11)? + tick(12)?)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Kills the child and waits for it to end.
    pub fn stop(mut self) {
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

fn free_port() -> Result<u16, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("picking a port: {e}"))?;
    listener
        .local_addr()
        .map(|a| a.port())
        .map_err(|e| e.to_string())
}

/// Recursively copies a directory of regular files.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("copying {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}
