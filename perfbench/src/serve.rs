//! The real `serve` binary as a child process: built from the checkout,
//! booted on loopback, drained at the end, and killed and reaped on every
//! other exit path.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Builds `serve` from the checkout's own workspace (a no-op when it is
/// up to date) and returns the executable's path.
pub fn build() -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "setdisc-service",
            "--bin",
            "serve",
            "--manifest-path",
            "Cargo.toml",
        ])
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building serve failed ({status})"));
    }
    Ok(target.join("release").join("serve"))
}

pub struct Server {
    child: Option<Child>,
    pub addr: String,
    /// Spawn to the first response, in seconds.
    pub setup_s: f64,
}

impl Server {
    /// Spawns `serve --tcp 127.0.0.1:0 --stdin-shutdown ARGS...` and waits
    /// until it answers a request.
    pub fn boot(exe: &PathBuf, args: &[String]) -> Result<Server, String> {
        let started = Instant::now();
        let child = Command::new(exe)
            .args(["--tcp", "127.0.0.1:0", "--stdin-shutdown"])
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
            setup_s: 0.0,
        };
        let stdout = server
            .child
            .as_mut()
            .and_then(|c| c.stdout.take())
            .ok_or("serve has no stdout")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading serve's address: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("serve did not start: {line:?}"))?
            .to_string();
        let mut probe = crate::client::Tcp::connect(&server.addr)?;
        use crate::client::Transport as _;
        probe.call("{\"op\":\"collections\"}")?;
        server.setup_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Drains: closing stdin asks serve to stop accepting, finish in-flight
    /// requests and exit. Kills it if it has not exited within 20 s.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut child = self.child.take().ok_or("serve already stopped")?;
        drop(child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("serve did not drain within 20 s".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
