//! The `mfcsl serve` daemon as a child process.
//!
//! The child is this executable re-run as `benchmark daemon serve …`, which
//! calls the same `mfcsl_cli` entry point as `mfcsl serve` (see `main.rs`).
//! [`Daemon`] owns it: stdout is drained on a thread after the announce
//! line (a parent that stops reading would make the child's final
//! `println!` fail with a broken pipe), and dropping the guard drains the
//! daemon over HTTP, then kills and reaps it if it does not exit, so a
//! failed run leaves no stray process. On a clean exit the child reports
//! its peak live heap on stdout (see `main.rs`).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mfcsl_serve::{client, Client};

/// Prefix of the child's last stdout line: its peak live heap in bytes.
pub const PEAK_HEAP_LINE: &str = "# peak live heap bytes";

pub struct Daemon {
    child: Child,
    pub addr: String,
    drain: Option<JoinHandle<String>>,
    /// Keep-alive connection for `/metrics` scrapes, so scraping opens no
    /// connection per call.
    scraper: Client,
}

impl Daemon {
    /// Spawns `mfcsl serve <models> --addr 127.0.0.1:0 <args>` and waits for
    /// its announce line.
    pub fn spawn(models: &Path, args: &[&str]) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let mut child = Command::new(exe)
            .args(["daemon", "serve"])
            .arg(models)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout is not piped".into());
        };
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let read = reader.read_line(&mut line);
        let addr = line
            .strip_prefix("mfcsld listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not announce an address: {line:?}"));
        };
        let drain = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            rest
        });
        let scraper = Client::new(&addr);
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
            scraper,
        })
    }

    /// `/metrics` as name → value.
    pub fn metrics(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let text = self
            .scraper
            .get_text("/metrics")
            .map_err(|e| format!("scrape /metrics: {e}"))?;
        Ok(text
            .lines()
            .filter_map(|line| {
                let (name, value) = line.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect())
    }

    /// The daemon's resident set (`VmRSS`), in bytes.
    pub fn rss(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| "no VmRSS in daemon status".to_string())
    }

    /// Drains the daemon, waits for it to exit 0 and returns its peak
    /// live heap in bytes.
    pub fn shutdown(mut self) -> Result<u64, String> {
        self.stop()?;
        let stdout = self.join_drain();
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(PEAK_HEAP_LINE)?.trim().parse().ok())
            .ok_or_else(|| "daemon did not report its heap".to_string())
    }

    fn stop(&mut self) -> Result<(), String> {
        if let Ok(Some(status)) = self.child.try_wait() {
            self.join_drain();
            return Err(format!("daemon exited early with {status}"));
        }
        // Close the scrape connection first, so the drain waits on nothing.
        self.scraper = Client::new(&self.addr);
        let asked = client::shutdown(&self.addr);
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => break None,
            }
        };
        let result = match (asked, status) {
            (Ok(()), Some(s)) if s.success() => Ok(()),
            (Ok(()), Some(s)) => Err(format!("daemon exited with {s}")),
            (Err(e), _) => Err(format!("daemon refused shutdown: {e}")),
            (_, None) => Err("daemon did not exit within 10 s".into()),
        };
        if status.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        result
    }

    /// Collects the child's remaining stdout (empty if already collected).
    fn join_drain(&mut self) -> String {
        self.drain
            .take()
            .and_then(|drain| drain.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.drain.is_some() {
            let _ = self.stop();
            self.join_drain();
        }
    }
}
