//! The load generator: keep-alive HTTP connections, driven in closed loop
//! or on an open-loop schedule.
//!
//! Thread `j` of `T` owns one connection and sends requests `j, j + T, …`.
//! In closed loop each request goes out when the previous answer is in.
//! In open loop request `g` is due at `start + g / rate`; a thread waits
//! for it by sleeping, then yielding the last stretch (plain sleeps
//! overshoot by tens of microseconds). Latency then runs from the *due*
//! time to the last response byte, so a stall also delays — and is
//! charged to — every request queued behind it; how late each send was is
//! recorded too.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mfcsl_serve::Json;

use crate::inputs::fnv1a;

/// Sleep until this long before the due time, then yield. A busy spin
/// took a core from the daemon and raised its p90 on a 2-core host.
const SPIN: Duration = Duration::from_micros(80);
/// A send this late counts against the generator's schedule.
pub const LATE_LIMIT: Duration = Duration::from_millis(1);
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One keep-alive connection with a reusable receive buffer.
pub struct Conn {
    addr: String,
    stream: TcpStream,
    buf: Vec<u8>,
}

fn open(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        Ok(Conn {
            addr: addr.to_string(),
            stream: open(addr)?,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one request and reads the response; returns the status and
    /// the body's range in the receive buffer. On a transport error the
    /// connection is replaced before the error is returned.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<(u16, &[u8])> {
        match self.exchange(request) {
            Ok((status, start, end)) => Ok((status, &self.buf[start..end])),
            Err(e) => {
                self.stream = open(&self.addr)?;
                Err(e)
            }
        }
    }

    fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, usize, usize)> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(p) = find(&self.buf, b"\r\n\r\n") {
                break p + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed mid-head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no content-length"))?;
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok((status, head_end, head_end + length))
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Digest of a check response's deterministic part: everything before the
/// `"warm"` field (which, like `"micros"`, varies from request to request).
pub fn verdict_digest(body: &[u8]) -> u64 {
    let marker = b",\"warm\":";
    let end = body
        .windows(marker.len())
        .rposition(|w| w == marker)
        .unwrap_or(body.len());
    fnv1a(&body[..end])
}

/// A full HTTP request for `POST /v1/check`.
pub fn check_request(m0: &[f64; 3], formulas: &[&str], k2: Option<f64>) -> Vec<u8> {
    let mut fields = vec![
        ("model".to_string(), Json::from("virus")),
        (
            "m0".to_string(),
            Json::Arr(m0.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "formulas".to_string(),
            Json::Arr(formulas.iter().map(|&f| Json::from(f)).collect()),
        ),
        ("fast".to_string(), Json::Bool(false)),
    ];
    if let Some(k2) = k2 {
        fields.push((
            "params".to_string(),
            Json::Obj(vec![("k2".to_string(), Json::Num(k2))]),
        ));
    }
    let body = Json::Obj(fields).render();
    http_request("POST", "/v1/check", body.as_bytes())
}

pub fn http_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: mfcsld\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One request of a phase, as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the phase's request list.
    pub index: u32,
    pub late_ns: u64,
    /// Due time to last response byte.
    pub latency_ns: u64,
    /// HTTP status, or 0 for a transport error.
    pub status: u16,
    pub digest: u64,
}

/// Result of one open-loop phase.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub wall: Duration,
}

/// Waits until `due`: sleeps, then yields through the last [`SPIN`].
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Sends `requests` from `threads` threads, one keep-alive connection
/// each: on an open-loop schedule at `rate` per second, or with `None`
/// back to back (closed loop, latency from each send).
pub fn drive(
    addr: &str,
    requests: &[&[u8]],
    rate: Option<f64>,
    threads: usize,
) -> io::Result<Phase> {
    let conns: Vec<Conn> = (0..threads)
        .map(|_| Conn::connect(addr))
        .collect::<io::Result<_>>()?;
    // An open-loop schedule starts a little ahead, so every thread is
    // waiting before the first request is due; a closed loop starts now.
    let start = match rate {
        Some(_) => Instant::now() + Duration::from_millis(2),
        None => Instant::now(),
    };
    let period = rate.map(|r| Duration::from_secs_f64(1.0 / r));
    let per_thread: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(j, mut conn)| {
                s.spawn(move || {
                    let mut samples = Vec::with_capacity(requests.len() / threads + 1);
                    for g in (j..requests.len()).step_by(threads) {
                        let due = match period {
                            Some(p) => {
                                let due = start + p * g as u32;
                                wait_until(due);
                                due
                            }
                            None => Instant::now(),
                        };
                        let sent = Instant::now();
                        let (status, digest) = match conn.roundtrip(requests[g]) {
                            Ok((status, body)) => (status, verdict_digest(body)),
                            Err(_) => (0, 0),
                        };
                        let done = Instant::now();
                        samples.push(Sample {
                            index: g as u32,
                            late_ns: (sent - due).as_nanos() as u64,
                            latency_ns: (done - due).as_nanos() as u64,
                            status,
                            digest,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    let wall = start.elapsed();
    let mut samples: Vec<Sample> = per_thread.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.index);
    Ok(Phase { samples, wall })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_warm_and_micros() {
        let a = br#"{"m0":"(0.8)","verdicts":[],"warm":true,"micros":12.5}"#;
        let b = br#"{"m0":"(0.8)","verdicts":[],"warm":false,"micros":99}"#;
        let c = br#"{"m0":"(0.7)","verdicts":[],"warm":true,"micros":12.5}"#;
        assert_eq!(verdict_digest(a), verdict_digest(b));
        assert_ne!(verdict_digest(a), verdict_digest(c));
    }

    #[test]
    fn requests_carry_their_length() {
        let r = check_request(&[0.8, 0.15, 0.05], &["E{<0.3}[ infected ]"], Some(0.1));
        let text = String::from_utf8(r).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert!(body.contains(r#""params":{"k2":0.1}"#), "{body}");
    }
}
