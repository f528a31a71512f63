//! A small wire client for `mfcsld`, used by the CLI's `client`
//! subcommand, the load harness, and the integration tests.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::Duration;

use mfcsl_core::FaultPlan;

use crate::http::{roundtrip, roundtrip_with, Response};
use crate::json::Json;

/// A check request as posted to `POST /v1/check`.
#[derive(Debug, Clone)]
pub struct CheckRequest {
    /// Registry name of the model.
    pub model: String,
    /// Initial occupancy fractions.
    pub m0: Vec<f64>,
    /// MF-CSL formulas (text syntax); the whole batch shares one session.
    pub formulas: Vec<String>,
    /// Use the fast (loose) tolerance preset.
    pub fast: bool,
    /// Parameter overrides applied before instantiation.
    pub params: BTreeMap<String, f64>,
    /// Per-request deadline, measured from admission, in milliseconds.
    pub timeout_ms: Option<f64>,
    /// Debug: ask the server to sleep before checking (needs
    /// `--allow-sleep` server-side; load tests only).
    pub sleep_ms: Option<f64>,
    /// Chaos: seeded fault-injection plan for this request's session (needs
    /// `--allow-faults` server-side; chaos tests only).
    pub fault: Option<FaultPlan>,
    /// Checking mode: `"meanfield"` (the default when absent) or
    /// `"simulate"` for finite-`N` statistical estimation.
    pub mode: Option<String>,
    /// Statistical lane: finite population size `N`.
    pub population: Option<u64>,
    /// Statistical lane: replication count.
    pub replications: Option<u64>,
    /// Statistical lane: base seed of the replication seed stream.
    pub seed: Option<u64>,
}

impl CheckRequest {
    /// A plain request: one model, one occupancy, some formulas.
    #[must_use]
    pub fn new(model: &str, m0: &[f64], formulas: &[String]) -> CheckRequest {
        CheckRequest {
            model: model.to_string(),
            m0: m0.to_vec(),
            formulas: formulas.to_vec(),
            fast: false,
            params: BTreeMap::new(),
            timeout_ms: None,
            sleep_ms: None,
            fault: None,
            mode: None,
            population: None,
            replications: None,
            seed: None,
        }
    }

    fn render(&self) -> String {
        let mut fields = vec![
            ("model".to_string(), Json::Str(self.model.clone())),
            (
                "m0".to_string(),
                Json::Arr(self.m0.iter().map(|&v| Json::Num(v)).collect()),
            ),
            (
                "formulas".to_string(),
                Json::Arr(
                    self.formulas
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            ),
            ("fast".to_string(), Json::Bool(self.fast)),
        ];
        if !self.params.is_empty() {
            fields.push((
                "params".to_string(),
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ));
        }
        if let Some(ms) = self.timeout_ms {
            fields.push(("timeout_ms".to_string(), Json::Num(ms)));
        }
        if let Some(ms) = self.sleep_ms {
            fields.push(("sleep_ms".to_string(), Json::Num(ms)));
        }
        if let Some(mode) = &self.mode {
            fields.push(("mode".to_string(), Json::Str(mode.clone())));
        }
        for (name, value) in [
            ("population", self.population),
            ("replications", self.replications),
            ("seed", self.seed),
        ] {
            if let Some(v) = value {
                fields.push((name.to_string(), Json::Num(v as f64)));
            }
        }
        if let Some(plan) = self.fault {
            fields.push((
                "fault".to_string(),
                Json::Obj(vec![
                    ("mode".to_string(), Json::from(plan.mode.as_str())),
                    ("period".to_string(), Json::Num(plan.period as f64)),
                    ("seed".to_string(), Json::Num(plan.seed as f64)),
                ]),
            ));
        }
        Json::Obj(fields).render()
    }
}

/// One verdict of a check response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireVerdict {
    /// The formula, rendered by the server from its parsed form.
    pub formula: String,
    /// Whether it holds.
    pub holds: bool,
    /// Whether the value was within the numerical margin of the bound.
    pub marginal: bool,
    /// Whether the engine ran tightened-tolerance refinement rounds on a
    /// marginal verdict (the response's `refinement` object carries the
    /// full record).
    pub refined: bool,
}

/// A successful check response.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The occupancy, rendered by the server.
    pub m0: String,
    /// Per-formula verdicts, in request order.
    pub verdicts: Vec<WireVerdict>,
    /// Whether the request hit a warm session.
    pub warm: bool,
    /// Server-side checking time in microseconds.
    pub micros: f64,
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write).
    Io(String),
    /// The server answered with a non-200 status.
    Status {
        /// HTTP status code (`429`, `504`, …).
        status: u16,
        /// The server's error message, if it sent one.
        message: String,
        /// The machine-readable error code, when the server sent one
        /// (`bad_request`, `queue_full`, `engine_numerical`, …).
        code: Option<String>,
        /// `Retry-After` seconds, when the server sent the header.
        retry_after: Option<u64>,
    },
    /// The server answered 200 but the body did not parse.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Status {
                status, message, ..
            } => write!(f, "server answered {status}: {message}"),
            ClientError::Protocol(e) => write!(f, "bad response: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Connect timeout for every client call.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Socket read timeout for every client call (checks can be slow on cold
/// sessions, so this is generous).
const IO_TIMEOUT: Duration = Duration::from_secs(120);

fn connect(addr: &str) -> Result<TcpStream, ClientError> {
    let resolved = std::net::ToSocketAddrs::to_socket_addrs(addr)
        .map_err(|e| ClientError::Io(format!("cannot resolve `{addr}`: {e}")))?
        .next()
        .ok_or_else(|| ClientError::Io(format!("`{addr}` resolves to no address")))?;
    let stream = TcpStream::connect_timeout(&resolved, CONNECT_TIMEOUT)
        .map_err(|e| ClientError::Io(format!("cannot connect to {addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    Ok(stream)
}

/// Posts a check batch and decodes the response.
///
/// # Errors
///
/// [`ClientError::Status`] carries non-200 answers (`429` with its
/// `Retry-After`, `504` deadlines, `4xx` validation messages).
pub fn post_check(addr: &str, request: &CheckRequest) -> Result<CheckOutcome, ClientError> {
    let mut stream = connect(addr)?;
    let response = roundtrip(
        &mut stream,
        "POST",
        "/v1/check",
        request.render().as_bytes(),
    )
    .map_err(|e| ClientError::Io(e.to_string()))?;
    decode_check_response(&response)
}

/// Cap on one retry backoff sleep, whatever `Retry-After` asked for.
const RETRY_SLEEP_CAP: Duration = Duration::from_secs(2);

/// [`post_check`] with up to `retries` additional attempts on `429`
/// (backpressure) answers — the one status that promises the same request
/// may succeed shortly. The sleep between
/// attempts honors the server's `Retry-After` when present, else backs off
/// `100 ms · 2^attempt`, both capped at `RETRY_SLEEP_CAP`; the schedule
/// is deterministic (no RNG, no wall-clock decisions) so scripted runs
/// replay identically. Every other error — including transport errors,
/// whose side effects on the server are unknown — surfaces immediately.
///
/// # Errors
///
/// The last attempt's error, in the same shapes as [`post_check`].
pub fn post_check_with_retry(
    addr: &str,
    request: &CheckRequest,
    retries: usize,
) -> Result<CheckOutcome, ClientError> {
    let mut attempt = 0usize;
    loop {
        match post_check(addr, request) {
            Err(ClientError::Status {
                status: 429,
                retry_after,
                ..
            }) if attempt < retries => {
                let backoff_ms = match retry_after {
                    Some(secs) => secs.saturating_mul(1000),
                    None => 100u64 << attempt.min(10),
                };
                std::thread::sleep(Duration::from_millis(backoff_ms).min(RETRY_SLEEP_CAP));
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Decodes a `/v1/check` response (shared by the one-shot [`post_check`]
/// and the keep-alive [`Client`], so both report identical errors).
fn decode_check_response(response: &Response) -> Result<CheckOutcome, ClientError> {
    if response.status != 200 {
        let parsed = Json::parse(&response.text()).ok();
        let field = |name: &str| {
            parsed
                .as_ref()
                .and_then(|v| v.get(name).and_then(Json::as_str).map(str::to_string))
        };
        return Err(ClientError::Status {
            status: response.status,
            message: field("error").unwrap_or_else(|| response.text()),
            code: field("code"),
            retry_after: response.header("retry-after").and_then(|v| v.parse().ok()),
        });
    }
    let body = Json::parse(&response.text()).map_err(|e| ClientError::Protocol(e.to_string()))?;
    let verdicts = body
        .get("verdicts")
        .and_then(Json::as_arr)
        .ok_or_else(|| ClientError::Protocol("missing `verdicts`".into()))?
        .iter()
        .map(|v| {
            Some(WireVerdict {
                formula: v.get("formula")?.as_str()?.to_string(),
                holds: v.get("holds")?.as_bool()?,
                marginal: v.get("marginal")?.as_bool()?,
                refined: v.get("refinement").is_some(),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| ClientError::Protocol("malformed verdict entry".into()))?;
    Ok(CheckOutcome {
        m0: body
            .get("m0")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        verdicts,
        warm: body.get("warm").and_then(Json::as_bool).unwrap_or(false),
        micros: body.get("micros").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// A keep-alive wire client: holds one connection open across calls, so a
/// loop of requests pays the TCP handshake once instead of per request.
/// Any transport failure on the cached connection (the daemon's idle sweep
/// may have closed it between calls) transparently reconnects once; if the
/// fresh connection also fails, the error surfaces.
#[derive(Debug)]
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for one daemon address. No connection is made until the
    /// first request.
    #[must_use]
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            stream: None,
        }
    }

    /// Whether a keep-alive connection is currently cached.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// One keep-alive request with reconnect-once fallback.
    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, ClientError> {
        if let Some(mut stream) = self.stream.take() {
            if let Ok(response) = roundtrip_with(&mut stream, method, path, body, false) {
                self.retain(stream, &response);
                return Ok(response);
            }
            // Stale keep-alive connection; fall through to a fresh one.
        }
        let mut stream = connect(&self.addr)?;
        let response = roundtrip_with(&mut stream, method, path, body, false)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        self.retain(stream, &response);
        Ok(response)
    }

    /// Caches the connection unless the server asked to close.
    fn retain(&mut self, stream: TcpStream, response: &Response) {
        let keep = response
            .header("connection")
            .is_none_or(|v| !v.eq_ignore_ascii_case("close"));
        if keep {
            self.stream = Some(stream);
        }
    }

    /// Posts a check batch over the kept-alive connection.
    ///
    /// # Errors
    ///
    /// Same contract as [`post_check`].
    pub fn check(&mut self, request: &CheckRequest) -> Result<CheckOutcome, ClientError> {
        let response = self.request("POST", "/v1/check", request.render().as_bytes())?;
        decode_check_response(&response)
    }

    /// `GET`s a text endpoint over the kept-alive connection.
    ///
    /// # Errors
    ///
    /// Transport failures and non-200 statuses become [`ClientError`].
    pub fn get_text(&mut self, path: &str) -> Result<String, ClientError> {
        let response = self.request("GET", path, b"")?;
        if response.status != 200 {
            return Err(ClientError::Status {
                status: response.status,
                message: response.text(),
                code: None,
                retry_after: None,
            });
        }
        Ok(response.text())
    }
}

/// `GET`s a text endpoint (`/healthz`, `/metrics`, `/v1/models`).
///
/// # Errors
///
/// Transport failures and non-200 statuses become [`ClientError`].
pub fn get_text(addr: &str, path: &str) -> Result<String, ClientError> {
    let mut stream = connect(addr)?;
    let response =
        roundtrip(&mut stream, "GET", path, b"").map_err(|e| ClientError::Io(e.to_string()))?;
    if response.status != 200 {
        return Err(ClientError::Status {
            status: response.status,
            message: response.text(),
            code: None,
            retry_after: None,
        });
    }
    Ok(response.text())
}

/// Asks the daemon to drain and shut down.
///
/// # Errors
///
/// Transport failures and non-200 statuses become [`ClientError`].
pub fn shutdown(addr: &str) -> Result<(), ClientError> {
    let mut stream = connect(addr)?;
    let response = roundtrip(&mut stream, "POST", "/shutdown", b"{}")
        .map_err(|e| ClientError::Io(e.to_string()))?;
    if response.status != 200 {
        return Err(ClientError::Status {
            status: response.status,
            message: response.text(),
            code: None,
            retry_after: None,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    use crate::http::{error_outcome, Outcome, Request};
    use crate::metrics::ServerMetrics;
    use crate::reactor::{self, ReactorOptions, RequestHandler};

    /// A daemon stand-in answering `/v1/check` with `statuses` in order
    /// (the last one repeating); returns its address and the call counter.
    fn scripted_daemon(statuses: &'static [u16]) -> (String, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let handler: Arc<dyn RequestHandler> = Arc::new(move |req: &Request, _: Instant| {
            if req.path == "/shutdown" {
                let mut o = Outcome::new(200, "text/plain", b"bye\n".to_vec());
                o.shutdown = true;
                return o;
            }
            let n = seen.fetch_add(1, Ordering::SeqCst);
            let status = statuses[n.min(statuses.len() - 1)];
            let mut o = error_outcome(status, "scripted", "scripted status");
            o.extra_headers.push(("Retry-After", "0".to_string()));
            o
        });
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let options = ReactorOptions {
            event_loops: 1,
            workers: 1,
            queue_capacity: 4,
            max_body: 1 << 20,
            idle_timeout: Duration::from_secs(10),
            metrics: Arc::new(ServerMetrics::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            queue_depth: Arc::new(AtomicUsize::new(0)),
        };
        std::thread::spawn(move || reactor::run(listener, handler, options).unwrap());
        (addr, calls)
    }

    fn status_of(result: Result<CheckOutcome, ClientError>) -> u16 {
        match result {
            Err(ClientError::Status { status, .. }) => status,
            other => panic!("expected a status error, got {other:?}"),
        }
    }

    #[test]
    fn retry_covers_429_only() {
        let request = CheckRequest::new("virus", &[1.0], &["tt".to_string()]);

        // 429s are retried until the budget runs out.
        let (addr, calls) = scripted_daemon(&[429]);
        assert_eq!(status_of(post_check_with_retry(&addr, &request, 2)), 429);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        shutdown(&addr).unwrap();

        // Any other status surfaces at once, even after a retried 429.
        let (addr, calls) = scripted_daemon(&[429, 503]);
        assert_eq!(status_of(post_check_with_retry(&addr, &request, 5)), 503);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        shutdown(&addr).unwrap();
    }
}
