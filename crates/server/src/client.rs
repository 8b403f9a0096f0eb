//! A tiny blocking HTTP/1.1 client over `std::net::TcpStream`.
//!
//! Just enough to drive the server from the integration tests, the
//! `bench_serve` load generator, and the CI smoke job — one connection,
//! sequential keep-alive requests, `Content-Length` bodies only.
//! [`RetryingClient`] layers transient-failure retries on top: transport
//! errors and 503 shed responses are retried with exponential backoff and
//! deterministic jitter, honoring `Retry-After` and bounded by both an
//! attempt count and a wall-clock deadline.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use kamel_rng::splitmix64;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Per-request options: extra headers and an overall time budget.
#[derive(Debug, Default, Clone, Copy)]
pub struct RequestOpts<'a> {
    /// Extra request headers, sent verbatim.
    pub headers: &'a [(&'a str, &'a str)],
    /// Overall budget for the whole exchange. When set it is stamped as
    /// `x-kamel-deadline-ms` so the server can shed late work, and it
    /// bounds the client's total read time by re-arming the socket
    /// timeout with the *remaining* budget before every read — a peer
    /// trickling one byte per timeout window (slow-loris) cannot pin the
    /// caller past its deadline the way a fixed per-read timeout can.
    pub budget: Option<Duration>,
}

/// A keep-alive connection to the server.
pub struct Client {
    stream: BufReader<TcpStream>,
    timeout: Duration,
}

impl Client {
    /// Connects with a read/write timeout (applied per request).
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream: BufReader::new(stream),
            timeout,
        })
    }

    /// Sends `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, None, RequestOpts::default())
    }

    /// Sends `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &[u8]) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body), RequestOpts::default())
    }

    /// Sends `POST path` with a JSON body and per-request options.
    pub fn post_json_opts(
        &mut self,
        path: &str,
        body: &[u8],
        opts: RequestOpts<'_>,
    ) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body), opts)
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        opts: RequestOpts<'_>,
    ) -> std::io::Result<ClientResponse> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: kamel\r\n");
        for (name, value) in opts.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if let Some(budget) = opts.budget {
            head.push_str(&format!(
                "x-kamel-deadline-ms: {}\r\n",
                budget.as_millis().max(1)
            ));
        }
        if let Some(body) = body {
            head.push_str("content-type: application/json\r\n");
            head.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        let deadline = opts.budget.map(|b| Instant::now() + b);
        let stream = self.stream.get_mut();
        stream.write_all(head.as_bytes())?;
        if let Some(body) = body {
            stream.write_all(body)?;
        }
        stream.flush()?;
        let result = self.read_response(deadline);
        if deadline.is_some() {
            // Budgeted reads shrank the socket timeout; restore the
            // connection-level default for the next request.
            let _ = self.stream.get_ref().set_read_timeout(Some(self.timeout));
        }
        result
    }

    /// Re-arms the socket read timeout with the remaining budget, erring
    /// out once the budget is spent. A no-op without a deadline.
    fn arm(&mut self, deadline: Option<Instant>) -> std::io::Result<()> {
        let Some(deadline) = deadline else {
            return Ok(());
        };
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request budget exhausted mid-response",
            ));
        }
        self.stream
            .get_ref()
            .set_read_timeout(Some(remaining.min(self.timeout)))
    }

    fn read_response(&mut self, deadline: Option<Instant>) -> std::io::Result<ClientResponse> {
        let status_line = self.read_line(deadline)?;
        let status: u16 = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_data(format!("bad status line `{status_line}`")))?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line(deadline)?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| bad_data(format!("bad header `{line}`")))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| bad_data("response without content-length".into()))?;
        // Chunked loop rather than one `read_exact`: each read is bounded
        // by the remaining budget, so a torn or trickled body surfaces as
        // an error instead of an indefinite stall.
        let mut body = vec![0u8; len];
        let mut filled = 0;
        while filled < len {
            self.arm(deadline)?;
            let n = self.stream.read(&mut body[filled..])?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            filled += n;
        }
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }

    /// Reads one CRLF-terminated line, excluding the terminator.
    fn read_line(&mut self, deadline: Option<Instant>) -> std::io::Result<String> {
        let mut line = Vec::with_capacity(64);
        loop {
            self.arm(deadline)?;
            let mut byte = [0u8; 1];
            let n = self.stream.read(&mut byte)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            if byte[0] == b'\n' {
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return String::from_utf8(line).map_err(|_| bad_data("non-UTF-8 line".into()));
            }
            line.push(byte[0]);
        }
    }
}

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Exponential backoff with deterministic jitter for [`RetryingClient`].
///
/// The delay before retry `r` is `base·2^r` capped at `max_delay`, then
/// equal-jittered into `[d/2, d]` by a hash of `(jitter_seed, r)` — no
/// RNG, so a given policy always produces the same schedule (testable,
/// reproducible), while different seeds (e.g. per client) decorrelate
/// retry storms. A server-provided `Retry-After` acts as a floor.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Backoff base: the un-jittered first-retry delay.
    pub base: Duration,
    /// Cap applied to every per-retry delay.
    pub max_delay: Duration,
    /// Total attempts including the first try (minimum 1).
    pub max_attempts: u32,
    /// Wall-clock budget: no retry starts if `elapsed + delay` would pass
    /// it.
    pub deadline: Duration,
    /// Seed for the deterministic jitter hash.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(100),
            max_delay: Duration::from_secs(5),
            max_attempts: 4,
            deadline: Duration::from_secs(30),
            jitter_seed: 0x6b61_6d65_6c00_0001,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `retry` (0-based), honoring a
    /// server-provided `Retry-After` as a floor. Pure: same inputs, same
    /// delay.
    pub fn delay(&self, retry: u32, retry_after: Option<Duration>) -> Duration {
        let exp = self
            .base
            .checked_mul(1u32 << retry.min(20))
            .unwrap_or(self.max_delay);
        let capped = exp.min(self.max_delay);
        // 53 high bits of the hash → a uniform fraction in [0, 1).
        let h = splitmix64(self.jitter_seed ^ u64::from(retry));
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = capped.mul_f64(0.5 + 0.5 * frac);
        match retry_after {
            Some(floor) => jittered.max(floor),
            None => jittered,
        }
    }

    /// True when sleeping `next_delay` after `elapsed` would overrun the
    /// deadline — the retry loop gives up instead of sleeping.
    pub fn gives_up(&self, elapsed: Duration, next_delay: Duration) -> bool {
        elapsed.saturating_add(next_delay) > self.deadline
    }
}

/// A [`Client`] wrapper that retries transient failures.
///
/// Retried: transport errors (connect/read/write) and 503 shed responses
/// (the server closes those connections, so each retry reconnects). Not
/// retried: any other status — 4xx are the caller's bug and 504 already
/// burned the request's deadline server-side.
pub struct RetryingClient {
    addr: SocketAddr,
    timeout: Duration,
    policy: RetryPolicy,
    conn: Option<Client>,
}

impl RetryingClient {
    /// A retrying client for `addr`; `timeout` applies per attempt.
    pub fn new(addr: SocketAddr, timeout: Duration, policy: RetryPolicy) -> Self {
        Self {
            addr,
            timeout,
            policy,
            conn: None,
        }
    }

    /// Sends `GET path`, retrying per the policy.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.with_retries(None, |c, _| c.get(path))
    }

    /// Sends `POST path` with a JSON body, retrying per the policy.
    pub fn post_json(&mut self, path: &str, body: &[u8]) -> std::io::Result<ClientResponse> {
        self.with_retries(None, |c, _| c.post_json(path, body))
    }

    /// Sends `POST path` with per-request options, retrying per the
    /// policy. When `opts.budget` is set, every attempt carries only the
    /// *remaining* budget (stamped on the wire as `x-kamel-deadline-ms`),
    /// and the retry loop gives up — without sleeping — as soon as the
    /// next backoff would overrun what is left.
    pub fn post_json_opts(
        &mut self,
        path: &str,
        body: &[u8],
        opts: RequestOpts<'_>,
    ) -> std::io::Result<ClientResponse> {
        let headers = opts.headers;
        self.with_retries(opts.budget, |c, remaining| {
            c.post_json_opts(
                path,
                body,
                RequestOpts {
                    headers,
                    budget: remaining,
                },
            )
        })
    }

    fn with_retries(
        &mut self,
        budget: Option<Duration>,
        mut send: impl FnMut(&mut Client, Option<Duration>) -> std::io::Result<ClientResponse>,
    ) -> std::io::Result<ClientResponse> {
        let start = Instant::now();
        let attempts = self.policy.max_attempts.max(1);
        let mut retry = 0u32;
        loop {
            let remaining = budget.map(|b| b.saturating_sub(start.elapsed()));
            let outcome = self.attempt(remaining, &mut send);
            let retry_after = match &outcome {
                Ok(resp) if resp.status == 503 => {
                    // Shed responses close the connection server-side;
                    // reconnect on the next attempt, backing off at least
                    // as long as the server asked.
                    self.conn = None;
                    resp.header("retry-after")
                        .and_then(|v| v.parse::<u64>().ok())
                        .map(Duration::from_secs)
                }
                Ok(_) => return outcome,
                Err(_) => None, // `attempt` already dropped the connection
            };
            if retry + 1 >= attempts {
                return outcome;
            }
            let delay = self.policy.delay(retry, retry_after);
            if self.policy.gives_up(start.elapsed(), delay) {
                return outcome;
            }
            // The caller's own budget binds tighter than the policy: once
            // backoff would exceed what remains, sleeping is pure waste —
            // the answer could only arrive after the caller's deadline.
            if let Some(b) = budget {
                if start.elapsed().saturating_add(delay) > b {
                    return outcome;
                }
            }
            std::thread::sleep(delay);
            retry += 1;
        }
    }

    /// One try: (re)connect if needed, send, and poison the connection on
    /// any transport error so the next attempt starts fresh.
    ///
    /// A pooled keep-alive connection can die between requests — the
    /// server timed it out or restarted, surfacing as EPIPE / connection
    /// reset / EOF on the next use. That says nothing about the server's
    /// ability to serve a fresh connection, so the death of a *reused*
    /// connection earns one immediate reconnect-and-resend that does not
    /// consume a retry attempt (a client configured for a single attempt
    /// still succeeds). Only a dead-connection error qualifies: a timeout
    /// on a live connection means the server is slow, and resending could
    /// double-execute the request.
    fn attempt(
        &mut self,
        remaining: Option<Duration>,
        send: &mut impl FnMut(&mut Client, Option<Duration>) -> std::io::Result<ClientResponse>,
    ) -> std::io::Result<ClientResponse> {
        let reused = self.conn.is_some();
        if self.conn.is_none() {
            self.conn = Some(Client::connect(self.addr, self.timeout)?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        match send(conn, remaining) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.conn = None;
                if !(reused && is_dead_connection(&e)) {
                    return Err(e);
                }
                // Free reconnect: the pooled connection was already dead.
                self.conn = Some(Client::connect(self.addr, self.timeout)?);
                let conn = self.conn.as_mut().expect("reconnected above");
                match send(conn, remaining) {
                    Ok(resp) => Ok(resp),
                    Err(e2) => {
                        self.conn = None;
                        Err(e2)
                    }
                }
            }
        }
    }
}

/// True for transport errors that mean the peer already abandoned the
/// connection (as opposed to being slow on a live one).
fn is_dead_connection(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::UnexpectedEof
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    // ---- pure policy tests: no wall clock, no RNG in any assertion ----

    fn policy() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(100),
            max_delay: Duration::from_secs(5),
            max_attempts: 4,
            deadline: Duration::from_secs(30),
            jitter_seed: 42,
        }
    }

    #[test]
    fn backoff_is_deterministic_and_equal_jittered() {
        let p = policy();
        for retry in 0..10u32 {
            let capped = p
                .base
                .checked_mul(1u32 << retry.min(20))
                .unwrap_or(p.max_delay)
                .min(p.max_delay);
            let d = p.delay(retry, None);
            assert_eq!(d, p.delay(retry, None), "retry {retry}: deterministic");
            assert!(d >= capped / 2, "retry {retry}: {d:?} below half {capped:?}");
            assert!(d <= capped, "retry {retry}: {d:?} above cap {capped:?}");
        }
        // Far-out retries saturate at the cap's jitter band, never panic.
        let huge = p.delay(63, None);
        assert!(huge <= p.max_delay && huge >= p.max_delay / 2);
    }

    #[test]
    fn jitter_schedule_is_pinned() {
        // Deployed clients spread their retries by this schedule; a change
        // to the hash behind it re-synchronises them.
        let nanos: Vec<u128> = (0..6).map(|r| policy().delay(r, None).as_nanos()).collect();
        assert_eq!(
            nanos,
            [87_078_244, 172_817_877, 242_671_752, 427_432_357, 1_384_159_420, 2_373_138_844]
        );
    }

    #[test]
    fn different_seeds_decorrelate_the_schedule() {
        let a = RetryPolicy { jitter_seed: 1, ..policy() };
        let b = RetryPolicy { jitter_seed: 2, ..policy() };
        assert!(
            (0..8).any(|r| a.delay(r, None) != b.delay(r, None)),
            "two seeds produced identical schedules"
        );
    }

    #[test]
    fn retry_after_is_a_floor_not_a_cap() {
        let p = policy();
        // Floor above the jitter band wins outright…
        assert_eq!(
            p.delay(0, Some(Duration::from_secs(7))),
            Duration::from_secs(7)
        );
        // …and a floor below it leaves the computed backoff unchanged.
        assert_eq!(
            p.delay(3, Some(Duration::from_millis(1))),
            p.delay(3, None)
        );
    }

    #[test]
    fn deadline_gives_up_instead_of_oversleeping() {
        let p = policy();
        assert!(p.gives_up(Duration::from_secs(29), Duration::from_secs(2)));
        assert!(!p.gives_up(Duration::from_secs(1), Duration::from_secs(2)));
        assert!(!p.gives_up(Duration::from_secs(28), Duration::from_secs(2)));
        assert!(p.gives_up(Duration::MAX, Duration::from_secs(1)), "no overflow");
    }

    // ---- behavior tests against a scripted listener; assertions are on
    // outcomes and attempt counts, never on elapsed time ----

    /// Serves one connection per script entry: writes the raw bytes (an
    /// empty entry just closes the socket), then moves on. Returns the
    /// bound address and a handle yielding the number of connections
    /// served.
    fn scripted_server(script: Vec<&'static str>) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut served = 0;
            for raw in script {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                if !raw.is_empty() {
                    stream.write_all(raw.as_bytes()).unwrap();
                }
                served += 1;
            }
            served
        });
        (addr, handle)
    }

    const SHED: &str = "HTTP/1.1 503 Service Unavailable\r\ncontent-length: 5\r\n\
                        retry-after: 0\r\nconnection: close\r\n\r\nshed\n";
    const OK: &str =
        "HTTP/1.1 200 OK\r\ncontent-length: 3\r\nconnection: keep-alive\r\n\r\nok\n";

    fn fast_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            max_attempts,
            deadline: Duration::from_secs(30),
            jitter_seed: 7,
        }
    }

    #[test]
    fn retries_through_a_503_then_succeeds() {
        let (addr, server) = scripted_server(vec![SHED, OK]);
        let mut c = RetryingClient::new(addr, Duration::from_secs(5), fast_policy(4));
        let resp = c.get("/healthz").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), "ok\n");
        assert_eq!(server.join().unwrap(), 2, "exactly one retry");
    }

    #[test]
    fn gives_up_after_max_attempts_returning_the_last_503() {
        let (addr, server) = scripted_server(vec![SHED, SHED, SHED]);
        let mut c = RetryingClient::new(addr, Duration::from_secs(5), fast_policy(3));
        let resp = c.get("/healthz").unwrap();
        assert_eq!(resp.status, 503, "the final shed response is surfaced");
        assert_eq!(server.join().unwrap(), 3, "attempts are bounded");
    }

    #[test]
    fn transport_error_reconnects_and_retries() {
        // First connection is dropped without a response (mid-exchange
        // failure); the retry reconnects and succeeds.
        let (addr, server) = scripted_server(vec!["", OK]);
        let mut c = RetryingClient::new(addr, Duration::from_secs(5), fast_policy(4));
        let resp = c.post_json("/v1/impute", b"{}").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(server.join().unwrap(), 2);
    }

    #[test]
    fn dead_pooled_connection_reconnects_without_consuming_an_attempt() {
        // The scripted server closes each connection after one exchange,
        // so the client's pooled connection is dead by the second request.
        let (addr, server) = scripted_server(vec![OK, OK]);
        // max_attempts = 1: any counted retry would fail this client.
        let mut c = RetryingClient::new(addr, Duration::from_secs(5), fast_policy(1));
        assert_eq!(c.get("/healthz").unwrap().status, 200);
        let resp = c.get("/healthz").unwrap();
        assert_eq!(resp.status, 200, "free reconnect revived the request");
        assert_eq!(server.join().unwrap(), 2);
    }

    #[test]
    fn the_free_reconnect_is_granted_only_once() {
        // Second connection also dies without answering: the resend's
        // failure must surface (attempts are exhausted at 1).
        let (addr, server) = scripted_server(vec![OK, ""]);
        let mut c = RetryingClient::new(addr, Duration::from_secs(5), fast_policy(1));
        assert_eq!(c.get("/healthz").unwrap().status, 200);
        let err = c.get("/healthz").unwrap_err();
        assert!(is_dead_connection(&err), "unexpected error kind: {err}");
        assert_eq!(server.join().unwrap(), 2);
    }

    #[test]
    fn a_spent_budget_stops_retries_without_sleeping() {
        // One scripted shed and nothing else: a retry would hang on a
        // second accept, so the join proves the client never came back.
        let (addr, server) = scripted_server(vec![SHED]);
        let policy = RetryPolicy {
            base: Duration::from_millis(500), // delay(0) ≥ 250ms …
            max_delay: Duration::from_secs(5),
            max_attempts: 4,                  // … with attempts to spare
            deadline: Duration::from_secs(30), // policy alone would retry
            jitter_seed: 7,
        };
        let mut c = RetryingClient::new(addr, Duration::from_secs(5), policy);
        let resp = c
            .post_json_opts(
                "/v1/impute",
                b"{}",
                RequestOpts {
                    headers: &[],
                    budget: Some(Duration::from_millis(50)), // < any backoff
                },
            )
            .unwrap();
        assert_eq!(resp.status, 503, "the shed response surfaces unretried");
        assert_eq!(server.join().unwrap(), 1, "no retry past the budget");
    }

    #[test]
    fn the_budget_is_stamped_as_a_deadline_header() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 2048];
            let n = stream.read(&mut buf).unwrap();
            stream.write_all(OK.as_bytes()).unwrap();
            String::from_utf8_lossy(&buf[..n]).into_owned()
        });
        let mut c = Client::connect(addr, Duration::from_secs(5)).unwrap();
        let resp = c
            .post_json_opts(
                "/v1/impute",
                b"{}",
                RequestOpts {
                    headers: &[("x-kamel-test", "1")],
                    budget: Some(Duration::from_millis(750)),
                },
            )
            .unwrap();
        assert_eq!(resp.status, 200);
        let head = server.join().unwrap();
        assert!(head.contains("x-kamel-deadline-ms: 750\r\n"), "{head}");
        assert!(head.contains("x-kamel-test: 1\r\n"), "{head}");
    }

    #[test]
    fn a_trickling_response_cannot_outlive_the_budget() {
        // The server answers the head promptly, then drips the body one
        // byte at a time — each drip inside any fixed per-read timeout.
        // Only an overall budget can bound this.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 1000\r\n\r\n")
                .unwrap();
            for _ in 0..1000 {
                if stream.write_all(b"x").is_err() {
                    return; // client hung up: exactly what we want
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let mut c = Client::connect(addr, Duration::from_secs(30)).unwrap();
        let err = c
            .post_json_opts(
                "/v1/impute",
                b"{}",
                RequestOpts {
                    headers: &[],
                    budget: Some(Duration::from_millis(150)),
                },
            )
            .unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ),
            "unexpected error: {err}"
        );
        drop(c); // close the socket so the dripper exits promptly
        server.join().unwrap();
    }

    #[test]
    fn non_503_statuses_are_not_retried() {
        let (addr, server) = scripted_server(vec![
            "HTTP/1.1 400 Bad Request\r\ncontent-length: 4\r\nconnection: close\r\n\r\nnope",
        ]);
        let mut c = RetryingClient::new(addr, Duration::from_secs(5), fast_policy(4));
        let resp = c.post_json("/v1/impute", b"garbage").unwrap();
        assert_eq!(resp.status, 400);
        assert_eq!(server.join().unwrap(), 1, "a 4xx must not be retried");
    }
}
