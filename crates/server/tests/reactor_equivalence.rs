//! Wire drills for the epoll-driven connection layer (DESIGN.md §15).
//!
//! The reactor's contract is that response bytes depend on the request
//! bytes only — never on how they were split into reads. The matrix pins
//! the exact wire output of every interesting request shape (whole
//! requests, a pipelined burst, malformed garbage) as golden literals;
//! the fragmentation tests deliver a request byte by byte and in seeded
//! random fragments and require the same server's whole-delivery answer.
//! Then a thousand-connection wall is held open on a two-thread dispatch
//! pool to prove concurrency is bounded by sockets, not threads.

use kamel_server::{CacheKey, Server, ServerConfig, WireService};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

include!("../../../tests/common/cases.rs");

/// Uppercasing echo backend: deterministic bytes in, deterministic bytes
/// out, no cache (so a repeated request never diverges on hit headers).
struct EchoService;

impl WireService for EchoService {
    type Job = String;
    type Out = String;

    fn parse(&self, body: &[u8]) -> Result<String, String> {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        if text.is_empty() {
            return Err("empty body".into());
        }
        Ok(text.to_string())
    }

    fn cache_key(&self, _job: &String) -> Option<CacheKey> {
        None
    }

    fn run_batch(&self, jobs: Vec<String>) -> Vec<String> {
        jobs.into_iter().map(|j| j.to_uppercase()).collect()
    }

    fn render(&self, out: &String) -> Vec<u8> {
        out.clone().into_bytes()
    }

    fn info(&self) -> Vec<u8> {
        b"{\"generation\":0}".to_vec()
    }
}

fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        handlers: 4,
        batch_max: 8,
        batch_wait: Duration::from_millis(1),
        queue_cap: 64,
        cache_entries: 0,
        deadline: Duration::from_secs(5),
        degraded_mode: false,
        max_connections: 4096,
        idle_timeout: Duration::from_secs(30),
    }
}

fn boot(config: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", Arc::new(EchoService), config).expect("bind")
}

/// Writes `bytes` to `addr` split at `cuts` (ascending offsets), with a
/// pause after each fragment so the receiver observes separate reads,
/// then returns everything the server sends until it closes the socket.
fn exchange(addr: SocketAddr, bytes: &[u8], cuts: &[usize]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut start = 0;
    for &cut in cuts {
        let cut = cut.min(bytes.len());
        if cut > start {
            stream.write_all(&bytes[start..cut]).expect("write fragment");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_micros(300));
            start = cut;
        }
    }
    stream.write_all(&bytes[start..]).expect("write tail");
    stream.flush().expect("flush");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    response
}

fn close_request(body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST /v1/impute HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

// ---------------------------------------------------------------- matrix

/// Every interesting request shape, one connection each, against the
/// pinned wire bytes (status line, header set and order, body).
#[test]
fn every_request_shape_answers_its_pinned_bytes() {
    let server = boot(config());
    let two = {
        // Two pipelined requests, the second closing the connection.
        let mut r =
            b"POST /v1/impute HTTP/1.1\r\nhost: x\r\ncontent-length: 5\r\n\r\nfirst".to_vec();
        r.extend_from_slice(&close_request(b"second"));
        r
    };
    const JSON_OK: &str = "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n";
    const TEXT: &str = "content-type: text/plain; charset=utf-8\r\n";
    let cases: Vec<(Vec<u8>, String)> = vec![
        (
            close_request(b"hello reactor"),
            format!("{JSON_OK}content-length: 13\r\nconnection: close\r\nx-kamel-cache: miss\r\n\r\nHELLO REACTOR"),
        ),
        (
            close_request(b"x"),
            format!("{JSON_OK}content-length: 1\r\nconnection: close\r\nx-kamel-cache: miss\r\n\r\nX"),
        ),
        (
            close_request(&[0xFF, 0xFE, 0x41]), // invalid UTF-8: parse error
            format!("HTTP/1.1 400 Bad Request\r\n{TEXT}content-length: 60\r\nconnection: close\r\n\r\nbad request: invalid utf-8 sequence of 1 bytes from index 0\n"),
        ),
        (
            close_request(b""), // empty body: the service rejects it
            format!("HTTP/1.1 400 Bad Request\r\n{TEXT}content-length: 24\r\nconnection: close\r\n\r\nbad request: empty body\n"),
        ),
        (
            two,
            format!("{JSON_OK}content-length: 5\r\nconnection: keep-alive\r\nx-kamel-cache: miss\r\n\r\nFIRST{JSON_OK}content-length: 6\r\nconnection: close\r\nx-kamel-cache: miss\r\n\r\nSECOND"),
        ),
        (
            b"GET /healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n".to_vec(),
            format!("HTTP/1.1 200 OK\r\n{TEXT}content-length: 3\r\nconnection: close\r\n\r\nok\n"),
        ),
        (
            b"GET /v1/info HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n".to_vec(),
            format!("{JSON_OK}content-length: 32\r\nconnection: close\r\n\r\n{{\"generation\":0,\"connections\":1}}"),
        ),
        (
            b"GET /nowhere HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n".to_vec(),
            format!("HTTP/1.1 404 Not Found\r\n{TEXT}content-length: 10\r\nconnection: close\r\n\r\nnot found\n"),
        ),
        (
            b"PUT /v1/impute HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n".to_vec(),
            format!("HTTP/1.1 405 Method Not Allowed\r\n{TEXT}content-length: 19\r\nconnection: close\r\n\r\nmethod not allowed\n"),
        ),
        (
            b"POST /v1/impute HTTP/2.0\r\nhost: x\r\nconnection: close\r\n\r\n".to_vec(),
            format!("HTTP/1.1 505 HTTP Version Not Supported\r\n{TEXT}content-length: 28\r\nconnection: close\r\n\r\nunsupported version HTTP/2.0"),
        ),
        (
            b"total garbage\r\n\r\n".to_vec(),
            format!("HTTP/1.1 400 Bad Request\r\n{TEXT}content-length: 38\r\nconnection: close\r\n\r\nmalformed request line `total garbage`"),
        ),
        (
            b"POST /v1/impute HTTP/1.1\r\ncontent-length: huge\r\n\r\n".to_vec(),
            format!("HTTP/1.1 400 Bad Request\r\n{TEXT}content-length: 25\r\nconnection: close\r\n\r\nbad content-length `huge`"),
        ),
    ];
    for (i, (request, expected)) in cases.iter().enumerate() {
        let got = exchange(server.local_addr(), request, &[]);
        assert_eq!(&String::from_utf8_lossy(&got), expected, "case {i}");
    }
    server.shutdown();
}

// --------------------------------------------------------- fragmentation

/// The incremental parser sees one byte per read — the hostile-slow-
/// client shape — and must answer as if the request arrived whole.
#[test]
fn byte_by_byte_delivery_answers_like_whole_delivery() {
    let server = boot(config());
    let request = close_request(b"one byte at a time");
    let cuts: Vec<usize> = (1..request.len()).collect();
    let trickled = exchange(server.local_addr(), &request, &cuts);
    let whole = exchange(server.local_addr(), &request, &[]);
    assert_eq!(
        String::from_utf8_lossy(&trickled),
        String::from_utf8_lossy(&whole)
    );
    server.shutdown();
}

/// Any body (0–159 arbitrary bytes), delivered in any fragmentation (up
/// to 5 cuts), answers byte-identically to whole delivery. A failure
/// names its seed.
#[test]
fn fragmented_requests_answer_like_whole_delivery() {
    let server = boot(config());
    for_each_case(24, |g| {
        let body: Vec<u8> = (0..g.usize_in(0..160)).map(|_| g.next_u64() as u8).collect();
        let request = close_request(&body);
        let mut cuts: Vec<usize> = (0..g.usize_in(0..6))
            .map(|_| g.usize_in(1..request.len() + 1))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let fragmented = exchange(server.local_addr(), &request, &cuts);
        let whole = exchange(server.local_addr(), &request, &[]);
        assert_eq!(fragmented, whole, "cuts {cuts:?}");
    });
    server.shutdown();
}

// ------------------------------------------------------------------ wall

fn read_one_response(stream: &mut TcpStream) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    // Head first (responses here are small; a 1-byte scan keeps this
    // helper trivially correct).
    while !buf.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).expect("read head"), 1, "early close");
        buf.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&buf).to_lowercase();
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .expect("content-length")
        .trim()
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read body");
    buf.extend_from_slice(&body);
    buf
}

/// The headline acceptance drill: 1,000 keep-alive connections held open
/// simultaneously against a server with TWO dispatch threads. The
/// connection gauge must count the whole wall (no connection is parked
/// waiting for a thread), and every connection must then answer the same
/// request with the same bytes.
#[test]
fn a_thousand_connections_on_a_two_thread_pool() {
    let mut cfg = config();
    cfg.handlers = 2;
    let server = boot(cfg);
    let addr = server.local_addr();
    const WALL: usize = 1_000;
    let mut wall = Vec::with_capacity(WALL);
    for i in 0..WALL {
        let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}"));
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        wall.push(stream);
    }
    // The server's own gauge must see every socket at once.
    let stats = server.connections();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let active = stats.active.load(Ordering::Relaxed);
        if active >= WALL as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gauge stalled at {active}/{WALL} connections"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(stats.accepted_total.load(Ordering::Relaxed) >= WALL as u64);
    // Every connection answers; every answer is the same bytes.
    let request = b"POST /v1/impute HTTP/1.1\r\nhost: x\r\ncontent-length: 4\r\n\r\nwall";
    let mut first: Option<Vec<u8>> = None;
    for (i, stream) in wall.iter_mut().enumerate() {
        stream.write_all(request).unwrap_or_else(|e| panic!("send {i}: {e}"));
        let response = read_one_response(stream);
        match &first {
            None => {
                assert!(
                    response.starts_with(b"HTTP/1.1 200"),
                    "unexpected first response: {}",
                    String::from_utf8_lossy(&response)
                );
                first = Some(response);
            }
            Some(expected) => assert_eq!(&response, expected, "connection {i} diverged"),
        }
    }
    drop(wall);
    server.shutdown();
}

/// Graceful drain under load: a half-sent request is abandoned, a
/// completed keep-alive connection is closed, and `shutdown` joins
/// everything without hanging.
#[test]
fn drain_closes_the_wall_and_joins() {
    let server = boot(config());
    let addr = server.local_addr();
    // Idle keep-alive connection that completed one request.
    let mut done = TcpStream::connect(addr).expect("connect");
    done.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    done.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n").expect("send");
    let ok = read_one_response(&mut done);
    assert!(ok.starts_with(b"HTTP/1.1 200"));
    // Mid-head connection: the parser never gets the blank line.
    let mut partial = TcpStream::connect(addr).expect("connect");
    partial.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    partial.write_all(b"POST /v1/impute HTTP/1.1\r\nhost").expect("send partial");
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();
    // Both sockets must now read EOF — no hung connections survive drain.
    let mut sink = [0u8; 64];
    assert_eq!(done.read(&mut sink).expect("post-drain read"), 0, "idle conn still open");
    assert_eq!(partial.read(&mut sink).expect("post-drain read"), 0, "partial conn still open");
}

/// The idle/slow-loris timer at the server level: a connection that goes
/// quiet is closed and counted on the real clock.
#[test]
fn idle_connections_time_out_and_are_counted() {
    let mut cfg = config();
    cfg.idle_timeout = Duration::from_millis(80);
    let server = boot(cfg);
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut sink = [0u8; 16];
    assert_eq!(conn.read(&mut sink).expect("idle read"), 0, "idle conn never closed");
    let stats = server.connections();
    assert!(stats.timed_out_total.load(Ordering::Relaxed) >= 1, "timeout not counted");
    server.shutdown();
}
