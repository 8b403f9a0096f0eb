//! The reactor's event loop and the threads around it; compiled only
//! where [`crate::poller`] has a selector. See [`super`] for the design.

use super::{ConnStats, ReactorConfig, ReactorHandle};
use crate::clock::Clock;
use crate::http::{Parsed, Request, RequestParser, Response};
use crate::poller::{Interest, PollEvent, Poller, Waker, WAKE_TOKEN};
use crate::shutdown::ShutdownFlag;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The token the listener is registered under (`WAKE_TOKEN` - 1 is
/// likewise never a connection token: connection generations are
/// truncated to 31 bits, capping them below `1 << 63`).
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// Where a worker sends the finished [`Response`] for one dispatched
/// request. One-shot: consumed by [`ResponseSink::send`]. Dropping it
/// without sending (a worker panic, a failed channel hand-off) enqueues
/// an abandonment completion: the reactor answers `500` and closes the
/// connection, so a `Dispatched` connection can never leak or hang the
/// graceful drain.
struct ResponseSink {
    token: u64,
    completions: Arc<CompletionQueue>,
    sent: bool,
}

impl ResponseSink {
    /// Delivers the response; wakes the reactor to write it out.
    fn send(mut self, response: Response) {
        self.sent = true;
        self.completions
            .queue
            .lock()
            .unwrap()
            .push((self.token, Completion::Respond(response)));
        self.completions.waker.wake();
    }
}

impl Drop for ResponseSink {
    fn drop(&mut self) {
        if self.sent {
            return;
        }
        self.completions
            .queue
            .lock()
            .unwrap()
            .push((self.token, Completion::Abandoned));
        self.completions.waker.wake();
    }
}

/// What came back for a dispatched request.
enum Completion {
    /// The worker produced a response.
    Respond(Response),
    /// The sink was dropped without a response (worker panic or lost
    /// hand-off); the connection gets a `500` and closes.
    Abandoned,
}

/// What the reactor hands a dispatch worker: the parsed request, the
/// instant its last byte was parsed (the deadline base: time spent in the
/// dispatch queue counts against the request budget), and the sink for
/// its response.
type Dispatch = (Request, Instant, ResponseSink);

struct CompletionQueue {
    queue: Mutex<Vec<(u64, Completion)>>,
    waker: Waker,
}

/// Per-connection state machine position.
enum State {
    /// Accumulating request bytes through the incremental parser.
    Reading,
    /// A request is with the worker pool; reads are paused (kernel
    /// buffers backpressure the client) until the response is written.
    Dispatched,
    /// Draining the serialized response to the socket.
    Writing {
        buf: Vec<u8>,
        off: usize,
        close_after: bool,
    },
}

struct Conn {
    stream: TcpStream,
    gen: u32,
    parser: RequestParser,
    state: State,
    /// Close after the in-flight response (client `Connection: close`).
    wants_close: bool,
    /// No-progress deadline for `Reading`/`Writing` states.
    idle_deadline: Instant,
}

enum StepAction {
    /// Parked on readiness (or a completion); nothing more to do now.
    Wait,
    /// A state transition happened; run another step.
    Continue,
    /// Close the connection.
    Close { timed_out: bool },
    /// A complete request came off the wire; hand it to the handler.
    Dispatch(Request),
}

/// A hashed timer wheel over the injectable clock. One entry per armed
/// connection; entries fire at their slot and the owner decides — close
/// or re-arm — so per-activity updates cost nothing (the connection just
/// moves its `idle_deadline` forward and the stale wheel entry re-arms
/// itself when it fires).
struct TimerWheel {
    slots: Vec<Vec<(u64, u64)>>, // (expiry_tick, token)
    tick: Duration,
    base: Instant,
    cursor: u64,
}

impl TimerWheel {
    const SLOTS: usize = 64;

    fn new(base: Instant, idle_timeout: Duration) -> Self {
        // Granularity scales with the timeout: fine enough that expiry
        // lands within ~1/16 of the configured window, coarse enough
        // that sweeps stay rare.
        let tick = (idle_timeout / 16).clamp(Duration::from_millis(1), Duration::from_secs(1));
        TimerWheel {
            slots: (0..Self::SLOTS).map(|_| Vec::new()).collect(),
            tick,
            base,
            cursor: 0,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let elapsed = at.saturating_duration_since(self.base);
        // Ceiling: a deadline mid-tick fires at the following tick.
        (elapsed.as_micros() as u64).div_ceil(self.tick.as_micros().max(1) as u64)
    }

    fn insert(&mut self, token: u64, deadline: Instant) {
        let tick = self.tick_of(deadline).max(self.cursor + 1);
        self.slots[(tick % Self::SLOTS as u64) as usize].push((tick, token));
    }

    /// Advances to `now`, calling `expire` for every due entry. The
    /// callback returns `Some(deadline)` to re-arm the token, `None` to
    /// forget it.
    fn advance(&mut self, now: Instant, mut expire: impl FnMut(u64) -> Option<Instant>) {
        let now_tick = self.tick_of(now);
        if now_tick <= self.cursor {
            return;
        }
        // A jump beyond one full revolution (e.g. a ManualClock leap)
        // still only needs each slot visited once.
        let span = (now_tick - self.cursor).min(Self::SLOTS as u64);
        let mut due = Vec::new();
        for t in (self.cursor + 1)..=(self.cursor + span) {
            let slot = &mut self.slots[(t % Self::SLOTS as u64) as usize];
            let mut i = 0;
            while i < slot.len() {
                if slot[i].0 <= now_tick {
                    due.push(slot.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
        }
        self.cursor = now_tick;
        for token in due {
            if let Some(deadline) = expire(token) {
                self.insert(token, deadline);
            }
        }
    }
}

struct Slab {
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u32,
}

impl Slab {
    fn new() -> Self {
        Slab {
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
        }
    }

    /// Inserts a connection, returning its (index, token). Tokens carry
    /// a 31-bit generation so a completion addressed to a closed-and-
    /// reused slot is recognized as stale and dropped.
    fn insert(&mut self, mut conn: Conn) -> (usize, u64) {
        let gen = self.next_gen & 0x7fff_ffff;
        self.next_gen = self.next_gen.wrapping_add(1);
        conn.gen = gen;
        let idx = match self.free.pop() {
            Some(idx) => {
                self.conns[idx] = Some(conn);
                idx
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        (idx, token_for(idx, gen))
    }

    fn get_mut(&mut self, token: u64) -> Option<(usize, &mut Conn)> {
        let idx = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        let conn = self.conns.get_mut(idx)?.as_mut()?;
        (conn.gen == gen).then_some((idx, conn))
    }

    fn remove(&mut self, idx: usize) -> Option<Conn> {
        let conn = self.conns.get_mut(idx)?.take();
        if conn.is_some() {
            self.free.push(idx);
        }
        conn
    }
}

fn token_for(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

impl ReactorHandle {
    /// [`ReactorHandle::spawn`] with the selector constructor injected.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn spawn_with(
        make_poller: impl FnOnce() -> io::Result<Poller>,
        listener: TcpListener,
        config: ReactorConfig,
        clock: Arc<dyn Clock>,
        flag: ShutdownFlag,
        stats: Arc<ConnStats>,
        handlers: usize,
        name: &str,
        handle: impl Fn(&Request, Instant) -> Response + Send + Sync + 'static,
    ) -> io::Result<ReactorHandle> {
        listener.set_nonblocking(true)?;
        let poller = make_poller()?;
        poller.register(listener.as_raw_fd(), LISTEN_TOKEN, Interest::READ)?;
        let handle = Arc::new(handle);
        let (req_tx, req_rx) = mpsc::channel::<Dispatch>();
        let req_rx = Arc::new(Mutex::new(req_rx));
        let workers = (0..handlers.max(1))
            .map(|i| {
                let req_rx = Arc::clone(&req_rx);
                let handle = Arc::clone(&handle);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || loop {
                        // Holding the receiver lock only while dequeueing.
                        let next = req_rx.lock().unwrap().recv();
                        let Ok((request, received, sink)) = next else {
                            return; // reactor drained and dropped the sender
                        };
                        sink.send(handle(&request, received));
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;
        // The reactor owns `req_tx`; when it drains and exits, the channel
        // disconnects the workers.
        let thread_name = format!("{name}-reactor");
        let reactor = std::thread::Builder::new()
            .name(thread_name.clone())
            .spawn(move || {
                if let Err(e) = run_reactor(listener, poller, config, clock, flag, stats, req_tx) {
                    eprintln!("{thread_name}: failed: {e}");
                }
            })?;
        Ok(ReactorHandle { reactor, workers })
    }
}

/// Runs the reactor until the shutdown flag trips and every connection
/// has drained, sending each parsed request down `dispatch`.
fn run_reactor(
    listener: TcpListener,
    mut poller: Poller,
    config: ReactorConfig,
    clock: Arc<dyn Clock>,
    flag: ShutdownFlag,
    stats: Arc<ConnStats>,
    dispatch: mpsc::Sender<Dispatch>,
) -> io::Result<()> {
    let completions = Arc::new(CompletionQueue {
        queue: Mutex::new(Vec::new()),
        waker: poller.waker(),
    });
    let idle_timeout = config.idle_timeout.max(Duration::from_millis(1));
    let mut wheel = TimerWheel::new(clock.now(), idle_timeout);
    let mut slab = Slab::new();
    let mut active: usize = 0;
    let mut draining = false;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let loop_tick = config.loop_tick.max(Duration::from_millis(1));

    loop {
        events.clear();
        poller.wait(&mut events, Some(loop_tick))?;

        // Finished responses first: they free worker capacity and turn
        // Dispatched connections into writes this same cycle.
        let done: Vec<(u64, Completion)> =
            std::mem::take(&mut *completions.queue.lock().unwrap());
        for (token, completion) in done {
            let now = clock.now();
            let Some((idx, conn)) = slab.get_mut(token) else {
                continue; // connection closed while the worker computed
            };
            if !matches!(conn.state, State::Dispatched) {
                continue; // stale or duplicate completion
            }
            let (response, abandoned) = match completion {
                Completion::Respond(response) => (response, false),
                Completion::Abandoned => (
                    Response::text(500, "internal error: request abandoned\n"),
                    true,
                ),
            };
            // The close rule: client asked, or a shed/draining 503 forces
            // a re-establish after backoff.
            // An abandoned request always closes: the worker's state for
            // this connection is unknown.
            let close = abandoned || conn.wants_close || response.status == 503;
            let mut buf = Vec::with_capacity(response.body.len() + 256);
            response
                .write_to(&mut buf, close)
                .expect("serializing to a Vec cannot fail");
            conn.state = State::Writing {
                buf,
                off: 0,
                // Draining closes even a keep-alive connection after its
                // in-flight response.
                close_after: close || flag.is_tripped(),
            };
            conn.idle_deadline = now + idle_timeout;
            progress(
                idx, &mut slab, &mut active, &clock, idle_timeout, &mut scratch, &completions,
                &dispatch, &stats,
            );
        }

        for ev in &events {
            match ev.token {
                WAKE_TOKEN => {} // completions are drained every cycle
                LISTEN_TOKEN => {
                    let fresh = accept_all(
                        &listener, &config, &mut slab, &mut active, &poller, &clock,
                        idle_timeout, &mut wheel, &stats, draining,
                    );
                    // Bytes may have arrived before registration; the
                    // registration edge covers them, but progressing now
                    // saves a cycle.
                    for idx in fresh {
                        progress(
                            idx, &mut slab, &mut active, &clock, idle_timeout, &mut scratch,
                            &completions, &dispatch, &stats,
                        );
                    }
                }
                token => {
                    let Some((idx, conn)) = slab.get_mut(token) else {
                        continue;
                    };
                    if ev.readable || ev.closed {
                        conn.idle_deadline = clock.now() + idle_timeout;
                    }
                    progress(
                        idx, &mut slab, &mut active, &clock, idle_timeout, &mut scratch,
                        &completions, &dispatch, &stats,
                    );
                }
            }
        }

        // Idle / slow-loris sweep.
        let now = clock.now();
        let tick = wheel.tick;
        let mut expired: Vec<usize> = Vec::new();
        wheel.advance(now, |token| {
            let (idx, conn) = slab.get_mut(token)?;
            match conn.state {
                State::Reading | State::Writing { .. } if now >= conn.idle_deadline => {
                    expired.push(idx);
                    None
                }
                // Dispatched requests are deadline-bounded elsewhere;
                // check again a full window later.
                State::Dispatched => Some(now + idle_timeout),
                _ => Some(conn.idle_deadline.max(now + tick)),
            }
        });
        for idx in expired {
            stats.timed_out_total.fetch_add(1, Ordering::Relaxed);
            close_conn(idx, &mut slab, &mut active, &stats);
        }

        // Graceful drain: stop accepting, shed idle connections, let
        // in-flight requests finish, exit once the slab is empty.
        if flag.is_tripped() {
            if !draining {
                draining = true;
                let _ = poller.deregister(listener.as_raw_fd());
                let reading: Vec<usize> = slab
                    .conns
                    .iter()
                    .enumerate()
                    .filter_map(|(idx, c)| {
                        matches!(c.as_ref()?.state, State::Reading).then_some(idx)
                    })
                    .collect();
                for idx in reading {
                    close_conn(idx, &mut slab, &mut active, &stats);
                }
            }
            if active == 0 {
                return Ok(());
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_all(
    listener: &TcpListener,
    config: &ReactorConfig,
    slab: &mut Slab,
    active: &mut usize,
    poller: &Poller,
    clock: &Arc<dyn Clock>,
    idle_timeout: Duration,
    wheel: &mut TimerWheel,
    stats: &ConnStats,
    draining: bool,
) -> Vec<usize> {
    let mut fresh = Vec::new();
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return fresh,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return fresh,
        };
        if draining {
            continue; // late race: drop without counting
        }
        if *active >= config.max_connections {
            stats.rejected_total.fetch_add(1, Ordering::Relaxed);
            // Best-effort 503 so the client backs off instead of seeing
            // a bare RST; a full socket buffer just drops the hint.
            let mut wire = Vec::with_capacity(256);
            let _ = Response::text(503, "overloaded: connection limit reached\n")
                .with_header("retry-after", "1")
                .write_to(&mut wire, true);
            // The fresh socket is still blocking; flip it first so this
            // best-effort hint can never stall the reactor thread (a
            // partial or failed write just degrades to the bare close).
            let mut stream = stream;
            if stream.set_nonblocking(true).is_ok() {
                let _ = stream.write(&wire);
            }
            continue;
        }
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            continue;
        }
        let now = clock.now();
        let conn = Conn {
            stream,
            gen: 0,
            parser: RequestParser::new(),
            state: State::Reading,
            wants_close: false,
            idle_deadline: now + idle_timeout,
        };
        let (idx, token) = slab.insert(conn);
        let fd = slab.conns[idx].as_ref().unwrap().stream.as_raw_fd();
        if poller.register(fd, token, Interest::BOTH).is_err() {
            slab.remove(idx);
            continue;
        }
        *active += 1;
        stats.accepted_total.fetch_add(1, Ordering::Relaxed);
        stats.active.fetch_add(1, Ordering::Relaxed);
        wheel.insert(token, now + idle_timeout);
        fresh.push(idx);
    }
}

#[allow(clippy::too_many_arguments)]
fn progress(
    idx: usize,
    slab: &mut Slab,
    active: &mut usize,
    clock: &Arc<dyn Clock>,
    idle_timeout: Duration,
    scratch: &mut [u8],
    completions: &Arc<CompletionQueue>,
    dispatch: &mpsc::Sender<Dispatch>,
    stats: &ConnStats,
) {
    loop {
        let now = clock.now();
        let action = {
            let Some(conn) = slab.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            step(conn, now, idle_timeout, scratch)
        };
        match action {
            StepAction::Wait => return,
            StepAction::Continue => continue,
            StepAction::Close { timed_out } => {
                if timed_out {
                    stats.timed_out_total.fetch_add(1, Ordering::Relaxed);
                }
                close_conn(idx, slab, active, stats);
                return;
            }
            StepAction::Dispatch(request) => {
                let gen = slab.conns[idx].as_ref().unwrap().gen;
                let sink = ResponseSink {
                    token: token_for(idx, gen),
                    completions: Arc::clone(completions),
                    sent: false,
                };
                // With every worker gone the send fails and drops the sink,
                // which answers 500.
                let _ = dispatch.send((request, now, sink));
                return; // parked until the completion arrives
            }
        }
    }
}

/// One unit of connection work. Runs on buffered + readable bytes and
/// the write buffer; never blocks (all sockets are non-blocking).
fn step(conn: &mut Conn, now: Instant, idle_timeout: Duration, scratch: &mut [u8]) -> StepAction {
    match &mut conn.state {
        State::Dispatched => StepAction::Wait,
        State::Reading => {
            loop {
                // Parse before reading: pipelined leftovers from the
                // previous request must produce the next one without any
                // new bytes (an edge may never come).
                match conn.parser.poll() {
                    Parsed::Request(request) => {
                        conn.wants_close = request.wants_close();
                        conn.state = State::Dispatched;
                        return StepAction::Dispatch(request);
                    }
                    Parsed::Bad(status, msg) => {
                        // Answer the error, then close.
                        let mut buf = Vec::with_capacity(256);
                        Response::text(status, msg)
                            .write_to(&mut buf, true)
                            .expect("serializing to a Vec cannot fail");
                        conn.state = State::Writing {
                            buf,
                            off: 0,
                            close_after: true,
                        };
                        return StepAction::Continue;
                    }
                    Parsed::Incomplete => {}
                }
                match conn.stream.read(scratch) {
                    Ok(0) => {
                        // EOF. A fully-received request was dispatched by
                        // the parse above, so anything left is partial.
                        return StepAction::Close { timed_out: false };
                    }
                    Ok(n) => {
                        conn.parser.feed(&scratch[..n]);
                        conn.idle_deadline = now + idle_timeout;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return StepAction::Wait;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return StepAction::Close { timed_out: false },
                }
            }
        }
        State::Writing {
            buf,
            off,
            close_after,
        } => {
            while *off < buf.len() {
                match conn.stream.write(&buf[*off..]) {
                    Ok(0) => return StepAction::Close { timed_out: false },
                    Ok(n) => {
                        *off += n;
                        conn.idle_deadline = now + idle_timeout;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return StepAction::Wait; // EPOLLOUT re-arms us
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return StepAction::Close { timed_out: false },
                }
            }
            if *close_after {
                StepAction::Close { timed_out: false }
            } else {
                conn.state = State::Reading;
                conn.idle_deadline = now + idle_timeout;
                StepAction::Continue // pipelined bytes may be waiting
            }
        }
    }
}

fn close_conn(idx: usize, slab: &mut Slab, active: &mut usize, stats: &ConnStats) {
    if slab.remove(idx).is_some() {
        // Dropping the TcpStream closes the fd, which also removes it
        // from the epoll/kqueue interest set.
        *active = active.saturating_sub(1);
        stats.active.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ManualClock, SystemClock};
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    /// Boots a connection layer over `handle` with a two-worker pool.
    fn boot(
        config: ReactorConfig,
        clock: Arc<dyn Clock>,
        handle: impl Fn(&Request, Instant) -> Response + Send + Sync + 'static,
    ) -> (
        std::net::SocketAddr,
        ShutdownFlag,
        Arc<ConnStats>,
        ReactorHandle,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let flag = ShutdownFlag::new();
        let stats = Arc::new(ConnStats::default());
        let layer = ReactorHandle::spawn(
            listener,
            config,
            clock,
            flag.clone(),
            Arc::clone(&stats),
            2,
            "test",
            handle,
        )
        .unwrap();
        (addr, flag, stats, layer)
    }

    /// Uppercases POST bodies (the non-blocking dispatch/completion round
    /// trip through a worker) and answers GETs with a fixed body.
    fn echo(request: &Request, _received: Instant) -> Response {
        match request.method.as_str() {
            "POST" => Response::json(request.body.to_ascii_uppercase()),
            _ => Response::text(200, "ok\n"),
        }
    }

    fn quick_config() -> ReactorConfig {
        ReactorConfig {
            loop_tick: Duration::from_millis(5),
            ..ReactorConfig::default()
        }
    }

    fn read_response(stream: &mut impl BufRead) -> (u16, Vec<u8>) {
        let mut status_line = String::new();
        stream.read_line(&mut status_line).unwrap();
        let status: u16 = status_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            stream.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        stream.read_exact(&mut body).unwrap();
        (status, body)
    }

    #[test]
    fn keep_alive_round_trips_through_the_worker() {
        let (addr, flag, stats, handle) = boot(quick_config(), Arc::new(SystemClock), echo);
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for i in 0..3 {
            let body = format!("hello-{i}");
            write!(
                writer,
                "POST /v1/impute HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .unwrap();
            let (status, got) = read_response(&mut reader);
            assert_eq!(status, 200);
            assert_eq!(got, body.to_uppercase().into_bytes());
        }
        assert_eq!(stats.active.load(Ordering::Relaxed), 1);
        assert_eq!(stats.accepted_total.load(Ordering::Relaxed), 1);
        drop(writer);
        flag.trip();
        handle.join();
        assert_eq!(stats.active.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let (addr, flag, _stats, handle) = boot(quick_config(), Arc::new(SystemClock), echo);
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // Two requests in one write.
        writer
            .write_all(
                b"POST /a HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc\
                  POST /b HTTP/1.1\r\ncontent-length: 3\r\n\r\nxyz",
            )
            .unwrap();
        let (s1, b1) = read_response(&mut reader);
        let (s2, b2) = read_response(&mut reader);
        assert_eq!((s1, b1.as_slice()), (200, b"ABC".as_slice()));
        assert_eq!((s2, b2.as_slice()), (200, b"XYZ".as_slice()));
        drop(writer);
        flag.trip();
        handle.join();
    }

    #[test]
    fn malformed_requests_get_their_status_then_close() {
        let (addr, flag, _stats, handle) = boot(quick_config(), Arc::new(SystemClock), echo);
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"GET / HTTP/2.0\r\n\r\n").unwrap();
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, 505);
        // Closed after the error.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        flag.trip();
        handle.join();
    }

    #[test]
    fn idle_connections_are_closed_by_the_manual_clock_timer() {
        let clock = ManualClock::shared();
        let config = ReactorConfig {
            idle_timeout: Duration::from_secs(5),
            ..quick_config()
        };
        let (addr, flag, stats, handle) = boot(config, clock.clone(), echo);
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Wait until accepted, then let it idle past the window.
        let accept_deadline = Instant::now() + Duration::from_secs(5);
        while stats.active.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < accept_deadline, "never accepted");
            std::thread::sleep(Duration::from_millis(2));
        }
        clock.advance(Duration::from_secs(60));
        let mut reader = BufReader::new(stream);
        let mut buf = Vec::new();
        reader.read_to_end(&mut buf).unwrap(); // EOF = closed by server
        assert!(buf.is_empty());
        assert_eq!(stats.timed_out_total.load(Ordering::Relaxed), 1);
        // The reactor closes the socket before it lowers the gauge.
        let gauge_deadline = Instant::now() + Duration::from_secs(5);
        while stats.active.load(Ordering::Relaxed) != 0 {
            assert!(Instant::now() < gauge_deadline, "gauge never dropped");
            std::thread::sleep(Duration::from_millis(2));
        }
        flag.trip();
        handle.join();
    }

    #[test]
    fn connections_beyond_the_cap_are_rejected_with_503() {
        let config = ReactorConfig {
            max_connections: 2,
            ..quick_config()
        };
        let (addr, flag, stats, handle) = boot(config, Arc::new(SystemClock), echo);
        let _hold1 = TcpStream::connect(addr).unwrap();
        let _hold2 = TcpStream::connect(addr).unwrap();
        let wait = Instant::now() + Duration::from_secs(5);
        while stats.active.load(Ordering::Relaxed) < 2 {
            assert!(Instant::now() < wait, "holds never accepted");
            std::thread::sleep(Duration::from_millis(2));
        }
        let third = TcpStream::connect(addr).unwrap();
        third
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(third);
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, 503);
        assert_eq!(stats.rejected_total.load(Ordering::Relaxed), 1);
        flag.trip();
        handle.join();
    }

    #[test]
    fn drain_finishes_the_in_flight_request_then_closes() {
        // A gated handler: the test controls when the response happens.
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let (addr, flag, stats, handle) = boot(
            quick_config(),
            Arc::new(SystemClock),
            move |request, _received| {
                entered_tx.send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
                Response::json(request.body.clone())
            },
        );
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer
            .write_all(b"POST / HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi")
            .unwrap();
        entered_rx.recv().unwrap();
        // In flight now; add an extra idle connection, to be shed at drain.
        let idle = TcpStream::connect(addr).unwrap();
        let wait = Instant::now() + Duration::from_secs(5);
        while stats.accepted_total.load(Ordering::Relaxed) < 2 {
            assert!(Instant::now() < wait, "idle conn never accepted");
            std::thread::sleep(Duration::from_millis(2));
        }
        flag.trip();
        // The in-flight request still completes…
        release_tx.send(()).unwrap();
        let (status, body) = read_response(&mut reader);
        assert_eq!((status, body.as_slice()), (200, b"hi".as_slice()));
        // …then its connection closes (drain), as does the idle one.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        let mut idle_reader = BufReader::new(idle);
        let mut idle_rest = Vec::new();
        idle_reader.read_to_end(&mut idle_rest).unwrap();
        assert!(idle_rest.is_empty());
        handle.join();
        assert_eq!(stats.active.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_panicking_worker_answers_500_closes_and_drains_clean() {
        let (addr, flag, stats, handle) = boot(
            quick_config(),
            Arc::new(SystemClock),
            |_request, _received| panic!("worker abandons the request"),
        );
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer
            .write_all(b"POST / HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi")
            .unwrap();
        // The unwinding worker drops the sink unsent: the connection must
        // get a 500 and close, not park in Dispatched.
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, 500);
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection must close after the 500");
        // Drain must reach active == 0 and return.
        flag.trip();
        handle.join();
        assert_eq!(stats.active.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_failing_selector_is_an_error_and_starts_no_thread() {
        // The handler owns this Arc; any thread left running would keep a
        // clone of the handler — and so of the Arc — alive.
        let held = Arc::new(());
        let in_handler = Arc::clone(&held);
        let outcome = ReactorHandle::spawn_with(
            || Err(io::Error::new(io::ErrorKind::Unsupported, "no selector")),
            TcpListener::bind("127.0.0.1:0").unwrap(),
            quick_config(),
            Arc::new(SystemClock),
            ShutdownFlag::new(),
            Arc::new(ConnStats::default()),
            2,
            "test",
            move |_request, _received| {
                let _ = &in_handler;
                Response::text(200, "unreachable\n")
            },
        );
        let err = outcome.err().expect("spawn must fail");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "a thread still holds the handler"
        );
    }
}
