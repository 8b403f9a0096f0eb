//! A dependency-free readiness poller: `epoll` on Linux/Android, `kqueue`
//! on macOS/iOS/FreeBSD — the OS primitive under the connection layer
//! ([`crate::reactor`]). The module exists only on those platforms.
//!
//! The build environment has no crates registry, so this speaks to the
//! kernel directly through `extern "C"` declarations against the libc
//! that `std` already links (the same approach as `shutdown.rs` and the
//! store's `mmap`). The surface is deliberately tiny:
//!
//! * [`Poller::register`] — watch an fd (edge-triggered) under a caller
//!   token;
//! * [`Poller::wait`] — block until readiness events (or a timeout);
//! * [`Waker`] — wake a blocked `wait` from any thread (a nonblocking
//!   `UnixStream` pair registered under [`WAKE_TOKEN`]).
//!
//! Everything is edge-triggered (`EPOLLET` / `EV_CLEAR`): a readiness
//! event fires once per kernel-state transition, so consumers must drain
//! (`read`/`write` until `WouldBlock`) before waiting again.

#![cfg(any(
    target_os = "linux",
    target_os = "android",
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd"
))]

use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// The token [`Poller::wait`] reports for [`Waker`] wakeups. Reserved:
/// never register a connection under it.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// Which directions of readiness to watch for an fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd becomes writable again.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read (or EOF/hangup to observe via `read`).
    pub readable: bool,
    /// The fd can accept writes again.
    pub writable: bool,
    /// The peer closed or the fd errored; drain reads, then close.
    pub closed: bool,
}

#[cfg(any(target_os = "linux", target_os = "android"))]
mod sys {
    //! Raw epoll, declared against the libc `std` links.
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;

    /// The kernel's `struct epoll_event`. The kernel packs it ONLY on
    /// x86-64 (`EPOLL_PACKED`); on every other architecture `data` sits
    /// at offset 8 behind natural padding, so the packing must be
    /// cfg-gated or the event stride and token offset are wrong.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct Event {
        pub events: u32,
        pub data: u64,
    }

    unsafe extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
        fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An epoll instance.
    pub struct Selector {
        epfd: RawFd,
    }

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            let epfd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Selector { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = Event {
                events,
                data: token,
            };
            check(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        pub fn register(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Waits for events; `timeout` of `None` blocks indefinitely.
        pub fn wait(
            &self,
            buf: &mut [Event],
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let timeout_ms = match timeout {
                // Round up so a 100µs timeout does not busy-spin at 0ms.
                Some(t) => t.as_millis().min(i32::MAX as u128).max(u128::from(!t.is_zero())) as i32,
                None => -1,
            };
            loop {
                let n = unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
                };
                match check(n) {
                    Ok(n) => return Ok(n as usize),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
    }

    impl Drop for Selector {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }

    /// Translates [`super::Interest`] to an edge-triggered event mask.
    pub fn event_mask(interest: super::Interest) -> u32 {
        let mut mask = EPOLLET | EPOLLRDHUP;
        if interest.readable {
            mask |= EPOLLIN;
        }
        if interest.writable {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// Decodes a kernel event into the portable [`super::PollEvent`].
    pub fn decode(ev: &Event) -> super::PollEvent {
        let bits = ev.events;
        super::PollEvent {
            token: ev.data,
            readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
            writable: bits & EPOLLOUT != 0,
            closed: bits & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
        }
    }
}

#[cfg(not(any(target_os = "linux", target_os = "android")))]
mod sys {
    //! Raw kqueue. Each (fd, filter) pair is its own kernel registration,
    //! so read and write interest are added/deleted independently.
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EVFILT_READ: i16 = -1;
    const EVFILT_WRITE: i16 = -2;
    const EV_ADD: u16 = 0x0001;
    const EV_DELETE: u16 = 0x0002;
    const EV_CLEAR: u16 = 0x0020;
    const EV_RECEIPT: u16 = 0x0040;
    const EV_ERROR: u16 = 0x4000;
    const EV_EOF: u16 = 0x8000;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// `struct kevent`. macOS and FreeBSD (≥12) differ only in the
    /// trailing `ext` words FreeBSD appends.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct Event {
        ident: usize,
        filter: i16,
        flags: u16,
        fflags: u32,
        data: isize,
        udata: *mut std::ffi::c_void,
        #[cfg(target_os = "freebsd")]
        ext: [u64; 4],
    }

    unsafe impl Send for Event {}

    impl Event {
        fn change(fd: RawFd, filter: i16, flags: u16, token: u64) -> Event {
            Event {
                ident: fd as usize,
                filter,
                flags,
                fflags: 0,
                data: 0,
                udata: token as *mut std::ffi::c_void,
                #[cfg(target_os = "freebsd")]
                ext: [0; 4],
            }
        }
    }

    unsafe extern "C" {
        fn kqueue() -> i32;
        fn kevent(
            kq: i32,
            changelist: *const Event,
            nchanges: i32,
            eventlist: *mut Event,
            nevents: i32,
            timeout: *const Timespec,
        ) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub struct Selector {
        kq: RawFd,
    }

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            let kq = check(unsafe { kqueue() })?;
            Ok(Selector { kq })
        }

        /// Applies a change list; per-change errors are reported through
        /// `EV_RECEIPT` result events.
        fn apply(&self, changes: &mut [Event]) -> io::Result<()> {
            let n = check(unsafe {
                kevent(
                    self.kq,
                    changes.as_ptr(),
                    changes.len() as i32,
                    changes.as_mut_ptr(),
                    changes.len() as i32,
                    std::ptr::null(),
                )
            })?;
            for ev in changes.iter().take(n as usize) {
                if ev.flags & EV_ERROR != 0 && ev.data != 0 {
                    return Err(io::Error::from_raw_os_error(ev.data as i32));
                }
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            let mut changes = Vec::with_capacity(2);
            if events & 1 != 0 {
                changes.push(Event::change(
                    fd,
                    EVFILT_READ,
                    EV_ADD | EV_CLEAR | EV_RECEIPT,
                    token,
                ));
            }
            if events & 2 != 0 {
                changes.push(Event::change(
                    fd,
                    EVFILT_WRITE,
                    EV_ADD | EV_CLEAR | EV_RECEIPT,
                    token,
                ));
            }
            self.apply(&mut changes)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            // Closing the fd removes its kevents; explicit deletes are
            // best-effort cleanup for callers that keep the fd open.
            let mut del_r = [Event::change(fd, EVFILT_READ, EV_DELETE | EV_RECEIPT, 0)];
            let _ = self.apply(&mut del_r);
            let mut del_w = [Event::change(fd, EVFILT_WRITE, EV_DELETE | EV_RECEIPT, 0)];
            let _ = self.apply(&mut del_w);
            Ok(())
        }

        pub fn wait(&self, buf: &mut [Event], timeout: Option<Duration>) -> io::Result<usize> {
            let ts;
            let ts_ptr = match timeout {
                Some(t) => {
                    ts = Timespec {
                        tv_sec: t.as_secs().min(i64::MAX as u64) as i64,
                        tv_nsec: i64::from(t.subsec_nanos()),
                    };
                    &ts as *const Timespec
                }
                None => std::ptr::null(),
            };
            loop {
                let n = unsafe {
                    kevent(
                        self.kq,
                        std::ptr::null(),
                        0,
                        buf.as_mut_ptr(),
                        buf.len() as i32,
                        ts_ptr,
                    )
                };
                match check(n) {
                    Ok(n) => return Ok(n as usize),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
    }

    impl Drop for Selector {
        fn drop(&mut self) {
            unsafe {
                close(self.kq);
            }
        }
    }

    /// Interest encoding shared with the portable layer: bit 0 read,
    /// bit 1 write (kqueue has no combined mask).
    pub fn event_mask(interest: super::Interest) -> u32 {
        u32::from(interest.readable) | (u32::from(interest.writable) << 1)
    }

    pub fn decode(ev: &Event) -> super::PollEvent {
        super::PollEvent {
            token: ev.udata as u64,
            readable: ev.filter == EVFILT_READ,
            writable: ev.filter == EVFILT_WRITE,
            closed: ev.flags & EV_EOF != 0,
        }
    }
}

/// A readiness poller over the platform selector, with a built-in waker
/// channel so other threads can interrupt [`Poller::wait`].
pub struct Poller {
    selector: sys::Selector,
    wake_rx: UnixStream,
    wake_tx: UnixStream,
    events: Vec<sys::Event>,
}

/// Wakes a [`Poller`] blocked in `wait` from any thread. Cloneable and
/// cheap; coalesces (many wakes before a drain produce one event).
#[derive(Clone)]
pub struct Waker {
    tx: std::sync::Arc<UnixStream>,
}

impl Waker {
    /// Interrupts the poller's current (or next) `wait`.
    pub fn wake(&self) {
        use std::io::Write;
        // A full pipe already guarantees a pending wake event.
        let _ = (&*self.tx).write(&[1]);
    }
}

impl Poller {
    /// Creates a poller over a fresh selector and wake pipe.
    pub fn new() -> io::Result<Poller> {
        let selector = sys::Selector::new()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        selector.register(
            wake_rx.as_raw_fd(),
            WAKE_TOKEN,
            sys::event_mask(Interest::READ),
        )?;
        Ok(Poller {
            selector,
            wake_rx,
            wake_tx,
            // SAFETY: `sys::Event` is integers (and, for kqueue, a raw
            // pointer) only; all-zero bytes are a valid value of it.
            events: vec![unsafe { std::mem::zeroed() }; 1024],
        })
    }

    /// A handle that wakes this poller from any thread.
    pub fn waker(&self) -> Waker {
        Waker {
            tx: std::sync::Arc::new(self.wake_tx.try_clone().expect("clone waker stream")),
        }
    }

    /// Watches `fd` (edge-triggered) under `token`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        debug_assert_ne!(token, WAKE_TOKEN, "WAKE_TOKEN is reserved");
        self.selector.register(fd, token, sys::event_mask(interest))
    }

    /// Stops watching `fd` (also implicit when the fd is closed).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.selector.deregister(fd)
    }

    /// Blocks until readiness events arrive (or `timeout` passes),
    /// appending them to `out`. Waker wakeups are drained internally and
    /// reported as a [`WAKE_TOKEN`] event so callers can react (e.g.
    /// drain a completion queue) without seeing the pipe itself.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        let n = self.selector.wait(&mut self.events, timeout)?;
        for i in 0..n {
            let ev = sys::decode(&self.events[i]);
            if ev.token == WAKE_TOKEN {
                use std::io::Read;
                let mut sink = [0u8; 64];
                while let Ok(k) = (&self.wake_rx).read(&mut sink) {
                    if k < sink.len() {
                        break;
                    }
                }
                out.push(PollEvent {
                    token: WAKE_TOKEN,
                    readable: true,
                    writable: false,
                    closed: false,
                });
            } else {
                out.push(ev);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn wait_for(poller: &mut Poller, want_token: u64, what: &str) -> Vec<PollEvent> {
        let mut events = Vec::new();
        for _ in 0..50 {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == want_token) {
                return events;
            }
            events.clear();
        }
        panic!("no {what} event for token {want_token}");
    }

    #[test]
    fn readable_event_fires_once_per_arrival_edge() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 7, Interest::READ)
            .unwrap();

        client.write_all(b"hello").unwrap();
        let events = wait_for(&mut poller, 7, "readable");
        let ev = events.iter().find(|e| e.token == 7).unwrap();
        assert!(ev.readable);

        // Drain; edge-triggered means no further event until new bytes.
        let mut buf = [0u8; 16];
        assert_eq!((&server).read(&mut buf).unwrap(), 5);
        let mut quiet = Vec::new();
        poller
            .wait(&mut quiet, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(
            quiet.iter().all(|e| e.token != 7),
            "spurious re-event after drain: {quiet:?}"
        );

        // New bytes are a new edge.
        client.write_all(b"again").unwrap();
        wait_for(&mut poller, 7, "second readable");
    }

    #[test]
    fn peer_close_reports_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 3, Interest::READ)
            .unwrap();
        drop(client);
        let events = wait_for(&mut poller, 3, "close");
        let ev = events.iter().find(|e| e.token == 3).unwrap();
        assert!(ev.closed || ev.readable, "{ev:?}");
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        let t0 = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "woke early");
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN), "{events:?}");
        handle.join().unwrap();
        // Coalesced wakes drain clean: many wakes, one (or few) events.
        let waker = poller.waker();
        for _ in 0..100 {
            waker.wake();
        }
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN));
        let mut quiet = Vec::new();
        poller
            .wait(&mut quiet, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(
            quiet.iter().all(|e| e.token != WAKE_TOKEN),
            "wake pipe not drained: {quiet:?}"
        );
    }

    #[test]
    fn writable_fires_after_a_full_buffer_drains() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 9, Interest::BOTH)
            .unwrap();
        // Fill the socket until WouldBlock.
        let chunk = [0u8; 64 * 1024];
        let mut wrote_total = 0usize;
        loop {
            match (&server).write(&chunk) {
                Ok(n) => wrote_total += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(wrote_total > 0);
        // Drain the peer; writability must come back.
        let mut drained = 0usize;
        let mut reader = client;
        reader
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut buf = vec![0u8; 256 * 1024];
        while drained < wrote_total {
            match reader.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => drained += n,
                Err(_) => break,
            }
        }
        let events = wait_for(&mut poller, 9, "writable");
        let ev = events
            .iter()
            .find(|e| e.token == 9 && e.writable)
            .unwrap_or_else(|| panic!("no writable event: {events:?}"));
        assert!(ev.writable);
    }
}
