//! The daemon's serving core: a dependency-free epoll event loop.
//!
//! A thread per connection would need a thousand threads for a thousand
//! keep-alive clients, even while most of them sit idle between requests.
//! This module multiplexes all connections onto a small fixed pool of
//! event-loop threads instead:
//!
//! * **Readiness, not threads.** Each loop owns an epoll instance in
//!   edge-triggered mode. Sockets are non-blocking; the loop reads until
//!   `WouldBlock`, feeds the bytes to the incremental
//!   [`RequestParser`], and writes responses
//!   until `WouldBlock`, registering for `EPOLLOUT` only while a response
//!   is partially flushed.
//! * **Parsing in the loop, checking in workers.** Fully parsed requests
//!   are handed to a bounded work queue drained by worker threads that call
//!   the [`RequestHandler`] (the daemon's dispatcher, or a closure in
//!   tests). At most one request per connection is in flight at a time: pipelined bytes wait in
//!   the parser until the previous response is written, which preserves
//!   response ordering without any per-connection queue.
//! * **Backpressure from the loop.** When the work queue is full the loop
//!   itself writes the `429` + `Retry-After` response and closes — the
//!   rejection never occupies a worker, so saturation is signalled in
//!   microseconds even when every worker is busy.
//! * **Keep-alive by default.** HTTP/1.1 connections are reused until the
//!   client sends `Connection: close`, errors poison the parser, or the
//!   idle sweep reclaims them.
//! * **Graceful drain.** A handler outcome with `shutdown` set flips the
//!   shared flag; loops close their listeners and idle connections, finish
//!   writing in-flight responses, and exit once empty, while workers drain
//!   the queue, so a `POST /shutdown` answers every admitted request.
//!
//! The epoll/eventfd bindings are a ~30-line `extern "C"` shim over symbols
//! `std` already links; no external crate is involved.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::http::{error_outcome, render_response, Outcome, Request, RequestParser};
use crate::metrics::ServerMetrics;

/// A fully parsed request turned into a response. Implemented by the
/// daemon's dispatcher; tests substitute a closure.
pub trait RequestHandler: Send + Sync + 'static {
    /// Produces the response for one request. `enqueued_at` is when the
    /// request was admitted (deadlines count queue wait).
    fn handle(&self, request: &Request, enqueued_at: Instant) -> Outcome;
}

impl<F> RequestHandler for F
where
    F: Fn(&Request, Instant) -> Outcome + Send + Sync + 'static,
{
    fn handle(&self, request: &Request, enqueued_at: Instant) -> Outcome {
        self(request, enqueued_at)
    }
}

/// Tunables and shared state for one reactor run.
pub struct ReactorOptions {
    /// Event-loop threads (at least 1; loop 0 owns the listener).
    pub event_loops: usize,
    /// Worker threads draining the request queue (at least 1).
    pub workers: usize,
    /// Request-queue capacity; requests beyond it get `429`.
    pub queue_capacity: usize,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// Idle connections (no in-flight request, nothing buffered) older than
    /// this are closed by the sweep.
    pub idle_timeout: Duration,
    /// Shared server counters (connections, accepted, rejected, panics,
    /// client errors are bumped here; the handler owns the rest).
    pub metrics: Arc<ServerMetrics>,
    /// Drain flag: set when a handler outcome asks for shutdown.
    pub shutdown: Arc<AtomicBool>,
    /// Live queue depth, exported so `/metrics` can report it without
    /// locking the queue.
    pub queue_depth: Arc<AtomicUsize>,
}

/// How long `epoll_wait` sleeps when nothing is ready; bounds how stale the
/// shutdown check and the idle sweep can get.
const WAIT_SLICE_MS: i32 = 200;

/// Per-read scratch-buffer size.
const READ_CHUNK: usize = 16 * 1024;

/// A connection may buffer at most this much unconsumed pipelined input
/// before reads pause (resumed when the parser drains); bounds memory per
/// hostile client.
const MAX_BUFFERED_SLACK: usize = 16 * 1024;

/// Raw epoll/eventfd bindings. The symbols live in libc, which `std`
/// already links — this is an FFI shim, not a dependency.
mod sys {
    use std::os::fd::RawFd;

    /// Mirror of `struct epoll_event`. On x86-64 the kernel ABI packs it
    /// (no padding between `events` and `data`); other architectures use
    /// natural C layout.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0o200_0000;
    pub const EFD_NONBLOCK: i32 = 0o4000;
    pub const EFD_CLOEXEC: i32 = 0o200_0000;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: RawFd, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(
            epfd: i32,
            events: *mut EpollEvent,
            maxevents: i32,
            timeout_ms: i32,
        ) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
    }
}

/// Safe wrapper over one epoll instance.
struct Poller {
    epoll: OwnedFd,
}

impl Poller {
    fn new() -> io::Result<Poller> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: epoll_create1 succeeded, so `fd` is a fresh descriptor we
        // exclusively own.
        Ok(Poller {
            epoll: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { sys::epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn delete(&self, fd: RawFd) {
        // A dummy event keeps pre-2.6.9 kernels happy; failure just means
        // the fd is already gone.
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    fn wait(&self, events: &mut [sys::EpollEvent]) -> io::Result<usize> {
        loop {
            let cap = i32::try_from(events.len()).unwrap_or(i32::MAX);
            // SAFETY: the buffer is valid for `cap` entries for the whole
            // call.
            let rc = unsafe {
                sys::epoll_wait(
                    self.epoll.as_raw_fd(),
                    events.as_mut_ptr(),
                    cap,
                    WAIT_SLICE_MS,
                )
            };
            if rc < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            return Ok(usize::try_from(rc).unwrap_or(0));
        }
    }
}

/// A non-blocking eventfd used to wake a loop from other threads.
fn new_eventfd() -> io::Result<File> {
    let fd = unsafe { sys::eventfd(0, sys::EFD_NONBLOCK | sys::EFD_CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: eventfd succeeded; we exclusively own the descriptor.
    Ok(File::from(unsafe { OwnedFd::from_raw_fd(fd) }))
}

/// One admitted request travelling to the worker pool.
struct WorkItem {
    /// Which loop owns the connection (completions go back to it).
    loop_id: usize,
    /// The connection's token within that loop.
    token: u64,
    request: Request,
    enqueued_at: Instant,
}

/// The bounded request queue shared by all loops and workers.
struct WorkQueue {
    items: Mutex<VecDeque<WorkItem>>,
    signal: Condvar,
    depth: Arc<AtomicUsize>,
}

impl WorkQueue {
    /// The queue holds plain owned data; recover a poisoned lock rather
    /// than wedging every loop because one worker panicked.
    fn lock(&self) -> MutexGuard<'_, VecDeque<WorkItem>> {
        self.items.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A finished response heading back to its event loop.
struct Completion {
    token: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// Cross-thread message into an event loop.
enum LoopMsg {
    /// A freshly accepted connection handed over by loop 0.
    Conn(TcpStream),
    /// A worker finished a request for one of this loop's connections.
    Done(Completion),
}

/// The mailbox other threads use to reach one event loop.
struct LoopShared {
    inbox: Mutex<Vec<LoopMsg>>,
    wake: File,
}

impl LoopShared {
    fn post(&self, msg: LoopMsg) {
        self.inbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(msg);
        self.wake();
    }

    fn wake(&self) {
        // An error here means the counter is saturated — the loop is
        // already guaranteed to wake.
        let _ = (&self.wake).write(&1u64.to_ne_bytes());
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

const INTEREST_READ: u32 = sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLET;
const INTEREST_READ_WRITE: u32 = INTEREST_READ | sys::EPOLLOUT;

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Pending response bytes (may span several rendered responses).
    out: Vec<u8>,
    /// How much of `out` is already written.
    out_pos: usize,
    /// A request from this connection is in the queue or in a worker;
    /// nothing further is dispatched until its completion arrives.
    busy: bool,
    /// Close once `out` is fully flushed.
    close_after: bool,
    /// Currently registered for `EPOLLOUT`.
    want_write: bool,
    /// Reads paused because the parser buffered too much pipelined input.
    read_paused: bool,
    /// Peer half-closed its write side.
    got_eof: bool,
    last_activity: Instant,
}

/// One event-loop thread's whole world.
struct EventLoop {
    id: usize,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Only loop 0 holds the listener.
    listener: Option<TcpListener>,
    loops: Vec<Arc<LoopShared>>,
    queue: Arc<WorkQueue>,
    metrics: Arc<ServerMetrics>,
    shutdown: Arc<AtomicBool>,
    queue_capacity: usize,
    max_body: usize,
    idle_timeout: Duration,
    /// Round-robin cursor for distributing accepted connections.
    rr: usize,
    draining: bool,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 128];
        if let Err(e) = self.register_fixed() {
            // Cannot even watch our own wakeup fd: abort the whole daemon
            // rather than serve half-deaf.
            eprintln!("mfcsld: event loop {} failed to start: {e}", self.id);
            self.shutdown.store(true, Ordering::SeqCst);
            return;
        }
        loop {
            let n = match self.poller.wait(&mut events) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("mfcsld: event loop {} epoll failure: {e}", self.id);
                    self.shutdown.store(true, Ordering::SeqCst);
                    break;
                }
            };
            for ev in events.iter().take(n) {
                // Copy out of the (possibly packed) struct before use.
                let token = ev.data;
                let mask = ev.events;
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wakeups(),
                    _ => self.conn_ready(token, mask),
                }
            }
            self.drain_inbox();
            if self.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            self.sweep_idle();
            if self.draining && self.conns.is_empty() {
                break;
            }
        }
    }

    fn register_fixed(&mut self) -> io::Result<()> {
        let wake_fd = self.loops[self.id].wake.as_raw_fd();
        self.poller
            .add(wake_fd, TOKEN_WAKE, sys::EPOLLIN | sys::EPOLLET)?;
        if let Some(listener) = &self.listener {
            self.poller.add(
                listener.as_raw_fd(),
                TOKEN_LISTENER,
                sys::EPOLLIN | sys::EPOLLET,
            )?;
        }
        Ok(())
    }

    /// Edge-triggered accept: drain the backlog completely, distributing
    /// connections round-robin over all loops.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.metrics.connections.fetch_add(1, Ordering::Relaxed);
                    if self.shutdown.load(Ordering::SeqCst) {
                        drop(stream);
                        continue;
                    }
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let target = self.rr % self.loops.len();
                    self.rr = self.rr.wrapping_add(1);
                    if target == self.id {
                        self.adopt(stream);
                    } else {
                        self.loops[target].post(LoopMsg::Conn(stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e)
                    if e.kind() == io::ErrorKind::Interrupted
                        || e.kind() == io::ErrorKind::ConnectionAborted =>
                {
                    continue
                }
                Err(_) => return,
            }
        }
    }

    /// Takes ownership of a connection: register and try an immediate read
    /// (with edge triggering, bytes may already be waiting).
    fn adopt(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(stream.as_raw_fd(), token, INTEREST_READ)
            .is_err()
        {
            return; // fd limit or similar; shed the connection
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                parser: RequestParser::new(),
                out: Vec::new(),
                out_pos: 0,
                busy: false,
                close_after: false,
                want_write: false,
                read_paused: false,
                got_eof: false,
                last_activity: Instant::now(),
            },
        );
        self.on_readable(token);
    }

    fn drain_wakeups(&mut self) {
        let mut buf = [0u8; 8];
        while matches!((&self.loops[self.id].wake).read(&mut buf), Ok(n) if n > 0) {}
    }

    fn drain_inbox(&mut self) {
        let msgs: Vec<LoopMsg> = {
            let mut inbox = self.loops[self.id]
                .inbox
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *inbox)
        };
        for msg in msgs {
            match msg {
                LoopMsg::Conn(stream) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        drop(stream);
                    } else {
                        self.adopt(stream);
                    }
                }
                LoopMsg::Done(done) => self.on_completion(done),
            }
        }
    }

    fn conn_ready(&mut self, token: u64, mask: u32) {
        if !self.conns.contains_key(&token) {
            return; // stale event for a closed connection
        }
        if mask & sys::EPOLLERR != 0 {
            self.close_conn(token);
            return;
        }
        if mask & sys::EPOLLOUT != 0 {
            self.flush(token);
        }
        if mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0 {
            self.on_readable(token);
        }
    }

    /// Edge-triggered read: pull everything the kernel has, feed the
    /// parser, then dispatch whatever requests completed.
    fn on_readable(&mut self, token: u64) {
        let mut buf = [0u8; READ_CHUNK];
        let max_buffered = self.max_body + MAX_BUFFERED_SLACK;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            loop {
                if conn.parser.buffered() > max_buffered {
                    conn.read_paused = true;
                    break;
                }
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.got_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.parser.push(&buf[..n]);
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close_conn(token);
                        return;
                    }
                }
            }
        }
        self.pump(token);
    }

    /// Dispatches at most one completed request (ordering: the next one
    /// waits in the parser until this response is written). Also retires
    /// connections whose peer hung up with nothing left to do.
    fn pump(&mut self, token: u64) {
        enum Action {
            None,
            Reject(Outcome),
            Dispatch(Request),
            Close,
        }
        let action = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.busy || conn.close_after {
                Action::None
            } else if self.draining {
                Action::Close
            } else {
                match conn.parser.next_request(self.max_body) {
                    Err(e) => {
                        self.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
                        Action::Reject(error_outcome(400, "bad_request", &e.to_string()))
                    }
                    Ok(Some(request)) => {
                        if self.queue.depth.load(Ordering::Relaxed) >= self.queue_capacity {
                            self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                            let mut outcome = error_outcome(
                                429,
                                "queue_full",
                                "admission queue full, retry shortly",
                            );
                            outcome.extra_headers.push(("Retry-After", "1".to_string()));
                            Action::Reject(outcome)
                        } else {
                            Action::Dispatch(request)
                        }
                    }
                    Ok(None) => {
                        if conn.got_eof && conn.out_pos >= conn.out.len() {
                            Action::Close
                        } else {
                            Action::None
                        }
                    }
                }
            }
        };
        match action {
            Action::None => {}
            Action::Close => self.close_conn(token),
            Action::Reject(outcome) => {
                let bytes = render_response(&outcome, false);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.out.extend_from_slice(&bytes);
                    conn.close_after = true;
                }
                self.flush(token);
            }
            Action::Dispatch(request) => {
                self.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                self.queue.depth.fetch_add(1, Ordering::Relaxed);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.busy = true;
                }
                self.queue.lock().push_back(WorkItem {
                    loop_id: self.id,
                    token,
                    request,
                    enqueued_at: Instant::now(),
                });
                self.queue.signal.notify_one();
            }
        }
    }

    /// A worker finished a request: queue its response and try to write.
    fn on_completion(&mut self, done: Completion) {
        let token = done.token;
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // connection died while the worker was busy
        };
        conn.busy = false;
        conn.out.extend_from_slice(&done.bytes);
        conn.close_after |= done.close || self.draining;
        conn.last_activity = Instant::now();
        self.flush(token);
    }

    /// Writes as much of the pending output as the socket accepts; on full
    /// drain, either closes or moves on to the next pipelined request.
    fn flush(&mut self, token: u64) {
        enum Next {
            Close,
            Pump,
            ResumeRead,
            Wait,
        }
        let next = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut next = loop {
                if conn.out_pos >= conn.out.len() {
                    conn.out.clear();
                    conn.out_pos = 0;
                    break if conn.close_after {
                        Next::Close
                    } else if conn.read_paused {
                        Next::ResumeRead
                    } else {
                        Next::Pump
                    };
                }
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => break Next::Close,
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if !conn.want_write {
                            conn.want_write = true;
                            let fd = conn.stream.as_raw_fd();
                            if self.poller.modify(fd, token, INTEREST_READ_WRITE).is_err() {
                                break Next::Close;
                            }
                        }
                        break Next::Wait;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break Next::Close,
                }
            };
            if matches!(next, Next::Pump | Next::ResumeRead) && conn.want_write {
                conn.want_write = false;
                let fd = conn.stream.as_raw_fd();
                if self.poller.modify(fd, token, INTEREST_READ).is_err() {
                    next = Next::Close;
                }
            }
            next
        };
        match next {
            Next::Close => self.close_conn(token),
            Next::Pump => self.pump(token),
            Next::ResumeRead => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.read_paused = false;
                }
                self.on_readable(token);
            }
            Next::Wait => {}
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.delete(conn.stream.as_raw_fd());
            // Dropping the stream closes it.
        }
    }

    /// Entering drain: stop accepting (close the listener so the port
    /// frees immediately) and retire every connection with no in-flight
    /// request and nothing left to write.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            self.poller.delete(listener.as_raw_fd());
            drop(listener);
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.busy && c.out_pos >= c.out.len())
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
        for conn in self.conns.values_mut() {
            conn.close_after = true;
        }
    }

    /// Closes connections that have been idle (no in-flight request, no
    /// pending output) longer than the timeout, so a stalled client cannot
    /// pin a connection slot forever.
    fn sweep_idle(&mut self) {
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                !c.busy && c.out_pos >= c.out.len() && c.last_activity.elapsed() > self.idle_timeout
            })
            .map(|(&t, _)| t)
            .collect();
        for token in stale {
            self.close_conn(token);
        }
    }
}

/// Worker thread: pop, handle (panics cost one response, never the
/// worker), render, and post the completion back to the owning loop.
fn worker_loop(
    queue: &Arc<WorkQueue>,
    handler: &Arc<dyn RequestHandler>,
    loops: &[Arc<LoopShared>],
    metrics: &Arc<ServerMetrics>,
    shutdown: &Arc<AtomicBool>,
) {
    loop {
        let item = {
            let mut items = queue.lock();
            loop {
                if let Some(item) = items.pop_front() {
                    queue.depth.fetch_sub(1, Ordering::Relaxed);
                    break Some(item);
                }
                if shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                items = queue
                    .signal
                    .wait_timeout(items, Duration::from_millis(200))
                    .map(|(guard, _)| guard)
                    .unwrap_or_else(|poisoned| poisoned.into_inner().0);
            }
        };
        let Some(item) = item else {
            return; // shutdown with an empty queue: drained
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handler.handle(&item.request, item.enqueued_at)
        }))
        .unwrap_or_else(|_| {
            metrics.panics.fetch_add(1, Ordering::Relaxed);
            let mut outcome =
                error_outcome(500, "internal_panic", "handler panicked; see daemon logs");
            outcome.close = true;
            outcome
        });
        if outcome.shutdown {
            shutdown.store(true, Ordering::SeqCst);
            for l in loops {
                l.wake();
            }
            queue.signal.notify_all();
        }
        let keep =
            !item.request.wants_close() && !outcome.close && !shutdown.load(Ordering::SeqCst);
        let bytes = render_response(&outcome, keep);
        loops[item.loop_id].post(LoopMsg::Done(Completion {
            token: item.token,
            bytes,
            close: !keep,
        }));
    }
}

/// Runs the reactor until a handler outcome requests shutdown and the
/// drain completes. Blocks the calling thread.
///
/// # Errors
///
/// Propagates failures setting up epoll instances, eventfds, or threads;
/// after startup, transport errors are contained per connection.
pub fn run(
    listener: TcpListener,
    handler: Arc<dyn RequestHandler>,
    options: ReactorOptions,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let n_loops = options.event_loops.max(1);
    let n_workers = options.workers.max(1);
    let queue = Arc::new(WorkQueue {
        items: Mutex::new(VecDeque::new()),
        signal: Condvar::new(),
        depth: Arc::clone(&options.queue_depth),
    });
    let loops: Vec<Arc<LoopShared>> = (0..n_loops)
        .map(|_| {
            Ok(Arc::new(LoopShared {
                inbox: Mutex::new(Vec::new()),
                wake: new_eventfd()?,
            }))
        })
        .collect::<io::Result<_>>()?;
    // Pollers are created up front so setup errors surface from `run`
    // instead of killing a thread silently.
    let pollers: Vec<Poller> = (0..n_loops)
        .map(|_| Poller::new())
        .collect::<io::Result<_>>()?;

    let workers: Vec<_> = (0..n_workers)
        .map(|i| {
            let queue = Arc::clone(&queue);
            let handler = Arc::clone(&handler);
            let loops = loops.clone();
            let metrics = Arc::clone(&options.metrics);
            let shutdown = Arc::clone(&options.shutdown);
            std::thread::Builder::new()
                .name(format!("mfcsld-worker-{i}"))
                .spawn(move || worker_loop(&queue, &handler, &loops, &metrics, &shutdown))
        })
        .collect::<io::Result<_>>()?;

    let mut listener = Some(listener);
    let loop_threads: Vec<_> = pollers
        .into_iter()
        .enumerate()
        .map(|(id, poller)| {
            let ev = EventLoop {
                id,
                poller,
                conns: HashMap::new(),
                next_token: TOKEN_FIRST_CONN,
                listener: if id == 0 { listener.take() } else { None },
                loops: loops.clone(),
                queue: Arc::clone(&queue),
                metrics: Arc::clone(&options.metrics),
                shutdown: Arc::clone(&options.shutdown),
                queue_capacity: options.queue_capacity.max(1),
                max_body: options.max_body,
                idle_timeout: options.idle_timeout,
                rr: 0,
                draining: false,
            };
            std::thread::Builder::new()
                .name(format!("mfcsld-loop-{id}"))
                .spawn(move || ev.run())
        })
        .collect::<io::Result<_>>()?;

    for t in loop_threads {
        let _ = t.join();
    }
    // Loops are gone; make sure the workers observe shutdown even if a
    // loop died abnormally.
    options.shutdown.store(true, Ordering::SeqCst);
    queue.signal.notify_all();
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn start_echo_reactor() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handler: Arc<dyn RequestHandler> = Arc::new(|req: &Request, _t: Instant| {
            if req.path == "/shutdown" {
                let mut o = Outcome::new(200, "text/plain", b"bye\n".to_vec());
                o.shutdown = true;
                o.close = true;
                return o;
            }
            let body = format!("echo:{}:{}", req.path, String::from_utf8_lossy(&req.body));
            Outcome::new(200, "text/plain", body.into_bytes())
        });
        let options = ReactorOptions {
            event_loops: 2,
            workers: 2,
            queue_capacity: 16,
            max_body: 1 << 20,
            idle_timeout: Duration::from_secs(10),
            metrics: Arc::new(ServerMetrics::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            queue_depth: Arc::new(AtomicUsize::new(0)),
        };
        let handle = std::thread::spawn(move || run(listener, handler, options).unwrap());
        (addr, handle)
    }

    fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        std::io::Read::read_exact(reader, &mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    #[test]
    fn reactor_keeps_connections_alive_and_orders_pipelined_responses() {
        let (addr, handle) = start_echo_reactor();
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // Two sequential requests over ONE connection.
        for i in 0..2 {
            write!(
                writer,
                "POST /r{i} HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi"
            )
            .unwrap();
            let (status, body) = read_response(&mut reader);
            assert_eq!(status, 200);
            assert_eq!(body, format!("echo:/r{i}:hi"));
        }

        // Two PIPELINED requests in one write: responses must come back in
        // order on the same connection.
        write!(
            writer,
            "POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\n\r\nA\
             POST /b HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\n\r\nB"
        )
        .unwrap();
        let (_, body_a) = read_response(&mut reader);
        let (_, body_b) = read_response(&mut reader);
        assert_eq!(body_a, "echo:/a:A");
        assert_eq!(body_b, "echo:/b:B");

        // Shutdown drains and the accept socket disappears.
        write!(
            writer,
            "POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let (status, body) = read_response(&mut reader);
        assert_eq!((status, body.as_str()), (200, "bye\n"));
        handle.join().unwrap();
        assert!(TcpStream::connect(addr).is_err(), "listener must be gone");
    }

    #[test]
    fn reactor_rejects_malformed_requests_without_dying() {
        let (addr, handle) = start_echo_reactor();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut response = String::new();
        std::io::Read::read_to_string(&mut stream, &mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("Connection: close"), "{response}");

        // The daemon survives: a healthy request on a fresh connection.
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write!(writer, "GET /ok HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let (status, body) = read_response(&mut reader);
        assert_eq!((status, body.as_str()), (200, "echo:/ok:"));
        write!(
            writer,
            "POST /shutdown HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let _ = read_response(&mut reader);
        handle.join().unwrap();
    }
}
