//! Event-driven server frontend: one reactor thread, 10k daemons.
//!
//! The one TCP front end, in the spirit of the 2004 paper's
//! single-daemon depot scaled three orders of magnitude. It is two
//! layers:
//!
//! * **A connection state machine with no IO** (`machine.rs`). It
//!   reassembles the length-prefixed envelope protocol from whatever
//!   byte fragments the socket yields ([`inca_wire::frame::FrameBuffer`]),
//!   stages replies until the socket takes them, and makes every
//!   decision: the in-flight frame budget, the reply-buffer pause
//!   watermark, the idle sweep and flush-then-close. Every complete
//!   frame gathered in one pass — across *all* connections — is decoded
//!   once and submitted in a single
//!   [`CentralizedController::submit_batch_decoded`], so ten thousand
//!   daemons share one depot-lock acquisition per pass. The clock is an
//!   argument, so tests drive it deterministically over an in-memory
//!   network.
//! * **A thin shell** (this module). One thread owns a level-triggered
//!   `Poller` (epoll on Linux, `poll(2)` fallback elsewhere), the
//!   listener, the wake pipe and every socket; it accepts, reads,
//!   writes, and applies the interest the machine asks for.
//!
//! Backpressure drops nothing: a connection with unflushed replies past
//! the watermark has its read interest withdrawn (the kernel buffer
//! fills, the daemon's send blocks or times out, and overflow
//! accumulates in its durable spool for retry); a pass that hits the
//! frame budget simply stops reading — level triggering re-reports the
//! remaining sockets on the next pass.
//!
//! Instrumentation: `inca_net_connections`,
//! `inca_net_readiness_wakeups_total`, `inca_net_frames_total`,
//! `inca_net_backpressure_pauses_total`, and the accept-to-insert
//! latency histogram `inca_net_accept_to_insert_seconds` (trace
//! exemplars join each report's lineage).

mod machine;
mod poller;
#[cfg(test)]
mod tests;

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use inca_report::Timestamp;

use crate::controller::CentralizedController;
use machine::{Machine, ReactorConfig};
use poller::{Interest, Poller, Readiness};

/// Poll timeout: long enough to idle cheaply, short enough that idle
/// sweeps and shutdown checks stay prompt even if the wake pipe fails.
const WAIT_TIMEOUT_MS: i32 = 200;

/// Read size per `read(2)` call on a ready connection.
const READ_CHUNK_BYTES: usize = 64 * 1024;

/// Connections beyond this are accepted and immediately closed.
const MAX_CONNECTIONS: usize = 64 * 1024;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// Handle to a running reactor; shuts down on drop.
pub struct ReactorHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wake: UnixStream,
    connections: Arc<AtomicUsize>,
    thread: Option<JoinHandle<()>>,
}

impl ReactorHandle {
    /// The bound address (use port 0 to pick a free port in tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live connection count (also exported as `inca_net_connections`).
    pub fn connection_count(&self) -> usize {
        self.connections.load(Ordering::SeqCst)
    }

    /// Requests shutdown and joins the reactor thread.
    pub fn stop(mut self) {
        self.initiate_stop();
    }

    fn initiate_stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = (&self.wake).write(&[1]);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.initiate_stop();
    }
}

/// A socket the shell owns, with the interest the poller holds for it.
struct Sock<S> {
    stream: S,
    interest: Interest,
}

/// The shell: the reactor thread's syscalls around its [`Machine`].
struct Reactor {
    machine: Machine,
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    socks: HashMap<u64, Sock<TcpStream>>,
    next_token: u64,
    /// Reusable `read(2)` chunk buffer — the reactor is single-threaded,
    /// so one buffer serves every connection without per-pass allocation.
    read_chunk: Vec<u8>,
    conn_count: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
}

impl CentralizedController {
    /// Starts the event-driven reactor frontend on `listener`: one
    /// thread serves every connection, reads are paused instead of
    /// reports dropped when the depot lags, and all frames ready in one
    /// pass share a single depot batch. Submissions are stamped with
    /// wall-clock seconds for archiving.
    pub fn serve_reactor(self: &Arc<Self>, listener: TcpListener) -> io::Result<ReactorHandle> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let mut poller = Poller::new(1_024)?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conn_count = Arc::new(AtomicUsize::new(0));
        let mut reactor = Reactor {
            machine: Machine::new(Arc::clone(self), ReactorConfig::default(), Instant::now()),
            poller,
            listener,
            wake_rx,
            socks: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            read_chunk: vec![0u8; READ_CHUNK_BYTES],
            conn_count: Arc::clone(&conn_count),
            shutdown: Arc::clone(&shutdown),
        };
        let thread =
            std::thread::Builder::new().name("inca-reactor".into()).spawn(move || reactor.run())?;
        Ok(ReactorHandle {
            addr,
            shutdown,
            wake: wake_tx,
            connections: conn_count,
            thread: Some(thread),
        })
    }
}

impl Reactor {
    fn run(&mut self) {
        let mut ready: Vec<Readiness> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            // Deferred user-space frames mean there is work regardless
            // of socket readiness: poll without blocking.
            let timeout = if self.machine.has_backlog() { 0 } else { WAIT_TIMEOUT_MS };
            if let Err(e) = self.poller.wait(timeout, &mut ready) {
                // A dead poller is unrecoverable; sever loudly rather
                // than serve nothing in silence.
                eprintln!("inca-reactor: poller failed, shutting down frontend: {e}");
                break;
            }
            self.machine.metrics.wakeups.inc();
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let now = Instant::now();
            self.machine.begin_pass();
            for ev in ready.drain(..) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(now),
                    TOKEN_WAKE => {
                        let mut sink = [0u8; 64];
                        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                    }
                    token => self.conn_ready(token, ev, now),
                }
            }
            self.machine.end_pass(wall_clock());
            self.machine.tick(now);
            while let Some(token) = self.machine.next_visit() {
                self.visit(token, now);
            }
        }
        // Shutdown: sever every connection; daemons respool unacked
        // reports and retry against the next incarnation.
        for (_, sock) in self.socks.drain() {
            let _ = sock.stream.shutdown(std::net::Shutdown::Both);
        }
        self.conn_count.store(0, Ordering::SeqCst);
        self.machine.metrics.connections.set(0.0);
    }

    fn accept_ready(&mut self, now: Instant) {
        while let Ok((stream, _peer)) = self.listener.accept() {
            if self.socks.len() >= MAX_CONNECTIONS || stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            let token = self.next_token;
            self.next_token += 1;
            if self.poller.register(stream.as_raw_fd(), token, Interest::READ).is_err() {
                continue;
            }
            self.socks.insert(token, Sock { stream, interest: Interest::READ });
            self.machine.open(token, now);
            self.sync_conn_count();
        }
    }

    fn sync_conn_count(&self) {
        let n = self.socks.len();
        self.conn_count.store(n, Ordering::SeqCst);
        self.machine.metrics.connections.set(n as f64);
    }

    /// Readiness on one connection: flush staged replies, then read
    /// (unless the machine withholds the read).
    fn conn_ready(&mut self, token: u64, ev: Readiness, now: Instant) {
        if ev.writable {
            self.visit(token, now);
        }
        if ev.readable {
            if self.machine.may_read(token) {
                if let Some(sock) = self.socks.get_mut(&token) {
                    read(&mut self.machine, token, &mut sock.stream, &mut self.read_chunk, now);
                }
            }
        } else if ev.error {
            self.machine.close(token);
        }
    }

    /// Writes what the socket takes of the connection's replies, then
    /// applies the interest the machine settles on, or closes.
    fn visit(&mut self, token: u64, now: Instant) {
        let Some(sock) = self.socks.get_mut(&token) else { return };
        flush(&mut self.machine, token, &mut sock.stream, now);
        match self.machine.settle(token) {
            Some(want) => {
                if want != sock.interest
                    && self.poller.modify(sock.stream.as_raw_fd(), token, want).is_ok()
                {
                    sock.interest = want;
                }
            }
            None => {
                let _ = self.poller.deregister(sock.stream.as_raw_fd());
                let _ = sock.stream.shutdown(std::net::Shutdown::Both);
                self.socks.remove(&token);
                self.sync_conn_count();
            }
        }
    }
}

/// Drains a readable socket into the machine, then tells it the read is
/// done (or that the socket failed).
fn read<S: Read>(
    machine: &mut Machine,
    token: u64,
    stream: &mut S,
    chunk: &mut [u8],
    now: Instant,
) {
    let eof = loop {
        match stream.read(chunk) {
            Ok(0) => break true,
            Ok(n) => {
                machine.received(token, &chunk[..n], now);
                if n < chunk.len() {
                    break false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return machine.close(token),
        }
    };
    machine.read_done(token, eof);
}

/// Writes the machine's staged bytes until the socket stops taking
/// them; any remainder waits for the next writable event.
fn flush<S: Write>(machine: &mut Machine, token: u64, stream: &mut S, now: Instant) {
    loop {
        let out = machine.output(token);
        if out.is_empty() {
            return;
        }
        match stream.write(out) {
            Ok(0) => return machine.close(token),
            Ok(n) => machine.consumed(token, n, now),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return machine.close(token),
        }
    }
}

/// Wall-clock seconds: the archive timestamp of a pass's batch.
fn wall_clock() -> Timestamp {
    Timestamp::from_secs(
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    )
}
