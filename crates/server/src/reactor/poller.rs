//! OS readiness polling behind one std-only surface.
//!
//! The reactor needs `epoll(7)`-class readiness notification, but the
//! workspace vendors no `libc` crate. The shim below declares the
//! handful of symbols it needs as `extern "C"` — they resolve against
//! the C library the Rust standard library already links — in the same
//! spirit as the vendored dependency shims elsewhere in the tree.
//!
//! * **Linux** — `epoll_create1`/`epoll_ctl`/`epoll_wait`, run
//!   level-triggered. Level triggering keeps the connection state
//!   machines simple (a socket with unread bytes is simply reported
//!   again next pass) and makes backpressure a matter of *not reading*.
//! * **Other Unix** — a `poll(2)` fallback with the same interface.
//!   `poll` is O(registered fds) per wait where epoll is O(ready fds),
//!   so the 10k-connection envelope is a Linux number; the fallback
//!   exists so the frontend stays correct (and testable) on the BSD
//!   family, where a kqueue backend could later slot in behind the same
//!   trait surface.
//!
//! Tokens are opaque `u64`s chosen by the caller (the reactor uses
//! connection ids); one poller instance is owned by one reactor thread.

use std::io;
use std::os::unix::io::RawFd;

/// What a file descriptor is ready for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Readiness {
    /// Caller-chosen token registered with the fd.
    pub(crate) token: u64,
    /// Readable (or a peer hangup, which reads as EOF).
    pub(crate) readable: bool,
    /// Writable.
    pub(crate) writable: bool,
    /// Error/hangup condition; the connection should be torn down
    /// after draining whatever reads remain.
    pub(crate) error: bool,
}

/// Interest set for a registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Watch for readability.
    pub(crate) read: bool,
    /// Watch for writability.
    pub(crate) write: bool,
}

impl Interest {
    /// Read-only interest.
    pub(crate) const READ: Interest = Interest { read: true, write: false };
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Interest, Readiness};
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;

    // x86_64 packs epoll_event (a 32-bit kernel ABI leftover); every
    // other architecture uses natural alignment.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// Level-triggered epoll instance.
    pub(crate) struct Poller {
        epfd: RawFd,
        events: Vec<EpollEvent>,
    }

    impl Poller {
        pub(crate) fn new(capacity: usize) -> io::Result<Poller> {
            // SAFETY: `epoll_create1` takes a flags integer and no
            // pointers; a negative return is turned into an error.
            let epfd = unsafe { cvt(epoll_create1(EPOLL_CLOEXEC))? };
            Ok(Poller { epfd, events: vec![EpollEvent { events: 0, data: 0 }; capacity] })
        }

        fn mask(interest: Interest) -> u32 {
            let mut m = EPOLLRDHUP;
            if interest.read {
                m |= EPOLLIN;
            }
            if interest.write {
                m |= EPOLLOUT;
            }
            m
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent { events: Self::mask(interest), data: token };
            // SAFETY: `self.epfd` is the epoll fd this poller opened and
            // closes only on drop; `ev` is a live, initialized
            // `epoll_event` the kernel reads for the duration of the
            // call. A bad `fd` is reported as an error, not UB.
            unsafe { cvt(epoll_ctl(self.epfd, op, fd, &mut ev)) }.map(|_| ())
        }

        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl`: `self.epfd` is open until drop, and
            // `ev` (ignored by `EPOLL_CTL_DEL` on current kernels, but
            // required non-null by old ones) is valid for the call.
            unsafe { cvt(epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev)) }.map(|_| ())
        }

        pub(crate) fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Readiness>) -> io::Result<()> {
            out.clear();
            let n = loop {
                // SAFETY: `self.epfd` is open until drop; the kernel
                // writes at most `maxevents` = `self.events.len()`
                // entries into `self.events`, which owns exactly that
                // many initialized `EpollEvent`s and is not otherwise
                // borrowed during the call.
                let ret = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.events.as_mut_ptr(),
                        self.events.len() as c_int,
                        timeout_ms,
                    )
                };
                match cvt(ret) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            // `n` ≤ `self.events.len()`: the kernel reports how many of
            // the entries it filled, never more than `maxevents`.
            for ev in &self.events[..n] {
                let bits = ev.events;
                out.push(Readiness {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `self.epfd` was returned by `epoll_create1`, is
            // owned by this poller alone, and is closed exactly once,
            // here.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::{Interest, Readiness};
    use std::collections::BTreeMap;
    use std::io;
    use std::os::raw::{c_int, c_ulong};
    use std::os::unix::io::RawFd;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    extern "C" {
        // nfds_t is `unsigned long` on the BSD family (32-bit on 32-bit
        // targets), so c_ulong — not u64 — matches the ABI everywhere.
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Portable `poll(2)` fallback with the epoll surface.
    pub(crate) struct Poller {
        registered: BTreeMap<RawFd, (u64, Interest)>,
        scratch: Vec<PollFd>,
    }

    impl Poller {
        pub(crate) fn new(_capacity: usize) -> io::Result<Poller> {
            Ok(Poller { registered: BTreeMap::new(), scratch: Vec::new() })
        }

        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.registered.remove(&fd);
            Ok(())
        }

        pub(crate) fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Readiness>) -> io::Result<()> {
            out.clear();
            self.scratch.clear();
            for (&fd, &(_, interest)) in &self.registered {
                let mut events = 0i16;
                if interest.read {
                    events |= POLLIN;
                }
                if interest.write {
                    events |= POLLOUT;
                }
                self.scratch.push(PollFd { fd, events, revents: 0 });
            }
            let n = loop {
                // SAFETY: `self.scratch` holds exactly
                // `self.scratch.len()` initialized `PollFd`s and is not
                // otherwise borrowed during the call; `poll` only
                // writes their `revents` fields.
                let ret = unsafe {
                    poll(self.scratch.as_mut_ptr(), self.scratch.len() as c_ulong, timeout_ms)
                };
                if ret >= 0 {
                    break ret;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            };
            if n == 0 {
                return Ok(());
            }
            for pfd in &self.scratch {
                if pfd.revents == 0 {
                    continue;
                }
                let token = self.registered[&pfd.fd].0;
                out.push(Readiness {
                    token,
                    readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    error: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

/// The platform poller: level-triggered epoll on Linux, `poll(2)`
/// elsewhere. One instance per reactor thread.
pub(crate) struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// A poller sized to report up to `capacity` ready fds per wait.
    pub(crate) fn new(capacity: usize) -> io::Result<Poller> {
        Ok(Poller { inner: sys::Poller::new(capacity)? })
    }

    /// Starts watching `fd` under `token` with the given interest.
    pub(crate) fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, token, interest)
    }

    /// Replaces the interest set of a watched fd.
    pub(crate) fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Stops watching `fd`.
    pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    /// Blocks up to `timeout_ms` (-1 = forever) and fills `out` with
    /// ready descriptors.
    pub(crate) fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Readiness>) -> io::Result<()> {
        self.inner.wait(timeout_ms, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readable_when_peer_writes() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new(8).unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut ready = Vec::new();
        poller.wait(0, &mut ready).unwrap();
        assert!(ready.is_empty(), "nothing written yet");
        a.write_all(b"x").unwrap();
        poller.wait(1_000, &mut ready).unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].token, 7);
        assert!(ready[0].readable);
    }

    #[test]
    fn write_interest_reports_writable_and_modify_clears_it() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut poller = Poller::new(8).unwrap();
        poller
            .register(a.as_raw_fd(), 3, Interest { read: false, write: true })
            .unwrap();
        let mut ready = Vec::new();
        poller.wait(1_000, &mut ready).unwrap();
        assert!(ready.iter().any(|r| r.token == 3 && r.writable));
        // Dropping write interest silences the (always-writable) socket.
        poller.modify(a.as_raw_fd(), 3, Interest::READ).unwrap();
        poller.wait(0, &mut ready).unwrap();
        assert!(ready.is_empty());
    }

    #[test]
    fn hangup_reads_as_readable_eof() {
        let (a, mut buf_reader) = UnixStream::pair().unwrap();
        buf_reader.set_nonblocking(true).unwrap();
        let mut poller = Poller::new(8).unwrap();
        poller.register(buf_reader.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(a);
        let mut ready = Vec::new();
        poller.wait(1_000, &mut ready).unwrap();
        assert_eq!(ready.len(), 1);
        assert!(ready[0].readable, "hangup must surface as readable EOF");
        let mut sink = [0u8; 8];
        assert_eq!(buf_reader.read(&mut sink).unwrap(), 0);
    }

    #[test]
    fn deregister_stops_reporting() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new(8).unwrap();
        poller.register(b.as_raw_fd(), 9, Interest::READ).unwrap();
        a.write_all(b"x").unwrap();
        let mut ready = Vec::new();
        poller.wait(1_000, &mut ready).unwrap();
        assert_eq!(ready.len(), 1);
        poller.deregister(b.as_raw_fd()).unwrap();
        poller.wait(0, &mut ready).unwrap();
        assert!(ready.is_empty());
    }
}
