//! Minimal readiness notification for the connection core, built
//! directly on the OS: `epoll` on Linux, `poll(2)` elsewhere on unix.
//!
//! The build vendors no async runtime or polling crate, and the
//! standard library already links the platform C library, so the
//! syscalls are declared here directly. The surface is deliberately
//! tiny — register/modify/remove an fd under a `usize` token, block
//! for events, and a cross-thread [`Waker`] (an `eventfd` on Linux, a
//! pipe otherwise) that workers use to nudge the event loop when they
//! queue outbound bytes.
//!
//! Readiness is level-triggered: the loop re-hears about an fd until
//! it drains it, which keeps the state machine simple (no "did I
//! consume the edge" bookkeeping).

#![allow(unsafe_code)]

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// Reading will not block (data, EOF, or a pending error).
    pub readable: bool,
    /// Writing will not block.
    pub writable: bool,
    /// The peer hung up or the fd errored; the fd should be retired.
    pub hangup: bool,
}

#[cfg(not(unix))]
compile_error!("gbmqo-server's connection core requires a unix platform (epoll or poll)");

#[cfg(target_os = "linux")]
pub use linux::{Poller, Waker};

#[cfg(all(unix, not(target_os = "linux")))]
pub use fallback::{Poller, Waker};

#[cfg(target_os = "linux")]
mod linux {
    use super::Event;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_uint, c_void};

    // The kernel ABI structure. On x86-64 it is packed (a quirk the
    // kernel keeps for 32/64-bit compatibility); other architectures
    // use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
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
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// Readiness queue over an `epoll` instance.
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// Create an epoll instance.
        pub fn new() -> io::Result<Poller> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: usize) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest,
                data: token as u64,
            };
            let evp = if op == EPOLL_CTL_DEL {
                std::ptr::null_mut()
            } else {
                &mut ev as *mut EpollEvent
            };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, evp) }).map(|_| ())
        }

        fn interest(readable: bool, writable: bool) -> u32 {
            let mut bits = EPOLLRDHUP;
            if readable {
                bits |= EPOLLIN;
            }
            if writable {
                bits |= EPOLLOUT;
            }
            bits
        }

        /// Start watching `fd` under `token`.
        pub fn register(
            &self,
            fd: RawFd,
            token: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Self::interest(readable, writable), token)
        }

        /// Change the interest set of a watched fd.
        pub fn reregister(
            &self,
            fd: RawFd,
            token: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Self::interest(readable, writable), token)
        }

        /// Stop watching `fd`.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Block for readiness, at most `timeout_ms` (negative =
        /// forever), appending into `out`.
        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let n = loop {
                let ret = unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms)
                };
                if ret >= 0 {
                    break ret as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &buf[..n] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data as usize,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }

        /// Create a [`Waker`] and watch it under `token`. The loop
        /// drains it with [`Waker::drain`] when the token fires.
        pub fn add_waker(&self, token: usize) -> io::Result<Waker> {
            let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            self.register(fd, token, true, false)?;
            Ok(Waker { fd })
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    /// Cross-thread nudge for a [`Poller`] (an `eventfd`).
    pub struct Waker {
        fd: RawFd,
    }

    impl Waker {
        /// Wake the poller. Safe from any thread; coalesces.
        pub fn wake(&self) {
            let one: u64 = 1;
            // A full eventfd counter still wakes the poller; ignore.
            unsafe { write(self.fd, (&one as *const u64).cast::<c_void>(), 8) };
        }

        /// Reset after the waker token fired.
        pub fn drain(&self) {
            let mut buf: u64 = 0;
            unsafe { read(self.fd, (&mut buf as *mut u64).cast::<c_void>(), 8) };
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod fallback {
    use super::Event;
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_void};
    use std::sync::Mutex;

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

    const F_SETFL: c_int = 4;
    const O_NONBLOCK: c_int = 0o4000;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: usize, timeout: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    /// Readiness queue over `poll(2)` with an explicit registry.
    pub struct Poller {
        registry: Mutex<HashMap<RawFd, (usize, bool, bool)>>,
    }

    impl Poller {
        /// Create an empty registry.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registry: Mutex::new(HashMap::new()),
            })
        }

        /// Start watching `fd` under `token`.
        pub fn register(
            &self,
            fd: RawFd,
            token: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.registry
                .lock()
                .unwrap()
                .insert(fd, (token, readable, writable));
            Ok(())
        }

        /// Change the interest set of a watched fd.
        pub fn reregister(
            &self,
            fd: RawFd,
            token: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.register(fd, token, readable, writable)
        }

        /// Stop watching `fd`.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.registry.lock().unwrap().remove(&fd);
            Ok(())
        }

        /// Block for readiness, at most `timeout_ms` (negative =
        /// forever), appending into `out`.
        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let (mut fds, tokens): (Vec<PollFd>, Vec<usize>) = {
                let reg = self.registry.lock().unwrap();
                reg.iter()
                    .map(|(&fd, &(token, r, w))| {
                        let mut events = 0i16;
                        if r {
                            events |= POLLIN;
                        }
                        if w {
                            events |= POLLOUT;
                        }
                        (
                            PollFd {
                                fd,
                                events,
                                revents: 0,
                            },
                            token,
                        )
                    })
                    .unzip()
            };
            let n = loop {
                let ret = unsafe { poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
                if ret >= 0 {
                    break ret;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n > 0 {
                for (pfd, &token) in fds.iter().zip(&tokens) {
                    if pfd.revents == 0 {
                        continue;
                    }
                    out.push(Event {
                        token,
                        readable: pfd.revents & (POLLIN | POLLHUP | POLLERR) != 0,
                        writable: pfd.revents & POLLOUT != 0,
                        hangup: pfd.revents & (POLLHUP | POLLERR) != 0,
                    });
                }
            }
            Ok(())
        }

        /// Create a [`Waker`] and watch it under `token`.
        pub fn add_waker(&self, token: usize) -> io::Result<Waker> {
            let mut ends = [0 as c_int; 2];
            if unsafe { pipe(ends.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            for fd in ends {
                if unsafe { fcntl(fd, F_SETFL, O_NONBLOCK) } < 0 {
                    return Err(io::Error::last_os_error());
                }
            }
            self.register(ends[0], token, true, false)?;
            Ok(Waker {
                read_fd: ends[0],
                write_fd: ends[1],
            })
        }
    }

    /// Cross-thread nudge for a [`Poller`] (a nonblocking pipe).
    pub struct Waker {
        read_fd: RawFd,
        write_fd: RawFd,
    }

    impl Waker {
        /// Wake the poller. Safe from any thread; coalesces once the
        /// pipe is full.
        pub fn wake(&self) {
            let b = 1u8;
            unsafe { write(self.write_fd, (&b as *const u8).cast::<c_void>(), 1) };
        }

        /// Reset after the waker token fired.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            while unsafe { read(self.read_fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) } > 0 {}
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe {
                close(self.read_fd);
                close(self.write_fd);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    #[test]
    fn listener_readability_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        {
            use std::os::fd::AsRawFd;
            poller
                .register(listener.as_raw_fd(), 7, true, false)
                .unwrap();
        }
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "no pending connection yet");
        let _client = TcpStream::connect(addr).unwrap();
        // Give the kernel a beat to queue the SYN.
        let mut tries = 0;
        while events.is_empty() && tries < 100 {
            poller.wait(&mut events, 50).unwrap();
            tries += 1;
        }
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
    }

    #[test]
    fn waker_crosses_threads() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(poller.add_waker(1).unwrap());
        let remote = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        let mut events = Vec::new();
        let mut tries = 0;
        while events.is_empty() && tries < 100 {
            poller.wait(&mut events, 100).unwrap();
            tries += 1;
        }
        t.join().unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        waker.drain();
        events.clear();
        poller.wait(&mut events, 0).unwrap();
        assert!(
            !events.iter().any(|e| e.token == 1),
            "drained waker must be quiet"
        );
    }

    #[test]
    fn write_interest_toggles() {
        use std::os::fd::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.register(served.as_raw_fd(), 3, true, true).unwrap();
        let mut events: Vec<Event> = Vec::new();
        let mut tries = 0;
        while !events.iter().any(|e| e.token == 3 && e.writable) && tries < 100 {
            poller.wait(&mut events, 50).unwrap();
            tries += 1;
        }
        assert!(events.iter().any(|e| e.token == 3 && e.writable));

        // Drop write interest: an idle socket must go quiet.
        poller
            .reregister(served.as_raw_fd(), 3, true, false)
            .unwrap();
        events.clear();
        poller.wait(&mut events, 50).unwrap();
        assert!(!events.iter().any(|e| e.token == 3 && e.writable));
        drop(client);
    }
}
