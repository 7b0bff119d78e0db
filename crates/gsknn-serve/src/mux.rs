//! Readiness multiplexing for the shard event loop: a thin wrapper over
//! `poll(2)` so one thread can watch its whole connection slice plus the
//! acceptor hand-off without an async runtime. A connection costs a file
//! descriptor and a slab slot, not a thread.
//!
//! Declared via a raw `extern "C"` binding (the same discipline as the
//! server's SIGTERM handler — no libc crate dependency). On non-unix
//! targets [`poll_fds`] degrades to "sleep briefly, report everything
//! readable": callers already treat readiness as a hint and handle
//! `WouldBlock` on the actual nonblocking reads, so the fallback is
//! merely a busier loop, not a behavioral change.

use std::io;

/// Readable-data event bit (`POLLIN`).
pub const POLLIN: i16 = 0x001;
/// Writable-without-blocking event bit (`POLLOUT`).
pub const POLLOUT: i16 = 0x004;
/// Error condition (`POLLERR`, always polled implicitly).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (`POLLHUP`, always polled implicitly).
pub const POLLHUP: i16 = 0x010;

/// One `struct pollfd`, ABI-compatible with the kernel's.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default)]
pub struct PollFd {
    /// The file descriptor to watch (a negative fd is ignored by the
    /// kernel — the slab uses that for vacated slots).
    pub fd: i32,
    /// Requested events ([`POLLIN`] | [`POLLOUT`]).
    pub events: i16,
    /// Kernel-reported events.
    pub revents: i16,
}

impl PollFd {
    /// Watch `fd` for the given events.
    pub fn new(fd: i32, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// `true` if any requested or error event fired.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }

    /// `true` if the descriptor has data to read (or a hang-up / error to
    /// observe, which a read also surfaces).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP) != 0
    }

    /// `true` if the descriptor can be written without blocking.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP) != 0
    }
}

/// Block until at least one descriptor is ready or `timeout_ms` elapses
/// (0 = return immediately, negative = wait forever). Returns the number
/// of ready descriptors; 0 means timeout. `EINTR` reads as a timeout —
/// the shard loop re-checks its deadlines on every wakeup anyway.
#[cfg(unix)]
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }
    let nfds = fds.len() as u64;
    debug_assert_eq!(nfds as usize, fds.len(), "nfds must count the whole slice");
    debug_assert_eq!(
        std::mem::size_of::<PollFd>(),
        8,
        "PollFd must be a struct pollfd"
    );
    // SAFETY: poll(2) reads and writes `nfds` `struct pollfd`s from the
    // pointer on. `PollFd` is `#[repr(C)]` with the kernel's layout, and
    // pointer and count come from one live `&mut` slice, so every element
    // the kernel touches lies inside it and nothing else aliases it for
    // the call.
    let rc = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        for f in fds.iter_mut() {
            f.revents = 0;
        }
        return Ok(0);
    }
    Err(err)
}

/// Non-unix fallback: nap for (a bounded slice of) the timeout and claim
/// everything ready, degrading the caller to plain nonblocking polling.
#[cfg(not(unix))]
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    let nap = if timeout_ms < 0 {
        5
    } else {
        timeout_ms.min(5) as u64
    };
    if nap > 0 {
        std::thread::sleep(std::time::Duration::from_millis(nap));
    }
    let mut n = 0;
    for f in fds.iter_mut() {
        if f.fd >= 0 {
            f.revents = f.events;
            n += 1;
        } else {
            f.revents = 0;
        }
    }
    Ok(n)
}

/// The raw fd of a stream, for [`PollFd::new`].
#[cfg(unix)]
pub fn raw_fd(stream: &std::net::TcpStream) -> i32 {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

/// Non-unix fallback: no usable fd; the slab polls every slot.
#[cfg(not(unix))]
pub fn raw_fd(_stream: &std::net::TcpStream) -> i32 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn pollfd_layout_matches_the_kernel_struct() {
        assert_eq!(std::mem::size_of::<PollFd>(), 8);
        assert_eq!(std::mem::align_of::<PollFd>(), 4);
    }

    #[test]
    fn timeout_returns_zero_ready() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut fds = [PollFd::new(raw_fd(&stream), POLLIN)];
        let n = poll_fds(&mut fds, 10).unwrap();
        #[cfg(unix)]
        {
            assert_eq!(n, 0, "no data pending");
            assert!(!fds[0].readable());
        }
        #[cfg(not(unix))]
        let _ = n;
    }

    #[test]
    fn pending_data_reports_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let mut fds = [PollFd::new(raw_fd(&server_side), POLLIN | POLLOUT)];
        let n = poll_fds(&mut fds, 1000).unwrap();
        assert!(n >= 1);
        assert!(fds[0].readable());
        assert!(fds[0].writable(), "fresh socket is writable");
    }

    #[test]
    fn negative_fd_slots_are_ignored() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        client.write_all(b"x").unwrap();
        let mut fds = [
            PollFd::new(-1, POLLIN),
            PollFd::new(raw_fd(&server_side), POLLIN),
        ];
        let n = poll_fds(&mut fds, 1000).unwrap();
        assert!(n >= 1);
        assert!(!fds[0].ready(), "vacated slot must stay quiet");
        assert!(fds[1].readable());
    }
}
