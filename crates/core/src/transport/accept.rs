//! Accepting a TCP connection ready for the reactor: non-blocking, with
//! `TCP_NODELAY` set, in one syscall. `std` accepts with `SOCK_CLOEXEC`
//! only and has no `set_nodelay` for a listener, which made every accepted
//! connection three — `accept4`, `ioctl(FIONBIO)`, `setsockopt` — so
//! `accept4(SOCK_NONBLOCK | SOCK_CLOEXEC)` and the listener's
//! `TCP_NODELAY` (accepted sockets inherit it) are called straight through
//! the C library, as `epoll` is. So is a dial, whose `connect` must not
//! wait out the handshake: a backend whose accept queue is full drops the
//! SYN, and a blocking one waits for the kernel's retries, up to ~2 min.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};

/// Make `listener` ready for [`accept`]: set the `TCP_NODELAY` its
/// accepted sockets will inherit.
pub(super) fn prepare(listener: &TcpListener) -> io::Result<()> {
    linux::set_nodelay(super::raw_fd(listener))
}

/// Accept one connection, non-blocking and `TCP_NODELAY`. An empty queue
/// is `WouldBlock`.
pub(super) fn accept(listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
    linux::accept(super::raw_fd(listener))
}

/// Start connecting to the first address `peer` resolves to, non-blocking
/// and `TCP_NODELAY`. The stream may still be connecting (`EINPROGRESS`);
/// it completes when it polls writable, and its first write then reports
/// a failed connect. On loopback the kernel has answered by the time
/// `connect` returns, so a refusal is returned here.
pub(super) fn dial(peer: &str) -> io::Result<TcpStream> {
    let addr = peer.to_socket_addrs()?.next();
    linux::dial(addr.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?)
}

mod linux {
    use std::io;
    use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6, TcpStream};
    use std::os::unix::io::FromRawFd;

    const SOCK_STREAM: i32 = 1;
    const SOCK_NONBLOCK: i32 = 0o4000;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const IPPROTO_TCP: i32 = 6;
    const TCP_NODELAY: i32 = 1;
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const EINPROGRESS: i32 = 115;

    /// `struct sockaddr_storage`: 128 bytes, aligned for any address.
    #[repr(C, align(8))]
    struct SockAddrStorage([u8; 128]);

    extern "C" {
        fn accept4(fd: i32, addr: *mut SockAddrStorage, len: *mut u32, flags: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn connect(fd: i32, addr: *const SockAddrStorage, len: u32) -> i32;
    }

    pub(super) fn set_nodelay(listener: i32) -> io::Result<()> {
        let on: i32 = 1;
        // SAFETY: `value` points at a live `i32` and `len` is its size;
        // the kernel copies it before the call returns.
        let rc = unsafe { setsockopt(listener, IPPROTO_TCP, TCP_NODELAY, &on, 4) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub(super) fn accept(listener: i32) -> io::Result<(TcpStream, SocketAddr)> {
        let mut addr = SockAddrStorage([0; 128]);
        let fd = loop {
            let mut len = std::mem::size_of::<SockAddrStorage>() as u32;
            // SAFETY: `addr` is a writable buffer of `len` bytes, aligned
            // as `sockaddr_storage` is, and both outlive the call.
            let fd =
                unsafe { accept4(listener, &mut addr, &mut len, SOCK_NONBLOCK | SOCK_CLOEXEC) };
            if fd >= 0 {
                break fd;
            }
            // As `std` does: a signal is no reason to report failure.
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        // SAFETY: `fd` is a socket the kernel just handed this call and
        // nothing else owns; the `TcpStream` closes it when dropped.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        Ok((stream, peer_of(&addr.0)))
    }

    pub(super) fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
        // `sockaddr_in` / `sockaddr_in6`: family in host order, port and
        // address in network order (no IPv6 flow info).
        let mut raw = SockAddrStorage([0; 128]);
        raw.0[2..4].copy_from_slice(&addr.port().to_be_bytes());
        let (family, len) = match addr {
            SocketAddr::V4(v4) => {
                raw.0[4..8].copy_from_slice(&v4.ip().octets());
                (AF_INET, 16)
            }
            SocketAddr::V6(v6) => {
                raw.0[8..24].copy_from_slice(&v6.ip().octets());
                raw.0[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                (AF_INET6, 28)
            }
        };
        raw.0[..2].copy_from_slice(&family.to_ne_bytes());
        // SAFETY: no pointer is passed.
        let fd = unsafe { socket(family.into(), SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a socket just made and owned by nothing else;
        // the `TcpStream` closes it when dropped, on any early return too.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        set_nodelay(fd)?;
        // SAFETY: `raw` holds a `sockaddr_in` / `sockaddr_in6` of `len`
        // bytes and outlives the call.
        if unsafe { connect(fd, &raw, len) } < 0 {
            let err = io::Error::last_os_error();
            if err.raw_os_error() != Some(EINPROGRESS) {
                return Err(err);
            }
        }
        match stream.take_error()? {
            Some(err) => Err(err),
            None => Ok(stream),
        }
    }

    /// Read a `sockaddr_in` / `sockaddr_in6` (family in host order, port
    /// and address in network order). A TCP listener accepts no other
    /// family; one would be labelled `0.0.0.0:0`.
    fn peer_of(raw: &[u8; 128]) -> SocketAddr {
        let port = u16::from_be_bytes([raw[2], raw[3]]);
        let word = |at: usize| u32::from_ne_bytes([raw[at], raw[at + 1], raw[at + 2], raw[at + 3]]);
        match u16::from_ne_bytes([raw[0], raw[1]]) {
            AF_INET6 => {
                let mut ip = [0u8; 16];
                ip.copy_from_slice(&raw[8..24]);
                // Flow info and scope id as the kernel wrote them, which
                // is how `std` reads them.
                SocketAddrV6::new(Ipv6Addr::from(ip), port, word(4), word(24)).into()
            }
            family => {
                debug_assert_eq!(family, AF_INET, "a TCP peer is IPv4 or IPv6");
                let ip = Ipv4Addr::new(raw[4], raw[5], raw[6], raw[7]);
                SocketAddrV4::new(ip, port).into()
            }
        }
    }
}
