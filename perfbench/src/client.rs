//! The load generators: closed-loop blocking connections (one client
//! thread each) and the single-threaded pipelined open loop of
//! `wire-tiny`. Open-loop latency is measured from each request's
//! *scheduled* send time, so a stall also charges the wait it imposes on
//! the requests queued behind it.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A blocking client connection speaking NDJSON.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects with `TCP_NODELAY`, as every client of the benchmark does.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { writer: stream.try_clone()?, reader: BufReader::new(stream) })
    }

    /// Sends one line and waits for its response line (newline stripped).
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed the connection"));
        }
        response.truncate(response.trim_end_matches(['\r', '\n']).len());
        Ok(response)
    }

    /// The underlying stream (for the open loop, which drives it
    /// nonblocking).
    pub fn into_stream(self) -> TcpStream {
        self.writer
    }
}

/// Nanoseconds from `origin` to now.
pub fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// The open-loop schedule and in-flight bookkeeping of `wire-tiny`,
/// independent of sockets and of the clock so it can be tested with
/// injected times. Request `i` is due at `i · interval` and goes to
/// connection `i mod connections`; responses on one connection arrive in
/// send order.
#[derive(Debug)]
pub struct OpenLoop {
    interval_ns: u64,
    end_ns: u64,
    next: u64,
    pending: Vec<VecDeque<(u64, u64)>>,
    /// How late each request was handed to its socket (ns).
    pub lag: Vec<u64>,
}

impl OpenLoop {
    /// A schedule of `rate` requests per second for `duration_ns`, spread
    /// over `connections`.
    pub fn new(rate: f64, duration_ns: u64, connections: usize) -> OpenLoop {
        OpenLoop {
            interval_ns: (1e9 / rate) as u64,
            end_ns: duration_ns,
            next: 0,
            pending: vec![VecDeque::new(); connections],
            lag: Vec::new(),
        }
    }

    /// When the next request is due, or `None` once the schedule is done.
    pub fn next_due(&self) -> Option<u64> {
        let due = self.next * self.interval_ns;
        (due < self.end_ns).then_some(due)
    }

    /// Takes every request due at `now`: `(connection, request index)`
    /// pairs in schedule order, recording each one's lateness.
    pub fn take_due(&mut self, now: u64) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        while let Some(due) = self.next_due().filter(|&d| d <= now) {
            let conn = (self.next % self.pending.len() as u64) as usize;
            self.pending[conn].push_back((self.next, due));
            self.lag.push(now - due);
            out.push((conn, self.next));
            self.next += 1;
        }
        out
    }

    /// Matches a response on `conn` at `now` to its request: returns the
    /// request index and its latency from the scheduled send time.
    pub fn on_response(&mut self, conn: usize, now: u64) -> Option<(u64, u64)> {
        let (index, due) = self.pending[conn].pop_front()?;
        Some((index, now.saturating_sub(due)))
    }

    /// Requests sent but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }
}

/// A nonblocking connection of the open loop: outgoing bytes not yet
/// accepted by the socket and incoming bytes not yet split into lines.
pub struct Pipe {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
}

impl Pipe {
    /// Wraps a connected stream, switching it to nonblocking mode.
    pub fn new(stream: TcpStream) -> io::Result<Pipe> {
        stream.set_nonblocking(true)?;
        Ok(Pipe { stream, out: Vec::new(), out_pos: 0, inbuf: Vec::new() })
    }

    /// Queues one line for sending.
    pub fn queue(&mut self, line: &str) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
    }

    /// Whether queued bytes still wait for the socket.
    pub fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Writes as much queued output as the socket takes.
    pub fn flush(&mut self) -> io::Result<()> {
        while self.wants_write() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::Error::new(ErrorKind::WriteZero, "socket closed")),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if !self.wants_write() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Reads what the socket holds and hands each complete line to `on`.
    pub fn drain(&mut self, on: &mut dyn FnMut(&[u8])) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed")),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut start = 0;
        while let Some(nl) = self.inbuf[start..].iter().position(|&b| b == b'\n') {
            on(&self.inbuf[start..start + nl]);
            start += nl + 1;
        }
        self.inbuf.drain(..start);
        Ok(())
    }

    /// The raw descriptor, for readiness polling.
    #[cfg(unix)]
    pub fn fd(&self) -> i32 {
        use std::os::unix::io::AsRawFd;
        self.stream.as_raw_fd()
    }
}

/// Waits until a pipe is readable (or writable, where output is queued)
/// or `timeout` passes. On Linux this is `ppoll(2)` with nanosecond
/// timeouts and 1 ns timer slack, so the generator wakes on time.
pub fn wait(pipes: &[Pipe], timeout: Duration) {
    sys::wait(pipes, timeout);
}

/// Lowers this thread's timer slack so short waits end on time.
pub fn tighten_timer_slack() {
    sys::tighten_timer_slack();
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use super::Pipe;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const PR_SET_TIMERSLACK: i32 = 29;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const core::ffi::c_void,
        ) -> i32;
        fn prctl(option: i32, ...) -> i32;
    }

    pub fn wait(pipes: &[Pipe], timeout: Duration) {
        let mut fds: Vec<PollFd> = pipes
            .iter()
            .map(|p| PollFd {
                fd: p.fd(),
                events: if p.wants_write() { POLLIN | POLLOUT } else { POLLIN },
                revents: 0,
            })
            .collect();
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` `PollFd`s laid out as `struct pollfd`; `ts` outlives
        // the call; a null sigmask leaves the signal mask unchanged. The
        // result is ignored: an error or EINTR just ends this wait early
        // and the caller re-polls its sockets nonblocking.
        unsafe {
            ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
        }
    }

    pub fn tighten_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only
        // changes this thread's timer slack; failure leaves the default.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1u64);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Pipe;
    use std::time::Duration;

    pub fn wait(_pipes: &[Pipe], timeout: Duration) {
        std::thread::sleep(timeout.min(Duration::from_micros(20)));
    }

    pub fn tighten_timer_slack() {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_scheduled_send_time() {
        // 1000 rps = one request due every 1 ms, over two connections.
        let mut open = OpenLoop::new(1000.0, 10_000_000, 2);
        assert_eq!(open.next_due(), Some(0));
        // The clock reads 0.2 ms: request 0 goes out 0.2 ms late.
        assert_eq!(open.take_due(200_000), vec![(0, 0)]);
        // The generator stalls until 3.5 ms: requests 1-3 go out at once.
        assert_eq!(open.take_due(3_500_000), vec![(1, 1), (0, 2), (1, 3)]);
        assert_eq!(open.lag, vec![200_000, 2_500_000, 1_500_000, 500_000]);
        assert_eq!(open.in_flight(), 4);
        // Responses at 4 ms: each latency includes the stall, measured
        // from when the request was due, not from when it was sent.
        assert_eq!(open.on_response(0, 4_000_000), Some((0, 4_000_000)));
        assert_eq!(open.on_response(1, 4_000_000), Some((1, 3_000_000)));
        assert_eq!(open.on_response(0, 4_100_000), Some((2, 2_100_000)));
        assert_eq!(open.on_response(1, 4_100_000), Some((3, 1_100_000)));
        assert_eq!(open.on_response(1, 5_000_000), None, "nothing left in flight");
    }

    #[test]
    fn schedule_ends_at_the_duration() {
        let mut open = OpenLoop::new(1000.0, 3_000_000, 1);
        assert_eq!(open.take_due(u64::MAX / 2).len(), 3);
        assert_eq!(open.next_due(), None);
    }
}
