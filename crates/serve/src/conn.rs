//! Per-connection state for the reactor loop: the read-side framer, the
//! bounded write buffer, and the backpressure (shed) state machine.
//!
//! Every connection owns exactly one [`WriteBuf`]: responses are appended
//! as whole lines and flushed opportunistically whenever the socket is
//! writable. The buffer is **bounded** — a client that stops draining its
//! socket cannot grow server memory past [`WriteBuf`]'s cap. When an
//! append would exceed the cap the connection is *shed*: every queued
//! complete line that has not started flushing is dropped (truncation
//! happens only on line boundaries, so the client never sees a torn
//! response), a typed `slow_reader` error line takes their place, reading
//! from the connection stops, and the socket closes once the error has
//! flushed. Other connections and the shard schedulers never block on a
//! slow reader.

use std::collections::VecDeque;

/// What [`WriteBuf::append_line`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Append {
    /// The line was queued.
    Queued,
    /// Queuing the line would exceed the cap; nothing was queued.
    Overflow,
}

/// A bounded outbound byte buffer that only ever truncates on response
/// line boundaries.
///
/// Layout: `head` holds the remainder of a line whose first bytes already
/// reached the socket (it must never be dropped — truncating it would
/// tear a response mid-line); `lines` holds complete, untouched response
/// lines. Flushing consumes `head` first, then promotes the next queued
/// line into `head`.
#[derive(Debug)]
pub struct WriteBuf {
    /// Unsent tail of the line currently being written (possibly whole).
    head: Vec<u8>,
    /// Offset into `head` already written to the socket.
    head_pos: usize,
    /// Complete lines (each including its trailing `\n`) not yet started.
    lines: VecDeque<Vec<u8>>,
    /// Total pending bytes (head remainder + queued lines).
    pending: usize,
    /// Cap on `pending`; appends beyond it report [`Append::Overflow`].
    cap: usize,
}

impl WriteBuf {
    /// An empty buffer refusing to hold more than `cap` pending bytes.
    pub fn new(cap: usize) -> WriteBuf {
        WriteBuf { head: Vec::new(), head_pos: 0, lines: VecDeque::new(), pending: 0, cap }
    }

    /// Pending (unwritten) bytes.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// True when nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Queues `line` plus a newline, unless that would push the buffer
    /// past its cap.
    pub fn append_line(&mut self, line: &str) -> Append {
        let len = line.len() + 1;
        if self.pending + len > self.cap {
            return Append::Overflow;
        }
        let mut bytes = Vec::with_capacity(len);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.lines.push_back(bytes);
        self.pending += len;
        Append::Queued
    }

    /// Drops every queued line that has not started flushing and queues
    /// `error_line` in their place (bypassing the cap — it is the one
    /// line a shed connection still owes its client). The in-progress
    /// head line, if any, is preserved so framing never tears.
    pub fn shed_to(&mut self, error_line: &str) {
        self.pending = self.head.len() - self.head_pos;
        self.lines.clear();
        let mut bytes = Vec::with_capacity(error_line.len() + 1);
        bytes.extend_from_slice(error_line.as_bytes());
        bytes.push(b'\n');
        self.pending += bytes.len();
        self.lines.push_back(bytes);
    }

    /// Writes as much pending data as the sink accepts, returning the
    /// bytes written. Stops on `WouldBlock` (reported as `Ok`) — any
    /// other error propagates.
    ///
    /// # Errors
    ///
    /// Propagates sink errors other than `WouldBlock`.
    pub fn flush_into(&mut self, sink: &mut dyn std::io::Write) -> std::io::Result<usize> {
        let mut written = 0;
        loop {
            if self.head_pos == self.head.len() {
                self.head.clear();
                self.head_pos = 0;
                match self.lines.pop_front() {
                    Some(line) => self.head = line,
                    None => return Ok(written),
                }
            }
            match sink.write(&self.head[self.head_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.head_pos += n;
                    self.pending -= n;
                    written += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(written),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => Err(e)?,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// A sink accepting at most `limit` bytes per write, then WouldBlock.
    struct Throttled {
        accepted: Vec<u8>,
        budget: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn appends_flush_in_order_across_partial_writes() {
        let mut buf = WriteBuf::new(1024);
        assert_eq!(buf.append_line("first"), Append::Queued);
        assert_eq!(buf.append_line("second"), Append::Queued);
        let mut sink = Throttled { accepted: Vec::new(), budget: 4 };
        buf.flush_into(&mut sink).unwrap();
        assert_eq!(sink.accepted, b"firs");
        sink.budget = 1024;
        buf.flush_into(&mut sink).unwrap();
        assert_eq!(sink.accepted, b"first\nsecond\n");
        assert!(buf.is_empty());
    }

    #[test]
    fn overflow_refuses_without_queueing() {
        let mut buf = WriteBuf::new(8);
        assert_eq!(buf.append_line("abc"), Append::Queued); // 4 bytes
        assert_eq!(buf.append_line("defgh"), Append::Overflow); // 6 > remaining 4
        assert_eq!(buf.pending(), 4);
    }

    #[test]
    fn shed_preserves_the_partially_written_line_and_drops_the_rest() {
        let mut buf = WriteBuf::new(1024);
        buf.append_line("partial-line");
        buf.append_line("doomed-1");
        buf.append_line("doomed-2");
        let mut sink = Throttled { accepted: Vec::new(), budget: 3 };
        buf.flush_into(&mut sink).unwrap();
        assert_eq!(sink.accepted, b"par");

        buf.shed_to("{\"error\":\"slow\"}");
        sink.budget = 4096;
        buf.flush_into(&mut sink).unwrap();
        let text = String::from_utf8(sink.accepted).unwrap();
        // The torn line completes; the queued lines are gone; the error
        // line is last. Every line is intact.
        assert_eq!(text, "partial-line\n{\"error\":\"slow\"}\n");
    }

    #[test]
    fn shed_with_nothing_in_flight_keeps_only_the_error() {
        let mut buf = WriteBuf::new(16);
        buf.append_line("response-a");
        buf.shed_to("err");
        let mut sink = Throttled { accepted: Vec::new(), budget: 4096 };
        buf.flush_into(&mut sink).unwrap();
        assert_eq!(sink.accepted, b"err\n");
    }
}
