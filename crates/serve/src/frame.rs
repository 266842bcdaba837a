//! Wire framing, shared by both ends of a TCP connection.
//!
//! A frame is one line — the payload and its `\n` — and the rule is
//! **one frame, one write, on a socket with `TCP_NODELAY`**. Written as
//! two segments (payload, then newline) on a default socket, Nagle's
//! algorithm holds the second until the first is acknowledged, and the
//! peer's delayed-ACK timer sits on that acknowledgement for ~40 ms: a
//! kernel timer on every request, two orders of magnitude above the
//! request itself. `TCP_NODELAY` on both ends keeps the last partial
//! segment of a reply that spans several (`metrics`, `trace`, `profile`)
//! from waiting the same way.
//!
//! Lines are bounded on the way in, so a peer that never sends `\n`
//! cannot grow the reader without limit.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Longest request line a server accepts. REPL input arrives a source
/// line at a time, so this is far above anything a client sends.
pub(crate) const MAX_REQUEST_BYTES: usize = 4 << 20;

/// Longest reply line a client accepts. Wider than the request bound
/// because a `trace` reply carries a whole ring (a few MB when full).
pub(crate) const MAX_REPLY_BYTES: usize = 64 << 20;

/// Capacity a line buffer keeps between frames; one oversized line does
/// not pin its allocation for the life of the connection.
const KEEP_BYTES: usize = 64 << 10;

/// What [`read_frame`] found.
pub(crate) enum Frame {
    /// A line, now in the buffer without its terminator.
    Line,
    /// The peer closed the connection.
    Eof,
    /// The line ran past the bound; the buffer holds its head.
    TooLong,
}

/// Prepares a connected or accepted socket: `TCP_NODELAY`, and a buffered
/// read half beside the write half.
pub(crate) fn split(stream: TcpStream) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    stream.set_nodelay(true)?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

/// Sends `line` and its newline as one write. `frame` is the caller's
/// reused staging buffer.
pub(crate) fn write_frame(w: &mut impl Write, frame: &mut Vec<u8>, line: &str) -> io::Result<()> {
    frame.clear();
    frame.shrink_to(KEEP_BYTES);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    w.write_all(frame)
}

/// Reads one line of at most `max` bytes before its `\n` into `line`
/// (reused across calls), without its terminator.
pub(crate) fn read_frame(r: &mut impl BufRead, line: &mut String, max: usize) -> io::Result<Frame> {
    line.clear();
    line.shrink_to(KEEP_BYTES);
    let n = r.take(max as u64 + 1).read_line(line)?;
    if n == 0 {
        return Ok(Frame::Eof);
    }
    if !line.ends_with('\n') && n > max {
        return Ok(Frame::TooLong);
    }
    while line.ends_with(['\n', '\r']) {
        line.pop();
    }
    Ok(Frame::Line)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts `write` calls: a frame sent as payload-then-newline shows
    /// up as two.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_exactly_one_write() {
        let mut w = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        let mut frame = Vec::new();
        write_frame(&mut w, &mut frame, r#"{"cmd":"probe"}"#).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes, b"{\"cmd\":\"probe\"}\n");
        write_frame(&mut w, &mut frame, "").unwrap();
        assert_eq!(w.writes, 2);
        assert!(w.bytes.ends_with(b"}\n\n"));
    }

    #[test]
    fn lines_are_read_up_to_the_bound_and_no_further() {
        let mut line = String::new();
        let mut r = io::Cursor::new(b"abc\r\nefgh\nijklm\nxy".to_vec());
        assert!(matches!(read_frame(&mut r, &mut line, 4), Ok(Frame::Line)));
        assert_eq!(line, "abc");
        assert!(matches!(read_frame(&mut r, &mut line, 4), Ok(Frame::Line)));
        assert_eq!(line, "efgh");
        assert!(matches!(
            read_frame(&mut r, &mut line, 4),
            Ok(Frame::TooLong)
        ));
        // Unterminated input at EOF is still a line, as with `lines()`.
        let mut r = io::Cursor::new(b"xy".to_vec());
        assert!(matches!(read_frame(&mut r, &mut line, 4), Ok(Frame::Line)));
        assert_eq!(line, "xy");
        assert!(matches!(read_frame(&mut r, &mut line, 4), Ok(Frame::Eof)));
    }

    #[test]
    fn an_endless_line_stops_at_the_bound() {
        let mut line = String::new();
        let mut r = BufReader::new(io::repeat(b'a'));
        assert!(matches!(
            read_frame(&mut r, &mut line, MAX_REQUEST_BYTES),
            Ok(Frame::TooLong)
        ));
        assert_eq!(line.len(), MAX_REQUEST_BYTES + 1);
        // The oversized buffer is let go when the next frame is read.
        let mut r = io::Cursor::new(b"ok\n".to_vec());
        assert!(matches!(
            read_frame(&mut r, &mut line, MAX_REQUEST_BYTES),
            Ok(Frame::Line)
        ));
        assert!(line.capacity() <= KEEP_BYTES);
    }

    #[test]
    fn split_sets_nodelay_on_an_accepted_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap());
        let (reader, writer) = split(accepted).unwrap();
        assert!(writer.nodelay().unwrap());
        assert!(reader.get_ref().nodelay().unwrap());
    }
}
