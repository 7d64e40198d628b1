//! The byte-stream transports the server and client run over.
//!
//! A [`Transport`] is any ordered, reliable duplex byte stream that can
//! split into an independently-owned reader and writer half (the server
//! runs them on different threads). Two implementations:
//!
//! * [`duplex`] — a pair of in-memory channel-backed streams for
//!   deterministic, port-free tests and benchmarks (the vendored
//!   `crossbeam` channels carry byte chunks; reads block, EOF is the
//!   peer dropping its writer);
//! * [`std::net::TcpStream`] — real sockets, split via `try_clone`.
//!   `Nagle` is disabled: frames are small and latency-priced.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// An ordered, reliable duplex byte stream, splittable into owned
/// halves.
pub trait Transport: Send + Sized + 'static {
    /// The read half.
    type Reader: Read + Send + 'static;
    /// The write half.
    type Writer: Write + Send + 'static;

    /// Splits into independently-owned halves. Dropping the writer must
    /// eventually surface as EOF on the peer's reader. Fallible: a TCP
    /// stream splits via `try_clone`, which can fail under fd
    /// exhaustion — the server rejects that one connection and keeps
    /// serving the rest, so splitting must not panic.
    fn split(self) -> io::Result<(Self::Reader, Self::Writer)>;
}

impl Transport for TcpStream {
    type Reader = TcpStream;
    type Writer = TcpStream;

    fn split(self) -> io::Result<(TcpStream, TcpStream)> {
        let _ = self.set_nodelay(true);
        let writer = self.try_clone()?;
        Ok((self, writer))
    }
}

/// The write half of an in-memory duplex stream: each `write` sends one
/// owned byte chunk; dropping it closes the channel (peer reads EOF).
pub struct PipeWriter {
    tx: Sender<Vec<u8>>,
}

impl PipeWriter {
    fn send(&mut self, chunk: Vec<u8>) -> io::Result<usize> {
        let n = chunk.len();
        if n > 0 {
            self.tx
                .send(chunk)
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer reader dropped"))?;
        }
        Ok(n)
    }
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.send(buf.to_vec())
    }

    /// Sends all the buffers as one chunk, as `writev` puts them on a
    /// socket in one call.
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        let mut chunk = Vec::with_capacity(bufs.iter().map(|b| b.len()).sum());
        for b in bufs {
            chunk.extend_from_slice(b);
        }
        self.send(chunk)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(()) // sends are immediate
    }
}

/// The read half of an in-memory duplex stream: a read blocks until
/// the peer has sent something, then returns every byte already sent
/// that fits, buffering the tail of the last chunk it touched.
pub struct PipeReader {
    rx: Receiver<Vec<u8>>,
    /// Unconsumed tail of the last received chunk.
    pending: Vec<u8>,
    /// Read offset into `pending`.
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.pos == self.pending.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.pending = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // every sender gone: EOF
            }
        }
        // like a socket read: everything already sent that fits, not
        // just the first chunk
        let mut n = 0;
        loop {
            let take = (self.pending.len() - self.pos).min(buf.len() - n);
            buf[n..n + take].copy_from_slice(&self.pending[self.pos..self.pos + take]);
            self.pos += take;
            n += take;
            if n == buf.len() {
                return Ok(n);
            }
            match self.rx.try_recv() {
                Ok(chunk) => {
                    self.pending = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(n),
            }
        }
    }
}

/// One endpoint of an in-memory duplex connection.
pub struct DuplexTransport {
    reader: PipeReader,
    writer: PipeWriter,
}

impl Transport for DuplexTransport {
    type Reader = PipeReader;
    type Writer = PipeWriter;

    fn split(self) -> io::Result<(PipeReader, PipeWriter)> {
        Ok((self.reader, self.writer))
    }
}

/// Creates a connected pair of in-memory duplex endpoints (client end,
/// server end — they are symmetric).
pub fn duplex() -> (DuplexTransport, DuplexTransport) {
    let (atx, arx) = unbounded();
    let (btx, brx) = unbounded();
    (
        DuplexTransport {
            reader: PipeReader {
                rx: arx,
                pending: Vec::new(),
                pos: 0,
            },
            writer: PipeWriter { tx: btx },
        },
        DuplexTransport {
            reader: PipeReader {
                rx: brx,
                pending: Vec::new(),
                pos: 0,
            },
            writer: PipeWriter { tx: atx },
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_roundtrips_both_directions() {
        let (a, b) = duplex();
        let (mut ar, mut aw) = a.split().unwrap();
        let (mut br, mut bw) = b.split().unwrap();
        aw.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        br.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        bw.write_all(b"pong!").unwrap();
        let mut buf = [0u8; 5];
        ar.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong!");
    }

    #[test]
    fn short_reads_drain_large_chunks() {
        let (a, b) = duplex();
        let (_ar, mut aw) = a.split().unwrap();
        let (mut br, _bw) = b.split().unwrap();
        aw.write_all(&[7u8; 100]).unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 33];
        for _ in 0..4 {
            let n = br.read(&mut buf).unwrap();
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, vec![7u8; 100]);
    }

    #[test]
    fn a_read_takes_every_chunk_already_sent() {
        let (a, b) = duplex();
        let (_ar, mut aw) = a.split().unwrap();
        let (mut br, _bw) = b.split().unwrap();
        aw.write_all(b"abc").unwrap();
        aw.write_all(b"defg").unwrap();
        aw.write_all(b"hi").unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(br.read(&mut buf).unwrap(), 6);
        assert_eq!(&buf, b"abcdef");
        let mut buf = [0u8; 8];
        assert_eq!(br.read(&mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"ghi");
    }

    #[test]
    fn dropping_writer_is_eof() {
        let (a, b) = duplex();
        let (_ar, aw) = a.split().unwrap();
        let (mut br, _bw) = b.split().unwrap();
        drop(aw);
        let mut buf = [0u8; 8];
        assert_eq!(br.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn writing_to_a_dropped_reader_is_broken_pipe() {
        let (a, b) = duplex();
        let (_ar, mut aw) = a.split().unwrap();
        drop(b);
        let err = aw.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }
}
