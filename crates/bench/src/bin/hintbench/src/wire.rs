//! The benchmark's client for the serve wire protocol, split into a send
//! half and a receive half so open-loop load can drive them from two
//! threads. Calls return the instants the spans are cut from; encoding
//! and framing come from `serve::proto`.

use bytes::BytesMut;
use serve::proto::encode_request;
use serve::{FrameReader, Kind, Request, Status, Transport};
use std::io::{self, BufReader, Read, Write};
use std::time::Instant;

/// The send half of a connection.
pub struct Tx<W: Write> {
    w: W,
    buf: BytesMut,
}

/// When one request was handed to the encoder, encoded and written.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub start: Instant,
    pub encoded: Instant,
    pub written: Instant,
}

impl<W: Write> Tx<W> {
    pub fn send(&mut self, req: &Request) -> io::Result<Sent> {
        let start = Instant::now();
        self.buf.clear();
        encode_request(&mut self.buf, req);
        let encoded = Instant::now();
        self.w.write_all(self.buf.as_slice())?;
        self.w.flush()?;
        Ok(Sent {
            start,
            encoded,
            written: Instant::now(),
        })
    }
}

/// The receive half of a connection.
pub struct Rx<R: Read> {
    frames: FrameReader<BufReader<R>>,
}

/// One reply: its trailer, when its first frame and its trailer were
/// decoded, and its size on the wire.
#[derive(Debug, Clone, Copy)]
pub struct Received {
    pub status: Status,
    pub count: u64,
    pub first: Instant,
    pub end: Instant,
    pub bytes: u64,
}

/// Frame header size on the wire.
const HEADER: u64 = 8;

impl<R: Read> Rx<R> {
    /// Reads the next reply, appending its values (ids, or histogram
    /// counts) to `values`.
    pub fn recv(&mut self, values: &mut Vec<u64>) -> Result<Received, String> {
        let mut first = None;
        let mut bytes = 0;
        loop {
            let frame = self
                .frames
                .read_frame()
                .map_err(|e| format!("reply decode: {e}"))?
                .ok_or("server closed the connection mid-reply")?;
            first.get_or_insert_with(Instant::now);
            let payload = frame.payload.as_slice();
            bytes += HEADER + payload.len() as u64;
            match frame.kind {
                Kind::Results => values.extend(
                    payload
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
                ),
                Kind::End if payload.len() == 9 => {
                    return Ok(Received {
                        status: Status::from_u8(payload[0]),
                        count: u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes")),
                        first: first.expect("set above"),
                        end: Instant::now(),
                        bytes,
                    })
                }
                k => return Err(format!("unexpected reply frame {k:?}")),
            }
        }
    }
}

/// The receive and send halves of a connection over `T`.
pub type Halves<T> = (Rx<<T as Transport>::Reader>, Tx<<T as Transport>::Writer>);

/// Splits a connected transport into its two halves.
pub fn split<T: Transport>(t: T) -> io::Result<Halves<T>> {
    let (r, w) = t.split()?;
    Ok((
        Rx {
            frames: FrameReader::new(BufReader::with_capacity(64 * 1024, r)),
        },
        Tx {
            w,
            buf: BytesMut::new(),
        },
    ))
}
