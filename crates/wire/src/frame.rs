//! The frame layer: connection preamble and length-prefixed payloads.
//!
//! See the crate docs for the byte layout. This module only moves opaque
//! payload byte vectors; the message vocabulary lives in [`crate::proto`].

use std::io::{Read, Write};

use sympl_symbolic::codec::encode_u64;

use crate::WireError;

/// The four preamble bytes every peer sends first.
pub const MAGIC: [u8; 4] = *b"SYWR";

/// The protocol revision this build speaks. Bump on ANY change to the
/// preamble, frame, or message byte formats (the golden-vector test under
/// `tests/wire_golden/` is the tripwire).
///
/// History:
/// - **1** — initial protocol: `Task`/`TaskDone`/`Error`/`Shutdown`.
/// - **2** — fault-tolerance revision: `Heartbeat` and `Cancel` control
///   frames, and task frames grew a trailing `heartbeat_interval`
///   duration (the cadence the worker must beat at while a task is in
///   flight). Version negotiation is symmetric and all-or-nothing, so a
///   v1 peer refuses a v2 connection at the preamble — it can never
///   mis-decode the extended task frame.
/// - **3** — elastic-membership revision: `Register` and `Welcome`
///   frames let a freshly started worker join a *running* campaign
///   (worker connects to the coordinator's join listener, announces
///   itself, and receives the program identity it will be asked to
///   resolve). No existing frame changed shape, but the vocabulary grew,
///   so a v2 peer must refuse a v3 connection rather than choke on an
///   unknown message tag mid-conversation.
/// - **4** — campaign-service revision: `ClientHello` and `ClientAccept`
///   frames open every serve-side conversation (the coordinator
///   announces a client label + scheduling priority; the multi-tenant
///   service answers with a session id, or with a typed `Error` frame
///   when it is at capacity). Existing frames kept their shapes, but the
///   conversation's opening sequence changed, so a v3 peer must refuse a
///   v4 connection at the preamble rather than mistake the hello for an
///   unexpected message.
pub const PROTOCOL_VERSION: u64 = 4;

/// Hard cap on a frame's payload size (64 MiB). A corrupt or hostile
/// length prefix fails fast instead of asking the allocator for the moon;
/// real frames are nowhere near this (a task frame is bytes-per-point,
/// a result frame bytes-per-solution-state).
pub const MAX_FRAME_LEN: usize = 64 << 20;

fn read_byte(r: &mut impl Read) -> Result<u8, WireError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// Reads an LEB128 varint from a byte stream (the streaming twin of
/// `sympl_symbolic::codec::decode_u64`).
fn read_varint(r: &mut impl Read) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = read_byte(r)?;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(sympl_symbolic::CodecError::Overflow.into());
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Writes this side's preamble: [`MAGIC`] plus [`PROTOCOL_VERSION`].
///
/// # Errors
///
/// Any socket error.
pub fn write_preamble(w: &mut impl Write) -> Result<(), WireError> {
    let mut buf = MAGIC.to_vec();
    encode_u64(PROTOCOL_VERSION, &mut buf);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Reads and validates the peer's preamble.
///
/// # Errors
///
/// [`WireError::BadMagic`] when the stream does not open with [`MAGIC`],
/// [`WireError::VersionMismatch`] when the peer announces a revision this
/// build does not speak, plus any socket error.
pub fn read_preamble(r: &mut impl Read) -> Result<(), WireError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let theirs = read_varint(r)?;
    if theirs != PROTOCOL_VERSION {
        return Err(WireError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs,
        });
    }
    Ok(())
}

/// Performs the symmetric preamble exchange on a duplex stream: write
/// ours, then read and validate theirs. Both sides can do this
/// concurrently without deadlock — the preamble is a handful of bytes,
/// far below any socket buffer.
///
/// # Errors
///
/// The errors of [`write_preamble`] and [`read_preamble`].
pub fn handshake<S: Read + Write>(stream: &mut S) -> Result<(), WireError> {
    write_preamble(stream)?;
    read_preamble(stream)
}

/// Writes one frame: a varint payload length, then the payload, handed to
/// the stream in one `write_all` so a peer that keeps Nagle's algorithm on
/// never waits on a delayed ACK between the prefix and the payload.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] when the payload exceeds
/// [`MAX_FRAME_LEN`], plus any socket error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(payload.len()));
    }
    let mut frame = Vec::with_capacity(payload.len() + 10);
    encode_u64(payload.len() as u64, &mut frame);
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame's payload.
///
/// # Errors
///
/// [`WireError::Disconnected`] when the peer closed the stream at a frame
/// boundary (a clean hang-up), [`WireError::FrameTooLarge`] on an
/// over-cap length prefix, plus any socket error.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let len = usize::try_from(read_varint(r)?)
        .map_err(|_| WireError::from(sympl_symbolic::CodecError::Overflow))?;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_through_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0x80; 300]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), vec![0x80; 300]);
        assert!(matches!(read_frame(&mut r), Err(WireError::Disconnected)));
    }

    #[test]
    fn preamble_negotiates_and_rejects() {
        let mut buf = Vec::new();
        write_preamble(&mut buf).unwrap();
        read_preamble(&mut Cursor::new(&buf)).unwrap();

        assert!(matches!(
            read_preamble(&mut Cursor::new(b"HTTP/1.1")),
            Err(WireError::BadMagic(m)) if &m == b"HTTP"
        ));

        let mut future = MAGIC.to_vec();
        encode_u64(PROTOCOL_VERSION + 1, &mut future);
        assert!(matches!(
            read_preamble(&mut Cursor::new(&future)),
            Err(WireError::VersionMismatch { theirs, .. }) if theirs == PROTOCOL_VERSION + 1
        ));
    }

    /// Records each `write` call as one chunk.
    #[derive(Default)]
    struct Chunks(Vec<Vec<u8>>);

    impl Write for Chunks {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn preamble_and_frames_are_one_write_each() {
        let mut w = Chunks::default();
        write_preamble(&mut w).unwrap();
        write_frame(&mut w, &[7; 300]).unwrap();
        assert_eq!(w.0.len(), 2, "one write for the preamble, one per frame");
        let mut r = Cursor::new(w.0.concat());
        read_preamble(&mut r).unwrap();
        assert_eq!(read_frame(&mut r).unwrap(), vec![7; 300]);
    }

    #[test]
    fn oversized_frames_are_refused_both_ways() {
        let mut buf = Vec::new();
        encode_u64((MAX_FRAME_LEN + 1) as u64, &mut buf);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(WireError::FrameTooLarge(_))
        ));
        // The writer refuses before touching the stream.
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &huge),
            Err(WireError::FrameTooLarge(_))
        ));
        assert!(sink.is_empty());
    }
}
