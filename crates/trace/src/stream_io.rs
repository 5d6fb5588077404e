//! Binary serialization of recorded execution streams.
//!
//! Record a workload's execution once and replay it offline against any
//! number of selectors — what the paper's framework does by replaying
//! Pin-collected block streams. The format is a small fixed-width
//! little-endian encoding of a [`CompactStream`] (magic, version, step
//! and taken-branch counts, then its three arrays); loading validates
//! every block index and tag against the program, so a stream can never
//! desynchronize silently from the binary it claims to describe.

use crate::stream::CompactStream;
use rsel_program::{Addr, Program};
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"RSEL";
/// Version 2 is the compact format; version 1 (one full record per
/// step) is no longer read or written.
const COMPACT_VERSION: u16 = 2;

const TAG_START: u8 = 0;
const TAG_FALLTHROUGH: u8 = 1;

/// An error loading a recorded stream.
#[derive(Debug)]
#[non_exhaustive]
pub enum StreamIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input does not start with the stream magic.
    BadMagic,
    /// The format version is not supported.
    BadVersion(u16),
    /// A structural tag byte is invalid.
    BadTag(u8),
    /// A step names an address that is not a block start in the
    /// program.
    UnknownBlock(Addr),
    /// The input continues past the end of a well-formed stream — a
    /// corrupted length field would otherwise be parsed as a silently
    /// shorter stream.
    TrailingData,
    /// The taken-branch source count does not match the entry tags.
    TakenCountMismatch {
        /// Count stored in the stream header.
        header: u64,
        /// Taken entries implied by the tag array.
        tags: u64,
    },
}

impl fmt::Display for StreamIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamIoError::Io(e) => write!(f, "stream i/o failed: {e}"),
            StreamIoError::BadMagic => write!(f, "not a recorded stream (bad magic)"),
            StreamIoError::BadVersion(v) => write!(f, "unsupported stream version {v}"),
            StreamIoError::BadTag(t) => write!(f, "invalid record tag {t}"),
            StreamIoError::UnknownBlock(a) => {
                write!(f, "stream references unknown block {a}")
            }
            StreamIoError::TrailingData => {
                write!(f, "input continues past the end of the stream")
            }
            StreamIoError::TakenCountMismatch { header, tags } => {
                write!(
                    f,
                    "header claims {header} taken branches but tags encode {tags}"
                )
            }
        }
    }
}

impl Error for StreamIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StreamIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StreamIoError {
    fn from(e: io::Error) -> Self {
        StreamIoError::Io(e)
    }
}

/// Writes `stream` in the compact (version 2) on-disk format: block
/// indices, entry tags, and taken-branch sources as three contiguous
/// little-endian arrays.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn save_compact_stream<W: Write>(stream: &CompactStream, mut writer: W) -> io::Result<()> {
    let (blocks, tags, srcs) = stream.raw_parts();
    writer.write_all(MAGIC)?;
    writer.write_all(&COMPACT_VERSION.to_le_bytes())?;
    writer.write_all(&(blocks.len() as u64).to_le_bytes())?;
    writer.write_all(&(srcs.len() as u64).to_le_bytes())?;
    for b in blocks {
        writer.write_all(&b.to_le_bytes())?;
    }
    writer.write_all(tags)?;
    for s in srcs {
        writer.write_all(&s.raw().to_le_bytes())?;
    }
    Ok(())
}

/// Reads a compact (version 2) stream from `reader`, validating every
/// block index and entry tag against `program`.
///
/// # Errors
///
/// Returns a [`StreamIoError`] on I/O failure, malformed input, a
/// block index out of range for `program`, or a taken-source count
/// that does not match the tags.
pub fn load_compact_stream<R: Read>(
    program: &Program,
    mut reader: R,
) -> Result<CompactStream, StreamIoError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(StreamIoError::BadMagic);
    }
    let mut u16b = [0u8; 2];
    reader.read_exact(&mut u16b)?;
    let version = u16::from_le_bytes(u16b);
    if version != COMPACT_VERSION {
        return Err(StreamIoError::BadVersion(version));
    }
    let mut u64b = [0u8; 8];
    reader.read_exact(&mut u64b)?;
    let count = u64::from_le_bytes(u64b) as usize;
    reader.read_exact(&mut u64b)?;
    let taken = u64::from_le_bytes(u64b) as usize;
    let block_count = program.blocks().len();
    let mut blocks = Vec::with_capacity(count.min(1 << 24));
    let mut u32b = [0u8; 4];
    for _ in 0..count {
        reader.read_exact(&mut u32b)?;
        let idx = u32::from_le_bytes(u32b);
        if idx as usize >= block_count {
            // Out-of-range indices have no address to report; surface
            // the raw index as an address-shaped diagnostic.
            return Err(StreamIoError::UnknownBlock(Addr::new(u64::from(idx))));
        }
        blocks.push(idx);
    }
    let mut tags = vec![0u8; count];
    reader.read_exact(&mut tags)?;
    let mut expected_taken = 0usize;
    for &t in &tags {
        match t {
            TAG_START | TAG_FALLTHROUGH => {}
            t if (2..8).contains(&t) => expected_taken += 1,
            t => return Err(StreamIoError::BadTag(t)),
        }
    }
    if expected_taken != taken {
        return Err(StreamIoError::TakenCountMismatch {
            header: taken as u64,
            tags: expected_taken as u64,
        });
    }
    let mut srcs = Vec::with_capacity(taken.min(1 << 24));
    for _ in 0..taken {
        reader.read_exact(&mut u64b)?;
        srcs.push(Addr::new(u64::from_le_bytes(u64b)));
    }
    // A well-formed stream consumes the input exactly; anything left
    // means a corrupted length field shrank the parse, and accepting it
    // would silently yield a short stream.
    let mut probe = [0u8; 1];
    match reader.read(&mut probe) {
        Ok(0) => {}
        Ok(_) => return Err(StreamIoError::TrailingData),
        Err(e) => return Err(StreamIoError::Io(e)),
    }
    Ok(CompactStream::from_raw_parts(blocks, tags, srcs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsel_program::{BehaviorSpec, Executor, ProgramBuilder};

    fn program_and_stream() -> (Program, CompactStream) {
        let mut b = ProgramBuilder::new();
        let f = b.function("main", 0x100);
        let head = b.block(f);
        let body = b.block(f);
        let exit = b.block_with(f, 0);
        let _ = head;
        b.cond_branch(body, head);
        b.ret(exit);
        let p = b.build().unwrap();
        let mut spec = BehaviorSpec::new(1);
        spec.loop_trips(p.block(body).branch_addr().unwrap(), 20);
        let stream = CompactStream::record(Executor::new(&p, spec));
        (p, stream)
    }

    fn saved(stream: &CompactStream) -> Vec<u8> {
        let mut buf = Vec::new();
        save_compact_stream(stream, &mut buf).unwrap();
        buf
    }

    #[test]
    fn compact_round_trip() {
        let (p, stream) = program_and_stream();
        let loaded = load_compact_stream(&p, saved(&stream).as_slice()).unwrap();
        assert_eq!(loaded, stream);
    }

    #[test]
    fn bad_magic_rejected() {
        let (p, _) = program_and_stream();
        let err = load_compact_stream(&p, b"NOPE".as_slice()).unwrap_err();
        assert!(matches!(err, StreamIoError::BadMagic), "{err}");
    }

    #[test]
    fn truncated_input_is_an_io_error() {
        let (p, stream) = program_and_stream();
        let mut buf = saved(&stream);
        buf.truncate(buf.len() - 3);
        let err = load_compact_stream(&p, buf.as_slice()).unwrap_err();
        assert!(matches!(err, StreamIoError::Io(_)), "{err}");
    }

    #[test]
    fn compact_is_denser_than_full_steps() {
        let (_, stream) = program_and_stream();
        let full = stream.len() * std::mem::size_of::<rsel_program::Step>();
        assert!(saved(&stream).len() < full);
    }

    #[test]
    fn compact_rejects_foreign_program() {
        let (_, stream) = program_and_stream();
        let buf = saved(&stream);
        let mut b = ProgramBuilder::new();
        let f = b.function("other", 0x9000);
        let x = b.block(f);
        b.ret(x);
        let other = b.build().unwrap();
        let err = load_compact_stream(&other, buf.as_slice()).unwrap_err();
        assert!(matches!(err, StreamIoError::UnknownBlock(_)), "{err}");
    }

    #[test]
    fn retired_v1_format_is_refused() {
        let (p, stream) = program_and_stream();
        let mut buf = saved(&stream);
        buf[4..6].copy_from_slice(&1u16.to_le_bytes());
        let err = load_compact_stream(&p, buf.as_slice()).unwrap_err();
        assert!(matches!(err, StreamIoError::BadVersion(1)), "{err}");
    }

    #[test]
    fn loaded_stream_replays_the_recording() {
        // The serialized stream is sufficient to drive a simulation to
        // the same steps as the live executor.
        let (p, stream) = program_and_stream();
        let loaded = load_compact_stream(&p, saved(&stream).as_slice()).unwrap();
        assert!(loaded.replay(&p).eq(stream.replay(&p)));
    }
}
