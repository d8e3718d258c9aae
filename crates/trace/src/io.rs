//! Trace persistence: FXTC, one compact columnar container, chunked so
//! it can be appended to while a simulation drains and streamed back
//! one chunk at a time. Every trace file the repo writes or reads —
//! `analysis-scale`, the benchmark's scan input — is this format; the
//! file extension selects nothing.
//!
//! ```text
//! header, 16 bytes:
//!     magic "FXTC" | version u16 LE (2) | flags u16 LE (0) | count u64 LE
//! per chunk, back to back, one block per column in fixed order:
//!     id u8 | payload length u64 LE | payload
//! id 1  time   zigzag LEB128 varints of consecutive wrapping deltas
//! id 2  size   LEB128 varints of wire_len
//! id 3  tag    raw bytes, proto/kind packed as in the TraceStore
//! id 4  src    LEB128 varints of host ids
//! id 5  dst    LEB128 varints of host ids
//! directory, 40 bytes LE per chunk:
//!     frames u64 | t_min_ns u64 | t_max_ns u64 | offset u64 | len u64
//! trailer, 20 bytes:
//!     dir_offset u64 | nchunks u64 | magic "FXTD"
//! ```
//!
//! Time deltas are the *wrapping* `u64` difference of consecutive
//! timestamps, zigzag-mapped so small forward **and** backward steps
//! both encode short — a bijection on `u64`, so even unsorted traces
//! round-trip losslessly. Each chunk's delta predecessor starts at
//! zero, so every chunk decodes independently, and the directory sits
//! at the tail so appenders never rewrite data they already flushed
//! (the header's count field is patched when the writer finishes). A
//! reader seeing any version but [`TRACE_VERSION`] returns
//! [`TraceIoError::Version`].
//!
//! [`ChunkedWriter`] appends chunks as the simulator drains shards and
//! [`save_store`] cuts a store into them. There is one way in:
//! [`ChunkCursor`] validates the header and directory and streams the
//! chunks back with O(chunk) peak memory; [`load_store`] is that cursor
//! folded into a fully materialized [`TraceStore`], and [`read_chunk`]
//! decodes a single directory entry so a worker pool can fan a scan
//! out.

use crate::store::{pack_tag, unpack_tag, TraceStore};
use fxnet_sim::FrameRecord;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes opening a trace file.
pub const TRACE_MAGIC: [u8; 4] = *b"FXTC";
/// The one trace format version this build writes and reads.
pub const TRACE_VERSION: u16 = 2;
/// Magic bytes closing a trace's tail directory.
pub const CHUNK_DIR_MAGIC: [u8; 4] = *b"FXTD";
/// Bytes per directory entry: frames, t_min_ns, t_max_ns, offset, len.
const CHUNK_META_BYTES: usize = 40;
/// Bytes in the trailer: dir_offset, nchunks, magic.
const CHUNK_TRAILER_BYTES: usize = 20;
/// Bytes in the file header.
const HEADER_BYTES: usize = 16;
/// Frames per chunk [`save_store`] writes: ~1.4 MB of decoded columns,
/// big enough to amortize the varint decode, small enough that a
/// streamed scan's decode round stays cache-friendly.
pub const SAVE_CHUNK_FRAMES: usize = 65_536;

/// Error from reading a saved trace.
#[derive(Debug)]
pub enum TraceIoError {
    Io(std::io::Error),
    /// The file is not a trace (bad magic).
    Magic,
    /// The header carries a version other than the one this build reads
    /// — a file from another format revision.
    Version {
        found: u16,
        supported: u16,
    },
    /// Structurally invalid file.
    Corrupt(String),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O: {e}"),
            TraceIoError::Magic => write!(f, "not a binary trace (bad magic)"),
            TraceIoError::Version { found, supported } => write!(
                f,
                "binary trace version {found} unsupported (this build reads only version {supported})"
            ),
            TraceIoError::Corrupt(what) => write!(f, "corrupt binary trace: {what}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<TraceIoError> for fxnet_sim::FxnetError {
    fn from(e: TraceIoError) -> Self {
        fxnet_sim::FxnetError::Io(e.to_string())
    }
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceIoError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf
            .get(*pos)
            .ok_or_else(|| TraceIoError::Corrupt("truncated varint".into()))?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(TraceIoError::Corrupt("varint overflows u64".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_block(out: &mut Vec<u8>, id: u8, payload: &[u8]) {
    out.push(id);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
}

fn header_bytes(count: u64) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[0..4].copy_from_slice(&TRACE_MAGIC);
    h[4..6].copy_from_slice(&TRACE_VERSION.to_le_bytes());
    h[6..8].copy_from_slice(&0u16.to_le_bytes());
    h[8..16].copy_from_slice(&count.to_le_bytes());
    h
}

/// Encode one chunk (the five column blocks) into `out`. The
/// time-delta predecessor starts at zero, so a chunk is self-contained.
fn encode_columns(
    out: &mut Vec<u8>,
    time_ns: &[u64],
    wire_len: &[u32],
    tag: &[u8],
    src: &[u32],
    dst: &[u32],
) {
    let n = time_ns.len();
    let mut payload = Vec::with_capacity(n * 2);
    let mut prev = 0u64;
    for &t in time_ns {
        put_varint(&mut payload, zigzag(t.wrapping_sub(prev) as i64));
        prev = t;
    }
    put_block(out, 1, &payload);

    payload.clear();
    for &len in wire_len {
        put_varint(&mut payload, u64::from(len));
    }
    put_block(out, 2, &payload);

    put_block(out, 3, tag);

    payload.clear();
    for &s in src {
        put_varint(&mut payload, u64::from(s));
    }
    put_block(out, 4, &payload);

    payload.clear();
    for &d in dst {
        put_varint(&mut payload, u64::from(d));
    }
    put_block(out, 5, &payload);
}

fn get_block<'a>(buf: &'a [u8], pos: &mut usize, want_id: u8) -> Result<&'a [u8], TraceIoError> {
    let &id = buf
        .get(*pos)
        .ok_or_else(|| TraceIoError::Corrupt("missing column block".into()))?;
    if id != want_id {
        return Err(TraceIoError::Corrupt(format!(
            "expected column block {want_id}, found {id}"
        )));
    }
    *pos += 1;
    let len_bytes = buf
        .get(*pos..*pos + 8)
        .ok_or_else(|| TraceIoError::Corrupt("truncated block header".into()))?;
    *pos += 8;
    let len = u64::from_le_bytes(len_bytes.try_into().expect("8 bytes")) as usize;
    let end = pos
        .checked_add(len)
        .filter(|&end| end <= buf.len())
        .ok_or_else(|| TraceIoError::Corrupt("truncated block payload".into()))?;
    let payload = &buf[*pos..end];
    *pos = end;
    Ok(payload)
}

fn varint_column_into<T>(
    payload: &[u8],
    count: usize,
    name: &str,
    convert: impl Fn(u64) -> Option<T>,
    out: &mut Vec<T>,
) -> Result<(), TraceIoError> {
    let mut pos = 0usize;
    out.reserve(count);
    for _ in 0..count {
        let v = get_varint(payload, &mut pos)?;
        out.push(convert(v).ok_or_else(|| TraceIoError::Corrupt(format!("{name} out of range")))?);
    }
    if pos != payload.len() {
        return Err(TraceIoError::Corrupt(format!(
            "{name} block has trailing bytes"
        )));
    }
    Ok(())
}

/// Decoded columns for one chunk. The vectors are cleared and refilled
/// on every decode, so a long scan reuses one allocation per column
/// instead of churning the allocator per chunk.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ChunkBuf {
    pub time_ns: Vec<u64>,
    pub wire_len: Vec<u32>,
    pub tag: Vec<u8>,
    pub src: Vec<u32>,
    pub dst: Vec<u32>,
}

impl ChunkBuf {
    /// Frames currently decoded into the buffer.
    pub fn len(&self) -> usize {
        self.time_ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.time_ns.is_empty()
    }

    fn clear(&mut self) {
        self.time_ns.clear();
        self.wire_len.clear();
        self.tag.clear();
        self.src.clear();
        self.dst.clear();
    }

    /// Bytes the decoded columns occupy — the honest per-chunk memory
    /// cost a streaming scan pays (21 bytes per frame).
    pub fn resident_bytes(&self) -> u64 {
        (self.time_ns.len() * 8
            + self.wire_len.len() * 4
            + self.tag.len()
            + self.src.len() * 4
            + self.dst.len() * 4) as u64
    }
}

/// Decode one chunk (five column blocks, exactly filling `buf`) into a
/// reused [`ChunkBuf`].
fn decode_columns_into(buf: &[u8], count: usize, out: &mut ChunkBuf) -> Result<(), TraceIoError> {
    out.clear();
    let mut pos = 0usize;

    let time_block = get_block(buf, &mut pos, 1)?;
    let mut tpos = 0usize;
    out.time_ns.reserve(count);
    let mut prev = 0u64;
    for _ in 0..count {
        let delta = unzigzag(get_varint(time_block, &mut tpos)?);
        prev = prev.wrapping_add(delta as u64);
        out.time_ns.push(prev);
    }
    if tpos != time_block.len() {
        return Err(TraceIoError::Corrupt(
            "time block has trailing bytes".into(),
        ));
    }

    varint_column_into(
        get_block(buf, &mut pos, 2)?,
        count,
        "wire_len",
        |v| u32::try_from(v).ok(),
        &mut out.wire_len,
    )?;

    let tag_block = get_block(buf, &mut pos, 3)?;
    if tag_block.len() != count {
        return Err(TraceIoError::Corrupt("tag block length mismatch".into()));
    }
    if let Some(&bad) = tag_block.iter().find(|&&t| unpack_tag(t).is_none()) {
        return Err(TraceIoError::Corrupt(format!("invalid tag byte {bad:#x}")));
    }
    out.tag.extend_from_slice(tag_block);

    varint_column_into(
        get_block(buf, &mut pos, 4)?,
        count,
        "src",
        |v| u32::try_from(v).ok(),
        &mut out.src,
    )?;
    varint_column_into(
        get_block(buf, &mut pos, 5)?,
        count,
        "dst",
        |v| u32::try_from(v).ok(),
        &mut out.dst,
    )?;
    if pos != buf.len() {
        return Err(TraceIoError::Corrupt("trailing bytes after columns".into()));
    }
    Ok(())
}

/// One entry of the tail directory: where a chunk lives and what it
/// spans, enough to schedule a scan without touching the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Frames encoded in this chunk.
    pub frames: u64,
    /// Smallest timestamp in the chunk, nanoseconds.
    pub t_min_ns: u64,
    /// Largest timestamp in the chunk, nanoseconds.
    pub t_max_ns: u64,
    /// Absolute byte offset of the chunk payload in the file.
    pub offset: u64,
    /// Byte length of the chunk payload.
    pub len: u64,
}

/// The parsed tail directory of a chunked trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkDirectory {
    pub chunks: Vec<ChunkMeta>,
}

impl ChunkDirectory {
    /// Total frames across all chunks (equals the header count).
    pub fn frames(&self) -> u64 {
        self.chunks.iter().map(|c| c.frames).sum()
    }

    /// Largest single-chunk frame count — the unit the streaming scan's
    /// peak memory is measured in.
    pub fn max_chunk_frames(&self) -> u64 {
        self.chunks.iter().map(|c| c.frames).max().unwrap_or(0)
    }

    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

/// Structural validation of a parsed directory: chunks must tile
/// `[header, dir_offset)` contiguously and account for exactly the
/// header's frame count.
fn validate_directory(
    chunks: &[ChunkMeta],
    count: u64,
    dir_offset: u64,
) -> Result<(), TraceIoError> {
    let mut pos = HEADER_BYTES as u64;
    let mut frames = 0u64;
    for (i, c) in chunks.iter().enumerate() {
        if c.offset != pos {
            return Err(TraceIoError::Corrupt(format!(
                "chunk {i} offset {} does not follow previous chunk (expected {pos})",
                c.offset
            )));
        }
        if c.frames == 0 || c.len == 0 {
            return Err(TraceIoError::Corrupt(format!("chunk {i} is empty")));
        }
        if c.frames > c.len {
            // Each frame costs at least one tag byte, so frames beyond
            // the payload size is corruption, not a dense chunk.
            return Err(TraceIoError::Corrupt(format!(
                "chunk {i} frame count exceeds its payload size"
            )));
        }
        if c.t_min_ns > c.t_max_ns {
            return Err(TraceIoError::Corrupt(format!(
                "chunk {i} time span is inverted"
            )));
        }
        pos = pos
            .checked_add(c.len)
            .ok_or_else(|| TraceIoError::Corrupt(format!("chunk {i} length overflows")))?;
        frames = frames
            .checked_add(c.frames)
            .ok_or_else(|| TraceIoError::Corrupt(format!("chunk {i} frame count overflows")))?;
    }
    if pos != dir_offset {
        return Err(TraceIoError::Corrupt(
            "chunk payloads do not reach the directory".into(),
        ));
    }
    if frames != count {
        return Err(TraceIoError::Corrupt(format!(
            "directory frames {frames} disagree with header count {count}"
        )));
    }
    Ok(())
}

/// Decode one chunk payload and cross-check it against its directory
/// entry (frame count and time span must match what was advertised).
fn decode_chunk_payload(
    payload: &[u8],
    meta: &ChunkMeta,
    out: &mut ChunkBuf,
) -> Result<(), TraceIoError> {
    decode_columns_into(payload, meta.frames as usize, out)?;
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for &t in &out.time_ns {
        lo = lo.min(t);
        hi = hi.max(t);
    }
    if !out.time_ns.is_empty() && (lo != meta.t_min_ns || hi != meta.t_max_ns) {
        return Err(TraceIoError::Corrupt(
            "chunk time span disagrees with directory".into(),
        ));
    }
    Ok(())
}

/// Incremental writer for the chunked container. Created with a
/// placeholder frame count, appended to as column batches arrive (one
/// call = one chunk), and sealed by [`ChunkedWriter::finish`], which
/// writes the tail directory and patches the header count. A file
/// abandoned before `finish` has no trailer and is rejected by readers.
#[derive(Debug)]
pub struct ChunkedWriter {
    file: std::fs::File,
    dir: Vec<ChunkMeta>,
    frames: u64,
    offset: u64,
    scratch: Vec<u8>,
}

impl ChunkedWriter {
    /// Create `path` and write the header with a zero frame count.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<ChunkedWriter> {
        let mut file = std::fs::File::create(path.as_ref())?;
        file.write_all(&header_bytes(0))?;
        Ok(ChunkedWriter {
            file,
            dir: Vec::new(),
            frames: 0,
            offset: HEADER_BYTES as u64,
            scratch: Vec::new(),
        })
    }

    /// Append one chunk from raw columns. Empty batches are skipped.
    /// All slices must be the same length; tags must be valid packed
    /// proto/kind bytes (they are produced by this crate, so a mismatch
    /// is a caller bug, not an I/O condition).
    pub fn append_columns(
        &mut self,
        time_ns: &[u64],
        wire_len: &[u32],
        tag: &[u8],
        src: &[u32],
        dst: &[u32],
    ) -> std::io::Result<()> {
        let n = time_ns.len();
        assert!(
            wire_len.len() == n && tag.len() == n && src.len() == n && dst.len() == n,
            "chunk columns must be equal length"
        );
        assert!(
            tag.iter().all(|&t| unpack_tag(t).is_some()),
            "chunk tags must be valid packed proto/kind bytes"
        );
        if n == 0 {
            return Ok(());
        }
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &t in time_ns {
            lo = lo.min(t);
            hi = hi.max(t);
        }
        self.scratch.clear();
        encode_columns(&mut self.scratch, time_ns, wire_len, tag, src, dst);
        self.file.write_all(&self.scratch)?;
        self.dir.push(ChunkMeta {
            frames: n as u64,
            t_min_ns: lo,
            t_max_ns: hi,
            offset: self.offset,
            len: self.scratch.len() as u64,
        });
        self.offset += self.scratch.len() as u64;
        self.frames += n as u64;
        Ok(())
    }

    /// Append captured records as one chunk, without building a store
    /// (no connection index — the writer is on the simulator's path).
    pub fn append_records(&mut self, records: &[FrameRecord]) -> std::io::Result<()> {
        let n = records.len();
        let mut time_ns = Vec::with_capacity(n);
        let mut wire_len = Vec::with_capacity(n);
        let mut tag = Vec::with_capacity(n);
        let mut src = Vec::with_capacity(n);
        let mut dst = Vec::with_capacity(n);
        for r in records {
            time_ns.push(r.time.as_nanos());
            wire_len.push(r.wire_len);
            tag.push(pack_tag(r.proto, r.kind));
            src.push(r.src.0);
            dst.push(r.dst.0);
        }
        self.append_columns(&time_ns, &wire_len, &tag, &src, &dst)
    }

    /// Frames appended so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Chunks appended so far.
    pub fn chunks(&self) -> usize {
        self.dir.len()
    }

    /// Write the tail directory and trailer, patch the header's frame
    /// count, and flush. Returns the directory for immediate scanning.
    pub fn finish(mut self) -> std::io::Result<ChunkDirectory> {
        let mut tail = Vec::with_capacity(self.dir.len() * CHUNK_META_BYTES + CHUNK_TRAILER_BYTES);
        for c in &self.dir {
            tail.extend_from_slice(&c.frames.to_le_bytes());
            tail.extend_from_slice(&c.t_min_ns.to_le_bytes());
            tail.extend_from_slice(&c.t_max_ns.to_le_bytes());
            tail.extend_from_slice(&c.offset.to_le_bytes());
            tail.extend_from_slice(&c.len.to_le_bytes());
        }
        tail.extend_from_slice(&self.offset.to_le_bytes());
        tail.extend_from_slice(&(self.dir.len() as u64).to_le_bytes());
        tail.extend_from_slice(&CHUNK_DIR_MAGIC);
        self.file.write_all(&tail)?;
        self.file.seek(SeekFrom::Start(8))?;
        self.file.write_all(&self.frames.to_le_bytes())?;
        self.file.flush()?;
        Ok(ChunkDirectory { chunks: self.dir })
    }
}

/// Save a store to `path`, `chunk_frames` frames per chunk.
pub fn save_store_chunked(
    path: impl AsRef<Path>,
    store: &TraceStore,
    chunk_frames: usize,
) -> std::io::Result<ChunkDirectory> {
    let step = chunk_frames.max(1);
    let mut w = ChunkedWriter::create(path)?;
    let mut at = 0usize;
    while at < store.len() {
        let end = (at + step).min(store.len());
        w.append_columns(
            &store.time_ns[at..end],
            &store.wire_len[at..end],
            &store.tag[at..end],
            &store.src[at..end],
            &store.dst[at..end],
        )?;
        at = end;
    }
    w.finish()
}

/// Read and validate only the header and tail directory of a trace —
/// O(directory) I/O, no chunk payloads touched.
pub fn read_chunk_directory(path: impl AsRef<Path>) -> Result<ChunkDirectory, TraceIoError> {
    let mut file = std::fs::File::open(path.as_ref())?;
    open_directory(&mut file)
}

/// The one open path: checks the header, then hands the frame count it
/// carries to [`read_directory`]. Seeks only; no payload is read.
fn open_directory(file: &mut std::fs::File) -> Result<ChunkDirectory, TraceIoError> {
    let file_len = file.seek(SeekFrom::End(0))?;
    if file_len < HEADER_BYTES as u64 {
        return Err(TraceIoError::Corrupt("header too short".into()));
    }
    let mut header = [0u8; HEADER_BYTES];
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut header)?;
    if header[0..4] != TRACE_MAGIC {
        return Err(TraceIoError::Magic);
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
    if version != TRACE_VERSION {
        return Err(TraceIoError::Version {
            found: version,
            supported: TRACE_VERSION,
        });
    }
    let count = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    read_directory(file, file_len, count)
}

/// Parse the trailer and the directory it points at, and validate the
/// directory against the file length and the header's frame count.
/// Everything read is sized by `file_len`, never by a word from the
/// file.
fn read_directory(
    file: &mut std::fs::File,
    file_len: u64,
    count: u64,
) -> Result<ChunkDirectory, TraceIoError> {
    if file_len < (HEADER_BYTES + CHUNK_TRAILER_BYTES) as u64 {
        return Err(TraceIoError::Corrupt("trace too short".into()));
    }
    let mut trailer = [0u8; CHUNK_TRAILER_BYTES];
    file.seek(SeekFrom::End(-(CHUNK_TRAILER_BYTES as i64)))?;
    file.read_exact(&mut trailer)?;
    if trailer[16..20] != CHUNK_DIR_MAGIC {
        return Err(TraceIoError::Corrupt(
            "chunk directory trailer magic missing".into(),
        ));
    }
    let dir_offset = u64::from_le_bytes(trailer[0..8].try_into().expect("8 bytes"));
    let nchunks = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));
    let dir_bytes = nchunks
        .checked_mul(CHUNK_META_BYTES as u64)
        .filter(|&d| {
            dir_offset >= HEADER_BYTES as u64
                && dir_offset
                    .checked_add(d)
                    .and_then(|end| end.checked_add(CHUNK_TRAILER_BYTES as u64))
                    == Some(file_len)
        })
        .ok_or_else(|| TraceIoError::Corrupt("chunk directory does not fit the file".into()))?;
    let mut dir_raw = vec![0u8; dir_bytes as usize];
    file.seek(SeekFrom::Start(dir_offset))?;
    file.read_exact(&mut dir_raw)?;
    let chunks: Vec<ChunkMeta> = dir_raw
        .chunks_exact(CHUNK_META_BYTES)
        .map(|e| {
            let word =
                |i: usize| u64::from_le_bytes(e[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            ChunkMeta {
                frames: word(0),
                t_min_ns: word(1),
                t_max_ns: word(2),
                offset: word(3),
                len: word(4),
            }
        })
        .collect();
    validate_directory(&chunks, count, dir_offset)?;
    Ok(ChunkDirectory { chunks })
}

/// Streaming reader over a chunked trace: yields decoded column slices
/// one chunk at a time, reusing one raw buffer and one [`ChunkBuf`] so
/// peak memory is O(largest chunk) regardless of trace length.
#[derive(Debug)]
pub struct ChunkCursor {
    file: std::fs::File,
    dir: ChunkDirectory,
    next: usize,
    raw: Vec<u8>,
    buf: ChunkBuf,
}

impl ChunkCursor {
    /// Open a trace, validating header and directory.
    pub fn open(path: impl AsRef<Path>) -> Result<ChunkCursor, TraceIoError> {
        let mut file = std::fs::File::open(path.as_ref())?;
        let dir = open_directory(&mut file)?;
        Ok(ChunkCursor {
            file,
            dir,
            next: 0,
            raw: Vec::new(),
            buf: ChunkBuf::default(),
        })
    }

    /// The validated tail directory.
    pub fn directory(&self) -> &ChunkDirectory {
        &self.dir
    }

    /// Decode the next chunk into the cursor's reused buffer. Returns
    /// `None` once every chunk has been yielded. The borrow ends at the
    /// next call, which overwrites the buffer — callers fold, not hold.
    pub fn next_chunk(&mut self) -> Result<Option<(&ChunkMeta, &ChunkBuf)>, TraceIoError> {
        let Some(meta) = self.dir.chunks.get(self.next) else {
            return Ok(None);
        };
        self.raw.clear();
        self.raw.resize(meta.len as usize, 0);
        self.file.seek(SeekFrom::Start(meta.offset))?;
        self.file.read_exact(&mut self.raw)?;
        decode_chunk_payload(&self.raw, meta, &mut self.buf)?;
        self.next += 1;
        Ok(Some((&self.dir.chunks[self.next - 1], &self.buf)))
    }
}

/// Decode one directory entry from `path` into `out` — the unit of
/// work a pool worker runs when the scan fans out across chunks.
pub fn read_chunk(
    path: impl AsRef<Path>,
    meta: &ChunkMeta,
    out: &mut ChunkBuf,
) -> Result<(), TraceIoError> {
    let mut file = std::fs::File::open(path.as_ref())?;
    let mut raw = vec![0u8; meta.len as usize];
    file.seek(SeekFrom::Start(meta.offset))?;
    file.read_exact(&mut raw)?;
    decode_chunk_payload(&raw, meta, out)
}

/// Save a store to `path`, [`SAVE_CHUNK_FRAMES`] frames per chunk.
pub fn save_store(path: impl AsRef<Path>, store: &TraceStore) -> std::io::Result<()> {
    save_store_chunked(path, store, SAVE_CHUNK_FRAMES).map(drop)
}

/// Load a whole trace into a store: a [`ChunkCursor`] fold, so the
/// bytes become columns by the same validation and decode a streamed
/// scan uses. The up-front reservation is bounded by the validated
/// directory (a chunk never claims more frames than it has bytes, and
/// the chunks tile the file), so a hostile count cannot ask for more
/// than a small multiple of the file's own length.
pub fn load_store(path: impl AsRef<Path>) -> Result<TraceStore, TraceIoError> {
    let mut cursor = ChunkCursor::open(path)?;
    let count = cursor.directory().frames() as usize;
    let mut all = ChunkBuf::default();
    all.time_ns.reserve(count);
    all.wire_len.reserve(count);
    all.tag.reserve(count);
    all.src.reserve(count);
    all.dst.reserve(count);
    while let Some((_, chunk)) = cursor.next_chunk()? {
        all.time_ns.extend_from_slice(&chunk.time_ns);
        all.wire_len.extend_from_slice(&chunk.wire_len);
        all.tag.extend_from_slice(&chunk.tag);
        all.src.extend_from_slice(&chunk.src);
        all.dst.extend_from_slice(&chunk.dst);
    }
    Ok(TraceStore::from_columns(
        all.time_ns,
        all.wire_len,
        all.tag,
        all.src,
        all.dst,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::{Frame, FrameKind, HostId, Proto, SimTime};
    use proptest::prelude::*;

    /// The single-section layout builds before the chunked container
    /// wrote: the header at version 1, then one chunk's blocks holding
    /// the whole trace, no directory. Nothing reads it any more; it
    /// lives here so the tests have a real v1 artifact to *reject*.
    fn encode_v1(store: &TraceStore) -> Vec<u8> {
        let mut out = header_bytes(store.len() as u64).to_vec();
        out[4..6].copy_from_slice(&1u16.to_le_bytes());
        encode_columns(
            &mut out,
            &store.time_ns,
            &store.wire_len,
            &store.tag,
            &store.src,
            &store.dst,
        );
        out
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fxnet-trace-io-{}-{name}", std::process::id()))
    }

    /// `bytes` as a file handed to the one loader.
    fn load_bytes(name: &str, bytes: &[u8]) -> Result<TraceStore, TraceIoError> {
        let path = temp(name);
        std::fs::write(&path, bytes).unwrap();
        let loaded = load_store(&path);
        let _ = std::fs::remove_file(&path);
        loaded
    }

    /// The bytes `save_store` writes for `store`.
    fn saved_bytes(name: &str, store: &TraceStore) -> Vec<u8> {
        let path = temp(name);
        save_store(&path, store).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    }

    fn sample() -> Vec<FrameRecord> {
        vec![
            FrameRecord::capture(
                SimTime::from_micros(5),
                &Frame::tcp(HostId(0), HostId(1), FrameKind::Data, 1460, 0),
            ),
            FrameRecord::capture(
                SimTime::from_micros(9),
                &Frame::tcp(HostId(1), HostId(0), FrameKind::Ack, 0, 0),
            ),
            FrameRecord::capture(
                SimTime::from_micros(12),
                &Frame::udp(HostId(3), HostId(0), 32, 0),
            ),
        ]
    }

    #[test]
    fn file_round_trip() {
        let path = temp("file-round-trip.fxb");
        let tr = sample();
        save_store(&path, &TraceStore::from_records(&tr)).unwrap();
        let back = load_store(&path).unwrap().to_records();
        assert_eq!(back, tr);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn binary_round_trip() {
        let tr = sample();
        let store = TraceStore::from_records(&tr);
        let buf = saved_bytes("binary-round-trip", &store);
        assert_eq!(&buf[0..4], &TRACE_MAGIC);
        let back = load_bytes("binary-round-trip", &buf).unwrap();
        assert_eq!(back, store);
        assert_eq!(back.to_records(), tr);
    }

    #[test]
    fn binary_file_round_trip_via_extension() {
        // The extension selects nothing: every path gets the container.
        let tr = sample();
        let mut written = Vec::new();
        for name in ["via-extension.fxb", "via-extension.trace"] {
            let path = temp(name);
            save_store(&path, &TraceStore::from_records(&tr)).unwrap();
            assert_eq!(load_store(&path).unwrap().to_records(), tr, "{name}");
            written.push(std::fs::read(&path).unwrap());
            let _ = std::fs::remove_file(&path);
        }
        assert_eq!(written[0], written[1]);
    }

    #[test]
    fn newer_version_is_rejected_for_cache_invalidation() {
        let store = TraceStore::from_records(&sample());
        let mut buf = saved_bytes("newer-version", &store);
        buf[4..6].copy_from_slice(&(TRACE_VERSION + 1).to_le_bytes());
        match load_bytes("newer-version", &buf) {
            Err(TraceIoError::Version { found, supported }) => {
                assert_eq!(found, TRACE_VERSION + 1);
                assert_eq!(supported, TRACE_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn a_v1_artifact_and_a_text_file_are_typed_errors() {
        // What an older build may have written.
        let v1 = encode_v1(&TraceStore::from_records(&sample()));
        match load_bytes("v1-artifact", &v1) {
            Err(e @ TraceIoError::Version { found: 1, .. }) => {
                let said = e.to_string();
                assert!(said.contains("reads only version 2"), "{said}");
            }
            other => panic!("expected version error, got {other:?}"),
        }
        let text = b"5000 1518 tcp data 0 1\n9000 58 tcp ack 1 0\n";
        assert!(matches!(
            load_bytes("text-lines", text),
            Err(TraceIoError::Magic)
        ));
        assert!(matches!(
            load_bytes("short-text", b"# empty\n"),
            Err(TraceIoError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_binary_is_rejected() {
        let store = TraceStore::from_records(&sample());
        let buf = saved_bytes("corrupt-binary", &store);
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            load_bytes("corrupt-binary", &bad),
            Err(TraceIoError::Magic)
        ));
        // Truncation in the header, in the payload, and in the trailer.
        for cut in [8usize, 17, buf.len() - 1] {
            assert!(
                load_bytes("corrupt-binary", &buf[..cut]).is_err(),
                "truncated at {cut}"
            );
        }
        // Trailing garbage.
        let mut long = buf.clone();
        long.push(0);
        assert!(load_bytes("corrupt-binary", &long).is_err());
    }

    fn bursty(n: usize) -> Vec<FrameRecord> {
        let mut t_us = 0u64;
        (0..n)
            .map(|i| {
                t_us += if i % 7 == 0 { 40_000 } else { 1_200 };
                FrameRecord::capture(
                    SimTime::from_micros(t_us),
                    &Frame::tcp(
                        HostId((i % 4) as u32),
                        HostId(((i + 1) % 4) as u32),
                        if i % 3 == 0 {
                            FrameKind::Ack
                        } else {
                            FrameKind::Data
                        },
                        if i % 3 == 0 { 0 } else { 1460 },
                        i as u64,
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn save_store_writes_a_streamable_v2_container() {
        let dir = std::env::temp_dir();
        // Past one chunk, and once more with capture order destroyed:
        // the container promises a lossless round trip either way.
        let sorted = bursty(SAVE_CHUNK_FRAMES + 7);
        let mut unsorted = bursty(40);
        unsorted.reverse();
        unsorted.swap(3, 30);
        for (name, tr) in [("sorted", sorted), ("unsorted", unsorted)] {
            let path = dir.join(format!("fxnet-save-store-{name}.fxb"));
            let store = TraceStore::from_records(&tr);
            save_store(&path, &store).unwrap();
            let mut cursor = ChunkCursor::open(&path).unwrap();
            assert_eq!(
                cursor.directory().len(),
                tr.len().div_ceil(SAVE_CHUNK_FRAMES),
                "{name}"
            );
            let mut time_ns = Vec::new();
            while let Some((_, buf)) = cursor.next_chunk().unwrap() {
                time_ns.extend_from_slice(&buf.time_ns);
            }
            assert_eq!(time_ns, store.time_ns, "{name}");
            assert_eq!(load_store(&path).unwrap(), store, "{name}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn appended_records_write_the_file_save_store_writes() {
        let dir = std::env::temp_dir();
        // Empty, one chunk, and past one chunk (a short last chunk).
        for n in [0, 40, SAVE_CHUNK_FRAMES + 7] {
            let tr = bursty(n);
            let direct = dir.join(format!("fxnet-append-records-{n}.fxb"));
            let via_store = dir.join(format!("fxnet-append-records-{n}-store.fxb"));
            let mut w = ChunkedWriter::create(&direct).unwrap();
            for batch in tr.chunks(SAVE_CHUNK_FRAMES) {
                w.append_records(batch).unwrap();
            }
            w.finish().unwrap();
            let store = TraceStore::from_records(&tr);
            save_store(&via_store, &store).unwrap();
            assert_eq!(
                std::fs::read(&direct).unwrap(),
                std::fs::read(&via_store).unwrap(),
                "{n} frames"
            );
            let loaded = load_store(&direct).unwrap();
            assert_eq!(loaded, store, "{n} frames");
            assert_eq!(loaded.to_records(), tr, "{n} frames");
            let _ = std::fs::remove_file(&direct);
            let _ = std::fs::remove_file(&via_store);
        }
    }

    #[test]
    fn chunked_round_trip_at_many_chunk_sizes() {
        let dir = std::env::temp_dir();
        let store = TraceStore::from_records(&bursty(97));
        for chunk_frames in [1usize, 2, 13, 97, 500] {
            let path = dir.join(format!("fxnet-chunked-{chunk_frames}.fxb"));
            let d = save_store_chunked(&path, &store, chunk_frames).unwrap();
            assert_eq!(d.frames(), 97);
            assert_eq!(d.len(), 97usize.div_ceil(chunk_frames));
            // The whole-file loader materializes the whole thing.
            assert_eq!(load_store(&path).unwrap(), store, "chunk={chunk_frames}");
            // The cursor yields the same columns chunk by chunk.
            let mut cursor = ChunkCursor::open(&path).unwrap();
            assert_eq!(cursor.directory(), &d);
            let mut at = 0usize;
            while let Some((meta, buf)) = cursor.next_chunk().unwrap() {
                let end = at + meta.frames as usize;
                assert_eq!(&buf.time_ns[..], &store.time_ns[at..end]);
                assert_eq!(&buf.wire_len[..], &store.wire_len[at..end]);
                assert_eq!(&buf.tag[..], &store.tag[at..end]);
                assert_eq!(&buf.src[..], &store.src[at..end]);
                assert_eq!(&buf.dst[..], &store.dst[at..end]);
                at = end;
            }
            assert_eq!(at, store.len());
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn chunked_writer_appends_and_read_chunk_matches_cursor() {
        let path = std::env::temp_dir().join("fxnet-chunked-append.fxb");
        let tr = bursty(60);
        let mut w = ChunkedWriter::create(&path).unwrap();
        w.append_records(&tr[..25]).unwrap();
        w.append_records(&[]).unwrap(); // empty batch skipped
        let rest = TraceStore::from_records(&tr[25..]);
        w.append_columns(
            &rest.time_ns,
            &rest.wire_len,
            &rest.tag,
            &rest.src,
            &rest.dst,
        )
        .unwrap();
        assert_eq!(w.frames(), 60);
        assert_eq!(w.chunks(), 2);
        let dir = w.finish().unwrap();
        assert_eq!(dir.len(), 2);
        assert_eq!(dir.max_chunk_frames(), 35);
        assert_eq!(read_chunk_directory(&path).unwrap(), dir);
        assert_eq!(load_store(&path).unwrap().to_records(), tr);

        // read_chunk (the pool worker path) sees what the cursor sees.
        let mut cursor = ChunkCursor::open(&path).unwrap();
        let mut worker = ChunkBuf::default();
        for meta in &dir.chunks {
            let (cmeta, cbuf) = cursor.next_chunk().unwrap().unwrap();
            read_chunk(&path, meta, &mut worker).unwrap();
            assert_eq!(cmeta, meta);
            assert_eq!(&worker, cbuf);
            assert_eq!(worker.resident_bytes(), 21 * meta.frames);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_chunked_trace_round_trips() {
        let path = std::env::temp_dir().join("fxnet-chunked-empty.fxb");
        let dir = save_store_chunked(&path, &TraceStore::from_records(&[]), 64).unwrap();
        assert!(dir.is_empty());
        assert_eq!(dir.max_chunk_frames(), 0);
        assert!(load_store(&path).unwrap().is_empty());
        let mut cursor = ChunkCursor::open(&path).unwrap();
        assert!(cursor.next_chunk().unwrap().is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_chunked_trace_is_rejected() {
        let path = std::env::temp_dir().join("fxnet-chunked-corrupt.fxb");
        let store = TraceStore::from_records(&bursty(40));
        save_store_chunked(&path, &store, 16).unwrap();
        let good = std::fs::read(&path).unwrap();

        let reject = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            assert!(ChunkCursor::open(&path).is_err(), "cursor accepts {what}");
            assert!(load_store(&path).is_err(), "loader accepts {what}");
        };

        // Trailer magic clobbered.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 1] = b'X';
        reject(&bad, "bad trailer magic");
        // Truncated mid-directory.
        reject(&good[..n - CHUNK_TRAILER_BYTES - 3], "truncated directory");
        // Directory frame count inflated.
        let dir_offset = u64::from_le_bytes(good[n - 20..n - 12].try_into().unwrap()) as usize;
        let mut bad = good.clone();
        bad[dir_offset..dir_offset + 8].copy_from_slice(&999u64.to_le_bytes());
        reject(&bad, "inflated chunk frame count");
        // Second chunk's offset torn away from the first chunk's end.
        let mut bad = good.clone();
        let off2 = dir_offset + CHUNK_META_BYTES + 24;
        let was = u64::from_le_bytes(bad[off2..off2 + 8].try_into().unwrap());
        bad[off2..off2 + 8].copy_from_slice(&(was + 1).to_le_bytes());
        reject(&bad, "non-contiguous chunk offsets");
        // Unfinished file: header + one payload, no trailer (writer
        // dropped before finish).
        let mut w = ChunkedWriter::create(&path).unwrap();
        w.append_records(&store.to_records()).unwrap();
        drop(w);
        assert!(ChunkCursor::open(&path).is_err());
        assert!(load_store(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    proptest! {
        #[test]
        fn arbitrary_records_round_trip(
            times in prop::collection::vec(0u64..u64::MAX / 2, 1..50),
            sizes in prop::collection::vec(58u32..1519, 1..50),
            hosts in prop::collection::vec((0u32..16, 0u32..16), 1..50),
        ) {
            let tr: Vec<FrameRecord> = times
                .iter()
                .zip(sizes.iter().cycle())
                .zip(hosts.iter().cycle())
                .map(|((&t, &sz), &(a, b))| FrameRecord {
                    time: SimTime::from_nanos(t),
                    wire_len: sz,
                    proto: if t % 2 == 0 { Proto::Tcp } else { Proto::Udp },
                    kind: match t % 4 {
                        0 => FrameKind::Data,
                        1 => FrameKind::Ack,
                        2 => FrameKind::Syn,
                        _ => FrameKind::Datagram,
                    },
                    src: HostId(a),
                    dst: HostId(b),
                })
                .collect();
            // Records -> file -> records.
            let path = temp("prop-records.fxb");
            save_store(&path, &TraceStore::from_records(&tr)).unwrap();
            let back = load_store(&path).unwrap().to_records();
            let _ = std::fs::remove_file(&path);
            prop_assert_eq!(back, tr);
        }

        #[test]
        fn chunked_container_round_trips_losslessly(
            times in prop::collection::vec(0u64..u64::MAX / 2, 1..80),
            sizes in prop::collection::vec(58u32..1519, 1..80),
            hosts in prop::collection::vec((0u32..16, 0u32..16), 1..80),
            chunk_frames in 1usize..100,
            case in 0u32..1_000_000,
        ) {
            let tr: Vec<FrameRecord> = times
                .iter()
                .zip(sizes.iter().cycle())
                .zip(hosts.iter().cycle())
                .map(|((&t, &sz), &(a, b))| FrameRecord {
                    time: SimTime::from_nanos(t),
                    wire_len: sz,
                    proto: if t % 2 == 0 { Proto::Tcp } else { Proto::Udp },
                    kind: match t % 4 {
                        0 => FrameKind::Data,
                        1 => FrameKind::Ack,
                        2 => FrameKind::Syn,
                        _ => FrameKind::Datagram,
                    },
                    src: HostId(a),
                    dst: HostId(b),
                })
                .collect();
            let store = TraceStore::from_records(&tr);
            let path = std::env::temp_dir().join(format!("fxnet-chunked-prop-{case}.fxb"));
            let dir = save_store_chunked(&path, &store, chunk_frames).unwrap();
            prop_assert_eq!(dir.frames() as usize, store.len());
            // Materialized loader reconstructs the store exactly.
            prop_assert_eq!(&load_store(&path).unwrap(), &store);
            // Cursor concatenation reconstructs every column exactly.
            let mut cursor = ChunkCursor::open(&path).unwrap();
            let mut cat = ChunkBuf::default();
            while let Some((_, b)) = cursor.next_chunk().unwrap() {
                cat.time_ns.extend_from_slice(&b.time_ns);
                cat.wire_len.extend_from_slice(&b.wire_len);
                cat.tag.extend_from_slice(&b.tag);
                cat.src.extend_from_slice(&b.src);
                cat.dst.extend_from_slice(&b.dst);
            }
            prop_assert_eq!(&cat.time_ns, &store.time_ns);
            prop_assert_eq!(&cat.wire_len, &store.wire_len);
            prop_assert_eq!(&cat.tag, &store.tag);
            prop_assert_eq!(&cat.src, &store.src);
            prop_assert_eq!(&cat.dst, &store.dst);
            let _ = std::fs::remove_file(&path);
        }
    }
}
