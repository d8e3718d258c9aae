//! PVM message representation: typed packing into fragment lists, the wire
//! format, and typed unpacking.
//!
//! The fragment structure is observable on the network (paper §4/§6.1):
//! each fragment is written to the socket independently, so pack-call
//! boundaries become TCP write boundaries and ultimately packet
//! boundaries. The 24-byte fragment header is sized so that SEQ's
//! single-`f64` broadcasts appear as 90-byte frames (58 B protocol
//! overhead + 24 B header + 8 B data), matching Figure 3's SEQ maximum.
//!
//! A payload byte is copied once on the way out: a `pack_*` call writes
//! it behind `FRAG_HEADER` bytes of headroom, [`OutMessage::seal`] stamps
//! the header into that headroom, and the fragment's buffer is the wire
//! [`Bytes`], kept in a [`WireMessage`] that the transport and the
//! receiver share. On the way in, [`StreamParser`] slices a fragment that
//! arrives whole inside one chunk, copies only a fragment that spans
//! chunks, and concatenates a multi-fragment body once.

use bytes::Bytes;

/// Bytes of wire header preceding every fragment.
pub const FRAG_HEADER: usize = 24;

/// Magic tag opening every fragment header.
pub const MAGIC: u32 = 0x7076_6D33; // "pvm3"

const FLAG_FIRST: u32 = 0b01;
const FLAG_LAST: u32 = 0b10;

/// The little-endian `u32` at byte `at` of `b`.
pub(crate) fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// Write `words` little-endian over the front of `out`.
pub(crate) fn put_le_words(out: &mut [u8], words: &[u32]) {
    for (dst, w) in out.as_chunks_mut::<4>().0.iter_mut().zip(words) {
        *dst = w.to_le_bytes();
    }
}

/// Stamp the header of `frag` (its first `FRAG_HEADER` bytes) in place.
fn stamp_header(frag: &mut [u8], seq: u32, flags: u32, tag: i32, src_task: u32) {
    // Fragments are packed from in-memory slices; the wire has 32 bits for their length.
    let len = u32::try_from(frag.len() - FRAG_HEADER).expect("fragment data over 4 GiB");
    // `tag as u32` keeps the bits, which is what `i32::to_le_bytes` writes.
    let words = [MAGIC, seq, len, flags, tag as u32, src_task];
    put_le_words(&mut frag[..FRAG_HEADER], &words);
}

/// A message under construction at the sender.
///
/// In the default *copy-loop* mode every `pack_*` call appends to one
/// buffer, and the finished message is a single fragment — this is how
/// SOR, 2DFFT, SEQ, HIST and AIRSHED behave ("an artifact of other (older)
/// Fx implementations"). With [`MessageBuilder::multi_pack`], each pack
/// call closes the previous fragment and starts a new one — T2DFFT's
/// behaviour, which PVM sends as a series of independent socket writes.
///
/// Every fragment buffer opens with `FRAG_HEADER` bytes of headroom, so
/// the packed bytes are already where the wire wants them.
#[derive(Debug)]
pub struct MessageBuilder {
    tag: i32,
    /// Closed fragments, headroom included.
    frags: Vec<Vec<u8>>,
    /// The open fragment, headroom included; empty until a pack opens it.
    current: Vec<u8>,
    multi_pack: bool,
}

impl MessageBuilder {
    /// Start a message with the given application tag (copy-loop mode).
    pub fn new(tag: i32) -> MessageBuilder {
        MessageBuilder {
            tag,
            frags: Vec::new(),
            current: Vec::new(),
            multi_pack: false,
        }
    }

    /// Switch to multi-pack mode: each `pack_*` call becomes its own
    /// fragment (T2DFFT's pattern).
    pub fn multi_pack(mut self) -> MessageBuilder {
        self.multi_pack = true;
        self
    }

    /// Grow the fragment this pack writes to by `n` zeroed bytes and
    /// return them. A fragment with no data yet is never closed, so an
    /// empty pack does not make an empty fragment.
    fn extend(&mut self, n: usize) -> &mut [u8] {
        if self.multi_pack && self.current.len() > FRAG_HEADER {
            self.frags.push(std::mem::take(&mut self.current));
        }
        if self.current.is_empty() {
            self.current.reserve_exact(FRAG_HEADER + n);
            self.current.resize(FRAG_HEADER, 0);
        }
        let at = self.current.len();
        self.current.resize(at + n, 0);
        &mut self.current[at..]
    }

    /// Pack `v` as `W`-byte little-endian values.
    fn pack_le<T: Copy, const W: usize>(
        &mut self,
        v: &[T],
        to_le: impl Fn(T) -> [u8; W],
    ) -> &mut Self {
        let out = self.extend(v.len() * W);
        for (dst, &x) in out.as_chunks_mut::<W>().0.iter_mut().zip(v) {
            *dst = to_le(x);
        }
        self
    }

    /// Pack a slice of `f64` values.
    pub fn pack_f64(&mut self, v: &[f64]) -> &mut Self {
        self.pack_le(v, f64::to_le_bytes)
    }

    /// Pack a slice of `f32` values (Fortran `REAL`, and the components of
    /// Fortran single-precision `COMPLEX`).
    pub fn pack_f32(&mut self, v: &[f32]) -> &mut Self {
        self.pack_le(v, f32::to_le_bytes)
    }

    /// Pack a slice of `u32` values.
    pub fn pack_u32(&mut self, v: &[u32]) -> &mut Self {
        self.pack_le(v, u32::to_le_bytes)
    }

    /// Pack raw bytes.
    pub fn pack_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.extend(v.len()).copy_from_slice(v);
        self
    }

    /// Finish packing; the result is ready for [`crate::PvmSystem::send`].
    pub fn finish(mut self) -> OutMessage {
        if self.current.len() > FRAG_HEADER || self.frags.is_empty() {
            // Zero-length messages still occupy a fragment on the wire so
            // the receiver can observe them (e.g. barrier tokens).
            self.current.resize(self.current.len().max(FRAG_HEADER), 0);
            self.frags.push(self.current);
        }
        OutMessage {
            tag: self.tag,
            frags: self.frags,
        }
    }
}

/// A finished outbound message: an application tag plus its fragment
/// list. Each fragment buffer holds `FRAG_HEADER` bytes of headroom and
/// then its data; [`OutMessage::seal`] turns the buffers into the wire
/// fragments without copying them.
#[derive(Debug, Clone)]
pub struct OutMessage {
    pub tag: i32,
    frags: Vec<Vec<u8>>,
}

impl OutMessage {
    /// Number of fragments, i.e. of socket writes on the direct route.
    pub fn frag_count(&self) -> usize {
        self.frags.len()
    }

    /// Total payload bytes (excluding wire headers).
    pub fn payload_len(&self) -> usize {
        self.wire_len() - FRAG_HEADER * self.frags.len()
    }

    /// Bytes this message will occupy on the TCP stream, headers included.
    pub fn wire_len(&self) -> usize {
        self.frags.iter().map(Vec::len).sum()
    }

    /// The wire fragments (header + data) for transmission from
    /// `src_task` with message sequence number `seq`: each header is
    /// stamped into its fragment's headroom, and each fragment's buffer
    /// becomes its [`Bytes`] without a copy.
    pub(crate) fn into_wire(self, src_task: u32, seq: u32) -> impl ExactSizeIterator<Item = Bytes> {
        // `finish` leaves at least one fragment, empty messages included.
        let last = self.frags.len() - 1;
        let tag = self.tag;
        self.frags
            .into_iter()
            .enumerate()
            .map(move |(i, mut frag)| {
                let mut flags = 0u32;
                if i == 0 {
                    flags |= FLAG_FIRST;
                }
                if i == last {
                    flags |= FLAG_LAST;
                }
                stamp_header(&mut frag, seq, flags, tag, src_task);
                Bytes::from(frag)
            })
    }

    /// The message as it goes on the wire from `src_task`, with message
    /// sequence number `seq`: each fragment's header is stamped into its
    /// headroom, and each fragment's buffer becomes its [`Bytes`] without
    /// a copy, shared by the transport and the receiver.
    pub fn seal(self, src_task: u32, seq: u32) -> WireMessage {
        WireMessage {
            tag: self.tag,
            src_task,
            frags: self.into_wire(src_task, seq).collect(),
        }
    }
}

/// A message its sender has stamped for the wire: each fragment's header
/// is written and its buffer frozen into a [`Bytes`]. A clone shares the
/// fragments, so the transport and the receiver can both hold them
/// without a payload byte being copied.
#[derive(Debug, Clone)]
pub struct WireMessage {
    pub(crate) tag: i32,
    pub(crate) src_task: u32,
    /// Header plus data of each fragment, in order.
    pub(crate) frags: Vec<Bytes>,
}

impl WireMessage {
    /// Number of fragments, i.e. of socket writes on the direct route.
    pub fn frag_count(&self) -> usize {
        self.frags.len()
    }

    /// Total payload bytes (excluding wire headers).
    pub fn payload_len(&self) -> usize {
        self.wire_len() - FRAG_HEADER * self.frags.len()
    }

    /// Bytes this message occupies on the TCP stream, headers included.
    pub fn wire_len(&self) -> usize {
        self.frags.iter().map(Bytes::len).sum()
    }

    /// The data of each fragment, in order.
    pub(crate) fn payloads(&self) -> impl Iterator<Item = &[u8]> {
        self.frags.iter().map(|f| &f[FRAG_HEADER..])
    }

    /// The message as the direct route reassembles it at the receiver. A
    /// one-fragment body is a slice of the fragment's buffer; a longer
    /// one is their concatenation, as [`StreamParser`] builds it.
    pub fn message(&self) -> Message {
        let body = match &self.frags[..] {
            [one] => one.slice(FRAG_HEADER..),
            _ => {
                let mut body = Vec::with_capacity(self.payload_len());
                for data in self.payloads() {
                    body.extend_from_slice(data);
                }
                Bytes::from(body)
            }
        };
        Message {
            tag: self.tag,
            src_task: self.src_task,
            n_frags: self.frags.len() as u32,
            body,
        }
    }
}

/// A fully reassembled inbound message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    pub tag: i32,
    /// Sending task id, recovered from the fragment headers.
    pub src_task: u32,
    /// Number of wire fragments the message arrived in (T2DFFT > 1).
    pub n_frags: u32,
    /// Concatenated payload.
    pub body: Bytes,
}

impl Message {
    /// Typed sequential reader over the body.
    pub fn reader(&self) -> MessageReader<'_> {
        MessageReader {
            body: &self.body,
            pos: 0,
        }
    }
}

/// Sequential typed unpacking, mirroring the pack calls.
#[derive(Debug)]
pub struct MessageReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> MessageReader<'a> {
    /// The next `n` values of `width` bytes each.
    fn take(&mut self, n: usize, width: usize) -> &'a [u8] {
        let (pos, len) = (self.pos, self.body.len());
        let end = n.checked_mul(width).and_then(|b| pos.checked_add(b));
        let Some(end) = end.filter(|&end| end <= len) else {
            panic!("unpack past end of message ({pos} + {n} × {width} B > {len})");
        };
        self.pos = end;
        &self.body[pos..end]
    }

    /// Unpack `n` `W`-byte little-endian values.
    fn unpack_le<T, const W: usize>(&mut self, n: usize, from_le: impl Fn([u8; W]) -> T) -> Vec<T> {
        self.take(n, W)
            .as_chunks::<W>()
            .0
            .iter()
            .map(|&c| from_le(c))
            .collect()
    }

    /// Unpack `n` `f64` values.
    pub fn f64s(&mut self, n: usize) -> Vec<f64> {
        self.unpack_le(n, f64::from_le_bytes)
    }

    /// Unpack `n` `f32` values.
    pub fn f32s(&mut self, n: usize) -> Vec<f32> {
        self.unpack_le(n, f32::from_le_bytes)
    }

    /// Unpack `n` `u32` values.
    pub fn u32s(&mut self, n: usize) -> Vec<u32> {
        self.unpack_le(n, u32::from_le_bytes)
    }

    /// Unpack `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> &'a [u8] {
        self.take(n, 1)
    }
}

/// The fields of a fragment header that reassembly reads.
struct FragHeader {
    len: usize,
    flags: u32,
    tag: i32,
    src_task: u32,
}

impl FragHeader {
    fn parse(h: &[u8]) -> FragHeader {
        // Every stream is written by `seal` and read in order, so a
        // wrong magic means the parser lost its place: a bug, not input.
        assert_eq!(le_u32(h, 0), MAGIC, "stream desynchronized");
        FragHeader {
            len: le_u32(h, 8) as usize,
            flags: le_u32(h, 12),
            tag: le_u32(h, 16) as i32,
            src_task: le_u32(h, 20),
        }
    }

    /// Bytes `frag`, a fragment's first bytes, must reach to be whole:
    /// the header, then as much data as the header announces.
    fn wanted(frag: &[u8]) -> usize {
        if frag.len() < FRAG_HEADER {
            FRAG_HEADER
        } else {
            FRAG_HEADER + FragHeader::parse(frag).len
        }
    }
}

/// Incremental parser converting an in-order byte stream back into
/// messages. One parser exists per (connection, direction); TCP delivers
/// arbitrary chunkings of the stream and the parser is insensitive to
/// where chunk boundaries fall.
///
/// A fragment that lies whole inside one chunk comes back as a slice of
/// that chunk, so no byte of it is copied; the direct route never puts
/// two socket writes in one segment, so this covers every fragment of at
/// most one MSS. A fragment that spans chunks is gathered into one buffer
/// reserved to its length. A multi-fragment body is concatenated once.
#[derive(Debug, Default)]
pub struct StreamParser {
    /// The fragment, header first, that a chunk boundary cut, as far as
    /// it has arrived.
    spill: Vec<u8>,
    /// Fragments of the in-progress message.
    partial: Vec<Bytes>,
    partial_tag: i32,
    partial_src: u32,
}

impl StreamParser {
    /// A parser with empty state.
    pub fn new() -> StreamParser {
        StreamParser::default()
    }

    /// Feed stream bytes; returns any messages completed by this chunk.
    pub fn feed(&mut self, chunk: &Bytes) -> Vec<Message> {
        let mut done = Vec::new();
        let mut at = 0;
        while at < chunk.len() {
            if self.spill.is_empty() && FragHeader::wanted(&chunk[at..]) <= chunk.len() - at {
                let header = FragHeader::parse(&chunk[at..]);
                let end = at + FRAG_HEADER + header.len;
                self.push(header, chunk.slice(at + FRAG_HEADER..end), &mut done);
                at = end;
                continue;
            }
            let n = (FragHeader::wanted(&self.spill) - self.spill.len()).min(chunk.len() - at);
            self.spill.extend_from_slice(&chunk[at..at + n]);
            at += n;
            let wanted = FragHeader::wanted(&self.spill);
            if self.spill.len() < wanted {
                // Reserved to the whole fragment once its header is in,
                // so the data is copied in once.
                self.spill.reserve_exact(wanted - self.spill.len());
            } else {
                let header = FragHeader::parse(&self.spill);
                let frag = Bytes::from(std::mem::take(&mut self.spill));
                self.push(header, frag.slice(FRAG_HEADER..), &mut done);
            }
        }
        done
    }

    /// Add one fragment's data to the message in progress, completing it
    /// into `done` on the last fragment.
    fn push(&mut self, header: FragHeader, data: Bytes, done: &mut Vec<Message>) {
        if header.flags & FLAG_FIRST != 0 {
            // A stream is one (connection, direction), and a message's
            // fragments are written to it back to back.
            debug_assert!(
                self.partial.is_empty(),
                "interleaved fragments on one stream"
            );
            self.partial_tag = header.tag;
            self.partial_src = header.src_task;
        }
        self.partial.push(data);
        if header.flags & FLAG_LAST == 0 {
            return;
        }
        let n_frags = self.partial.len() as u32;
        let body = if n_frags == 1 {
            std::mem::take(&mut self.partial[0])
        } else {
            let total = self.partial.iter().map(Bytes::len).sum();
            let mut body = Vec::with_capacity(total);
            for f in &self.partial {
                body.extend_from_slice(f);
            }
            Bytes::from(body)
        };
        self.partial.clear();
        done.push(Message {
            tag: self.partial_tag,
            src_task: self.partial_src,
            n_frags,
            body,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl StreamParser {
        /// Whether a message is partially received.
        fn mid_message(&self) -> bool {
            !self.partial.is_empty() || !self.spill.is_empty()
        }
    }

    fn round_trip(out: OutMessage, src: u32) -> Message {
        let mut p = StreamParser::new();
        let mut msgs = Vec::new();
        for wire in out.into_wire(src, 42) {
            msgs.extend(p.feed(&wire));
        }
        assert_eq!(msgs.len(), 1);
        assert!(!p.mid_message());
        msgs.pop().unwrap()
    }

    fn wire_of(out: OutMessage, seq: u32) -> Vec<u8> {
        out.into_wire(3, seq).flat_map(|w| w.to_vec()).collect()
    }

    #[test]
    fn copy_loop_mode_is_single_fragment() {
        let mut b = MessageBuilder::new(7);
        b.pack_f64(&[1.0, 2.0]).pack_u32(&[3, 4]).pack_bytes(b"xy");
        let m = b.finish();
        assert_eq!(m.frag_count(), 1);
        assert_eq!(m.payload_len(), 16 + 8 + 2);
        assert_eq!(m.wire_len(), 26 + FRAG_HEADER);
    }

    #[test]
    fn multi_pack_mode_fragments_per_pack() {
        let mut b = MessageBuilder::new(9).multi_pack();
        b.pack_f32(&[1.0; 8])
            .pack_f32(&[2.0; 8])
            .pack_f32(&[3.0; 8]);
        let m = b.finish();
        assert_eq!(m.frag_count(), 3);
        assert_eq!(m.wire_len(), 3 * 32 + 3 * FRAG_HEADER);
    }

    #[test]
    fn empty_packs_make_no_fragment() {
        let mut b = MessageBuilder::new(9).multi_pack();
        b.pack_u32(&[]).pack_u32(&[1]).pack_u32(&[]).pack_u32(&[2]);
        b.pack_u32(&[]);
        let m = b.finish();
        assert_eq!(m.frag_count(), 2);
        assert_eq!(m.payload_len(), 8);
    }

    #[test]
    fn seq_style_message_is_32_wire_bytes() {
        // One f64 element: 24 B header + 8 B data → with 58 B protocol
        // overhead this is the paper's 90-byte SEQ frame.
        let mut b = MessageBuilder::new(0);
        b.pack_f64(&[3.25]);
        let m = b.finish();
        assert_eq!(m.wire_len(), 32);
    }

    #[test]
    fn header_layout_is_pinned() {
        let mut b = MessageBuilder::new(-2).multi_pack();
        b.pack_bytes(&[0xEE]).pack_bytes(&[0xFF, 0xFF]);
        let wire: Vec<Bytes> = b.finish().into_wire(5, 77).collect();
        let words = |w: &Bytes| (0..6).map(|i| le_u32(w, 4 * i)).collect::<Vec<u32>>();
        let tag = (-2i32) as u32;
        assert_eq!(words(&wire[0]), [MAGIC, 77, 1, FLAG_FIRST, tag, 5]);
        assert_eq!(words(&wire[1]), [MAGIC, 77, 2, FLAG_LAST, tag, 5]);
        assert_eq!(&wire[1][FRAG_HEADER..], &[0xFF, 0xFF]);
    }

    #[test]
    fn typed_round_trip() {
        let mut b = MessageBuilder::new(-3);
        b.pack_f64(&[1.5, -2.5])
            .pack_f32(&[0.25])
            .pack_u32(&[9])
            .pack_bytes(&[1, 2, 3]);
        let m = round_trip(b.finish(), 2);
        assert_eq!(m.tag, -3);
        assert_eq!(m.src_task, 2);
        let mut r = m.reader();
        assert_eq!(r.f64s(2), vec![1.5, -2.5]);
        assert_eq!(r.f32s(1), vec![0.25]);
        assert_eq!(r.u32s(1), vec![9]);
        assert_eq!(r.bytes(3), &[1, 2, 3]);
    }

    #[test]
    fn multi_fragment_round_trip_preserves_frag_count() {
        let mut b = MessageBuilder::new(5).multi_pack();
        for i in 0..10 {
            b.pack_u32(&[i]);
        }
        let m = round_trip(b.finish(), 1);
        assert_eq!(m.n_frags, 10);
        let mut r = m.reader();
        assert_eq!(r.u32s(10), (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_message_still_transmits() {
        let m = MessageBuilder::new(11).finish();
        assert_eq!(m.frag_count(), 1);
        let got = round_trip(m, 0);
        assert_eq!(got.tag, 11);
        assert_eq!(got.body.len(), 0);
    }

    #[test]
    fn into_wire_yields_the_builders_buffers() {
        let mut b = MessageBuilder::new(4).multi_pack();
        b.pack_f32(&[1.0; 359])
            .pack_f32(&[2.0; 359])
            .pack_f32(&[3.0; 10]);
        let out = b.finish();
        let packed: Vec<*const u8> = out.frags.iter().map(|f| f.as_ptr()).collect();
        let wire: Vec<*const u8> = out.into_wire(0, 1).map(|w| w.as_ptr()).collect();
        assert_eq!(wire, packed);
    }

    #[test]
    fn a_sealed_message_keeps_the_builders_buffers_and_lends_them_its_body() {
        // The receiver's body of a one-fragment message is the sender's
        // wire buffer past the header; a longer body is their one
        // concatenation, as the parser builds it.
        let mut one = MessageBuilder::new(3);
        one.pack_f64(&[1.0, 2.0]);
        let one = one.finish();
        let packed = one.frags[0].as_ptr();
        let sealed = one.seal(5, 9);
        assert_eq!(sealed.frags[0].as_ptr(), packed);
        let m = sealed.message();
        assert_eq!(m.body.as_ptr(), sealed.frags[0][FRAG_HEADER..].as_ptr());
        assert_eq!((m.tag, m.src_task, m.n_frags), (3, 5, 1));
        let mut two = MessageBuilder::new(4).multi_pack();
        two.pack_bytes(&[7; 100]).pack_bytes(&[8; 50]);
        let two = two.finish().seal(5, 10);
        let wire: Vec<u8> = two.frags.iter().flat_map(|f| f.to_vec()).collect();
        let parsed = StreamParser::new().feed(&Bytes::from(wire)).pop().unwrap();
        assert_eq!(two.message(), parsed);
        assert_eq!(
            (two.frag_count(), two.payload_len(), two.wire_len()),
            (2, 150, 150 + 2 * FRAG_HEADER)
        );
    }

    #[test]
    fn fragment_whole_inside_a_chunk_is_sliced() {
        // Two messages in one chunk, the second in two fragments: the
        // single-fragment body points into the chunk, and the two-fragment
        // body is their one concatenation.
        let mut one = MessageBuilder::new(1);
        one.pack_f64(&[1.0, 2.0]);
        let mut two = MessageBuilder::new(2).multi_pack();
        two.pack_bytes(&[7; 100]).pack_bytes(&[8; 50]);
        let mut wire = wire_of(one.finish(), 1);
        wire.extend(wire_of(two.finish(), 2));
        let chunk = Bytes::from(wire);
        let msgs = StreamParser::new().feed(&chunk);
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].body.as_ptr(), chunk[FRAG_HEADER..].as_ptr());
        assert_eq!(msgs[0].reader().f64s(2), vec![1.0, 2.0]);
        assert_eq!(msgs[1].n_frags, 2);
        assert_eq!(msgs[1].body.len(), 150);
    }

    #[test]
    fn one_mss_fragment_arrives_as_a_slice_of_its_segment() {
        // T2DFFT's 1436 B of data behind a 24 B header is exactly one
        // segment: the body is the segment's bytes after the header.
        let mut b = MessageBuilder::new(0);
        b.pack_f32(&[0.5; 359]);
        let seg = b.finish().into_wire(0, 1).next().unwrap();
        assert_eq!(seg.len(), 1460);
        let m = StreamParser::new().feed(&seg).pop().unwrap();
        assert_eq!(m.body.as_ptr(), seg[FRAG_HEADER..].as_ptr());
    }

    #[test]
    #[should_panic(expected = "unpack past end")]
    fn over_read_panics() {
        let mut b = MessageBuilder::new(0);
        b.pack_u32(&[1]);
        let m = round_trip(b.finish(), 0);
        let mut r = m.reader();
        let _ = r.u32s(2);
    }

    fn reader_of(n: usize) -> Message {
        let mut b = MessageBuilder::new(0);
        b.pack_bytes(&vec![0; n]);
        round_trip(b.finish(), 0)
    }

    #[test]
    #[should_panic(expected = "unpack past end")]
    fn eight_byte_count_that_wraps_panics() {
        let _ = reader_of(16).reader().f64s(usize::MAX / 8 + 1);
    }

    #[test]
    #[should_panic(expected = "unpack past end")]
    fn four_byte_count_that_wraps_panics() {
        let _ = reader_of(16).reader().f32s(usize::MAX / 4 + 1);
    }

    #[test]
    #[should_panic(expected = "unpack past end")]
    fn one_byte_count_that_wraps_the_position_panics() {
        let m = reader_of(16);
        let mut r = m.reader();
        let _ = r.bytes(1);
        let _ = r.bytes(usize::MAX);
    }

    proptest! {
        #[test]
        fn parser_is_chunking_invariant(
            msgs in prop::collection::vec(
                (prop::collection::vec(any::<u8>(), 0..700), any::<bool>()),
                1..5,
            ),
            cuts in prop::collection::vec(1usize..200, 0..40),
        ) {
            // Several messages back to back, single- and multi-fragment,
            // cut anywhere: inside headers, inside data, on boundaries.
            let mut wire = Vec::new();
            for (i, (payload, multi)) in msgs.iter().enumerate() {
                let mut b = MessageBuilder::new(i as i32);
                if *multi {
                    b = b.multi_pack();
                    for c in payload.chunks(97) {
                        b.pack_bytes(c);
                    }
                } else {
                    b.pack_bytes(payload);
                }
                wire.extend(wire_of(b.finish(), i as u32));
            }
            let wire = Bytes::from(wire);
            let mut p = StreamParser::new();
            let mut got = Vec::new();
            let mut pos = 0;
            for &c in &cuts {
                if pos >= wire.len() { break; }
                let end = (pos + c).min(wire.len());
                got.extend(p.feed(&wire.slice(pos..end)));
                pos = end;
            }
            if pos < wire.len() {
                got.extend(p.feed(&wire.slice(pos..)));
            }
            prop_assert!(!p.mid_message());
            prop_assert_eq!(got.len(), msgs.len());
            for (i, (m, (payload, multi))) in got.iter().zip(&msgs).enumerate() {
                prop_assert_eq!(m.tag, i as i32);
                prop_assert_eq!(m.src_task, 3);
                let frags = if *multi { payload.len().div_ceil(97).max(1) } else { 1 };
                prop_assert_eq!(m.n_frags as usize, frags);
                prop_assert_eq!(&m.body.to_vec(), payload);
            }
        }

        #[test]
        fn f64_pack_unpack_round_trip(v in prop::collection::vec(any::<f64>(), 0..200)) {
            let mut b = MessageBuilder::new(0);
            b.pack_f64(&v);
            let m = round_trip(b.finish(), 0);
            let got = m.reader().f64s(v.len());
            for (a, b) in got.iter().zip(&v) {
                prop_assert!(a.to_bits() == b.to_bits());
            }
        }

        #[test]
        fn back_to_back_messages_parse(
            n1 in 0usize..300,
            n2 in 0usize..300,
        ) {
            let mut b1 = MessageBuilder::new(1);
            b1.pack_bytes(&vec![0xAA; n1]);
            let mut b2 = MessageBuilder::new(2);
            b2.pack_bytes(&vec![0xBB; n2]);
            let mut wire = wire_of(b1.finish(), 1);
            wire.extend(wire_of(b2.finish(), 2));
            let mut p = StreamParser::new();
            let msgs = p.feed(&Bytes::from(wire));
            prop_assert_eq!(msgs.len(), 2);
            prop_assert_eq!(msgs[0].tag, 1);
            prop_assert_eq!(msgs[1].tag, 2);
            prop_assert_eq!(msgs[0].body.len(), n1);
            prop_assert_eq!(msgs[1].body.len(), n2);
        }
    }
}
