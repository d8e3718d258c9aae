//! Hostile `.fxb` files through the one open path.
//!
//! `crates/bench/src/scan.rs` sweeps every *payload* byte; this file
//! sweeps everything else a reader trusts before it touches a payload —
//! the header, every trailer word and every directory word of a small
//! three-chunk file — and holds [`load_store`] (a [`ChunkCursor`] fold,
//! so the cursor with it) to two promises:
//! every outcome is a typed [`TraceIoError`] or a store equal to the
//! original, never a panic; and no mutation makes the reader allocate
//! more than a small multiple of the file's own length.
//!
//! The second promise needs an allocator that counts, so this file is
//! its own test binary and holds exactly one `#[test]`: nothing else
//! allocates while a reading is taken.
//!
//! [`ChunkCursor`]: fxnet_trace::ChunkCursor

use fxnet_sim::{Frame, FrameKind, FrameRecord, HostId, SimTime};
use fxnet_trace::{load_store, save_store_chunked, TraceIoError, TraceStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live and high-water heap bytes, counted at the allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// No single request this test can justify comes near this; one that
/// does is refused (as exhaustion, which aborts with the size) before
/// the shared machine has to find the memory.
const REFUSE_ABOVE: usize = 64 << 20;

struct Counting;

// SAFETY: every request is either refused with a null pointer, which
// the `GlobalAlloc` contract allows, or forwarded unchanged to
// `System`, whose pointers and layouts are returned and released
// untouched; the counters are side effects only. `alloc_zeroed` and
// `realloc` keep their defaults, which are built from the two methods
// below.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        // SAFETY: `layout` is the caller's, passed through as received.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` through `alloc` with this same
        // `layout`, which is the caller's obligation.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning its result and the most heap it held above what
/// was live when it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed).saturating_sub(base))
}

fn records(n: usize) -> Vec<FrameRecord> {
    (0..n)
        .map(|i| {
            let t = SimTime::from_micros((i / 8 * 40_000 + i % 8 * 1_200) as u64);
            let f = Frame::tcp(
                HostId((i % 4) as u32),
                HostId(((i + 1) % 4) as u32),
                if i % 3 == 0 {
                    FrameKind::Ack
                } else {
                    FrameKind::Data
                },
                if i % 3 == 0 { 0 } else { 1460 },
                i as u64,
            );
            FrameRecord::capture(t, &f)
        })
        .collect()
}

fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

#[test]
fn no_header_trailer_or_directory_mutation_panics_or_over_allocates() {
    let path = std::env::temp_dir().join(format!("fxnet-hostile-fxb-{}.fxb", std::process::id()));
    let original = TraceStore::from_records(&records(120));
    let directory = save_store_chunked(&path, &original, 40).unwrap();
    assert_eq!(directory.len(), 3);
    let good = std::fs::read(&path).unwrap();
    let n = good.len();

    // The layout io.rs documents: 16-byte header with the count in its
    // second half, 40-byte directory entries, 20-byte trailer.
    let dir_offset = word_at(&good, n - 20) as usize;
    assert_eq!(dir_offset + 3 * 40 + 20, n);
    assert_eq!(word_at(&good, 8), 120);
    let words: Vec<usize> = [8, n - 20, n - 12]
        .into_iter()
        .chain((0..15).map(|w| dir_offset + 8 * w))
        .collect();

    // A reading of the clean file; every hostile one is held to a bound
    // stated in file lengths. 21 decoded bytes per frame and at most one
    // frame per file byte, once for the whole trace and once for the
    // chunk in flight, is 42; the rest is the reader's own working set.
    let (clean, clean_peak) = peak_during(|| load_store(&path));
    assert_eq!(clean.unwrap(), original);
    let limit = 48 * n;
    assert!(clean_peak <= limit, "clean load held {clean_peak} B");

    let mut rejected = 0usize;
    let mut accepted = 0usize;
    let mut check = |bytes: &[u8], what: &str| {
        std::fs::write(&path, bytes).unwrap();
        let (outcome, peak) = peak_during(|| load_store(&path));
        assert!(
            peak <= limit,
            "{what}: held {peak} B reading a {n}-byte file"
        );
        match outcome {
            Ok(store) => {
                assert_eq!(store, original, "{what}: loaded a different trace");
                accepted += 1;
            }
            Err(
                TraceIoError::Magic
                | TraceIoError::Version { .. }
                | TraceIoError::Corrupt(_)
                | TraceIoError::Io(_),
            ) => rejected += 1,
        }
    };

    // Every byte of the header, the directory and the trailer.
    for at in (0..16).chain(dir_offset..n) {
        for mask in [0x01u8, 0x55, 0x80, 0xff] {
            let mut bad = good.clone();
            bad[at] ^= mask;
            check(&bad, &format!("byte {at} ^ {mask:#x}"));
        }
    }

    // Every word — the header count, both trailer words, all fifteen
    // directory words — set to the values arithmetic goes wrong at.
    for &at in &words {
        let was = word_at(&good, at);
        for value in [
            0,
            1,
            was.wrapping_add(1),
            was.wrapping_sub(1),
            n as u64,
            1 << 32,
            1 << 62,
            u64::MAX - 59,
            u64::MAX,
        ] {
            if value == was {
                continue;
            }
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
            check(&bad, &format!("word at {at} = {value}"));
        }
    }

    // Length inflation that is *consistent*, so it survives the
    // directory's cross-checks and reaches the reservation: chunk 0 and
    // the header both claim as many frames as chunk 0 has bytes. The
    // decoder must find out from the payload, inside the bound.
    let chunk0_len = word_at(&good, dir_offset + 32);
    let mut bad = good.clone();
    bad[dir_offset..dir_offset + 8].copy_from_slice(&chunk0_len.to_le_bytes());
    bad[8..16].copy_from_slice(&(120 - 40 + chunk0_len).to_le_bytes());
    check(&bad, "chunk 0 and header inflated together");

    // Truncated anywhere in the tail, and grown by a byte.
    for cut in dir_offset..n {
        check(&good[..cut], &format!("truncated at {cut}"));
    }
    let mut long = good.clone();
    long.push(0);
    check(&long, "one trailing byte");

    check(&good, "the untouched file");
    let _ = std::fs::remove_file(&path);

    // Only the two flag bytes are free: nothing reads them. Everything
    // else this sweep touched is load-bearing.
    assert_eq!(accepted, 2 * 4 + 1, "accepted outside the flag field");
    assert!(rejected > 700, "{rejected} rejected");
}
