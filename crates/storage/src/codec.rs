//! Bounds-checked little-endian encoding helpers for page layouts.
//!
//! Tree nodes and spilled priority-queue buckets are flat, fixed-layout
//! structures; these cursors keep the serialization code free of index
//! arithmetic mistakes while staying allocation-free.

use crate::{Result, StorageError};

/// Lookup tables for the reflected CRC-32 (IEEE 802.3, polynomial
/// `0xEDB88320`) used to checksum pages. `CRC32_TABLES[0]` is the classic
/// byte table; `CRC32_TABLES[k][b]` is the checksum state after byte `b`
/// followed by `k` zero bytes, which lets [`crc32`] fold eight input bytes
/// per step ("slicing-by-8").
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Bytes per lane of the four-lane kernel; a block is four lanes.
const LANE: usize = 256;
const BLOCK: usize = 4 * LANE;

/// `CRC32_ADVANCE_LANE[k][b]` is the checksum state that byte `b` in byte
/// `k` of the state becomes after [`LANE`] zero bytes. The state update is
/// linear over GF(2), so advancing a whole state is the XOR of its four
/// bytes' entries; [`crc32`] uses it to fold independent lanes.
const CRC32_ADVANCE_LANE: [[u32; 256]; 4] = {
    // Advance each of the 32 single-bit states, then combine bits per byte.
    let mut basis = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut c = 1u32 << bit;
        let mut n = 0;
        while n < LANE {
            c = CRC32_TABLES[0][(c & 0xFF) as usize] ^ (c >> 8);
            n += 1;
        }
        basis[bit] = c;
        bit += 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut c = 0u32;
            let mut j = 0;
            while j < 8 {
                if b & (1 << j) != 0 {
                    c ^= basis[8 * k + j];
                }
                j += 1;
            }
            tables[k][b] = c;
            b += 1;
        }
        k += 1;
    }
    tables
};

/// One byte-at-a-time step of the checksum state.
#[inline]
fn crc32_step(c: u32, b: u8) -> u32 {
    CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
}

/// One slicing-by-8 step: the state after the eight bytes of `w`.
#[inline(always)]
fn crc32_word(c: u32, w: &[u8; 8]) -> u32 {
    let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    CRC32_TABLES[7][(lo & 0xFF) as usize]
        ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ CRC32_TABLES[4][(lo >> 24) as usize]
        ^ CRC32_TABLES[3][(hi & 0xFF) as usize]
        ^ CRC32_TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ CRC32_TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ CRC32_TABLES[0][(hi >> 24) as usize]
}

/// The state `c` advanced over [`LANE`] zero bytes.
#[inline(always)]
fn crc32_advance_lane(c: u32) -> u32 {
    CRC32_ADVANCE_LANE[0][(c & 0xFF) as usize]
        ^ CRC32_ADVANCE_LANE[1][((c >> 8) & 0xFF) as usize]
        ^ CRC32_ADVANCE_LANE[2][((c >> 16) & 0xFF) as usize]
        ^ CRC32_ADVANCE_LANE[3][(c >> 24) as usize]
}

/// CRC-32 (IEEE) of `data`. Used as the per-page checksum: computed on every
/// write, verified on every read from the simulated disk.
///
/// Each 1 KiB block is split into four 256-byte lanes checksummed
/// independently, eight bytes per step, so the four table-lookup chains
/// overlap instead of waiting on one another. The state update is linear:
/// the state after `A ‖ B` is the state after `A` advanced over `|B|` zero
/// bytes, XOR the state of `B` alone from zero. The lanes are folded that
/// way through [`CRC32_ADVANCE_LANE`]. What is left after the last block
/// takes eight bytes per step, and its last `< 8` bytes the bytewise step.
/// The result is bit-identical to the bytewise loop for every input, so
/// pages persisted by earlier versions keep verifying.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let (blocks, rest) = data.as_chunks::<BLOCK>();
    for block in blocks {
        let (lanes, _) = block.as_chunks::<LANE>();
        let [l0, l1, l2, l3] = [0, 1, 2, 3].map(|k| lanes[k].as_chunks::<8>().0);
        let (mut c0, mut c1, mut c2, mut c3) = (c, 0u32, 0u32, 0u32);
        for (((w0, w1), w2), w3) in l0.iter().zip(l1).zip(l2).zip(l3) {
            c0 = crc32_word(c0, w0);
            c1 = crc32_word(c1, w1);
            c2 = crc32_word(c2, w2);
            c3 = crc32_word(c3, w3);
        }
        c = crc32_advance_lane(crc32_advance_lane(crc32_advance_lane(c0) ^ c1) ^ c2) ^ c3;
    }
    let (words, tail) = rest.as_chunks::<8>();
    for w in words {
        c = crc32_word(c, w);
    }
    for &b in tail {
        c = crc32_step(c, b);
    }
    !c
}

/// Copies `bytes` into a fixed-size array, reporting a corrupt page instead
/// of panicking when the length does not match.
fn fixed<const N: usize>(bytes: &[u8]) -> Result<[u8; N]> {
    let mut out = [0u8; N];
    if bytes.len() != N {
        return Err(StorageError::Corrupt("fixed-width field length mismatch"));
    }
    out.copy_from_slice(bytes);
    Ok(out)
}

/// A write cursor over a page buffer.
#[derive(Debug)]
pub struct PageWriter<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> PageWriter<'a> {
    /// Creates a writer positioned at the start of `buf`.
    pub fn new(buf: &'a mut [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current offset.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes still available.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn reserve(&mut self, len: usize) -> Result<&mut [u8]> {
        if self.pos + len > self.buf.len() {
            return Err(StorageError::OutOfBounds {
                offset: self.pos,
                len,
                size: self.buf.len(),
            });
        }
        let slice = &mut self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Writes a `u8`.
    pub fn put_u8(&mut self, v: u8) -> Result<()> {
        self.reserve(1)?[0] = v;
        Ok(())
    }

    /// Writes a `u16` (little endian).
    pub fn put_u16(&mut self, v: u16) -> Result<()> {
        self.reserve(2)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Writes a `u32` (little endian).
    pub fn put_u32(&mut self, v: u32) -> Result<()> {
        self.reserve(4)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Writes a `u64` (little endian).
    pub fn put_u64(&mut self, v: u64) -> Result<()> {
        self.reserve(8)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Writes an `f64` (little-endian IEEE 754 bits).
    pub fn put_f64(&mut self, v: f64) -> Result<()> {
        self.reserve(8)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Writes raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.reserve(bytes.len())?.copy_from_slice(bytes);
        Ok(())
    }

    /// Skips `len` bytes, leaving them untouched.
    pub fn skip(&mut self, len: usize) -> Result<()> {
        self.reserve(len).map(|_| ())
    }
}

/// A read cursor over a page buffer.
#[derive(Debug)]
pub struct PageReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PageReader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current offset.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes still available.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        if self.pos + len > self.buf.len() {
            return Err(StorageError::OutOfBounds {
                offset: self.pos,
                len,
                size: self.buf.len(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16` (little endian).
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(fixed(self.take(2)?)?))
    }

    /// Reads a `u32` (little endian).
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(fixed(self.take(4)?)?))
    }

    /// Reads a `u64` (little endian).
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(fixed(self.take(8)?)?))
    }

    /// Reads an `f64` (little-endian IEEE 754 bits).
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(fixed(self.take(8)?)?))
    }

    /// Reads `len` raw bytes.
    pub fn get_bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        self.take(len)
    }

    /// Skips `len` bytes.
    pub fn skip(&mut self, len: usize) -> Result<()> {
        self.take(len).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut buf = [0u8; 64];
        let mut w = PageWriter::new(&mut buf);
        w.put_u8(7).unwrap();
        w.put_u16(0xBEEF).unwrap();
        w.put_u32(0xDEAD_BEEF).unwrap();
        w.put_u64(0x0123_4567_89AB_CDEF).unwrap();
        w.put_f64(-1234.5678).unwrap();
        w.put_bytes(b"tag").unwrap();
        let end = w.position();

        let mut r = PageReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64().unwrap(), -1234.5678);
        assert_eq!(r.get_bytes(3).unwrap(), b"tag");
        assert_eq!(r.position(), end);
    }

    #[test]
    fn overflow_write_is_error() {
        let mut buf = [0u8; 4];
        let mut w = PageWriter::new(&mut buf);
        w.put_u32(1).unwrap();
        assert!(matches!(
            w.put_u8(1),
            Err(StorageError::OutOfBounds {
                offset: 4,
                len: 1,
                size: 4
            })
        ));
    }

    #[test]
    fn overflow_read_is_error() {
        let buf = [0u8; 4];
        let mut r = PageReader::new(&buf);
        r.get_u16().unwrap();
        assert!(r.get_u64().is_err());
        // Failed reads do not advance.
        assert_eq!(r.position(), 2);
        r.get_u16().unwrap();
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn skip_and_remaining() {
        let mut buf = [0u8; 10];
        let mut w = PageWriter::new(&mut buf);
        w.skip(6).unwrap();
        assert_eq!(w.remaining(), 4);
        w.put_u32(42).unwrap();
        let mut r = PageReader::new(&buf);
        r.skip(6).unwrap();
        assert_eq!(r.get_u32().unwrap(), 42);
    }

    #[test]
    fn crc32_known_vectors() {
        // Reference values for the IEEE polynomial.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Checksums computed with the bytewise loop (and cross-checked against
    /// zlib) before the sliced kernel existed.
    const GOLDEN_PAGE_CRC: u32 = 0xADE9_BAB6;
    const GOLDEN_ZERO_PAGE_CRC: u32 = 0xF1E8_BA9E;

    /// The historical byte-at-a-time loop, kept as the reference the sliced
    /// kernel must match bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(0xFFFF_FFFFu32, |c, &b| crc32_step(c, b))
    }

    /// `len` pseudo-random bytes from `seed` (xorshift).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Longest input the reference checks cover: four whole 1 KiB blocks of
    /// the four-lane kernel plus every tail length after them.
    const MAX_CHECKED_LEN: usize = 5_000;

    #[test]
    fn crc32_matches_bytewise_at_every_length() {
        // Every length from 0 to several blocks: each count of whole
        // blocks, each lane boundary and every tail length.
        let buf = noise(0x5EED, MAX_CHECKED_LEN);
        for len in 0..=MAX_CHECKED_LEN {
            let data = &buf[..len];
            assert_eq!(crc32(data), crc32_bytewise(data), "len {len}");
        }
    }

    #[test]
    fn crc32_matches_bytewise_at_every_page_size() {
        // The page sizes the workspace builds: `RTreeConfig::default()`
        // (2 048), `RTreeConfig::small(m)` (4 + 40·m bytes, m ∈ {4, 5, 6,
        // 8, 10}), the hybrid queue's and the quadtree's default spill and
        // node pages (1 024) and the small hybrid test pages (128, 256).
        for size in [2048, 164, 204, 244, 324, 404, 1024, 128, 256] {
            for seed in 1..=4u64 {
                let page = noise(seed.wrapping_mul(size as u64), size);
                assert_eq!(crc32(&page), crc32_bytewise(&page), "page {size}");
            }
            let zeros = vec![0u8; size];
            assert_eq!(crc32(&zeros), crc32_bytewise(&zeros), "zero page {size}");
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_bytewise_reference(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..=MAX_CHECKED_LEN,
            skip in 0usize..16,
            drop_tail in 0usize..16,
        ) {
            // Random contents; the sub-slice starts and ends at arbitrary
            // (unaligned) offsets inside the buffer.
            let buf = noise(seed, len);
            let lo = skip.min(len);
            let hi = len.saturating_sub(drop_tail).max(lo);
            let data = &buf[lo..hi];
            proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }

    #[test]
    fn crc32_golden_page() {
        // A fixed 2048-byte page (the benchmark's and the default page
        // size) with a fixed checksum: dumps persisted before the sliced
        // kernel carry checksums from the bytewise loop and must keep
        // loading.
        let page: Vec<u8> = (0..2048u32)
            .map(|i| (i.wrapping_mul(31).wrapping_add(i >> 3) ^ 0x5A) as u8)
            .collect();
        assert_eq!(crc32_bytewise(&page), GOLDEN_PAGE_CRC);
        assert_eq!(crc32(&page), GOLDEN_PAGE_CRC);
        assert_eq!(crc32(&[0u8; 2048]), GOLDEN_ZERO_PAGE_CRC);
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut page = vec![0xA5u8; 256];
        let clean = crc32(&page);
        page[100] ^= 0x10;
        assert_ne!(crc32(&page), clean);
    }

    #[test]
    fn f64_bit_exactness() {
        for v in [0.0, -0.0, f64::INFINITY, f64::MIN_POSITIVE, 1.0e300] {
            let mut buf = [0u8; 8];
            PageWriter::new(&mut buf).put_f64(v).unwrap();
            let got = PageReader::new(&buf).get_f64().unwrap();
            assert_eq!(v.to_bits(), got.to_bits());
        }
    }
}
