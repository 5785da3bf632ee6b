//! Key and record traits shared by the queues.

use sdj_storage::codec::{PageReader, PageWriter};

/// A priority-queue key: totally ordered, with a primary distance component
/// used by the hybrid queue to decide which tier an element belongs to.
///
/// Orderings richer than the bare distance (the paper's tie-breaking rules
/// of §2.2.2) are expressed by implementing `Ord` on a composite key whose
/// [`QueueKey::distance`] returns the primary distance.
///
/// The flat d-ary heap sifts 16-byte compact entries instead of full keys,
/// ordering them by `(order_bits, tie_rank)`. Implementations must keep that
/// pair consistent with `Ord`: `a < b` under `Ord` iff
/// `(a.order_bits(), a.tie_rank()) < (b.order_bits(), b.tie_rank())`.
/// The defaults cover any key whose `Ord` is exactly its distance.
pub trait QueueKey: Ord + Clone {
    /// The primary (distance) component of the key.
    fn distance(&self) -> f64;

    /// The key's order as an unsigned 64-bit integer: `u64` comparison of
    /// `order_bits` must match `f64` comparison of [`QueueKey::distance`].
    fn order_bits(&self) -> u64 {
        f64_order_bits(self.distance())
    }

    /// Secondary ordering rank for keys whose `Ord` refines the distance
    /// (the paper's §2.2.2 tie-breaking). Keys ordered purely by distance
    /// return 0.
    fn tie_rank(&self) -> u8 {
        0
    }

    /// Rebuilds the key from its order image. Keys must be *fully
    /// determined* by `(order_bits, tie_rank)`:
    /// `Self::from_parts(k.order_bits(), k.tie_rank()) == k` for every key
    /// the queue may store. This is what lets the flat heap keep only the
    /// 16-byte compact entry and no key copy at all — popped keys are
    /// rebuilt from the entry. The default covers distance-only keys.
    fn from_parts(bits: u64, tie_rank: u8) -> Self;
}

/// Inverse of [`f64_order_bits`]: recovers the distance from its
/// order-preserving `u64` image (with `-0.0` already canonicalised away by
/// the forward map).
#[must_use]
pub fn f64_from_order_bits(bits: u64) -> f64 {
    if bits >> 63 == 1 {
        f64::from_bits(bits & !(1 << 63))
    } else {
        f64::from_bits(!bits)
    }
}

/// The standard order-preserving map from `f64` to `u64`: flip the sign bit
/// of non-negatives, complement negatives. Total, monotone, and injective —
/// except that `-0.0` is canonicalised to `+0.0` first, because the queue
/// key types compare the two as equal and the heap's entry order must not
/// disagree with them.
#[must_use]
pub fn f64_order_bits(d: f64) -> u64 {
    let d = if d == 0.0 { 0.0 } else { d };
    let b = d.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

impl QueueKey for sdj_geom::OrdF64 {
    fn distance(&self) -> f64 {
        self.get()
    }

    fn from_parts(bits: u64, _tie_rank: u8) -> Self {
        Self::new(f64_from_order_bits(bits))
    }
}

/// Fixed-size binary serialization, required of keys and values that may
/// spill to the hybrid queue's disk tier.
pub trait Codec: Sized {
    /// Encoded size in bytes; every instance must encode to exactly this
    /// many bytes.
    const ENCODED_SIZE: usize;

    /// Writes `self` to the cursor.
    fn encode(&self, w: &mut PageWriter<'_>) -> sdj_storage::Result<()>;

    /// Reads an instance back from the cursor.
    fn decode(r: &mut PageReader<'_>) -> sdj_storage::Result<Self>;
}

impl Codec for sdj_geom::OrdF64 {
    const ENCODED_SIZE: usize = 8;

    fn encode(&self, w: &mut PageWriter<'_>) -> sdj_storage::Result<()> {
        w.put_f64(self.get())
    }

    fn decode(r: &mut PageReader<'_>) -> sdj_storage::Result<Self> {
        Ok(Self::new(r.get_f64()?))
    }
}

impl Codec for u64 {
    const ENCODED_SIZE: usize = 8;

    fn encode(&self, w: &mut PageWriter<'_>) -> sdj_storage::Result<()> {
        w.put_u64(*self)
    }

    fn decode(r: &mut PageReader<'_>) -> sdj_storage::Result<Self> {
        r.get_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdj_geom::OrdF64;

    #[test]
    fn ordf64_codec_roundtrip() {
        let mut buf = [0u8; 8];
        OrdF64::new(12.5)
            .encode(&mut PageWriter::new(&mut buf))
            .unwrap();
        let back = OrdF64::decode(&mut PageReader::new(&buf)).unwrap();
        assert_eq!(back.get(), 12.5);
    }

    #[test]
    fn u64_codec_roundtrip() {
        let mut buf = [0u8; 8];
        0xDEAD_BEEF_u64
            .encode(&mut PageWriter::new(&mut buf))
            .unwrap();
        assert_eq!(
            u64::decode(&mut PageReader::new(&buf)).unwrap(),
            0xDEAD_BEEF
        );
    }

    #[test]
    fn ordf64_is_queue_key() {
        assert_eq!(OrdF64::new(3.5).distance(), 3.5);
        assert_eq!(OrdF64::new(3.5).tie_rank(), 0);
    }

    #[test]
    fn order_bits_is_monotone() {
        let ds = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for w in ds.windows(2) {
            assert!(
                f64_order_bits(w[0]) < f64_order_bits(w[1]),
                "{} !< {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn order_bits_canonicalises_negative_zero() {
        // OrdF64 compares -0.0 == +0.0, so the bit order must too.
        assert_eq!(f64_order_bits(-0.0), f64_order_bits(0.0));
    }
}
