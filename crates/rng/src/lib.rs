//! The workspace's one pseudo-random generator: xorshift64* seeded through
//! one splitmix64 step. Every seeded input (text-search corpus, annealer,
//! simulator, test payloads, the property-test engine) draws from it, so a
//! seed fixes the bytes on every machine. Not cryptographic.
#![warn(missing_docs)]

use std::ops::{Bound, RangeBounds};

/// A seeded generator; the same seed gives the same stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed` (splitmix64-mixed, so small seeds are fine).
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// Next 64 bits. The high bits are the strong ones: narrow with `>>`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform in `lo..hi` or `lo..=hi`: integers take `next_u64() % span`
    /// (bias below 2^-32 for spans under 2^32), floats scale
    /// [`f64`](Rng::f64). Panics on an empty or unbounded range.
    pub fn range<T: Uniform>(&mut self, range: impl RangeBounds<T>) -> T {
        match (range.start_bound(), range.end_bound()) {
            (Bound::Included(&lo), Bound::Excluded(&hi)) => T::uniform(self, lo, hi, false),
            (Bound::Included(&lo), Bound::Included(&hi)) => T::uniform(self, lo, hi, true),
            _ => panic!("Rng::range needs both bounds"),
        }
    }
}

/// A type [`Rng::range`] can sample.
pub trait Uniform: Copy {
    /// One value in `lo..hi`, or `lo..=hi` when `inclusive`.
    fn uniform(rng: &mut Rng, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! uniform_ints {
    ($($t:ty)*) => {$(impl Uniform for $t {
        fn uniform(rng: &mut Rng, lo: $t, hi: $t, inclusive: bool) -> $t {
            let span = (hi as i128 - lo as i128) as u128 + u128::from(inclusive);
            assert!(lo <= hi && span > 0, "Rng::range: empty range");
            (lo as i128 + (u128::from(rng.next_u64()) % span) as i128) as $t
        }
    })*};
}
uniform_ints!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

macro_rules! uniform_floats {
    ($($t:ty)*) => {$(impl Uniform for $t {
        fn uniform(rng: &mut Rng, lo: $t, hi: $t, _inclusive: bool) -> $t {
            lo + (rng.f64() as $t) * (hi - lo)
        }
    })*};
}
uniform_floats!(f32 f64);

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden vectors: the stream `benchmark/stubs/rand`'s `StdRng` yields,
    /// which the frozen `text_search` corpus was generated from.
    #[test]
    fn stream_matches_the_frozen_benchmark_generator() {
        let first8 = |seed| {
            let mut r = Rng::new(seed);
            std::array::from_fn::<u64, 8, _>(|_| r.next_u64())
        };
        assert_eq!(
            first8(0),
            [
                0x7bbc_b40d_5506_82d0,
                0xde7f_e413_d00c_c9fd,
                0xb3c6_3835_3c66_8c91,
                0xe073_afc0_9491_95fc,
                0x7f2f_9e2e_b349_37f6,
                0x6ef8_6054_c473_1f4f,
                0x4109_26d7_bb41_0255,
                0x0cf7_5540_849d_9c3b,
            ]
        );
        assert_eq!(
            first8(1),
            [
                0x4b46_a55d_f361_1b9b,
                0xd7e1_f141_0e76_3ef4,
                0x5f14_ec66_975f_9b06,
                0x3b2c_74fa_d44d_6cdb,
                0xdbea_40d6_0760_f050,
                0x0086_45ca_872e_0cd2,
                0x203e_7e0c_16e8_a44f,
                0x966d_f4a8_11c5_3476,
            ]
        );
        assert_eq!(
            first8(42),
            [
                0x31b0_ece7_c4f6_97a2,
                0x9008_a3b1_cb68_6f03,
                0x7c71_73ab_d97b_e16f,
                0x4567_2c8c_8d6b_8c4f,
                0xcdbd_2cdf_34da_70ea,
                0x94ff_5ca2_097b_7abb,
                0x4d52_4be2_7278_80db,
                0xcb9d_070c_3316_55a7,
            ]
        );
    }

    #[test]
    fn sampling_arithmetic_matches_the_frozen_benchmark_generator() {
        let mut r = Rng::new(42);
        let ints: [u32; 8] = std::array::from_fn(|_| r.range(0u32..100));
        assert_eq!(ints, [42, 23, 59, 63, 2, 43, 91, 19]);

        let mut r = Rng::new(42);
        let floats: [u64; 4] = std::array::from_fn(|_| r.f64().to_bits());
        assert_eq!(
            floats,
            [
                0x3fc8_d876_73e2_7b48,
                0x3fe2_0114_7639_6d0d,
                0x3fdf_1c5c_eaf6_5ef8,
                0x3fd1_59cb_2323_5ae2,
            ]
        );

        let mut r = Rng::new(7);
        let signed: [i64; 8] = std::array::from_fn(|_| r.range(-5i64..=5));
        assert_eq!(signed, [-4, 2, -5, 0, 1, -5, 5, -5]);

        let mut r = Rng::new(7);
        let scaled: [u64; 2] = std::array::from_fn(|_| r.range(1.0f64..=3.0).to_bits());
        assert_eq!(scaled, [0x3ff2_9d54_fa3f_0510, 0x3ff8_43b3_b1ff_e5a3]);

        let mut r = Rng::new(7);
        let coins: [bool; 8] = std::array::from_fn(|_| r.bool(0.3));
        assert_eq!(
            coins,
            [true, true, false, false, false, false, false, false]
        );
    }

    #[test]
    fn ranges_stay_in_bounds_at_the_type_edges() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            assert!((i8::MIN..=i8::MAX).contains(&r.range(i8::MIN..=i8::MAX)));
            assert_eq!(r.range(5usize..6), 5);
            let _ = r.range(u64::MIN..=u64::MAX);
            let x = r.range(-1.5f32..2.5);
            assert!((-1.5..2.5).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_integer_range_panics() {
        Rng::new(0).range(4u32..4);
    }
}
