//! Offline stand-in for the subset of `rand` 0.8 the raftlib crates use.
//!
//! The container has no crates.io access, so the benchmark's manifest
//! patches `rand` to this crate. It is *not* the published generator: the
//! stream is xorshift64*, so seeded outputs differ from real `rand`, which
//! is fine for the benchmark because every reference is computed from the
//! same generated inputs.

/// Source of raw random words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seeding interface (only `seed_from_u64` is used).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every `RngCore`.
pub trait Rng: RngCore {
    /// A value from the `Standard` distribution.
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    /// A value uniformly drawn from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A range `gen_range` can sample from.
pub trait SampleRange<T> {
    /// Draw one value.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (u128::from(rng.next_u64()) % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (u128::from(rng.next_u64()) % span) as i128) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                self.start + (unit_f64(rng) as $t) * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                *self.start() + (unit_f64(rng) as $t) * (*self.end() - *self.start())
            }
        }
    )*};
}
float_ranges!(f32, f64);

/// Distributions.
pub mod distributions {
    use super::{unit_f64, Rng, RngCore};

    /// Something that can produce values of `T` from a generator.
    pub trait Distribution<T> {
        /// Draw one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The default distribution behind `Rng::gen`.
    #[derive(Debug, Clone, Copy)]
    pub struct Standard;

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            unit_f64(rng)
        }
    }
    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            unit_f64(rng) as f32
        }
    }
    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            RngCore::next_u64(rng) >> 63 == 1
        }
    }
    macro_rules! standard_ints {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    // high bits: xorshift* low bits are the weak ones
                    (RngCore::next_u64(rng) >> (64 - <$t>::BITS)) as $t
                }
            }
        )*};
    }
    standard_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xorshift64* behind the `StdRng` name.
    #[derive(Debug, Clone)]
    pub struct StdRng(u64);

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 step so that small seeds give well-mixed states
            let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            StdRng((z ^ (z >> 31)) | 1)
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }
}
