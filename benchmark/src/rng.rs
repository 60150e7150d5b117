//! Seeded input generation: xorshift64* seeded through splitmix64.

/// Small deterministic generator; the same seed gives the same stream.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Generator for `seed`, decorrelated by `stream` so that one run seed
    /// can feed several independent inputs.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    /// Next 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let take = |seed, stream| {
            let mut r = XorShift::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(8, 0));
        assert_ne!(take(7, 0), take(7, 1));
    }
}
