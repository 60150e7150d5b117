//! Synthetic text corpus generation.
//!
//! The paper searched a 30 GB cut of the Stack Overflow post-history dump
//! held on a RAM disk (§5). That dataset is not available here, so the
//! Figure 10 harness generates an English-like corpus instead:
//!
//! * words drawn from a vocabulary with Zipf-distributed frequencies
//!   (natural-language statistics — this is what the skip-loop searchers'
//!   sublinearity depends on);
//! * a needle pattern *planted* at a configurable density, so match counts
//!   are known in advance and every system's output can be verified;
//! * fully seeded: the same parameters produce the same bytes on every
//!   machine and in every build — the generator is the in-tree
//!   [`raft_rng::Rng`], and a golden test pins one corpus' hash.
//!
//! The substitution preserves what the experiment measures: exact-match
//! scanning cost as a function of text statistics and match density, with
//! the corpus resident in memory (the paper's RAM-disk condition).

use raft_rng::Rng;

/// Parameters for corpus generation.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    /// Total size in bytes (approximate: rounded up to whole words).
    pub size: usize,
    /// Vocabulary size for the Zipf word model.
    pub vocab: usize,
    /// Zipf exponent (1.0 ≈ natural language).
    pub zipf_s: f64,
    /// The needle to plant.
    pub needle: Vec<u8>,
    /// Approximate matches per megabyte of corpus.
    pub matches_per_mb: f64,
    /// RNG seed; with the other fields it fixes the corpus byte for byte.
    pub seed: u64,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec {
            size: 1 << 20,
            vocab: 10_000,
            zipf_s: 1.05,
            needle: b"xq7vektor".to_vec(),
            matches_per_mb: 10.0,
            seed: 0xC0FFEE,
        }
    }
}

/// A generated corpus plus ground truth about planted needles.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The text.
    pub data: Vec<u8>,
    /// Offsets at which the needle was planted (sorted). The generator
    /// guarantees the needle appears *only* at these offsets.
    pub planted: Vec<usize>,
    /// The needle that was planted.
    pub needle: Vec<u8>,
}

/// Zipf sampler over ranks `1..=n` via rejection (Devroye); exactness is
/// irrelevant here, shape is what matters.
struct Zipf {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let n = n as f64;
        let h = |x: f64, s: f64| -> f64 {
            if (s - 1.0).abs() < 1e-9 {
                (x).ln()
            } else {
                (x.powf(1.0 - s) - 1.0) / (1.0 - s)
            }
        };
        Zipf {
            n,
            s,
            h_x1: h(1.5, s) - 1.0,
            h_n: h(n + 0.5, s),
        }
    }

    fn h_inv(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-9 {
            x.exp()
        } else {
            (1.0 + x * (1.0 - self.s)).powf(1.0 / (1.0 - self.s))
        }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        loop {
            let u = self.h_x1 + rng.f64() * (self.h_n - self.h_x1);
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            // Acceptance test simplified: accept k with probability
            // proportional to k^-s / envelope; cheap approximation.
            let ratio = (k / x).powf(self.s);
            if rng.f64() < ratio.min(1.0) {
                return k as usize;
            }
        }
    }
}

/// Deterministic vocabulary: word `i` is a lowercase base-26 rendering of
/// `i` with length growing slowly (3..=9 chars).
fn word(i: usize, buf: &mut Vec<u8>) {
    buf.clear();
    let len = 3 + (i % 7);
    let mut x = i as u64 * 2654435761 % (1 << 31);
    for _ in 0..len {
        buf.push(b'a' + (x % 26) as u8);
        x = x.wrapping_mul(48271) % 0x7FFFFFFF;
    }
}

/// Generate a corpus per `spec`. See module docs for guarantees.
pub fn generate(spec: &CorpusSpec) -> Corpus {
    assert!(!spec.needle.is_empty(), "needle must be non-empty");
    let mut rng = Rng::new(spec.seed);
    let zipf = Zipf::new(spec.vocab.max(2), spec.zipf_s);
    let mut data = Vec::with_capacity(spec.size + 64);
    let mut wordbuf = Vec::with_capacity(16);

    // Plant points: Poisson-ish spacing from the target density.
    let n_matches = ((spec.size as f64 / (1024.0 * 1024.0)) * spec.matches_per_mb).round() as usize;
    let mut plant_at: Vec<usize> = (0..n_matches)
        .map(|_| rng.range(0..spec.size.max(1)))
        .collect();
    plant_at.sort_unstable();
    plant_at.dedup();

    let mut planted = Vec::with_capacity(plant_at.len());
    let mut next_plant = 0usize;
    while data.len() < spec.size {
        if next_plant < plant_at.len() && data.len() >= plant_at[next_plant] {
            planted.push(data.len());
            data.extend_from_slice(&spec.needle);
            data.push(b' ');
            next_plant += 1;
            continue;
        }
        let rank = zipf.sample(&mut rng);
        word(rank, &mut wordbuf);
        data.extend_from_slice(&wordbuf);
        // occasional punctuation/newlines for realism
        match rng.range(0u32..100) {
            0..=2 => data.extend_from_slice(b".\n"),
            3..=5 => data.extend_from_slice(b", "),
            _ => data.push(b' '),
        }
    }
    // Any remaining plant points past the end are planted by appending.
    while next_plant < plant_at.len() {
        planted.push(data.len());
        data.extend_from_slice(&spec.needle);
        data.push(b' ');
        next_plant += 1;
    }

    // Guarantee the needle occurs only where planted: the vocabulary is
    // lowercase-only, so any needle containing a non-lowercase byte (like
    // the default's digit) cannot occur by accident. For pure-lowercase
    // needles, scrub accidental occurrences with a byte that (a) does not
    // appear in the needle, so scrubbing cannot mint new occurrences, and
    // (b) lands outside every planted occurrence, so ground truth survives.
    let scrub = (b'0'..=b'9')
        .chain(b'A'..=b'Z')
        .find(|b| !spec.needle.contains(b))
        .unwrap_or(1u8);
    let m = spec.needle.len();
    let accidental = find_accidental(&data, &spec.needle, &planted);
    for pos in accidental {
        let inside_planted = |i: usize| {
            let p = planted.partition_point(|&p| p <= i);
            p > 0 && i < planted[p - 1] + m
        };
        let target = (pos..pos + m)
            .find(|&i| !inside_planted(i))
            .expect("accidental occurrence fully covered by planted ones");
        data[target] = scrub;
    }
    debug_assert!(find_accidental(&data, &spec.needle, &planted).is_empty());

    Corpus {
        data,
        planted,
        needle: spec.needle.clone(),
    }
}

/// Find occurrences of `needle` not in `planted` (used by `generate` to
/// scrub, and by tests to verify).
fn find_accidental(data: &[u8], needle: &[u8], planted: &[usize]) -> Vec<usize> {
    let mut acc = Vec::new();
    let mut i = 0;
    while i + needle.len() <= data.len() {
        if &data[i..i + needle.len()] == needle {
            if planted.binary_search(&i).is_err() {
                acc.push(i);
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let spec = CorpusSpec {
            size: 64 * 1024,
            ..Default::default()
        };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.data, b.data);
        assert_eq!(a.planted, b.planted);
    }

    /// Pinned to what the parent of the zero-dependency change produced
    /// under the benchmark's generator: fails if the frozen `text_search`
    /// input would drift.
    #[test]
    fn golden_corpus_is_pinned() {
        let fnv1a = |data: &[u8]| {
            data.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let c = generate(&CorpusSpec {
            size: 64 << 10,
            matches_per_mb: 100.0,
            ..Default::default()
        });
        assert_eq!(c.data.len(), 65_544);
        assert_eq!(c.planted.len(), 6);
        assert_eq!(c.planted[..3], [6107, 7198, 27707]);
        assert_eq!(fnv1a(&c.data), 0x8509_adcf_80b4_34ab);

        let c = generate(&CorpusSpec {
            size: 200_000,
            needle: b"needle".to_vec(),
            matches_per_mb: 40.0,
            seed: 7,
            ..Default::default()
        });
        assert_eq!((c.data.len(), c.planted.len()), (200_002, 8));
        assert_eq!(fnv1a(&c.data), 0x2c49_515e_b572_cd70);
    }

    #[test]
    fn planted_offsets_are_real_matches() {
        let spec = CorpusSpec {
            size: 256 * 1024,
            matches_per_mb: 100.0,
            ..Default::default()
        };
        let c = generate(&spec);
        assert!(!c.planted.is_empty(), "expected some planted matches");
        for &off in &c.planted {
            assert_eq!(
                &c.data[off..off + c.needle.len()],
                &c.needle[..],
                "planted offset {off} does not contain the needle"
            );
        }
    }

    #[test]
    fn no_accidental_matches() {
        let spec = CorpusSpec {
            size: 512 * 1024,
            needle: b"thequick".to_vec(), // lowercase: collision-prone
            matches_per_mb: 50.0,
            ..Default::default()
        };
        let c = generate(&spec);
        let accidental = find_accidental(&c.data, &c.needle, &c.planted);
        assert!(
            accidental.is_empty(),
            "accidental needle occurrences at {accidental:?}"
        );
    }

    #[test]
    fn size_approximate() {
        let spec = CorpusSpec {
            size: 100_000,
            ..Default::default()
        };
        let c = generate(&spec);
        assert!(c.data.len() >= 100_000);
        assert!(c.data.len() < 101_000);
    }

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(1000, 1.05);
        let mut rng = Rng::new(1);
        let mut lows = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            if z.sample(&mut rng) <= 10 {
                lows += 1;
            }
        }
        // top-10 ranks should dominate noticeably under Zipf
        assert!(lows > N / 5, "only {lows}/{N} samples in top-10 ranks");
    }

    #[test]
    fn ascii_only() {
        let c = generate(&CorpusSpec {
            size: 32 * 1024,
            ..Default::default()
        });
        assert!(c.data.iter().all(|b| b.is_ascii()));
    }
}
