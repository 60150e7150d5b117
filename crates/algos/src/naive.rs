//! Brute-force matcher — the testing oracle every optimized matcher is
//! checked against.

use crate::{Match, Matcher};

/// O(n·m) sliding comparison over one or more patterns. Never used on the
//  hot path; exists so property tests have an obviously-correct reference.
#[derive(Debug, Clone)]
pub struct Naive {
    patterns: Vec<Vec<u8>>,
    max_len: usize,
}

impl Naive {
    /// Build from any set of patterns. Empty patterns are rejected.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        let patterns: Vec<Vec<u8>> = patterns.iter().map(|p| p.as_ref().to_vec()).collect();
        assert!(
            patterns.iter().all(|p| !p.is_empty()),
            "empty patterns are not searchable"
        );
        let max_len = patterns.iter().map(Vec::len).max().unwrap_or(0);
        Naive { patterns, max_len }
    }
}

impl Matcher for Naive {
    fn max_pattern_len(&self) -> usize {
        self.max_len
    }

    fn find_into(&self, hay: &[u8], base: u64, min_end: usize, out: &mut Vec<Match>) {
        if let [pat] = self.patterns.as_slice() {
            // Single-pattern: leap between occurrences of the pattern's
            // first byte (vectorized) instead of probing every start.
            // Candidates arrive in ascending start order, so the output is
            // identical to the generic loop below.
            let m = pat.len();
            if hay.len() < m {
                return;
            }
            let mut from = 0usize;
            while let Some(start) =
                crate::simd::find_byte_from(&hay[..hay.len() - m + 1], from, pat[0])
            {
                if start + m > min_end && hay[start..start + m] == pat[..] {
                    out.push(Match {
                        offset: base + start as u64,
                        pattern: 0,
                    });
                }
                from = start + 1;
            }
            return;
        }
        // Multi-pattern: the deliberately plain loop property tests treat
        // as ground truth.
        for start in 0..hay.len() {
            for (pi, pat) in self.patterns.iter().enumerate() {
                if start + pat.len() > min_end && hay[start..].starts_with(pat) {
                    out.push(Match {
                        offset: base + start as u64,
                        pattern: pi as u32,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_overlapping_occurrences() {
        let m = Naive::new(&["aa"]);
        let found = m.find_all(b"aaaa");
        assert_eq!(
            found.iter().map(|m| m.offset).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn multi_pattern_reports_indices() {
        let m = Naive::new(&["ab", "ba"]);
        let found = m.find_all(b"abab");
        assert_eq!(found.len(), 3);
        assert!(found.contains(&Match {
            offset: 0,
            pattern: 0
        }));
        assert!(found.contains(&Match {
            offset: 1,
            pattern: 1
        }));
        assert!(found.contains(&Match {
            offset: 2,
            pattern: 0
        }));
    }

    #[test]
    fn respects_min_end() {
        let m = Naive::new(&["ab"]);
        let mut out = Vec::new();
        // min_end = 2: the match ending exactly at 2 is suppressed (owned by
        // the previous chunk), the one ending at 4 is reported.
        m.find_into(b"abab", 100, 2, &mut out);
        assert_eq!(
            out,
            vec![Match {
                offset: 102,
                pattern: 0
            }]
        );
    }

    #[test]
    #[should_panic(expected = "empty patterns")]
    fn rejects_empty_pattern() {
        Naive::new(&[""]);
    }

    /// The vectorized single-pattern path must report exactly what the
    /// generic loop reports. Adding a second pattern that cannot occur
    /// forces the generic loop, so the two configurations are comparable.
    #[test]
    fn single_pattern_path_agrees_with_generic_loop() {
        let absent = [0xFEu8, 0xFD];
        let mut rng = raft_rng::Rng::new(0x243f_6a88_85a3_08d3);
        for pat in [&b"ab"[..], b"aaa", b"ba", b"b"] {
            for len in [0usize, 1, 16, 17, 32, 33, 64, 65, 300] {
                let hay: Vec<u8> = (0..len).map(|_| b"ab"[rng.range(0..2usize)]).collect();
                let fast = Naive::new(&[pat]);
                let generic = Naive::new(&[pat, &absent[..]]);
                for min_end in [0usize, 1, len / 2] {
                    let mut got = Vec::new();
                    let mut want = Vec::new();
                    fast.find_into(&hay, 3, min_end, &mut got);
                    generic.find_into(&hay, 3, min_end, &mut want);
                    assert_eq!(got, want, "len={} pat={:?} min_end={}", len, pat, min_end);
                }
            }
        }
    }
}
