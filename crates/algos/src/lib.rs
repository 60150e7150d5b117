#![warn(missing_docs)]

//! # raft-algos
//!
//! From-scratch implementations of every algorithm the RaftLib PMAM'15
//! evaluation exercises:
//!
//! * exact string matching — [`AhoCorasick`] (multi-pattern automaton; the
//!   paper's first RaftLib search kernel), [`Horspool`]
//!   (Boyer-Moore-Horspool; the paper's fast single-pattern kernel),
//!   [`BoyerMoore`] (full Boyer-Moore; what the paper's Apache Spark
//!   comparator ran), and [`MemMem`] (a grep-class scanner: memchr skip
//!   loop + BMH, standing in for GNU grep's core loop), all behind the
//!   common [`Matcher`] trait with a [`naive`] oracle for testing, plus
//!   [`RabinKarp`] (rolling hash) for the multi-pattern ablation;
//! * [`matmul`] — blocked dense matrix multiply, the workload behind the
//!   paper's Figure 4 queue-sizing experiment;
//! * [`corpus`] — seeded synthetic text generation (Zipf-weighted word
//!   model with planted pattern occurrences), substituting for the paper's
//!   30 GB Stack Overflow post-history dump.
//!
//! The byte scanners dispatch their inner skip loops through [`simd`] —
//! runtime-selected AVX2 / SSE2 / scalar tiers (`RAFT_SIMD` forces one for
//! A/B runs). Every tier returns byte-identical matches; only the speed of
//! the hunt differs.

mod aho_corasick;
mod boyer_moore;
pub mod corpus;
mod horspool;
pub mod matmul;
mod memmem;
pub mod naive;
mod rabin_karp;
pub mod simd;

pub use aho_corasick::AhoCorasick;
pub use boyer_moore::BoyerMoore;
pub use horspool::Horspool;
pub use memmem::MemMem;
pub use rabin_karp::RabinKarp;
pub use simd::SimdTier;

/// A match: byte offset (within the logical, possibly chunked, stream) where
/// a pattern occurrence starts, plus which pattern matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Match {
    /// Byte offset of the first byte of the occurrence.
    pub offset: u64,
    /// Index of the pattern that matched (always 0 for single-pattern
    /// matchers).
    pub pattern: u32,
}

/// Common interface for exact string matchers, designed for streaming use:
/// the haystack arrives in chunks and `base` carries the chunk's offset in
/// the overall stream.
///
/// Chunked scanning must overlap consecutive chunks by
/// [`Matcher::overlap`] bytes of *look-back* so occurrences straddling a
/// boundary are not missed; [`split_chunks`] produces such a chunking.
/// Ownership of a match is decided by its **end** position: a chunk reports
/// a match only if its chunk-relative exclusive end offset is `> min_end`.
/// Matches ending inside the overlap prefix ended inside the previous
/// chunk's logical region and were reported there; matches that merely
/// *start* in the prefix but end in our logical region are ours (the
/// previous chunk physically could not see their tail).
pub trait Matcher: Send + Sync {
    /// Length of the longest pattern, in bytes.
    fn max_pattern_len(&self) -> usize;

    /// Bytes of overlap required between consecutive chunks:
    /// `max_pattern_len() - 1`.
    fn overlap(&self) -> usize {
        self.max_pattern_len().saturating_sub(1)
    }

    /// Find all occurrences in `hay` whose exclusive end offset (relative
    /// to the chunk) is `> min_end`, appending `base + start` to `out`.
    fn find_into(&self, hay: &[u8], base: u64, min_end: usize, out: &mut Vec<Match>);

    /// Convenience: all matches in a standalone haystack.
    fn find_all(&self, hay: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        self.find_into(hay, 0, 0, &mut out);
        out
    }

    /// Convenience: count matches in a standalone haystack.
    fn count(&self, hay: &[u8]) -> usize {
        self.find_all(hay).len()
    }
}

/// Chunk descriptor produced by [`split_chunks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Start of the chunk in the haystack, *including* the overlap prefix.
    pub start: usize,
    /// End of the chunk (exclusive).
    pub end: usize,
    /// Report only matches whose chunk-relative exclusive end offset is
    /// `> min_end` (0 for the first chunk, the overlap amount afterwards).
    pub min_end: usize,
}

/// Split `len` bytes into `n` chunks with `overlap` bytes of look-back so a
/// chunked scan finds exactly the matches a monolithic scan would.
pub fn split_chunks(len: usize, n: usize, overlap: usize) -> Vec<Chunk> {
    let n = n.max(1);
    if len == 0 {
        return vec![];
    }
    let stride = len.div_ceil(n);
    let mut chunks = Vec::with_capacity(n);
    let mut pos = 0usize;
    while pos < len {
        let logical_end = (pos + stride).min(len);
        let start = pos.saturating_sub(overlap);
        chunks.push(Chunk {
            start,
            end: logical_end,
            min_end: pos - start,
        });
        pos = logical_end;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_chunks_cover_everything_once() {
        for len in [0usize, 1, 10, 100, 1023] {
            for n in [1usize, 2, 3, 7] {
                for overlap in [0usize, 3, 9] {
                    let chunks = split_chunks(len, n, overlap);
                    if len == 0 {
                        assert!(chunks.is_empty());
                        continue;
                    }
                    // logical (reported) regions tile [0, len)
                    let mut covered = 0usize;
                    for c in &chunks {
                        assert_eq!(c.start + c.min_end, covered);
                        assert!(c.end <= len);
                        covered = c.end;
                    }
                    assert_eq!(covered, len);
                    // overlap prefix is at most `overlap` bytes
                    for c in &chunks {
                        assert!(c.min_end <= overlap);
                    }
                }
            }
        }
    }

    #[test]
    fn match_ordering() {
        let a = Match {
            offset: 1,
            pattern: 0,
        };
        let b = Match {
            offset: 2,
            pattern: 0,
        };
        assert!(a < b);
    }
}
